"""The output oracle, the judge's accounting, and the traced spans."""

import numpy as np
import pytest

import oracle
import spans
from run import Judge, STAGE_GAP_LIMIT


@pytest.fixture(scope="module")
def small_net():
    from repro.radixnet.registry import build_benchmark

    return build_benchmark("144-24")


@pytest.fixture(scope="module")
def small_input(small_net):
    from repro.radixnet.registry import benchmark_input

    return benchmark_input(small_net, 64, seed=5).astype(np.float32)


def test_csr_floor_agrees_with_dense_reference(small_net, small_input):
    dense = oracle.dense_forward(small_net, small_input)
    floor = oracle.CsrFeedForward(small_net)(small_input)
    assert floor.dtype == np.float32
    assert (oracle.sdgc_labels(floor) == oracle.sdgc_labels(dense)).all()
    assert np.allclose(floor, dense, atol=1e-4)


def test_dense_reference_matches_the_program_reference_engine(small_net, small_input):
    from repro.harness.runner import make_engine

    engine = make_engine("dense", small_net).infer(small_input)
    dense = oracle.dense_forward(small_net, small_input)
    assert (engine.categories == oracle.sdgc_labels(dense)).all()


class _LabelsBySign:
    """Stub workload: a column's label is whether its first row is positive."""

    def labels(self, env, y):
        return y[0] > 0


def test_judge_counts_label_mismatches_and_non_finite_columns():
    judge = Judge(_LabelsBySign(), env=None)
    reference = np.array([True, False, True, False])
    y = np.array([[1.0, 1.0, -1.0, -1.0], [0.0, 0.0, 0.0, np.nan]])
    judge.check(y, reference)
    # column 1 and 2 disagree; column 3 agrees on its label but is not finite
    assert judge.outcomes.completed_columns == 4
    assert judge.outcomes.mismatched_columns == 3


def test_judge_counts_a_wrongly_shaped_output_as_all_mismatched():
    judge = Judge(_LabelsBySign(), env=None)
    judge.check(np.ones((2, 3)), np.array([True, True, True, True]))
    assert judge.outcomes.mismatch_rate == 1.0


def test_traced_session_accounts_stages_and_restores_the_program(small_net, small_input):
    import repro.core.pipeline as pipeline
    import repro.core.plan as plan
    from repro.harness.experiments.common import sdgc_config
    from repro.serve import EngineSession

    originals = {
        (module, attr): getattr(module, attr)
        for module, attr in [(plan, "planned_spmm"), (pipeline, "update_compact"),
                             (pipeline, "convert"), (pipeline, "prune_samples")]
    }
    session = EngineSession(small_net, sdgc_config(small_net.num_layers))
    recorder = spans.Recorder()
    restore = spans.install(recorder, sessions=[session])
    try:
        session.run(small_input)
        session.run(small_input)
    finally:
        restore()
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn
    assert "run" not in vars(session)
    assert len(recorder.blocks) == 2
    block = recorder.blocks[-1]
    assert block.kernel_calls["spmm"] == small_net.num_layers
    # every layer's nonzeros times the columns it was handed: the full block
    # before the threshold layer, only the still-active columns after it
    nnz = [layer.weight.nnz for layer in small_net.layers]
    t = sdgc_config(small_net.num_layers).threshold_layer
    width = small_input.shape[1]
    assert sum(nnz[:t]) * width < block.spmm_madds <= sum(nnz) * width
    assert 0 < sum(block.kernel_seconds.values()) < block.wall
    gap = abs(sum(block.stage_seconds.values()) - block.wall) / block.wall
    assert gap < STAGE_GAP_LIMIT
    session.run(small_input)  # untraced again: no new spans
    assert len(recorder.blocks) == 2
