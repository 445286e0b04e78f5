"""spMM kernel family: correctness against dense reference, work metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.sparse import CSRMatrix, ELLMatrix
from repro.sparse.spmm import (
    spmm,
    spmm_charge,
    spmm_colwise,
    spmm_ell,
    spmm_masked,
    spmm_reduceat,
    spmm_scatter,
)


def make_operands(rng, n_out=12, n_in=10, b=7, w_density=0.3, y_density=0.6):
    w = rng.random((n_out, n_in))
    w[w > w_density] = 0.0
    y = rng.random((n_in, b)).astype(np.float32)
    y[y > y_density] = 0.0
    return w, CSRMatrix.from_dense(w), y


def test_reduceat_matches_dense(rng):
    w, w_csr, y = make_operands(rng)
    assert np.allclose(spmm_reduceat(w_csr, y), w @ y, atol=1e-5)


def test_reduceat_empty_rows_are_zero(rng):
    w = np.zeros((4, 3))
    w[2, 1] = 2.0
    y = rng.random((3, 5)).astype(np.float32)
    out = spmm_reduceat(CSRMatrix.from_dense(w), y)
    assert (out[[0, 1, 3]] == 0).all()
    assert np.allclose(out[2], 2.0 * y[1])


def test_reduceat_chunking_consistent(rng, monkeypatch):
    import importlib

    m = importlib.import_module("repro.sparse.spmm")
    w, w_csr, y = make_operands(rng, n_out=50, n_in=40, b=9)
    full = spmm_reduceat(w_csr, y)
    monkeypatch.setattr(m, "_SCRATCH_ELEMENTS", 64)  # force many tiny chunks
    chunked = spmm_reduceat(w_csr, y)
    assert np.array_equal(full, chunked)


def test_reduceat_chunking_bounded_under_skew(rng, monkeypatch):
    """Chunks are sized by actual nonzero spans, not mean nnz/row: a skewed
    row distribution must never allocate scratch beyond the budget (one
    irreducibly-wide row excepted)."""
    import importlib

    m = importlib.import_module("repro.sparse.spmm")
    n_out, n_in, b = 40, 200, 5
    w = np.zeros((n_out, n_in))
    w[0, :] = 1.0  # one row holds half of all nonzeros
    w[1:, :5] = rng.random((n_out - 1, 5))
    w_csr = CSRMatrix.from_dense(w)
    full = spmm_reduceat(w_csr, y := rng.random((n_in, b)).astype(np.float32))

    budget = 400  # nnz budget = 400 // 5 = 80 < the 200-wide row
    seen: list[int] = []
    real_segment_sum = m._segment_sum

    def spy(values, indptr, n_segments):
        seen.append(values.shape[0] * values.shape[1])
        return real_segment_sum(values, indptr, n_segments)

    monkeypatch.setattr(m, "_SCRATCH_ELEMENTS", budget)
    monkeypatch.setattr(m, "_segment_sum", spy)
    chunked = spmm_reduceat(w_csr, y)
    assert np.array_equal(full, chunked)
    widest_row = int(np.diff(w_csr.indptr).max()) * b
    assert max(seen) <= max(budget, widest_row)
    # the skewed row ran alone; every other chunk stayed within budget
    assert sum(1 for s in seen if s > budget) <= 1


def test_ell_matches_dense(rng):
    w, w_csr, y = make_operands(rng)
    assert np.allclose(spmm_ell(ELLMatrix.from_csr(w_csr), y), w @ y, atol=1e-5)


def test_scatter_matches_dense(rng):
    w, w_csr, y = make_operands(rng)
    assert np.allclose(spmm_scatter(w_csr, y), w @ y, atol=1e-5)


def test_masked_full_mask_equals_reduceat(rng):
    w, w_csr, y = make_operands(rng)
    out, nnz = spmm_masked(w_csr, y, np.ones(w.shape[1], dtype=bool))
    assert np.array_equal(out, spmm_reduceat(w_csr, y))
    assert nnz == w_csr.nnz


def test_masked_skips_dead_rows_exactly(rng):
    w, w_csr, y = make_operands(rng)
    y[[1, 3], :] = 0.0  # kill input rows 1 and 3
    live = (y != 0).any(axis=1)
    out, active = spmm_masked(w_csr, y, live)
    assert np.allclose(out, w @ y, atol=1e-5)
    assert active == int(live[w_csr.indices].sum())
    assert active < w_csr.nnz


def test_masked_empty_mask_returns_zero(rng):
    w, w_csr, y = make_operands(rng)
    out, active = spmm_masked(w_csr, y, np.zeros(w.shape[1], dtype=bool))
    assert (out == 0).all()
    assert active == 0


def test_masked_bad_mask_shape(rng):
    _, w_csr, y = make_operands(rng)
    with pytest.raises(ShapeError):
        spmm_masked(w_csr, y, np.ones(3, dtype=bool))


def test_colwise_matches_dense(rng):
    w, _, y = make_operands(rng, w_density=1.0)
    out, nnz = spmm_colwise(w, y)
    assert np.allclose(out, w @ y, atol=1e-5)
    assert nnz == int((y != 0).sum())


def test_colwise_empty_y(rng):
    w, _, y = make_operands(rng)
    out, nnz = spmm_colwise(w, np.zeros_like(y))
    assert nnz == 0 and (out == 0).all()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_out=st.integers(1, 160),
    n_in=st.integers(1, 160),
    b=st.integers(1, 64),
    w_density=st.floats(0.05, 1.0),
    data=st.data(),
)
def test_colwise_is_column_independent_property(seed, n_out, n_in, b, w_density, data):
    """Column ``j`` of the stacked-GEMV kernel is bitwise the same alone as
    inside a block of any width, and equals ``W @ Y`` to float32 rounding."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n_out, n_in)).astype(np.float32)
    w[rng.random((n_out, n_in)) > w_density] = 0.0
    y = rng.random((n_in, b)).astype(np.float32)
    y[rng.random((n_in, b)) < 0.5] = 0.0
    block, _ = spmm_colwise(w, y)
    j = data.draw(st.integers(0, b - 1), label="column")
    solo, _ = spmm_colwise(w, np.ascontiguousarray(y[:, j : j + 1]))
    assert np.array_equal(solo[:, 0], block[:, j])
    assert np.allclose(block, w @ y, rtol=1e-5, atol=1e-4)


def test_colwise_out_buffer(rng):
    w, _, y = make_operands(rng, w_density=1.0)
    out = np.full((w.shape[0], y.shape[1]), 7.0, dtype=np.float32)
    result, _ = spmm_colwise(w, y, out=out)
    assert result is out
    assert np.allclose(out, w @ y, atol=1e-5)


def test_ell_equals_sequential_accumulation(rng):
    """ELL adds each output element in ascending column order of W's
    nonzeros, one float32 add at a time — so it is also column-independent."""
    n = 96
    w = rng.standard_normal((n, n)).astype(np.float32)
    w[rng.random((n, n)) > 0.25] = 0.0
    y = rng.random((n, 16)).astype(np.float32)
    y[rng.random((n, 16)) < 0.5] = 0.0
    seq = np.zeros((n, y.shape[1]), dtype=np.float32)
    for r in range(n):
        for c in np.flatnonzero(w[r]):
            seq[r] = seq[r] + w[r, c] * y[c]
    w_ell = ELLMatrix.from_csr(CSRMatrix.from_dense(w))
    block = spmm_ell(w_ell, y)
    assert np.array_equal(block, seq)
    for j in (0, 7, 15):
        solo = spmm_ell(w_ell, np.ascontiguousarray(y[:, j : j + 1]))
        assert np.array_equal(solo[:, 0], block[:, j])


def test_colwise_work_scales_with_activation_nnz(rng):
    w, _, y = make_operands(rng, w_density=1.0)
    _, nnz_full = spmm_colwise(w, y)
    y_sparser = y.copy()
    y_sparser[:, ::2] = 0
    _, nnz_half = spmm_colwise(w, y_sparser)
    assert nnz_half < nnz_full


def test_dispatcher_strategies_agree(rng):
    w, w_csr, y = make_operands(rng)
    base = spmm(w_csr, y, method="reduceat")
    for method in ("ell", "scatter", "auto"):
        assert np.allclose(spmm(w_csr, y, method=method), base, atol=1e-5)
    ell = ELLMatrix.from_csr(w_csr)
    assert np.allclose(spmm(ell, y, method="auto"), base, atol=1e-5)
    assert np.allclose(spmm(ell, y, method="reduceat"), base, atol=1e-5)


def test_dispatcher_unknown_method(rng):
    _, w_csr, y = make_operands(rng)
    with pytest.raises(ValueError):
        spmm(w_csr, y, method="quantum")


def test_shape_validation(rng):
    _, w_csr, y = make_operands(rng)
    with pytest.raises(ShapeError):
        spmm_reduceat(w_csr, y[:3])
    with pytest.raises(ShapeError):
        spmm_reduceat(w_csr, y[:, 0])


def test_spmm_charge_fields():
    c = spmm_charge(nnz=100, batch=50, n_out=20)
    assert c.flops == 2 * 100 * 50
    assert c.bytes_written == 20 * 50 * 4
    assert c.bytes_read > 0


def test_out_buffer_reuse(rng):
    w, w_csr, y = make_operands(rng)
    out = np.full((w.shape[0], y.shape[1]), 7.0, dtype=np.float32)
    result = spmm_reduceat(w_csr, y, out=out)
    assert result is out
    assert np.allclose(out, w @ y, atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_out=st.integers(1, 15),
    n_in=st.integers(1, 15),
    b=st.integers(1, 8),
    w_density=st.floats(0.0, 1.0),
)
def test_all_kernels_match_dense_property(seed, n_out, n_in, b, w_density):
    rng = np.random.default_rng(seed)
    w = rng.random((n_out, n_in))
    w[w > w_density] = 0.0
    y = rng.random((n_in, b)).astype(np.float32)
    y[y > 0.7] = 0.0
    w_csr = CSRMatrix.from_dense(w)
    expected = w @ y
    assert np.allclose(spmm_reduceat(w_csr, y), expected, atol=1e-5)
    assert np.allclose(spmm_ell(ELLMatrix.from_csr(w_csr), y), expected, atol=1e-5)
    assert np.allclose(spmm_scatter(w_csr, y), expected, atol=1e-5)
    live = (y != 0).any(axis=1)
    out, _ = spmm_masked(w_csr, y, live)
    assert np.allclose(out, expected, atol=1e-5)
    outc, _ = spmm_colwise(w, y)
    assert np.allclose(outc, expected, atol=1e-5)


def test_tiled_matches_reduceat_exactly(rng):
    from repro.sparse.spmm import spmm_tiled

    w, w_csr, y = make_operands(rng, n_out=20, n_in=15, b=33)
    full = spmm_reduceat(w_csr, y)
    for tile in (1, 7, 32, 1000):
        assert np.array_equal(spmm_tiled(w_csr, y, tile_cols=tile), full)


def test_tiled_validation(rng):
    from repro.sparse.spmm import spmm_tiled

    _, w_csr, y = make_operands(rng)
    with pytest.raises(ShapeError):
        spmm_tiled(w_csr, y, tile_cols=0)
