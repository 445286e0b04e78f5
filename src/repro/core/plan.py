"""Warmup-time per-layer spMM strategy plans.

A warm :class:`~repro.serve.EngineSession` runs the same network block after
block, yet the per-block path re-derived each layer's kernel strategy through
:class:`~repro.kernels.StrategyMemo` lookups (hash + bucket per layer per
call) and re-resolved metric counters by label.  SparseDNN's code-generated
engines show the fix shape: decide everything that depends only on the
*network* once, at warmup, and leave only the activation-dependent part of
the decision in the hot path.

:func:`bake_plan` walks the network once and freezes, per layer:

* the **strategy class** — ``'colwise'`` for dense-ish layers (the decision
  depends only on weight density, so it is fully static), ``'dynamic'`` for
  sparse layers (masked-vs-batch-parallel still depends on the block's
  live-row fraction, so the plan keeps the threshold rule but nothing else);
* the **sparse format** backing the batch-parallel branch — ELL when the
  row fan-in is near-uniform, CSR when ELL padding would waste gather work
  (:func:`repro.sparse.convert.preferred_spmm_format`);
* the **pinned view** for that choice (dense or ELL), so the first hot block
  never pays a lazy conversion.

The plan applies the champion rules exactly — the same strategy and the
same format for every block — so a planned engine calls the same kernel on
the same operands as the champion engine and is bitwise identical to it
(tested).  That identity comes from making the same choice, not from the
kernels agreeing: the strategies differ in summation order (see
:mod:`repro.sparse.spmm`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.kernels import DENSE_WEIGHT_THRESHOLD, LIVE_ROW_THRESHOLD, planned_spmm
from repro.network import SparseNetwork
from repro.sparse.convert import preferred_spmm_format

__all__ = ["LayerPlan", "StrategyPlan", "bake_plan", "plan_layer"]


@dataclass(frozen=True)
class LayerPlan:
    """Frozen per-layer kernel decision.

    ``strategy`` is ``'colwise'`` (static, activation-independent) or
    ``'dynamic'`` (live-fraction rule evaluated per block against
    ``live_threshold``).  ``format`` names the storage backing the
    batch-parallel branch: ``'dense'`` for colwise, ``'ell'`` or ``'csr'``
    for dynamic layers.
    """

    index: int
    strategy: str
    format: str
    live_threshold: float = LIVE_ROW_THRESHOLD


class StrategyPlan:
    """A baked per-layer plan plus pre-resolved observability handles.

    The hot path calls :meth:`dispatch`, which is a tuple index into
    :attr:`layers` followed by the kernel call — no memo hashing, no
    density re-check, no counter-label resolution.
    """

    __slots__ = (
        "network_fingerprint",
        "layers",
        "baked_seconds",
        "calls",
        "revisions",
        "_counters",
        "_memo",
    )

    def __init__(
        self,
        network_fingerprint: str,
        layers: tuple[LayerPlan, ...],
        baked_seconds: float = 0.0,
    ):
        self.network_fingerprint = network_fingerprint
        self.layers = tuple(layers)
        self.baked_seconds = float(baked_seconds)
        self.calls = 0
        self.revisions = 0
        self._counters: dict[str, object] = {}
        self._memo = None

    def bind_metrics(self, registry) -> "StrategyPlan":
        """Pre-resolve the ``spmm_strategy_total`` counters once.

        The planned path then pays one ``inc`` per layer instead of a
        labelled registry lookup — the same counters the champion path
        increments, so dashboards see no difference between a planned and an
        unplanned engine.
        """
        for strategy in ("colwise", "masked", "ell", "csr"):
            self._counters[strategy] = registry.counter(
                "spmm_strategy_total", strategy=strategy
            )
        return self

    def enable_revision(self, memo) -> "StrategyPlan":
        """Attach a measure-and-revise :class:`~repro.kernels.StrategyMemo`.

        Every :meth:`dispatch` then reports its wall time to the memo; when
        the memo signals cost drift for a layer's bucket, the layer's plan is
        re-derived from the same static champion rules :func:`bake_plan`
        used (re-pinning its view), and :attr:`revisions` counts the event.
        Re-derivation is deterministic in the network alone, so a revision
        lands on the decision the bake made and never changes outputs — the
        bitwise guarantee survives the autotune loop.
        """
        self._memo = memo
        return self

    def dispatch(self, net: SparseNetwork, i: int, y, out=None):
        """``W(i) @ y`` via the baked decision; mirrors ``champion_spmm``."""
        self.calls += 1
        memo = self._memo
        if memo is None:
            z, work, strategy, _ = planned_spmm(net, self.layers[i], y, out=out)
        else:
            t0 = time.perf_counter()
            z, work, strategy, frac = planned_spmm(net, self.layers[i], y, out=out)
            if memo.observe(
                i, frac, strategy, time.perf_counter() - t0, network=net
            ):
                revised = plan_layer(net, i, self.layers[i].live_threshold)
                self.layers = self.layers[:i] + (revised,) + self.layers[i + 1:]
                self.revisions += 1
        counter = self._counters.get(strategy)
        if counter is not None:
            counter.inc()
        return z, work, strategy

    def stats(self) -> dict:
        """JSON-safe summary for session stats / bench records."""
        strategies: dict[str, int] = {}
        for lp in self.layers:
            key = lp.strategy if lp.strategy == "colwise" else f"dynamic/{lp.format}"
            strategies[key] = strategies.get(key, 0) + 1
        return {
            "layers": len(self.layers),
            "calls": self.calls,
            "baked_seconds": self.baked_seconds,
            "revisions": self.revisions,
            "strategies": strategies,
        }

    # ------------------------------------------------------------ persistence
    def to_state(self) -> dict:
        """JSON-safe layer table (for the warmstore header)."""
        return {
            "network_fingerprint": self.network_fingerprint,
            "baked_seconds": self.baked_seconds,
            "layers": [
                [lp.index, lp.strategy, lp.format, lp.live_threshold]
                for lp in self.layers
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "StrategyPlan":
        """Rebuild a plan from :meth:`to_state` (views re-pinned by caller)."""
        layers = tuple(
            LayerPlan(int(index), str(strategy), str(fmt), float(thr))
            for index, strategy, fmt, thr in state["layers"]
        )
        return cls(
            state["network_fingerprint"],
            layers,
            baked_seconds=float(state.get("baked_seconds", 0.0)),
        )


def plan_layer(
    net: SparseNetwork, i: int, live_threshold: float = LIVE_ROW_THRESHOLD
) -> LayerPlan:
    """Derive (and pin the view for) one layer's champion decision.

    The single source of truth for the static half of the champion rules:
    :func:`bake_plan` calls it per layer at warmup, and
    :meth:`StrategyPlan.dispatch` calls it again when the measure-and-revise
    memo reports cost drift.  Deterministic in the network alone, so a
    re-derivation after drift lands on a decision the original bake could
    have made — never on new numerics.
    """
    if net.layers[i].weight.density >= DENSE_WEIGHT_THRESHOLD:
        net.dense(i)  # pin
        return LayerPlan(i, "colwise", "dense", live_threshold)
    fmt = preferred_spmm_format(net.layers[i].weight)
    if fmt == "ell":
        net.ell(i)  # pin
    return LayerPlan(i, "dynamic", fmt, live_threshold)


def bake_plan(
    net: SparseNetwork,
    live_threshold: float = LIVE_ROW_THRESHOLD,
    metrics=None,
) -> StrategyPlan:
    """Derive and freeze every layer's kernel decision, pinning its view.

    Baking pins exactly the views the plan will use (``net.dense(i)`` for
    colwise layers, ``net.ell(i)`` for ELL-format dynamic layers; CSR-format
    layers run straight off the weights) so the first warm block pays no
    lazy conversions.  Mirrors the champion rules, so a planned engine makes
    the same strategy choices the memoized champion would — the plan just
    stops re-deriving them per block.
    """
    if not 0.0 <= live_threshold <= 1.0:
        raise ConfigError(f"live_threshold must be in [0, 1], got {live_threshold}")
    t0 = time.perf_counter()
    layers = [plan_layer(net, i, live_threshold) for i in range(len(net.layers))]
    plan = StrategyPlan(
        getattr(net, "fingerprint", net.name),
        tuple(layers),
        baked_seconds=time.perf_counter() - t0,
    )
    if metrics is not None:
        plan.bind_metrics(metrics)
    return plan
