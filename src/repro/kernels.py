"""The shared "champion" spMM kernel with strategy selection.

XY-2021's contribution is an spMM *optimization space* searched with a cost
model.  For the Radix-Net workloads the space collapses to a simple but
effective choice per layer:

* when the activation block has many all-zero rows (dead neurons across the
  whole batch — the dominant regime deep in SDGC nets), use the
  column-masked kernel :func:`~repro.sparse.spmm.spmm_masked`, whose work
  scales with the *live* rows;
* otherwise use the ELLPACK kernel, the fastest dense-activation strategy
  for fixed fan-in;
* for dense-ish weights (density >= :data:`DENSE_WEIGHT_THRESHOLD`) use the
  column-independent stacked-GEMV kernel
  :func:`~repro.sparse.spmm.spmm_colwise` on the pinned dense view.

SNICIT §3.1/§3.3.1 states it adopts the champions' kernels for both its
pre-convergence and load-reduced spMM stages, so this module is used by the
XY-2021 baseline *and* by SNICIT — the comparison between them then isolates
exactly what the paper isolates: the value of compression at inference time,
not kernel differences.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.gpu.costmodel import KernelCharge
from repro.network import SparseNetwork
from repro.sparse.convert import preferred_spmm_format
from repro.sparse.spmm import spmm_colwise, spmm_ell, spmm_masked, spmm_reduceat

__all__ = [
    "champion_spmm",
    "planned_spmm",
    "baseline_spmm",
    "charge_for",
    "l0_nearest",
    "assign_cached_centroids",
    "assign_charge",
    "StrategyMemo",
    "LIVE_ROW_THRESHOLD",
    "DENSE_WEIGHT_THRESHOLD",
]

#: Above this live-row fraction, masking overhead outweighs the skipped work.
LIVE_ROW_THRESHOLD = 0.6

#: At or above this weight density the layer counts as "dense-ish"
#: (medium-scale 50-60 % layers, and the 32/144 = 0.22 fan-in of 144-neuron
#: SDGC nets) and runs the dense-weight stacked-GEMV kernel.
DENSE_WEIGHT_THRESHOLD = 0.2


class StrategyMemo:
    """Memoized champion choices per ``(network, layer, live-fraction bucket)``.

    A warm serving session sees the same layers with very similar activation
    liveness call after call, so the champion decision is stable within a
    coarse live-fraction bucket.  The memo records the first decision for
    each bucket and replays it afterwards — the hook SparseDNN-style
    pre-specialized engines use to stop re-deriving per-layer strategy.

    Entries are scoped by the owning network's
    :attr:`~repro.network.SparseNetwork.fingerprint`: a memo that is shared
    across sessions (or persisted and resumed against a different network)
    must never replay network A's champion for network B's same-index layer
    — layer 3 of a 1 %-dense SDGC net and layer 3 of a 55 %-dense medium
    net want opposite strategies.  Legacy callers that pass no network share
    a single ``None`` scope, preserving the old single-network behavior.

    With ``revise_ratio`` set the memo goes beyond replay-first-decision to
    *measure-and-revise* (XY-2021's ``explore='measure'`` idiom): every
    dispatch reports its wall time via :meth:`observe`, which keeps an EWMA
    per bucket against a baseline frozen after ``min_samples`` observations.
    When the EWMA drifts past ``baseline * revise_ratio`` the recorded
    choice is dropped, forcing the next call through the champion tournament
    again, and the cost record resets so the new champion earns a fresh
    baseline.  Revision only ever discards a *decision*; the format half of
    the decision is static per layer.  The strategies do not share one
    summation order (see :mod:`repro.sparse.spmm`), so a replayed or
    re-derived masked-vs-batch-parallel choice can move results within
    float32 rounding.  Cost records persist through
    :meth:`export_state`/:meth:`import_state` so a restored session resumes
    with the baselines it measured, not a blank slate.
    """

    def __init__(
        self,
        n_buckets: int = 16,
        revise_ratio: float | None = None,
        min_samples: int = 3,
        ewma_alpha: float = 0.25,
    ):
        if n_buckets < 1:
            raise ConfigError(f"n_buckets must be >= 1, got {n_buckets}")
        if revise_ratio is not None and revise_ratio <= 1.0:
            # a ratio at or below 1 would revise on any jitter and could
            # thrash forever; > 1 guarantees convergence under stable costs
            raise ConfigError(f"revise_ratio must be > 1, got {revise_ratio}")
        if min_samples < 1:
            raise ConfigError(f"min_samples must be >= 1, got {min_samples}")
        self.n_buckets = int(n_buckets)
        self.revise_ratio = None if revise_ratio is None else float(revise_ratio)
        self.min_samples = int(min_samples)
        self.ewma_alpha = float(ewma_alpha)
        self._choice: dict[tuple[str | None, int, int], str] = {}
        #: per-key ``[count, ewma_seconds, baseline_seconds]`` cost records
        self._cost: dict[tuple[str | None, int, int], list[float]] = {}
        self.hits = 0
        self.misses = 0
        self.revisions = 0
        self._hit_counter = None
        self._miss_counter = None
        self._revise_counter = None

    @staticmethod
    def _scope(network) -> str | None:
        """Memo scope for a network: its fingerprint (or a raw string key)."""
        if network is None:
            return None
        return getattr(network, "fingerprint", network)

    def bind_metrics(self, registry) -> "StrategyMemo":
        """Mirror hit/miss counts onto a :class:`~repro.obs.MetricsRegistry`.

        The memo binds once (e.g. at :class:`~repro.serve.EngineSession`
        construction); lookups then pay one extra ``inc`` instead of a
        registry lookup per layer.  An ``entries`` gauge is published at
        scrape time.
        """
        self._hit_counter = registry.counter(
            "memo_hits_total", help="strategy memo lookups served from cache"
        )
        self._miss_counter = registry.counter(
            "memo_misses_total", help="strategy memo lookups that re-derived"
        )
        self._revise_counter = registry.counter(
            "strategy_revised_total",
            help="memoized strategy choices dropped after cost drift",
        )
        gauge = registry.gauge(
            "memo_entries", help="distinct (network, layer, bucket) choices"
        )
        registry.on_collect(lambda _reg: gauge.set(len(self._choice)))
        return self

    def bucket(self, live_fraction: float) -> int:
        """Quantize a live fraction in [0, 1] to a bucket index."""
        return min(int(live_fraction * self.n_buckets), self.n_buckets - 1)

    def lookup(self, layer: int, live_fraction: float, network=None) -> str | None:
        key = (self._scope(network), layer, self.bucket(live_fraction))
        strategy = self._choice.get(key)
        if strategy is None:
            self.misses += 1
            if self._miss_counter is not None:
                self._miss_counter.inc()
        else:
            self.hits += 1
            if self._hit_counter is not None:
                self._hit_counter.inc()
        return strategy

    def record(
        self, layer: int, live_fraction: float, strategy: str, network=None
    ) -> None:
        key = (self._scope(network), layer, self.bucket(live_fraction))
        self._choice[key] = strategy

    def observe(
        self,
        layer: int,
        live_fraction: float,
        strategy: str,
        seconds: float,
        network=None,
    ) -> bool:
        """Feed one measured dispatch cost; returns True if it revised.

        The EWMA for the bucket updates on every observation; once
        ``min_samples`` have accumulated the current EWMA freezes as the
        bucket's baseline.  With :attr:`revise_ratio` enabled, an EWMA that
        drifts past ``baseline * revise_ratio`` drops the memoized choice
        (the next lookup misses and re-runs the champion tournament) and
        resets the record — so after any drift event, stable costs settle a
        new baseline and revisions stop.  ``strategy`` is accepted for
        symmetry with :meth:`record` and future per-strategy records; the
        cost key is the same ``(scope, layer, bucket)`` as the choice key.
        """
        del strategy  # cost records are keyed per bucket, not per strategy
        key = (self._scope(network), layer, self.bucket(live_fraction))
        rec = self._cost.get(key)
        if rec is None:
            rec = self._cost[key] = [0.0, 0.0, 0.0]
        count = int(rec[0]) + 1
        ewma = (
            float(seconds)
            if count == 1
            else (1.0 - self.ewma_alpha) * rec[1] + self.ewma_alpha * float(seconds)
        )
        baseline = ewma if count == self.min_samples else rec[2]
        rec[0], rec[1], rec[2] = float(count), ewma, baseline
        if (
            self.revise_ratio is not None
            and count > self.min_samples
            and baseline > 0.0
            and ewma > baseline * self.revise_ratio
        ):
            self._choice.pop(key, None)
            rec[0] = rec[1] = rec[2] = 0.0
            self.revisions += 1
            if self._revise_counter is not None:
                self._revise_counter.inc()
            return True
        return False

    # ------------------------------------------------------------ persistence
    def export_state(self) -> dict:
        """JSON-safe snapshot of choices and cost baselines (for warmstore)."""
        return {
            "n_buckets": self.n_buckets,
            "choices": [
                [scope, layer, bucket, strategy]
                for (scope, layer, bucket), strategy in sorted(
                    self._choice.items(), key=lambda kv: (kv[0][0] or "", kv[0][1:])
                )
            ],
            "costs": [
                [scope, layer, bucket, rec[0], rec[1], rec[2]]
                for (scope, layer, bucket), rec in sorted(
                    self._cost.items(), key=lambda kv: (kv[0][0] or "", kv[0][1:])
                )
            ],
        }

    def import_state(self, state: dict) -> None:
        """Restore an :meth:`export_state` snapshot into this memo.

        Bucket indices are only meaningful at the quantization they were
        recorded under, so a bucket-count mismatch is a configuration error,
        not something to silently rebucket.
        """
        n_buckets = int(state.get("n_buckets", self.n_buckets))
        if n_buckets != self.n_buckets:
            raise ConfigError(
                f"memo state has {n_buckets} buckets but this session uses "
                f"{self.n_buckets}"
            )
        for scope, layer, bucket, strategy in state.get("choices", []):
            self._choice[(scope, int(layer), int(bucket))] = str(strategy)
        for scope, layer, bucket, count, ewma, baseline in state.get("costs", []):
            self._cost[(scope, int(layer), int(bucket))] = [
                float(count),
                float(ewma),
                float(baseline),
            ]

    def __len__(self) -> int:
        return len(self._choice)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._choice),
            "hits": self.hits,
            "misses": self.misses,
            "revisions": self.revisions,
            "cost_entries": len(self._cost),
        }


def champion_spmm(
    net: SparseNetwork,
    i: int,
    y: np.ndarray,
    memo: StrategyMemo | None = None,
    out: np.ndarray | None = None,
    metrics=None,
) -> tuple[np.ndarray, int, str]:
    """Compute ``W(i) @ y`` with the best strategy for this block.

    Returns ``(z, work, strategy)``: ``work`` is the kernel's cost-model
    unit count — multiplied weight nonzeros for the batch-parallel kernels
    ('masked'/'ell', each unit costs a length-B FMA row), activation
    nonzeros for the column-wise kernel (each unit costs a length-N_out FMA
    column).

    ``memo`` replays a previously recorded strategy for this layer's
    live-fraction bucket instead of re-deriving it; ``out`` is an optional
    preallocated ``(n_out, B)`` result buffer (must not alias ``y``);
    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) counts each strategy
    decision under ``spmm_strategy_total{strategy=...}``.
    """
    layer = net.layers[i]
    dense_ish = layer.weight.density >= DENSE_WEIGHT_THRESHOLD
    live = None
    if dense_ish:
        # the colwise decision is static per layer (weight density alone),
        # so it memoizes under the full-liveness bucket without paying the
        # live-row scan — the memo is still consulted every call, keeping
        # warm-session hit counters honest on dense-ish networks
        frac = 1.0
    else:
        live = (y != 0).any(axis=1)
        frac = np.count_nonzero(live) / live.size if live.size else 0.0
    strategy = memo.lookup(i, frac, network=net) if memo is not None else None
    if strategy is None:
        if dense_ish:
            strategy = "colwise"
        elif frac < LIVE_ROW_THRESHOLD:
            strategy = "masked"
        else:
            # same format rule the baked plan uses, so a cold champion
            # engine and a warm planned session call the same kernel
            # (ELL and CSR row-split sum in different orders, so the
            # format choice changes bits, as the strategy choice does)
            strategy = preferred_spmm_format(layer.weight)
        if memo is not None:
            memo.record(i, frac, strategy, network=net)
    if metrics is not None:
        metrics.counter("spmm_strategy_total", strategy=strategy).inc()
    t0 = time.perf_counter() if memo is not None else 0.0
    if strategy == "colwise":
        z, work = spmm_colwise(net.dense(i), y, out=out)
    elif strategy == "masked":
        if live is None:  # memo replayed 'masked' from a dense-ish bucket
            live = (y != 0).any(axis=1)
        z, work = spmm_masked(layer.weight, y, live, out=out)
    elif strategy == "ell":
        z = spmm_ell(net.ell(i), y, out=out)
        work = layer.weight.nnz
    else:
        z = spmm_reduceat(layer.weight, y, out=out)
        work = layer.weight.nnz
    if memo is not None:
        # feed the measure-and-revise loop; with revise_ratio unset this
        # only accumulates the cost baselines the warmstore persists
        memo.observe(i, frac, strategy, time.perf_counter() - t0, network=net)
    return z, work, strategy


def planned_spmm(
    net: SparseNetwork,
    lp,
    y: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int, str, float]:
    """Compute ``W(i) @ y`` via a baked :class:`~repro.core.plan.LayerPlan`.

    The pre-specialized twin of :func:`champion_spmm`: the layer's strategy
    class and sparse format were decided once at warmup, so the per-block
    work is a field read (plus the unavoidable live-row scan for dynamic
    layers, whose masked-vs-batch-parallel choice genuinely depends on the
    activations).  It applies :func:`champion_spmm`'s rules (same strategy,
    same format), so without a memo the two call the same kernel on the
    same operands and return the same bits.  Returns
    ``(z, work, strategy, frac)``;
    the extra live-fraction element (vs :func:`champion_spmm`'s 3-tuple)
    lets :meth:`~repro.core.plan.StrategyPlan.dispatch` feed the
    measure-and-revise memo without paying a second live-row scan.
    """
    if lp.strategy == "colwise":
        z, nnz = spmm_colwise(net.dense(lp.index), y, out=out)
        return z, nnz, "colwise", 1.0
    layer = net.layers[lp.index]
    live = (y != 0).any(axis=1)
    frac = np.count_nonzero(live) / live.size if live.size else 0.0
    if frac < lp.live_threshold:
        z, active_nnz = spmm_masked(layer.weight, y, live, out=out)
        return z, active_nnz, "masked", frac
    if lp.format == "ell":
        z = spmm_ell(net.ell(lp.index), y, out=out)
        return z, layer.weight.nnz, "ell", frac
    z = spmm_reduceat(layer.weight, y, out=out)
    return z, layer.weight.nnz, "csr", frac


def baseline_spmm(net: SparseNetwork, i: int, y: np.ndarray) -> tuple[np.ndarray, int, str]:
    """The BF-2019 / SNIG-2020 kernel: plain per-topology strategy.

    ELL for the fixed-fan-in Radix-Net layers, the stacked-GEMV kernel for
    dense-ish (medium-scale) layers.  No live-row masking — that refinement
    belongs to XY's optimization space.
    """
    layer = net.layers[i]
    if layer.weight.density >= DENSE_WEIGHT_THRESHOLD:
        z, nnz = spmm_colwise(net.dense(i), y)
        return z, nnz, "colwise"
    z = spmm_ell(net.ell(i), y)
    return z, layer.weight.nnz, "ell"


#: Cap (elements) on the (N, chunk, C) inequality block built by l0_nearest;
#: keeps the distance scratch cache-resident while amortizing the Python
#: loop over usefully large column chunks.
_ASSIGN_ELEMENTS = 2_000_000


def l0_nearest(
    y: np.ndarray, cents: np.ndarray, chunk: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest column of ``cents`` for every column of ``y``, by L0 distance.

    The one distance primitive behind both in-block assignment (Algorithm 2,
    Eq. 3) and cross-block cached assignment: exact element inequality
    counts, ties to the lowest centroid index (argmin), chunked over batch
    columns so the ``(N, chunk, C)`` inequality scratch stays cache-sized.
    Chunking never changes the result — each column's distance row is
    computed independently.  Returns ``(idx, dist)`` arrays of length ``B``.
    """
    b = y.shape[1]
    n_cents = cents.shape[1]
    if chunk is None:
        chunk = max(1, _ASSIGN_ELEMENTS // max(1, y.shape[0] * n_cents))
    idx = np.empty(b, dtype=np.int64)
    dist = np.empty(b, dtype=np.int64)
    for lo in range(0, b, chunk):
        hi = min(b, lo + chunk)
        # (N, chunk, C) inequality count -> (chunk, C)
        d = (y[:, lo:hi, None] != cents[:, None, :]).sum(axis=0)
        best = d.argmin(axis=1)
        idx[lo:hi] = best
        dist[lo:hi] = d[np.arange(hi - lo), best]
    return idx, dist


def assign_cached_centroids(
    y: np.ndarray, cents: np.ndarray, chunk: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Batched closest-centroid assignment against *cached* centroids.

    The cross-block twin of Algorithm 2's distance loop: every column of
    ``y`` (``(N, B)``) is matched to its nearest column of ``cents``
    (``(N, C)``, a previous block's centroid activations) by exact L0
    distance (Eq. 3).  Ties resolve to the lowest centroid index, matching
    :func:`repro.core.conversion.assign_centroids`, so a block identical to
    the one that filled the cache reproduces its in-block assignment.

    Returns ``(assign, dist)``: per-column centroid positions into ``cents``
    and the L0 distances (element inequality counts) — the distances feed
    the :class:`~repro.core.reuse.CentroidCache` staleness policy.
    """
    if y.ndim != 2 or cents.ndim != 2:
        raise ShapeError("Y and centroids must be 2-D")
    if y.shape[0] != cents.shape[0]:
        raise ShapeError(
            f"Y has {y.shape[0]} rows but cached centroids have {cents.shape[0]}"
        )
    if cents.shape[1] == 0:
        raise ConfigError("need at least one cached centroid")
    return l0_nearest(y, cents, chunk=chunk)


def assign_charge(n: int, batch: int, n_centroids: int) -> KernelCharge:
    """Cost-model charge for one :func:`assign_cached_centroids` launch."""
    return KernelCharge(
        name="assign_cached_centroids",
        flops=float(n) * batch * n_centroids,
        bytes_read=float(n) * (batch + n_centroids) * 4,
        bytes_written=float(batch) * 16,
    )


def charge_for(strategy: str, work: int, n_out: int, batch: int, name: str) -> KernelCharge:
    """Cost-model charge for one champion/baseline kernel invocation."""
    if strategy == "colwise":
        return KernelCharge(
            name=name,
            flops=2.0 * work * n_out,
            bytes_read=float(work) * (n_out * 4 + 8),
            bytes_written=float(n_out) * batch * 4,
        )
    return KernelCharge(
        name=name,
        flops=2.0 * work * batch,
        bytes_read=float(work) * (batch * 4 + 12),
        bytes_written=float(n_out) * batch * 4,
    )
