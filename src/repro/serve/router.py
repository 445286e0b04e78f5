"""The serving core: a model registry, two routers, and a memory budget.

One serving process, one or many warm networks.  Single-model serving is
the one-tenant case of the same routers, so there is exactly one request
path.  Three pieces compose the story:

* :class:`ModelRegistry` owns named :class:`~repro.serve.session.
  EngineSession`\\ s — ``register``/``evict`` by name, lazy or eager warmup —
  all publishing into **one** :class:`~repro.obs.MetricsRegistry` through
  per-tenant ``{model="..."}`` labeled views, so a single scrape separates
  tenants instead of conflating them;
* :class:`Router` / :class:`AsyncRouter` front the registry with one
  :class:`~repro.serve.batcher.MicroBatcher` per lane and route
  ``submit(model, y0, stream=...)`` by name.  A lane is keyed by
  ``(model, stream)``: requests from different tenants — or from different
  *streams* of the same tenant — are never packed into one block, so
  isolation is structural, not statistical, and each stream's outputs are
  bitwise identical to a single-stream run of the same request sequence.
  Stream lanes are what lets the multi-process fleet
  (:mod:`repro.serve.fleet`) shard replicated tenants across workers
  without perturbing outputs: a stream's packing depends only on its own
  request order, never on which process serves it or what its neighbors
  do.  :class:`Router` is the synchronous bounded-queue loop: a caller
  submits, full blocks flush inline, and the caller drives the max-wait
  deadline through :meth:`Router.step`.  :class:`AsyncRouter` is the
  threaded transport — producers enqueue from any thread, **one worker
  drains all tenants** while new arrivals accumulate — with per-tenant
  intake bounds, so one tenant's burst rejects (or blocks) only its own
  lane.  Both return one :class:`RouterReport` holding a
  :class:`ServeReport` per tenant;
* a :class:`~repro.gpu.memory.MemoryBudget` meters retained bytes across
  every tenant's warm state (scratch pool, pinned weight views, cached
  centroids).  When the sum exceeds the budget the registry demotes the
  least-recently-served sessions warm-to-cold
  (:meth:`~repro.serve.session.EngineSession.demote`) until it fits.
  Demotion drops only rebuildable state — pool contents are unspecified by
  contract, weight views rebuild bitwise identically from CSR, and a cold
  centroid cache merely re-pays one conversion — so eviction is a
  performance event, never a correctness one, and a demoted session keeps
  serving (re-warming lazily).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, ServeClosedError, ServeOverflowError
from repro.gpu.memory import MemoryBudget
from repro.obs import MetricsRegistry
from repro.obs.export import json_safe
from repro.obs.slo import SloPolicy, SloTracker
from repro.serve.batcher import AsyncTicket, MicroBatcher, Ticket
from repro.serve.qos import AdmissionController, DeficitScheduler, QosPolicy
from repro.serve.session import EngineSession

__all__ = [
    "ModelRegistry",
    "Router",
    "AsyncRouter",
    "RouterReport",
    "ServeReport",
    "BACKPRESSURE_POLICIES",
]

#: Lane service policies: ``'qos'`` is class-priority + deficit-weighted
#: round robin with admission control; ``'fifo'`` is the legacy
#: registration-order service with no admission (the A/B control arm).
SCHEDULER_POLICIES = ("qos", "fifo")

#: what :meth:`AsyncRouter.submit` does on a full intake lane
BACKPRESSURE_POLICIES = ("reject", "block")


def _unpack_request(item):
    """``(model, y0)`` or ``(model, stream, y0)`` -> ``(model, stream, y0)``."""
    if len(item) == 3:
        return item[0], item[1], item[2]
    model, y0 = item
    return model, None, y0


def _check_name(kind: str, name: str) -> str:
    """Reject ``@`` in model/stream names.

    Lane labels are ``model@stream`` and merged fleet SLO keys are
    ``model@worker`` — plain concatenation, so a tenant literally named
    ``"a@b"`` would alias another lane's stats and SLO block.  Refusing the
    character at register/submit time makes the collision impossible
    instead of merely unlikely.
    """
    if "@" in name:
        raise ConfigError(
            f"{kind} name {name!r} must not contain '@': it is the separator "
            f"in lane labels (model@stream) and fleet SLO keys (model@worker)"
        )
    return name


def _lane_label(model: str, stream: str | None) -> str:
    """Stable display key for a lane in stats dicts."""
    return model if stream is None else f"{model}@{stream}"


def _request_columns(y0) -> int:
    """Column count of a raw request, before full validation."""
    arr = np.asarray(y0)
    return int(arr.shape[1]) if arr.ndim >= 2 else 1


def _sleep_gap(gaps) -> float:
    """Sleep the next open-loop interarrival gap; returns its length."""
    gap = float(next(gaps, 0.0))
    if gap > 0:
        time.sleep(gap)
    return gap


def _finish_report(router, report, t0: float, exec_before: dict, demotions_before: int):
    """Stamp wall time, per-tenant exec seconds, demotions and SLO on a report."""
    report.wall_seconds = time.perf_counter() - t0
    for model, per in report.per_model.items():
        per.wall_seconds = report.wall_seconds
        per.exec_seconds = router._exec.get(model, 0.0) - exec_before.get(model, 0.0)
    report.demoted = router.registry.demotions[demotions_before:]
    report.slo = router.registry.slo_report_json() or None


class ModelRegistry:
    """Named warm sessions behind one metrics registry and one byte budget.

    Parameters
    ----------
    metrics:
        The shared :class:`~repro.obs.MetricsRegistry` every tenant
        publishes into (labeled per model); private one by default.
    memory_budget_bytes:
        Retained-bytes ceiling across *all* tenants' warm state; ``None``
        meters without ever evicting.  Enforcement is LRU: the router calls
        :meth:`enforce` after serving activity, and the registry demotes
        least-recently-served sessions until the ledger fits.
    clock:
        Recency source for the LRU order (monotonic by default).
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        memory_budget_bytes: int | None = None,
        clock=time.monotonic,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.budget = MemoryBudget(memory_budget_bytes).bind_metrics(self.metrics)
        self.clock = clock
        self._sessions: dict[str, EngineSession] = {}
        self._last_served: dict[str, float] = {}
        self._slo: dict[str, SloTracker] = {}
        self._qos: dict[str, QosPolicy] = {}
        #: model names demoted by budget enforcement, in eviction order
        self.demotions: list[str] = []

    # ------------------------------------------------------------ lifecycle
    def register(
        self,
        name: str,
        network=None,
        *,
        config=None,
        kind: str = "snicit",
        warm: bool = False,
        warm_state: str | None = None,
        session: EngineSession | None = None,
        slo: SloPolicy | str | None = None,
        qos: QosPolicy | str | None = None,
        **session_kwargs,
    ) -> EngineSession:
        """Add a named tenant; returns its session.

        Either pass a ``network`` (+ engine options) to build an
        :class:`~repro.serve.session.EngineSession` here — on the shared
        metrics registry, labeled ``model=name`` — or hand in a prebuilt
        ``session``.  ``warm=False`` registers cold (views build lazily on
        first use); ``warm=True`` pins them eagerly.  ``warm_state`` names a
        :mod:`repro.core.warmstore` artifact to boot from instead of baking:
        the session is built cold, then
        :meth:`~repro.serve.session.EngineSession.load_warm_state` restores
        views, plan, memo baselines, and cache fills (fingerprint-checked) —
        the path fleets use so every worker, including crash-restarted
        incarnations, skips warmup.  Duplicate names are a
        :class:`~repro.errors.ConfigError` — a name means one tenant.

        ``slo`` attaches a per-tenant service-level objective — an
        :class:`~repro.obs.slo.SloPolicy` or a compact spec string like
        ``'p99<50ms@60s/99%'`` — whose tracker the routers feed with every
        resolved request (see :meth:`set_slo`).

        ``qos`` declares the tenant's service class, DWRR weight, and
        optional column-rate limit — a :class:`~repro.serve.qos.QosPolicy`
        or a compact spec like ``'batch:w=2,rate=256'``.  Unset tenants
        default to interactive weight 1, which reproduces pre-QoS service
        exactly when every tenant is unset.
        """
        _check_name("model", name)
        if name in self._sessions:
            raise ConfigError(f"model {name!r} is already registered")
        if session is None:
            if network is None:
                raise ConfigError(f"model {name!r} needs a network or a session")
            session = EngineSession(
                network,
                config,
                kind=kind,
                warm=warm and warm_state is None,
                metrics=self.metrics,
                name=name,
                **session_kwargs,
            )
            if warm_state is not None:
                session.load_warm_state(warm_state)
        elif warm_state is not None:
            session.load_warm_state(warm_state)
        self._sessions[name] = session
        self._last_served[name] = self.clock()
        policy = QosPolicy.parse(qos)
        self._qos[name] = policy
        scoped = self.metrics.labeled(model=name)
        scoped.gauge(
            "qos_priority_rank",
            help="tenant service class rank (0=interactive, 1=batch)",
        ).set(policy.rank)
        scoped.gauge(
            "qos_weight", help="tenant deficit-round-robin weight"
        ).set(policy.weight)
        if slo is not None:
            self.set_slo(name, slo)
        # an eagerly-warmed tenant can push the ledger over budget the
        # moment it registers; enforce right away (protecting the newcomer)
        # so the highwater gauge only ever records post-enforcement state
        self.enforce(protect=(name,))
        return session

    def evict(self, name: str) -> EngineSession:
        """Remove a tenant entirely (its account leaves the ledger too)."""
        session = self.get(name)
        del self._sessions[name]
        del self._last_served[name]
        self._slo.pop(name, None)
        self._qos.pop(name, None)
        self.budget.drop(name)
        self.budget.publish()
        return session

    def get(self, name: str) -> EngineSession:
        try:
            return self._sessions[name]
        except KeyError:
            raise ConfigError(
                f"unknown model {name!r}; registered: {sorted(self._sessions)}"
            ) from None

    def names(self) -> list[str]:
        return list(self._sessions)

    # ------------------------------------------------------------------ SLO
    def set_slo(self, name: str, policy: SloPolicy | str) -> SloTracker:
        """Attach (or replace) a tenant's SLO policy; returns its tracker.

        The tracker publishes through the shared registry's per-tenant view
        (``slo_latency_seconds{model=name, quantile=...}`` etc.), and the
        routers feed it every resolved request for that tenant.  A spec
        string like ``'p99<50ms@60s/99%'`` is parsed via
        :meth:`~repro.obs.slo.SloPolicy.parse`.
        """
        self.get(name)  # unknown tenants fail loudly
        if isinstance(policy, str):
            policy = SloPolicy.parse(policy)
        tracker = SloTracker(
            policy, metrics=self.metrics.labeled(model=name), name=name
        )
        self._slo[name] = tracker
        return tracker

    def slo_tracker(self, name: str) -> SloTracker | None:
        """The tenant's tracker, or ``None`` when it has no SLO policy."""
        return self._slo.get(name)

    def slo_report(self) -> dict:
        """Live :class:`~repro.obs.slo.SloReport` per policied tenant."""
        return {name: tracker.report() for name, tracker in self._slo.items()}

    def slo_report_json(self) -> dict:
        """JSON-safe ``/slo`` payload: one report block per policied tenant."""
        return {
            name: report.to_json() for name, report in self.slo_report().items()
        }

    # ------------------------------------------------------------------ QoS
    def qos_policy(self, name: str) -> QosPolicy:
        """The tenant's QoS policy (default interactive weight 1 if unset)."""
        return self._qos.get(name) or QosPolicy()

    def max_interactive_burn(self) -> float | None:
        """Worst live SLO burn across interactive tenants (admission signal).

        ``None`` when no interactive tenant carries an SLO policy.  Reads
        the trackers' last evaluated burn instead of re-reading windows, so
        polling it on every submit is cheap.
        """
        burns = [
            tracker.last_burn
            for name, tracker in self._slo.items()
            if self.qos_policy(name).rank == 0
        ]
        return max(burns) if burns else None

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    # --------------------------------------------------------------- budget
    def touch(self, name: str) -> None:
        """Mark a tenant as just-served (moves it to the LRU tail)."""
        self._last_served[name] = self.clock()

    def refresh_accounts(self) -> int:
        """Re-read every session's retained footprint into the ledger."""
        for name, session in self._sessions.items():
            self.budget.update(name, session.retained_nbytes())
        return self.budget.retained_bytes

    def enforce(self, protect=()) -> list[str]:
        """Demote sessions until the ledger fits: batch class first, then LRU.

        ``protect`` names tenants exempt this round (typically the one that
        just served — demoting it would immediately re-warm).  Returns the
        names demoted in eviction order.  Candidates sort batch-class
        tenants ahead of interactive ones — shedding a bulk tenant's warm
        state is always preferred over evicting an interactive tenant's —
        and least-recently-served first within a class (pure LRU when every
        tenant shares a class).  The high-water gauge is published *after*
        enforcement, so a run that stays within budget certifies it via
        ``memory_budget_highwater_bytes <= memory_budget_limit_bytes``.
        """
        self.refresh_accounts()
        demoted: list[str] = []
        if self.budget.over_budget:
            candidates = sorted(
                (
                    name
                    for name, session in self._sessions.items()
                    if name not in protect and session.retained_nbytes() > 0
                ),
                key=lambda name: (
                    -self.qos_policy(name).rank,
                    self._last_served[name],
                ),
            )
            for name in candidates:
                if not self.budget.over_budget:
                    break
                session = self._sessions[name]
                session.demote()
                self.budget.update(name, session.retained_nbytes())
                self.budget.record_eviction()
                self.metrics.counter(
                    "memory_budget_demotions_total",
                    help="warm-to-cold demotions, per tenant",
                    model=name,
                ).inc()
                demoted.append(name)
                self.demotions.append(name)
        self.budget.publish()
        return demoted

    def stats(self) -> dict:
        out = {
            "models": {name: s.stats() for name, s in self._sessions.items()},
            "budget": self.budget.stats(),
            "demotions": list(self.demotions),
        }
        if self._qos:
            out["qos_policies"] = {
                name: policy.to_json() for name, policy in self._qos.items()
            }
        if self._slo:
            out["slo"] = self.slo_report_json()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelRegistry(models={sorted(self._sessions)}, "
            f"retained={self.budget.retained_bytes})"
        )


@dataclass
class ServeReport:
    """One tenant's outcome of one request stream through a router.

    ``exec_seconds`` is the time the router spent packing and executing this
    tenant's blocks, ``arrival_seconds`` the interarrival sleep injected
    before its requests.  ``overlap_fraction`` near 1.0 means the engine was
    busy with this tenant for the whole stream; under the async router
    that means arrivals were hidden behind execution, under the sync router
    it is plain busy time, since a synchronous loop cannot overlap them.
    """

    served: list = field(default_factory=list)
    #: (stream index, error message) per rejected request — never silent
    rejected: list[tuple[int, str]] = field(default_factory=list)
    #: (stream index, error message) per accepted-then-failed request
    failed: list[tuple[int, str]] = field(default_factory=list)
    wall_seconds: float = 0.0
    exec_seconds: float = 0.0
    arrival_seconds: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.served) + len(self.rejected) + len(self.failed)

    @property
    def columns(self) -> int:
        return sum(t.columns for t in self.served)

    @property
    def requests_per_second(self) -> float:
        return len(self.served) / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def columns_per_second(self) -> float:
        return self.columns / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def overlap_fraction(self) -> float:
        return self.exec_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def status(self) -> str:
        """``'ok'``, ``'all_rejected'``, ``'all_failed'`` or ``'no_traffic'``.

        A zero ``requests_per_second`` is ambiguous on its own: an idle
        stream and a stream shed entirely by backpressure both report 0.0.
        The status names which one happened, so dashboards and tests can
        tell "nothing arrived" from "everything was turned away".
        """
        if self.requests == 0:
            return "no_traffic"
        if not self.served:
            return "all_rejected" if not self.failed else "all_failed"
        return "ok"

    def latency_quantiles(self, qs=(0.5, 0.95, 0.99, 1.0)) -> dict[str, float] | None:
        """Latency quantiles of served requests; ``None`` when none served
        (an all-rejected or idle stream has no latencies, not zero ones)."""
        if not self.served:
            return None
        lat = np.array([t.latency_seconds for t in self.served])
        return {f"p{int(q * 100)}": float(np.quantile(lat, q)) for q in qs}

    def summary(self) -> dict:
        return {
            "status": self.status,
            "requests": self.requests,
            "served": len(self.served),
            "rejected": len(self.rejected),
            "failed": len(self.failed),
            "columns": self.columns,
            "wall_seconds": self.wall_seconds,
            "exec_seconds": self.exec_seconds,
            "arrival_seconds": self.arrival_seconds,
            "overlap_fraction": self.overlap_fraction,
            "requests_per_second": self.requests_per_second,
            "columns_per_second": self.columns_per_second,
            "latency_seconds": self.latency_quantiles(),
        }

    def to_json(self) -> dict:
        """:meth:`summary` with every value coerced JSON-serializable.

        The quantiles come out of ``np.quantile`` as numpy scalars; this is
        the path report consumers (bench records, the ``/slo`` endpoint)
        must use before ``json.dumps``.
        """
        return json_safe(self.summary())


@dataclass
class RouterReport:
    """Outcome of one request stream, per tenant plus merged.

    The merged view honors each tenant's own :attr:`ServeReport.status`
    instead of judging globally: an idle tenant (``no_traffic``) does not
    drag a healthy run, and one fully-shed tenant does not hide behind
    another's successes — mixed outcomes merge to ``'degraded'``, not
    ``'ok'``.  Exec and arrival seconds are the sums over tenants.
    """

    per_model: dict[str, ServeReport] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: tenants demoted warm-to-cold by budget enforcement during the stream
    demoted: list[str] = field(default_factory=list)
    #: per-tenant SLO evaluation (JSON blocks from the registry's trackers);
    #: ``None`` when no tenant carries a policy
    slo: dict[str, dict] | None = None

    # ----------------------------------------------------------- aggregates
    @property
    def requests(self) -> int:
        return sum(r.requests for r in self.per_model.values())

    @property
    def served(self) -> int:
        return sum(len(r.served) for r in self.per_model.values())

    @property
    def rejected(self) -> int:
        return sum(len(r.rejected) for r in self.per_model.values())

    @property
    def failed(self) -> int:
        return sum(len(r.failed) for r in self.per_model.values())

    @property
    def exec_seconds(self) -> float:
        return sum(r.exec_seconds for r in self.per_model.values())

    @property
    def arrival_seconds(self) -> float:
        return sum(r.arrival_seconds for r in self.per_model.values())

    @property
    def overlap_fraction(self) -> float:
        return self.exec_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def columns(self) -> int:
        return sum(r.columns for r in self.per_model.values())

    @property
    def columns_per_second(self) -> float:
        return self.columns / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def status(self) -> str:
        """Merged health: per-tenant statuses folded without masking.

        ``no_traffic`` tenants are excluded from the judgment (idle is not
        unhealthy); among the active ones, all-ok merges to ``'ok'``, all
        turned-away (rejected or failed) to ``'all_rejected'``, and any mix
        to ``'degraded'``.  No active tenant at all is ``'no_traffic'``.
        """
        active = [
            r.status for r in self.per_model.values() if r.status != "no_traffic"
        ]
        if not active:
            return "no_traffic"
        if all(s == "ok" for s in active):
            return "ok"
        if all(s in ("all_rejected", "all_failed") for s in active):
            return "all_rejected"
        return "degraded"

    def latency_quantiles(self, qs=(0.5, 0.95, 0.99, 1.0)) -> dict[str, float] | None:
        """Pooled quantiles over every tenant that actually served.

        Pooling is the *merged* view only — a quiet fast tenant and a
        saturated slow one average into a number that describes neither, so
        anything judging tenant health must read
        :meth:`per_model_quantiles` instead.

        Tenants with nothing served contribute no samples (their ``None``
        is not coerced to zero); with no served request anywhere the merged
        view is ``None`` too, mirroring the single-tenant contract.
        """
        lat = [
            t.latency_seconds
            for report in self.per_model.values()
            for t in report.served
        ]
        if not lat:
            return None
        arr = np.array(lat)
        return {f"p{int(q * 100)}": float(np.quantile(arr, q)) for q in qs}

    def per_model_quantiles(
        self, qs=(0.5, 0.95, 0.99, 1.0)
    ) -> dict[str, dict[str, float] | None]:
        """Each tenant's own latency quantiles — the unmasked per-tail view."""
        return {
            name: report.latency_quantiles(qs)
            for name, report in self.per_model.items()
        }

    def summary(self) -> dict:
        out = {
            "status": self.status,
            "requests": self.requests,
            "served": self.served,
            "rejected": self.rejected,
            "failed": self.failed,
            "columns": self.columns,
            "wall_seconds": self.wall_seconds,
            "exec_seconds": self.exec_seconds,
            "arrival_seconds": self.arrival_seconds,
            "overlap_fraction": self.overlap_fraction,
            "columns_per_second": self.columns_per_second,
            "latency_seconds": self.latency_quantiles(),
            "latency_seconds_per_model": self.per_model_quantiles(),
            "demoted": list(self.demoted),
            "models": {
                name: report.summary() for name, report in self.per_model.items()
            },
        }
        if self.slo is not None:
            out["slo"] = self.slo
        return out

    def to_json(self) -> dict:
        """:meth:`summary` coerced JSON-serializable (numpy scalars included)."""
        return json_safe(self.summary())


class Router:
    """Synchronous front end: one bounded batcher lane per model.

    ``submit(model, y0)`` routes by name into the model's own
    :class:`~repro.serve.batcher.MicroBatcher` (created on first use), so
    blocks never mix tenants; a full lane rejects with
    :class:`~repro.errors.ServeOverflowError`, counted per tenant in
    ``serve_rejected_total``.  Single-model serving is a registry with one
    tenant.  After every flush opportunity the registry's memory budget is
    enforced, protecting the tenant that just served.

    Which lane flushes next is decided by a
    :class:`~repro.serve.qos.DeficitScheduler` under ``policy='qos'``
    (strict interactive-before-batch priority, deficit-weighted round
    robin within a class) or by registration order under ``policy='fifo'``
    (the legacy arm).  The scheduler only reorders *between* lanes; FIFO
    packing inside each lane is untouched, so per-stream outputs stay
    bitwise identical either way.  Under ``'qos'`` an
    :class:`~repro.serve.qos.AdmissionController` sheds load before it
    enters a lane: per-tenant token-bucket rate limits, and pressure
    triggers (queued requests >= ``queue_pressure_requests``, interactive
    SLO burn >= ``burn_threshold``, memory budget over limit) that shed
    only batch-class tenants.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        queue_limit: int = 1024,
        clock=time.monotonic,
        policy: str = "qos",
        queue_pressure_requests: int | None = None,
        burn_threshold: float | None = None,
    ):
        if policy not in SCHEDULER_POLICIES:
            raise ConfigError(
                f"unknown scheduler policy {policy!r}; known: {SCHEDULER_POLICIES}"
            )
        self.registry = registry
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.queue_limit = int(queue_limit)
        self.clock = clock
        self.policy = policy
        self.scheduler = DeficitScheduler(quantum=float(max_batch))
        self.admission = (
            AdmissionController(
                metrics=registry.metrics,
                queue_pressure_requests=queue_pressure_requests,
                burn_threshold=burn_threshold,
                clock=clock,
            )
            if policy == "qos"
            else None
        )
        self._lanes: dict[tuple[str, str | None], MicroBatcher] = {}
        #: seconds spent flushing blocks, per model
        self._exec: dict[str, float] = {}

    def lane(self, model: str, stream: str | None = None) -> MicroBatcher:
        """The ``(model, stream)`` batcher, created on first use.

        ``stream=None`` is the tenant's default lane (the pre-fleet
        behavior).  Distinct streams of one tenant get distinct batchers, so
        their blocks never mix — the structural invariant behind per-stream
        bitwise determinism.  Unknown model names raise, as do stream names
        containing ``@`` (they would alias lane labels).
        """
        if stream is not None:
            _check_name("stream", str(stream))
        key = (model, stream)
        batcher = self._lanes.get(key)
        if batcher is None:
            batcher = MicroBatcher(
                self.registry.get(model),
                max_batch=self.max_batch,
                max_wait_s=self.max_wait_s,
                max_pending=self.queue_limit,
                clock=self.clock,
            )
            # the tracker is looked up per resolution, not captured: a
            # policy set (or replaced) after the lane exists still applies
            def feed_slo(ticket, model=model):
                tracker = self.registry.slo_tracker(model)
                if tracker is not None:
                    tracker.record_ticket(ticket, model=model)

            batcher.on_resolve = feed_slo
            self._lanes[key] = batcher
            qos = self.registry.qos_policy(model)
            self.scheduler.register(
                key, qos.rank, qos.weight, label=_lane_label(model, stream)
            )
            if self.admission is not None:
                self.admission.register(model, qos)
        return batcher

    # ------------------------------------------------------------- serving
    def submit(self, model: str, y0: np.ndarray, stream: str | None = None) -> Ticket:
        """Route one request to its ``(model, stream)`` lane; may flush a block.

        Under ``policy='qos'`` the request first passes admission control —
        a shed raises :class:`~repro.errors.ServeShedError` (a
        :class:`~repro.errors.ServeOverflowError`) before the lane sees it.
        """
        lane = self.lane(model, stream)
        if self.admission is not None:
            self.admission.admit(
                model,
                _request_columns(y0),
                pending_requests=self.pending_requests(),
                interactive_burn=self.registry.max_interactive_burn(),
                over_budget=self.registry.budget.over_budget,
            )
        ticket = lane.enqueue(y0)
        self._service()
        self.registry.touch(model)
        self.registry.enforce(protect={model})
        return ticket

    def pending_requests(self) -> int:
        """Requests queued across every lane (admission pressure signal)."""
        return sum(b.pending_requests for b in self._lanes.values())

    def step(self) -> int:
        """Flush due lanes scheduler-ordered; returns blocks flushed."""
        return self._service(due=True)

    def drain(self) -> int:
        """Flush everything pending in every lane, scheduler-ordered."""
        return self._service(due=True, drain=True)

    def _pick(self, candidates: dict) -> tuple[str, str | None]:
        """Next lane to flush: DWRR under 'qos', registration order under 'fifo'."""
        if self.policy == "fifo":
            for key in self._lanes:
                if key in candidates:
                    return key
        return self.scheduler.pick(candidates)

    def _service(self, *, due: bool = False, drain: bool = False) -> int:
        """Flush runnable blocks one at a time in scheduler order.

        A lane is runnable when it holds a full block; with ``due`` also
        when its oldest request aged past ``max_wait_s``; with ``drain``
        whenever anything is pending.  One block flushes per pick, then
        candidates rebuild — so a higher-priority lane that became runnable
        preempts at block granularity.  Engine failures propagate after the
        batcher routes them to the failing block's tickets, matching the
        single-lane contract.
        """
        n = 0
        while True:
            candidates: dict[tuple[str, str | None], int] = {}
            reasons: dict[tuple[str, str | None], str] = {}
            for key, batcher in self._lanes.items():
                if not batcher.pending_requests:
                    self.scheduler.reset(key)
                    continue
                if batcher.pending_columns >= batcher.max_batch:
                    reasons[key] = "full"
                elif drain:
                    reasons[key] = "drain"
                elif due:
                    d = batcher.seconds_until_due()
                    if d is not None and d <= 0:
                        reasons[key] = "wait"
                if key in reasons:
                    candidates[key] = min(
                        batcher.pending_columns, batcher.max_batch
                    )
            if not candidates:
                return n
            key = self._pick(candidates)
            model, _stream = key
            batcher = self._lanes[key]
            t0 = time.perf_counter()
            try:
                flushed = batcher.flush_one(reason=reasons[key])
            finally:
                self._exec[model] = (
                    self._exec.get(model, 0.0) + time.perf_counter() - t0
                )
            if flushed:
                n += 1
                self.registry.touch(model)
                self.registry.enforce(protect={model})
            if not batcher.pending_requests:
                self.scheduler.reset(key)

    def serve(self, requests, interarrivals=None) -> RouterReport:
        """Run a stream of ``(model, y0)`` or ``(model, stream, y0)`` to completion.

        Rejected requests are recorded with their error message; everything
        else resolves by the time the report is returned.  ``interarrivals``
        (optional, one float per request) makes the stream open-loop: the
        loop sleeps that long *before* each submit.  This loop cannot
        overlap those gaps with block execution; :meth:`AsyncRouter.serve`
        can, and ``bench-serve``'s sync-vs-async A/B measures the difference.
        """
        report = RouterReport()
        demotions_before = len(self.registry.demotions)
        exec_before = dict(self._exec)
        gaps = iter(interarrivals) if interarrivals is not None else None
        t0 = time.perf_counter()
        for index, item in enumerate(requests):
            model, stream, y0 = _unpack_request(item)
            per = report.per_model.setdefault(model, ServeReport())
            if gaps is not None:
                per.arrival_seconds += _sleep_gap(gaps)
            try:
                per.served.append(self.submit(model, y0, stream=stream))
            except ServeOverflowError as exc:
                per.rejected.append((index, str(exc)))
            self.step()
        self.drain()
        _finish_report(self, report, t0, exec_before, demotions_before)
        return report

    def stats(self) -> dict:
        return {
            "registry": self.registry.stats(),
            "qos": {
                "policy": self.policy,
                "scheduler": self.scheduler.stats(),
                "admission": (
                    self.admission.stats() if self.admission is not None else None
                ),
            },
            "lanes": {
                _lane_label(model, stream): b.stats()
                for (model, stream), b in self._lanes.items()
            },
        }


class _TenantMeter:
    """One tenant's intake telemetry, shared by all of its stream lanes.

    The series sit on the session's per-tenant view (``{model=...}`` for a
    registry-built session), next to its batcher's ``serve_*`` series.  An
    intake rejection is a queue-overflow rejection, so it counts in the
    batcher's ``serve_rejected_total`` rather than a series of its own.
    """

    __slots__ = ("submitted", "rejected", "failed", "resolved", "intake", "overlap")

    def __init__(self, metrics):
        self.submitted = metrics.counter(
            "async_submitted_total", help="requests accepted into an intake lane"
        )
        self.rejected = metrics.counter(
            "serve_rejected_total", help="requests rejected on queue overflow"
        )
        self.failed = metrics.counter(
            "async_failed_total", help="accepted requests resolved with an exception"
        )
        self.resolved = metrics.counter(
            "async_resolved_total", help="tickets resolved back to their producers"
        )
        self.intake = metrics.gauge(
            "async_intake_depth", help="requests waiting in the tenant's intake lanes"
        )
        self.overlap = metrics.gauge(
            "async_overlap_fraction",
            help="worker seconds on this tenant's blocks / wall seconds since "
                 "the router started",
        )

    def fail(self, tickets, now: float, error: BaseException) -> None:
        """Resolve tickets that never ran with ``error``, and count them."""
        tickets = list(tickets)
        for ticket in tickets:
            ticket._resolve(now, error=error)
        self.resolved.inc(len(tickets))
        self.failed.inc(len(tickets))


class _AsyncLane:
    """Per-``(model, stream)`` state of the async router."""

    __slots__ = ("model", "stream", "batcher", "meter", "intake", "inflight", "accepted")

    def __init__(
        self, model: str, stream: str | None, batcher: MicroBatcher, meter: _TenantMeter
    ):
        self.model = model
        self.stream = stream
        self.batcher = batcher
        self.meter = meter
        self.intake: deque[AsyncTicket] = deque()
        self.inflight: deque[AsyncTicket] = deque()
        self.accepted = 0


class AsyncRouter:
    """Threaded front end: arrivals overlap block execution.

    Producers ``submit(model, y0)`` from any thread into that tenant's own
    bounded intake lane and get a future-like
    :class:`~repro.serve.batcher.AsyncTicket` back at once — backpressure
    is per tenant, so one tenant's burst rejects (``on_full='reject'``) or
    blocks (``'block'``) only its own producers — while a single consumer
    worker services the lanes one block at a time on each tenant's warm
    session.  New arrivals land in the intake *while* a block runs, so the
    ``max_wait_s`` flush is load-bearing, and each tenant's overlap
    fraction (worker seconds on its blocks over wall seconds) is published
    as ``async_overlap_fraction``.
    Which lane runs next is the :class:`~repro.serve.qos.DeficitScheduler`'s
    call under ``policy='qos'`` (interactive before batch, deficit-weighted
    within a class; new arrivals re-ingested between blocks, so an
    interactive burst preempts a bulk backlog at block granularity) or
    registration order under ``'fifo'``.  Admission control (rate limits +
    batch-first pressure shedding) runs inside ``submit`` under ``'qos'``.
    Blocks never mix tenants; the memory budget is enforced between
    blocks, protecting the tenant that just ran.

    Failure routing: a block that raises resolves exactly the tickets that
    rode in it with that exception, and the router stays serviceable.
    :meth:`close` either drains every accepted ticket or aborts, resolving
    the not-yet-run remainder with :class:`~repro.errors.ServeClosedError`
    — accepted requests always resolve, one way or the other.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        queue_limit: int = 1024,
        on_full: str = "reject",
        clock=time.monotonic,
        policy: str = "qos",
        queue_pressure_requests: int | None = None,
        burn_threshold: float | None = None,
    ):
        if on_full not in BACKPRESSURE_POLICIES:
            raise ConfigError(
                f"unknown backpressure policy {on_full!r}; known: {BACKPRESSURE_POLICIES}"
            )
        if policy not in SCHEDULER_POLICIES:
            raise ConfigError(
                f"unknown scheduler policy {policy!r}; known: {SCHEDULER_POLICIES}"
            )
        self.registry = registry
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.queue_limit = int(queue_limit)
        self.on_full = on_full
        self.clock = clock
        self.policy = policy
        self.scheduler = DeficitScheduler(quantum=float(max_batch))
        self.admission = (
            AdmissionController(
                metrics=registry.metrics,
                queue_pressure_requests=queue_pressure_requests,
                burn_threshold=burn_threshold,
                clock=clock,
            )
            if policy == "qos"
            else None
        )
        self._lanes: dict[tuple[str, str | None], _AsyncLane] = {}
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._closed = False
        self._abort = False
        self._meters: dict[str, _TenantMeter] = {}
        #: worker seconds spent flushing blocks, per model (keys are added
        #: under the lock at lane creation; the worker only updates values)
        self._exec: dict[str, float] = {}
        self._started_at = time.perf_counter()
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-router-worker", daemon=True
        )
        self._worker.start()

    def _lane(self, model: str, stream: str | None = None) -> _AsyncLane:
        """Lane for ``(model, stream)`` (lock held by the caller)."""
        if stream is not None:
            _check_name("stream", str(stream))
        key = (model, stream)
        lane = self._lanes.get(key)
        if lane is None:
            session = self.registry.get(model)
            meter = self._meters.get(model)
            if meter is None:
                meter = self._meters[model] = _TenantMeter(
                    getattr(session, "scoped", None) or session.metrics
                )
                self._exec[model] = 0.0
            lane = _AsyncLane(
                model,
                stream,
                MicroBatcher(
                    session,
                    max_batch=self.max_batch,
                    max_wait_s=self.max_wait_s,
                    max_pending=self.queue_limit + self.max_batch + 1,
                    clock=self.clock,
                ),
                meter,
            )
            self._lanes[key] = lane
            qos = self.registry.qos_policy(model)
            self.scheduler.register(
                key, qos.rank, qos.weight, label=_lane_label(model, stream)
            )
            if self.admission is not None:
                self.admission.register(model, qos)
        return lane

    # ------------------------------------------------------------- producer
    def submit(
        self, model: str, y0: np.ndarray, stream: str | None = None
    ) -> AsyncTicket:
        """Enqueue into the ``(model, stream)`` lane; returns a future ticket.

        Thread-safe.  A full *lane* (not the whole router) rejects under
        ``'reject'`` or parks this producer under ``'block'`` — per-tenant
        (and per-stream) backpressure by construction.
        """
        session = self.registry.get(model)  # unknown names fail synchronously
        y0 = session.network.validate_input(np.asarray(y0))
        if y0.shape[1] < 1:
            from repro.errors import ShapeError

            raise ShapeError("a request needs at least one column")
        with self._lock:
            if self._closed:
                raise ServeClosedError("router is closed; request not accepted")
            lane = self._lane(model, stream)
            if self.admission is not None:
                pending = sum(
                    len(ln.intake) + ln.batcher.pending_requests
                    for ln in self._lanes.values()
                )
                self.admission.admit(
                    model,
                    y0.shape[1],
                    pending_requests=pending,
                    interactive_burn=self.registry.max_interactive_burn(),
                    over_budget=self.registry.budget.over_budget,
                )
            if len(lane.intake) >= self.queue_limit:
                if self.on_full == "reject":
                    lane.meter.rejected.inc()
                    raise ServeOverflowError(
                        f"lane {_lane_label(model, stream)!r} full "
                        f"({self.queue_limit} requests); request rejected"
                    )
                while len(lane.intake) >= self.queue_limit and not self._closed:
                    self._space.wait()
                if self._closed:
                    raise ServeClosedError("router closed while waiting for lane space")
            ticket = AsyncTicket(y0, self.clock(), index=lane.accepted)
            lane.accepted += 1
            lane.intake.append(ticket)
            lane.meter.submitted.inc()
            lane.meter.intake.inc()
            self._arrived.notify()
        return ticket

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop the worker; drain or abort, same contract as the transport."""
        with self._lock:
            self._closed = True
            if not drain:
                self._abort = True
            self._arrived.notify_all()
            self._space.notify_all()
        self._worker.join(timeout)
        wall = time.perf_counter() - self._started_at
        for model, meter in self._meters.items():
            meter.overlap.set(self._exec[model] / wall)
        return not self._worker.is_alive()

    def __enter__(self) -> "AsyncRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------ streaming
    def serve(self, requests, interarrivals=None) -> RouterReport:
        """Submit an open-loop stream, drain, close, and report per tenant.

        ``interarrivals`` (one float per request, e.g. Poisson gaps from
        :func:`repro.serve.bench.poisson_interarrivals`) paces the stream:
        the submitting thread sleeps each gap while the worker keeps
        executing — the overlap the synchronous :class:`Router` cannot have.
        """
        report = RouterReport()
        demotions_before = len(self.registry.demotions)
        exec_before = dict(self._exec)
        gaps = iter(interarrivals) if interarrivals is not None else None
        tickets: list[tuple[str, int, AsyncTicket]] = []
        t0 = time.perf_counter()
        for index, item in enumerate(requests):
            model, stream, y0 = _unpack_request(item)
            per = report.per_model.setdefault(model, ServeReport())
            if gaps is not None:
                per.arrival_seconds += _sleep_gap(gaps)
            try:
                tickets.append((model, index, self.submit(model, y0, stream=stream)))
            except (ServeOverflowError, ServeClosedError) as exc:
                per.rejected.append((index, str(exc)))
        self.close(drain=True)
        for model, index, ticket in tickets:
            per = report.per_model[model]
            if ticket.failed:
                per.failed.append((index, str(ticket.exception)))
            else:
                per.served.append(ticket)
        _finish_report(self, report, t0, exec_before, demotions_before)
        return report

    # -------------------------------------------------------------- worker
    def _due(self) -> float | None:
        """Earliest max-wait deadline across lanes (lock held)."""
        due = None
        for lane in self._lanes.values():
            d = lane.batcher.seconds_until_due()
            if d is not None and (due is None or d < due):
                due = d
        return due

    def _grab_locked(self) -> list[tuple[_AsyncLane, list[AsyncTicket]]]:
        """Take every lane's intake (lock held by the caller)."""
        grabbed: list[tuple[_AsyncLane, list[AsyncTicket]]] = []
        for lane in self._lanes.values():
            if lane.intake:
                items = list(lane.intake)
                lane.intake.clear()
                lane.meter.intake.dec(len(items))
                grabbed.append((lane, items))
        if grabbed:
            self._space.notify_all()
        return grabbed

    def _ingest(self, grabbed) -> None:
        """Move grabbed tickets into their lanes' batchers (worker thread).

        Enqueue-only: which blocks form is decided afterwards by the
        scheduler, one flush at a time.  Moving every ticket before any
        flush does not change packing — a block is always the longest FIFO
        prefix of its own lane that fits ``max_batch``, regardless of how
        many enqueues happened since the last flush.
        """
        now = self.clock()
        for lane, items in grabbed:
            for ticket in items:
                ticket.dequeued_at = now
                try:
                    ticket.inner = lane.batcher.enqueue(ticket.y0)
                except Exception as exc:
                    # cannot happen for validated requests under the
                    # sized batcher cap, but an accepted ticket must
                    # still resolve
                    lane.meter.fail([ticket], self.clock(), exc)
                    continue
                lane.inflight.append(ticket)

    def _candidates(self, drain: bool) -> tuple[dict, dict]:
        """Runnable lanes: ``{key: block_cost}`` plus each lane's flush reason."""
        with self._lock:
            lanes = list(self._lanes.items())
        candidates: dict[tuple[str, str | None], int] = {}
        reasons: dict[tuple[str, str | None], str] = {}
        for key, lane in lanes:
            batcher = lane.batcher
            if not batcher.pending_requests:
                self.scheduler.reset(key)
                continue
            if batcher.pending_columns >= batcher.max_batch:
                reasons[key] = "full"
            elif drain:
                reasons[key] = "drain"
            else:
                d = batcher.seconds_until_due()
                if d is not None and d <= 0:
                    reasons[key] = "wait"
            if key in reasons:
                candidates[key] = min(batcher.pending_columns, batcher.max_batch)
        return candidates, reasons

    def _pick(self, candidates: dict) -> tuple[str, str | None]:
        """Next lane to flush: DWRR under 'qos', registration order under 'fifo'."""
        if self.policy == "fifo":
            with self._lock:
                order = list(self._lanes)
            for key in order:
                if key in candidates:
                    return key
        return self.scheduler.pick(candidates)

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while (
                    not any(lane.intake for lane in self._lanes.values())
                    and not self._closed
                ):
                    due = self._due()
                    if due is not None and due <= 0:
                        break
                    self._arrived.wait(timeout=due)
                grabbed = self._grab_locked()
                closing = self._closed and not grabbed
                abort = self._abort
            if abort:
                self._abort_pending(grabbed)
                return
            self._ingest(grabbed)
            # service: one block per scheduler pick, re-grabbing new
            # arrivals between blocks so an interactive burst preempts a
            # bulk backlog at block granularity instead of waiting out a
            # whole registration-order sweep
            while True:
                candidates, reasons = self._candidates(drain=closing)
                if not candidates:
                    break
                key = self._pick(candidates)
                with self._lock:
                    lane = self._lanes[key]
                reason = reasons[key]
                self._run_guarded(
                    lane.model, lane, lambda: lane.batcher.flush_one(reason=reason)
                )
                if not lane.batcher.pending_requests:
                    self.scheduler.reset(key)
                with self._lock:
                    grabbed = self._grab_locked()
                    abort = self._abort
                if abort:
                    self._abort_pending(grabbed)
                    return
                self._ingest(grabbed)
            if closing:
                with self._lock:
                    abort = self._abort
                if abort:
                    self._abort_pending([])
                return

    def _run_guarded(self, model: str, lane: _AsyncLane, fn) -> None:
        """Execute blocks for one lane, then enforce the byte budget."""
        t0 = time.perf_counter()
        ran = False
        try:
            ran = bool(fn())
        except Exception:
            # the batcher routed the exception to the failing block's
            # tickets before re-raising; _sweep hands it to producers
            ran = True
        finally:
            now = time.perf_counter()
            self._exec[model] += now - t0
            lane.meter.overlap.set(self._exec[model] / (now - self._started_at))
        self._sweep(lane)
        if ran:
            self.registry.touch(model)
            self.registry.enforce(protect={model})

    def _sweep(self, lane: _AsyncLane) -> None:
        """Resolve the lane's inflight prefix whose inner tickets are done."""
        now = self.clock()
        tracker = self.registry.slo_tracker(lane.model)
        resolved = failed = 0
        while lane.inflight and lane.inflight[0].inner.done:
            ticket = lane.inflight.popleft()
            ticket._resolve(now, error=ticket.inner.error)
            resolved += 1
            failed += ticket.failed
            # SLO accounting uses the outer ticket: its latency includes
            # the intake wait the inner (batcher) ticket cannot see
            if tracker is not None:
                try:
                    tracker.record_ticket(ticket, model=lane.model)
                except Exception:  # pragma: no cover - obs must not kill the worker
                    pass
        if resolved:
            lane.meter.resolved.inc(resolved)
            lane.meter.failed.inc(failed)

    def _abort_pending(self, grabbed) -> None:
        """Fail everything unfinished across every lane."""
        now = self.clock()
        error = ServeClosedError("router aborted before this request executed")
        for lane, items in grabbed:
            self._sweep(lane)
            lane.meter.fail(items, now, error)
        with self._lock:
            leftovers = []
            for lane in self._lanes.values():
                self._sweep(lane)
                lane.meter.fail(lane.inflight, now, error)
                lane.inflight.clear()
                lane.meter.intake.dec(len(lane.intake))
                leftovers.append((lane, list(lane.intake)))
                lane.intake.clear()
            self._space.notify_all()
        for lane, items in leftovers:
            lane.meter.fail(items, now, error)

    # ------------------------------------------------------------- metrics
    @property
    def exec_seconds(self) -> float:
        """Worker seconds spent packing and executing blocks, all tenants."""
        return sum(self._exec.values())

    def stats(self) -> dict:
        return {
            "registry": self.registry.stats(),
            "on_full": self.on_full,
            "closed": self._closed,
            "exec_seconds": self.exec_seconds,
            "qos": {
                "policy": self.policy,
                "scheduler": self.scheduler.stats(),
                "admission": (
                    self.admission.stats() if self.admission is not None else None
                ),
            },
            "lanes": {
                _lane_label(model, stream): lane.batcher.stats()
                for (model, stream), lane in self._lanes.items()
            },
        }
