"""Concurrency suite for the async serving transport: a one-tenant AsyncRouter.

Single-model async serving is an :class:`~repro.serve.router.AsyncRouter`
over a :class:`~repro.serve.router.ModelRegistry` holding one tenant, so
every test here builds that pair through :func:`one_tenant`.  Deterministic
control comes from a fake session whose ``run`` can be gated
on an event (to hold the worker mid-block) or told to fail on a given call;
the differential tests run the real SNICIT engine.  Every test is written
to pass under repetition (CI runs this module 20 times in a loop): nothing
asserts on wall-clock ordering between threads, only on resolution
outcomes, and every wait has a generous timeout.
"""

import random
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError, ServeClosedError, ServeOverflowError, ShapeError
from repro.harness.experiments.common import sdgc_config
from repro.obs import MetricsRegistry, as_tracer
from repro.radixnet import benchmark_input, build_benchmark
from repro.serve import AsyncRouter, EngineSession, ModelRegistry, Router

WAIT = 20.0  # generous resolution timeout; tests fail long before CI's guard
M = "m"  # the one tenant's name


def one_tenant(session, router_cls=AsyncRouter, **kwargs):
    """A router over a registry whose only tenant ``M`` is ``session``."""
    registry = ModelRegistry()
    registry.register(M, session=session)
    return router_cls(registry, **kwargs)


def serve_stream(router, stream, **kwargs):
    """Serve ``stream`` as tenant ``M``; returns the tenant's report."""
    return router.serve(((M, y0) for y0 in stream), **kwargs).per_model[M]


# ------------------------------------------------------------------ fixtures
@pytest.fixture(scope="module")
def bench():
    net = build_benchmark("144-24", seed=0)
    cfg = sdgc_config(net.num_layers)
    y0 = benchmark_input(net, 64, seed=1)
    return net, cfg, y0


class FakeNetwork:
    input_dim = 4

    def validate_input(self, y0):
        y0 = np.asarray(y0, dtype=np.float64)
        if y0.ndim != 2 or y0.shape[0] != self.input_dim:
            raise ShapeError(f"input must be ({self.input_dim}, B), got {y0.shape}")
        return y0


class FakeSession:
    """Engine-session stand-in with controllable blocking and failure.

    ``gate``: block executions park on it until it is set — requests then
    pile up in the intake queue deterministically.  ``fail_on_call``: the
    N-th ``run`` call raises, exercising mid-block exception routing.
    """

    def __init__(
        self,
        gate: threading.Event | None = None,
        fail_on_call: int | None = None,
        name: str | None = None,
    ):
        self.network = FakeNetwork()
        self.tracer = as_tracer(None)
        self.metrics = MetricsRegistry()
        # a named session publishes through its per-tenant labeled view,
        # as a registry-built EngineSession does
        self.scoped = self.metrics.labeled(model=name) if name else self.metrics
        self.gate = gate
        self.fail_on_call = fail_on_call
        self.calls = 0

    def run(self, y0):
        self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(WAIT), "test gate never opened"
        if self.fail_on_call == self.calls:
            raise RuntimeError(f"injected failure on block {self.calls}")
        return SimpleNamespace(y=y0 * 2.0, stats={}, stage_seconds={})

    def stats(self):
        return {"calls": self.calls}

    def retained_nbytes(self) -> int:
        return 0

    def demote(self) -> int:
        return 0


def req(k: int = 1, fill: float = 1.0) -> np.ndarray:
    return np.full((FakeNetwork.input_dim, k), fill)


# ------------------------------------------------------- differential (real)
def test_multithreaded_submit_matches_sync_server(bench):
    """N producers submitting concurrently must yield exactly the full set of
    outputs, with per-request categories identical to the synchronous router
    on the same stream (packing may differ; predictions may not)."""
    net, cfg, y0 = bench
    stream = [y0[:, lo : lo + 2] for lo in range(0, 64, 2)]

    sync = one_tenant(
        EngineSession(net, cfg), Router, max_batch=16, max_wait_s=60.0,
        queue_limit=len(stream),
    )
    sync_report = serve_stream(sync, stream)
    assert len(sync_report.served) == len(stream)
    sync_cats = [t.categories for t in sync_report.served]

    session = EngineSession(net, cfg)
    router = one_tenant(session, max_batch=16, max_wait_s=0.005, queue_limit=len(stream))
    results: dict[int, object] = {}
    lock = threading.Lock()

    def producer(worker: int):
        for index in range(worker, len(stream), 3):
            ticket = router.submit(M, stream[index])
            with lock:
                results[index] = ticket

    threads = [threading.Thread(target=producer, args=(w,)) for w in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WAIT)
        assert not t.is_alive()
    assert router.close(drain=True, timeout=WAIT)

    assert sorted(results) == list(range(len(stream)))  # exactly the stream
    for index, ticket in results.items():
        assert ticket.ready, f"request {index} unresolved"
        assert ticket.y.shape == (net.output_dim, 2)
        assert np.array_equal(ticket.categories, sync_cats[index])
    # concurrent producers lose no counter update
    snap = session.metrics.snapshot()
    assert snap["async_submitted_total"] == len(stream)
    assert snap["async_resolved_total"] == len(stream)
    assert snap["async_intake_depth"] == 0


def test_single_producer_order_preserving_packing_is_bitwise_identical(bench):
    """With one producer and no max-wait pressure, async packing equals the
    synchronous router's, so outputs match bitwise, not just by category."""
    net, cfg, y0 = bench
    stream = [y0[:, lo : lo + 2] for lo in range(0, 32, 2)]
    sync = one_tenant(
        EngineSession(net, cfg), Router, max_batch=8, max_wait_s=60.0,
        queue_limit=len(stream),
    )
    sync_y = np.hstack([t.y for t in serve_stream(sync, stream).served])

    router = one_tenant(
        EngineSession(net, cfg), max_batch=8, max_wait_s=60.0, queue_limit=len(stream)
    )
    report = serve_stream(router, stream)
    assert report.status == "ok" and not report.rejected and not report.failed
    async_y = np.hstack(
        [t.y for t in sorted(report.served, key=lambda t: t.index)]
    )
    assert np.array_equal(async_y, sync_y)


# ------------------------------------------------------------ max-wait flush
def test_stalled_arrival_flushes_partial_block_via_max_wait():
    """A partial block with no further arrivals must flush once its oldest
    request ages past max_wait_s — not wait forever for a full block."""
    session = FakeSession()
    router = one_tenant(session, max_batch=1024, max_wait_s=0.02)
    ticket = router.submit(M, req(2))
    assert ticket.wait(WAIT), "stalled arrival never flushed"
    assert ticket.ready
    assert np.array_equal(ticket.y, req(2) * 2.0)
    assert router.stats()["lanes"][M]["wait_flushes"] >= 1
    assert ticket.latency_seconds >= ticket.queue_wait_seconds
    router.close()


# -------------------------------------------------------------- backpressure
def _park_worker(router, session, k: int = 1):
    """Submit one request and wait until the worker is inside its block."""
    first = router.submit(M, req(k))
    deadline = time.monotonic() + WAIT
    while session.calls == 0 and time.monotonic() < deadline:
        time.sleep(0.001)  # worker has picked up the first request
    assert session.calls == 1
    return first


def test_full_queue_rejects_under_reject_policy():
    gate = threading.Event()
    session = FakeSession(gate=gate)
    # max_batch=1: the first request flushes immediately and parks the worker
    # on the gate; everything after fills the bounded intake queue
    router = one_tenant(
        session, max_batch=1, max_wait_s=60.0, queue_limit=3, on_full="reject"
    )
    first = _park_worker(router, session)
    accepted = [router.submit(M, req()) for _ in range(3)]
    with pytest.raises(ServeOverflowError):
        router.submit(M, req())
    # the intake rejection is a queue-overflow rejection, counted once
    assert session.metrics.snapshot()["serve_rejected_total"] == 1
    gate.set()
    assert router.close(drain=True, timeout=WAIT)
    for ticket in [first, *accepted]:
        assert ticket.ready  # accepted requests all served, rejection lost none


def test_intake_events_are_counted_per_tenant():
    """Every intake event lands on the tenant's labeled series: accepted,
    rejected, resolved and failed requests, intake depth, overlap."""
    gate = threading.Event()
    session = FakeSession(gate=gate, fail_on_call=2, name=M)
    router = one_tenant(session, max_batch=1, max_wait_s=60.0, queue_limit=2)
    first = _park_worker(router, session)
    queued = [router.submit(M, req()) for _ in range(2)]
    with pytest.raises(ServeOverflowError):
        router.submit(M, req())
    label = f'{{model="{M}"}}'
    snap = session.metrics.snapshot()
    assert snap[f"serve_rejected_total{label}"] == 1
    assert snap[f"async_submitted_total{label}"] == 3
    assert snap[f"async_intake_depth{label}"] == 2
    gate.set()
    assert router.close(drain=True, timeout=WAIT)
    assert first.ready and queued[0].failed and queued[1].ready
    snap = session.metrics.snapshot()
    assert snap[f"async_resolved_total{label}"] == 3
    assert snap[f"async_failed_total{label}"] == 1
    assert snap[f"async_intake_depth{label}"] == 0
    assert 0.0 < snap[f"async_overlap_fraction{label}"] <= 1.0
    # nothing leaked onto unlabeled series
    assert not any(key.startswith("async_") and "{" not in key for key in snap)


def test_full_queue_blocks_producer_under_block_policy():
    gate = threading.Event()
    session = FakeSession(gate=gate)
    router = one_tenant(
        session, max_batch=1, max_wait_s=60.0, queue_limit=2, on_full="block"
    )
    first = _park_worker(router, session)
    tickets = [router.submit(M, req()) for _ in range(2)]  # fills the queue

    blocked_ticket = []
    entered = threading.Event()

    def blocked_producer():
        entered.set()
        blocked_ticket.append(router.submit(M, req()))  # must park, not raise

    producer = threading.Thread(target=blocked_producer)
    producer.start()
    assert entered.wait(WAIT)
    time.sleep(0.05)
    assert producer.is_alive(), "block policy should have parked the producer"
    gate.set()  # worker drains -> space frees -> producer completes
    producer.join(WAIT)
    assert not producer.is_alive()
    assert router.close(drain=True, timeout=WAIT)
    for ticket in [first, *tickets, *blocked_ticket]:
        assert ticket.ready


# ------------------------------------------------------------------ shutdown
def test_shutdown_mid_stream_drains_accepted_tickets():
    gate = threading.Event()
    session = FakeSession(gate=gate)
    router = one_tenant(session, max_batch=4, max_wait_s=60.0, queue_limit=64)
    tickets = [router.submit(M, req()) for _ in range(11)]
    # open the gate from a timer so close() observes a mid-stream shutdown
    threading.Timer(0.02, gate.set).start()
    assert router.close(drain=True, timeout=WAIT)
    assert all(t.ready for t in tickets)  # every accepted ticket served
    with pytest.raises(ServeClosedError):
        router.submit(M, req())


def test_abort_fails_unexecuted_tickets_with_closed_error():
    gate = threading.Event()
    session = FakeSession(gate=gate)
    router = one_tenant(session, max_batch=1, max_wait_s=60.0, queue_limit=64)
    tickets = [_park_worker(router, session)]  # worker inside block 1
    deadline = time.monotonic() + WAIT
    tickets += [router.submit(M, req()) for _ in range(7)]  # queue behind it
    closer = threading.Thread(target=router.close, kwargs={"drain": False})
    closer.start()
    while not router._closed and time.monotonic() < deadline:
        time.sleep(0.001)  # abort flag definitely set before the gate opens
    gate.set()
    closer.join(WAIT)
    assert not closer.is_alive()
    assert all(t.done for t in tickets)  # nothing hangs
    served = [t for t in tickets if t.ready]
    aborted = [t for t in tickets if t.failed]
    assert aborted, "abort should have cancelled the un-run remainder"
    for ticket in aborted:
        assert isinstance(ticket.exception, ServeClosedError)
        with pytest.raises(ServeClosedError):
            ticket.result(timeout=1)
    for ticket in served:  # whatever did execute still resolved normally
        assert np.array_equal(ticket.y, req() * 2.0)
    snap = session.metrics.snapshot()
    assert snap["async_resolved_total"] == len(tickets)
    assert snap["async_failed_total"] == len(aborted)
    assert snap["async_intake_depth"] == 0


def test_blocked_producer_woken_by_close_raises():
    gate = threading.Event()
    session = FakeSession(gate=gate)
    router = one_tenant(
        session, max_batch=1, max_wait_s=60.0, queue_limit=1, on_full="block"
    )
    _park_worker(router, session)
    router.submit(M, req())  # fills the intake queue
    outcome = []

    def blocked_producer():
        try:
            outcome.append(router.submit(M, req()))
        except ServeClosedError as exc:
            outcome.append(exc)

    producer = threading.Thread(target=blocked_producer)
    producer.start()
    time.sleep(0.05)
    gate.set()
    router.close(drain=True, timeout=WAIT)
    producer.join(WAIT)
    assert not producer.is_alive()
    # the producer either squeezed in before close (a served ticket) or was
    # woken by shutdown with the closed error — never a hang, never silence
    assert len(outcome) == 1
    if isinstance(outcome[0], ServeClosedError):
        assert "closed" in str(outcome[0])
    else:
        assert outcome[0].ready


# ---------------------------------------------------------------- exceptions
def test_midblock_exception_reaches_exactly_that_block():
    session = FakeSession(fail_on_call=2)
    router = one_tenant(session, max_batch=4, max_wait_s=0.005, queue_limit=64)
    # 4-column requests: each is its own block under max_batch=4
    t1 = router.submit(M, req(4, fill=1.0))
    assert t1.wait(WAIT) and t1.ready
    t2 = router.submit(M, req(4, fill=2.0))
    assert t2.wait(WAIT) and t2.failed  # rode the failing block
    assert isinstance(t2.exception, RuntimeError)
    with pytest.raises(RuntimeError, match="injected failure"):
        t2.result(timeout=1)
    # the router remains serviceable after the failure
    t3 = router.submit(M, req(4, fill=3.0))
    assert t3.wait(WAIT) and t3.ready
    assert np.array_equal(t3.y, req(4, fill=3.0) * 2.0)
    assert router.stats()["lanes"][M]["failed"] == 1
    router.close()
    assert session.metrics.snapshot()["async_failed_total"] == 1


def test_midblock_exception_shared_block_fails_all_riders():
    session = FakeSession(fail_on_call=1)
    router = one_tenant(session, max_batch=4, max_wait_s=60.0, queue_limit=64)
    riders = [router.submit(M, req(2)) for _ in range(2)]  # pack into one block
    for ticket in riders:
        assert ticket.wait(WAIT)
    assert all(t.failed for t in riders)  # both rode the failing block
    assert {type(t.exception) for t in riders} == {RuntimeError}
    # only call 1 fails; the next block must ride through untouched
    survivors = [router.submit(M, req(2)) for _ in range(2)]
    assert router.close(drain=True, timeout=WAIT)
    assert all(t.ready for t in survivors)


# ------------------------------------------------------------- observability
def test_overlap_and_queue_metrics_are_recorded(bench):
    net, cfg, y0 = bench
    stream = [y0[:, lo : lo + 2] for lo in range(0, 32, 2)]
    registry = ModelRegistry()
    registry.register(M, net, config=cfg)
    router = AsyncRouter(registry, max_batch=8, max_wait_s=0.002, queue_limit=64)
    full = router.serve(((M, y) for y in stream), interarrivals=[0.001] * len(stream))
    report = full.per_model[M]
    assert report.status == "ok"
    assert report.exec_seconds > 0
    assert 0.0 < report.overlap_fraction <= 1.0
    assert report.arrival_seconds == pytest.approx(0.001 * len(stream))
    summary = report.summary()
    assert summary["overlap_fraction"] == pytest.approx(report.overlap_fraction)
    # the merged view carries the same figures: one tenant is the whole run
    merged = full.summary()
    for key in ("exec_seconds", "arrival_seconds", "overlap_fraction"):
        assert merged[key] == pytest.approx(summary[key])
    snap = registry.metrics.snapshot()
    label = f'{{model="{M}"}}'
    assert snap[f"async_submitted_total{label}"] == len(stream)
    assert snap[f"async_resolved_total{label}"] == len(stream)
    assert snap[f"async_overlap_fraction{label}"] > 0
    assert snap[f"async_intake_depth{label}"] == 0


def test_async_server_rejects_unknown_policy_and_bad_requests():
    session = FakeSession()
    with pytest.raises(ConfigError):
        one_tenant(session, on_full="drop")
    router = one_tenant(FakeSession())
    with pytest.raises(ShapeError):
        router.submit(M, np.ones((7, 2)))  # wrong input dim, rejected in-producer
    with pytest.raises(ShapeError):
        router.submit(M, np.ones((4, 0)))  # empty request
    router.close()


# ----------------------------------------------------------- property-based
def _run_property_stream(seed: int) -> None:
    """Random interleavings of submit/pause/shutdown against a queue model.

    The model is simple: every submission either raises (rejected — by
    overflow or closed transport) or returns a ticket (accepted).  After a
    drain close the invariants must hold: served ∪ rejected partitions the
    stream, no ticket resolves twice, every latency covers its queue wait,
    and every served output is the block function of its input.
    """
    rng = random.Random(seed)
    fail_call = rng.choice([None, 2, 3])
    session = FakeSession(fail_on_call=fail_call)
    router = one_tenant(
        session,
        max_batch=rng.choice([1, 2, 4]),
        max_wait_s=rng.choice([0.0, 0.001, 0.005]),
        queue_limit=rng.choice([2, 4, 8]),
        on_full="reject",
    )
    total = rng.randrange(12, 28)
    close_at = rng.randrange(total + 1) if rng.random() < 0.3 else None
    accepted: dict[int, object] = {}
    overflowed: set[int] = set()
    shed_closed: set[int] = set()
    for index in range(total):
        if close_at == index:
            router.close(drain=True, timeout=WAIT)
        if rng.random() < 0.25:
            time.sleep(rng.choice([0.0, 0.0005, 0.002]))
        width = rng.choice([1, 2, 3])
        try:
            accepted[index] = (width, router.submit(M, req(width, fill=float(index + 1))))
        except ServeOverflowError:
            overflowed.add(index)
        except ServeClosedError:
            shed_closed.add(index)
    assert router.close(drain=True, timeout=WAIT)

    # partition: every stream index is exactly one of accepted / rejected
    rejected = overflowed | shed_closed
    assert set(accepted) | rejected == set(range(total))
    assert set(accepted) & rejected == set()
    if close_at is not None:
        assert shed_closed == {i for i in range(close_at, total)} - set(accepted)
    for index, (width, ticket) in accepted.items():
        assert ticket.done, f"accepted request {index} never resolved (seed {seed})"
        assert ticket._resolutions == 1, f"double resolution (seed {seed})"
        assert ticket.latency_seconds >= ticket.queue_wait_seconds - 1e-9
        if ticket.ready:
            assert np.array_equal(ticket.y, req(width, fill=float(index + 1)) * 2.0)
        else:
            assert isinstance(ticket.exception, (RuntimeError, ServeClosedError))
    snap = session.metrics.snapshot()
    assert snap["async_resolved_total"] == len(accepted)
    assert snap["serve_rejected_total"] == len(overflowed)


@pytest.mark.parametrize("seed", range(8))
def test_property_random_interleavings_hold_invariants(seed):
    _run_property_stream(seed)
