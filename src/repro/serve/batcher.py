"""Micro-batching: pack small requests into SNICIT-sized blocks.

SNICIT's compression stages amortize over the batch dimension — a lone
request of a few columns pays the full per-layer launch overhead that a
well-packed block shares across hundreds of columns.  :class:`MicroBatcher`
queues incoming requests, packs them into blocks of at most ``max_batch``
columns, runs each block through a warm :class:`~repro.serve.session.
EngineSession`, and splits the output back per request.

The batcher is synchronous and explicitly clocked: ``submit`` flushes as
soon as a full block is pending, ``poll`` flushes when the oldest request
has waited ``max_wait_s`` (callers drive it from their loop), and ``drain``
flushes everything.  The pending queue is bounded: past ``max_pending``
requests, ``submit`` raises :class:`~repro.errors.ServeOverflowError` —
rejected with an error, never dropped silently.

Packing is strictly FIFO: a block takes the longest *prefix* of the queue
that fits in ``max_batch`` columns, never skipping ahead to a narrower
request further back.  That is a deliberate head-of-line trade — reordering
would fill blocks better but break arrival-order latency fairness and make
per-request latency depend on *other* tenants' request widths.  The cost is
observable instead of hidden: when a block flushes under-filled while work
is still queued (the head did not fit), the batcher counts a ``hol_stall``
and the columns left empty, per tenant.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.errors import ServeClosedError, ServeOverflowError, ShapeError
from repro.inference import InferenceResult, sdgc_categories
from repro.serve.session import EngineSession

__all__ = ["AsyncTicket", "MicroBatcher", "Ticket"]


class Ticket:
    """Handle for one submitted request; resolves when its batch runs."""

    __slots__ = (
        "y0", "submitted_at", "completed_at", "batch_columns", "result", "_y", "aid",
        "error", "packed_at", "block_id", "execute_seconds", "stage_seconds",
    )

    def __init__(self, y0: np.ndarray, submitted_at: float, aid: int = 0):
        self.y0 = y0
        self.submitted_at = submitted_at
        self.completed_at: float | None = None
        #: total columns of the packed block this request rode in
        self.batch_columns: int | None = None
        #: the shared InferenceResult of that block
        self.result: InferenceResult | None = None
        self._y: np.ndarray | None = None
        #: async-trace id correlating this request's submit/resolve events
        self.aid = aid
        #: the exception that killed this request's block, if its run failed
        self.error: BaseException | None = None
        #: when this request was packed into a block (batch wait ends here)
        self.packed_at: float | None = None
        #: 1-based id of the block it rode in (matches the block's span args)
        self.block_id: int | None = None
        #: wall seconds the block spent inside ``session.run``
        self.execute_seconds: float | None = None
        #: the block's per-pipeline-stage seconds (shared across its tickets)
        self.stage_seconds: dict | None = None

    @property
    def columns(self) -> int:
        return self.y0.shape[1]

    @property
    def ready(self) -> bool:
        return self._y is not None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def done(self) -> bool:
        """Resolved either way: output available or block execution failed."""
        return self.ready or self.failed

    @property
    def y(self) -> np.ndarray:
        """This request's slice of the block output ``Y(l)``."""
        if self.error is not None:
            raise self.error
        if self._y is None:
            raise ServeOverflowError("ticket not resolved yet; flush or drain the batcher")
        return self._y

    @property
    def categories(self) -> np.ndarray:
        return sdgc_categories(self.y)

    @property
    def latency_seconds(self) -> float:
        if self.completed_at is None:
            raise ServeOverflowError("ticket not resolved yet; flush or drain the batcher")
        return self.completed_at - self.submitted_at

    def breakdown(self) -> dict:
        """Where this request's latency went (tail-latency attribution).

        ``queue_wait_seconds`` is zero for the synchronous batcher — there
        is no intake queue in front of it; the async transport overrides it
        with the ticket's intake wait.  ``batch_wait_seconds`` is the time
        spent pending before a block packed it (the head-of-line component),
        ``execute_seconds`` the block's engine time, and ``stage_seconds``
        splits that by pipeline stage.
        """
        out: dict = {
            "queue_wait_seconds": 0.0,
            "batch_wait_seconds": (
                self.packed_at - self.submitted_at
                if self.packed_at is not None else None
            ),
            "execute_seconds": self.execute_seconds,
            "block_id": self.block_id,
            "batch_columns": self.batch_columns,
        }
        if self.stage_seconds is not None:
            out["stage_seconds"] = dict(self.stage_seconds)
        return out


class AsyncTicket:
    """Future-like handle for one request accepted by the async router.

    :class:`~repro.serve.router.AsyncRouter` wraps each intake request in
    one; the batcher's :class:`Ticket` becomes its ``inner`` ticket once the
    worker enqueues the request.  Producers hold it; the worker thread
    resolves it exactly once — with the request's output slice, with the
    exception that killed its block, or with
    :class:`~repro.errors.ServeClosedError` on an aborted shutdown.
    """

    __slots__ = (
        "y0", "index", "submitted_at", "dequeued_at", "completed_at",
        "inner", "_error", "_done", "_resolutions",
    )

    def __init__(self, y0: np.ndarray, submitted_at: float, index: int = 0):
        self.y0 = y0
        #: arrival order within its router lane (0-based)
        self.index = index
        self.submitted_at = submitted_at
        #: when the worker pulled it off the intake queue
        self.dequeued_at: float | None = None
        self.completed_at: float | None = None
        #: the batcher's inner ticket, once the worker enqueued the request
        self.inner: Ticket | None = None
        self._error: BaseException | None = None
        self._done = threading.Event()
        #: times the worker resolved this ticket (the invariant is == 1)
        self._resolutions = 0

    # ------------------------------------------------------------ producer
    @property
    def columns(self) -> int:
        return self.y0.shape[1]

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def ready(self) -> bool:
        return self.done and self._error is None

    @property
    def failed(self) -> bool:
        return self._error is not None

    @property
    def exception(self) -> BaseException | None:
        return self._error

    def wait(self, timeout: float | None = None) -> bool:
        """Block until resolved (or ``timeout`` seconds); True when done."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block for and return this request's output slice ``Y(l)``.

        Raises the block's exception if execution failed, TimeoutError if
        the ticket is still unresolved after ``timeout`` seconds.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"request {self.index} unresolved after {timeout}s")
        if self._error is not None:
            raise self._error
        return self.inner.y

    @property
    def y(self) -> np.ndarray:
        """Non-blocking output access (same contract as the sync Ticket)."""
        if self._error is not None:
            raise self._error
        if not self.done:
            raise ServeOverflowError(
                "ticket not resolved yet; wait() on it or close(drain=True) the router"
            )
        return self.inner.y

    @property
    def categories(self) -> np.ndarray:
        return sdgc_categories(self.y)

    @property
    def batch_columns(self) -> int | None:
        return self.inner.batch_columns if self.inner is not None else None

    @property
    def latency_seconds(self) -> float:
        """Submit-to-resolve wall time (includes the intake-queue wait)."""
        if self.completed_at is None:
            raise ServeOverflowError("ticket not resolved yet")
        return self.completed_at - self.submitted_at

    @property
    def queue_wait_seconds(self) -> float:
        """Time spent in the intake queue before the worker picked it up."""
        if self.dequeued_at is None:
            raise ServeOverflowError("ticket not dequeued yet")
        return self.dequeued_at - self.submitted_at

    @property
    def aid(self) -> int | None:
        """The inner ticket's async-trace span id (None before enqueue)."""
        return self.inner.aid if self.inner is not None else None

    def breakdown(self) -> dict:
        """Latency attribution, intake wait included.

        The inner :class:`Ticket` knows batch wait, block execute time, and
        per-stage seconds; this transport adds the producer-side component
        it alone can see — ``queue_wait_seconds``, the time between
        :meth:`~repro.serve.router.AsyncRouter.submit` and the worker
        pulling the request off the intake queue.
        """
        out = self.inner.breakdown() if self.inner is not None else {}
        out["queue_wait_seconds"] = (
            self.dequeued_at - self.submitted_at
            if self.dequeued_at is not None else None
        )
        return out

    # -------------------------------------------------------------- worker
    def _resolve(self, now: float, error: BaseException | None = None) -> None:
        """Worker-side completion; must fire exactly once per ticket."""
        self._resolutions += 1
        if self._resolutions > 1:  # pragma: no cover - guarded invariant
            raise ServeClosedError(
                f"ticket {self.index} resolved {self._resolutions} times"
            )
        self._error = error
        self.completed_at = now
        self._done.set()


class MicroBatcher:
    """Bounded synchronous request packer in front of an engine session."""

    def __init__(
        self,
        session: EngineSession,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        max_pending: int = 1024,
        clock=time.monotonic,
    ):
        if max_batch < 1:
            raise ShapeError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ShapeError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if max_pending < 1:
            raise ShapeError(f"max_pending must be >= 1, got {max_pending}")
        self.session = session
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.max_pending = int(max_pending)
        self.clock = clock
        self._pending: deque[Ticket] = deque()
        self._pending_cols = 0
        self._next_aid = 0
        self.counters = {
            "requests": 0,
            "rejected": 0,
            "failed": 0,
            "batches": 0,
            "batched_columns": 0,
            "wait_flushes": 0,
            "hol_stalls": 0,
            "hol_underfill_columns": 0,
            "timer_underfills": 0,
            "timer_underfill_columns": 0,
        }
        #: per-block centroid-reuse outcomes ('hit' / 'cold' / 'stale'),
        #: populated only when the session's engine carries a CentroidCache
        self.reuse_outcomes: dict[str, int] = {}
        # serving telemetry rides on the session's registry/tracer so one
        # scrape (or one trace file) covers queue, blocks, and kernels; a
        # named session hands back its per-tenant labeled view, so two
        # batchers over one registry stay separable per model
        self.tracer = session.tracer
        metrics = getattr(session, "scoped", None) or session.metrics
        self._c_requests = metrics.counter(
            "serve_requests_total", help="requests accepted into the pending queue"
        )
        self._c_rejected = metrics.counter(
            "serve_rejected_total", help="requests rejected on queue overflow"
        )
        self._c_failed = metrics.counter(
            "serve_failed_total", help="requests whose block raised during execution"
        )
        self._c_batches = metrics.counter(
            "serve_batches_total", help="blocks flushed to the engine session"
        )
        self._c_batched_columns = metrics.counter(
            "serve_batched_columns_total", help="columns packed into flushed blocks"
        )
        self._g_queue_depth = metrics.gauge(
            "serve_queue_depth", help="requests currently pending in the batcher"
        )
        self._g_queue_columns = metrics.gauge(
            "serve_queue_columns", help="columns currently pending in the batcher"
        )
        self._c_hol_stalls = metrics.counter(
            "serve_hol_stalls_total",
            help="under-filled blocks flushed because the FIFO head did not fit",
        )
        self._c_hol_underfill = metrics.counter(
            "serve_hol_underfill_columns_total",
            help="block columns left empty by FIFO head-of-line packing",
        )
        self._c_timer_underfill = metrics.counter(
            "serve_timer_underfill_columns_total",
            help="block columns left empty on latency-deadline flushes "
                 "(the head arrived late; nothing was refused)",
        )
        self._fill_buckets = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
        self._metrics = metrics
        # per-flush handles, resolved once per label value instead of a
        # registry lookup on every block
        self._h_queue_wait = metrics.histogram(
            "serve_queue_wait_seconds",
            help="submit-to-resolve wait per request",
        )
        # streaming tail view: per-request latency over the last minute, so
        # a scrape reads "p99 right now" instead of a lifetime histogram
        self._w_latency = metrics.window(
            "serve_latency_seconds",
            help="sliding-window submit-to-resolve latency per request",
        )
        self._h_fill: dict[str, object] = {}
        self._c_reuse_blocks: dict[str, object] = {}
        #: optional per-ticket resolution hook (SLO trackers subscribe here);
        #: called with each resolved ticket, failures included.  Guarded —
        #: observability must never take the serving path down.
        self.on_resolve = None

    # -------------------------------------------------------------- intake
    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    @property
    def pending_columns(self) -> int:
        return self._pending_cols

    def submit(self, y0: np.ndarray) -> Ticket:
        """Queue one request of shape ``(input_dim, k)``; may flush a block.

        Raises :class:`~repro.errors.ServeOverflowError` when the pending
        queue is full — the caller decides whether to retry, shed load, or
        surface the error to the client.
        """
        ticket = self.enqueue(y0)
        self.flush_full()
        return ticket

    def enqueue(self, y0: np.ndarray) -> Ticket:
        """:meth:`submit` minus the flush: queue the request, never run it.

        The async transport uses this to hold the ticket *before* any block
        executes, so a mid-block exception can still be routed to exactly
        the requests that rode in the failing block.
        """
        y0 = self.session.network.validate_input(np.asarray(y0))
        if y0.shape[1] < 1:
            raise ShapeError("a request needs at least one column")
        if len(self._pending) >= self.max_pending:
            self.counters["rejected"] += 1
            self._c_rejected.inc()
            raise ServeOverflowError(
                f"pending queue full ({self.max_pending} requests); request rejected"
            )
        self._next_aid += 1
        ticket = Ticket(y0, self.clock(), aid=self._next_aid)
        self._pending.append(ticket)
        self._pending_cols += ticket.columns
        self.counters["requests"] += 1
        self._c_requests.inc()
        self.tracer.begin_async("request", ticket.aid, columns=ticket.columns)
        self._update_queue_gauges()
        return ticket

    # ------------------------------------------------------------ flushing
    def flush_full(self) -> int:
        """Run blocks while a full ``max_batch`` of columns is pending."""
        n = 0
        while self._pending_cols >= self.max_batch:
            self._flush_batch(reason="full")
            n += 1
        return n
    def flush_one(self, reason: str = "full") -> int:
        """Run exactly one block; returns the columns it carried (0 if idle).

        The QoS lane scheduler flushes one block per pick so a
        higher-priority lane can preempt between blocks; ``reason`` labels
        the fill histogram exactly as :meth:`poll`/:meth:`drain` would.
        A ``'wait'`` flush counts toward ``wait_flushes`` per block.
        """
        if not self._pending:
            return 0
        if reason == "wait":
            self.counters["wait_flushes"] += 1
        before = self._pending_cols
        self._flush_batch(reason=reason)
        return before - self._pending_cols

    def seconds_until_due(self) -> float | None:
        """Seconds until the oldest pending request ages past ``max_wait_s``.

        ``None`` with nothing pending; zero or negative once a :meth:`poll`
        would flush.  The async worker sleeps at most this long between
        arrivals so the max-wait deadline holds without busy-polling.
        """
        if not self._pending:
            return None
        return self.max_wait_s - (self.clock() - self._pending[0].submitted_at)

    def poll(self) -> int:
        """Flush everything once the oldest request has waited long enough.

        Returns the number of blocks run.  Callers embed this in their
        serving loop; with a fake clock it is the max-wait unit test hook.
        """
        if not self._pending:
            return 0
        if self.clock() - self._pending[0].submitted_at < self.max_wait_s:
            return 0
        self.counters["wait_flushes"] += 1
        return self._drain(reason="wait")

    def drain(self) -> int:
        """Flush every pending request; returns the number of blocks run."""
        return self._drain(reason="drain")

    def _drain(self, reason: str) -> int:
        n = 0
        while self._pending:
            self._flush_batch(reason=reason)
            n += 1
        return n

    def _flush_batch(self, reason: str = "full") -> None:
        """Pack and run one block of at most ``max_batch`` columns.

        Always takes at least one request, so a single request wider than
        ``max_batch`` still runs (alone, as its own block).  ``reason`` is
        why the block flushed ('full', 'wait', or 'drain') and labels the
        occupancy histogram — a fleet of 'wait' flushes at low fill means
        the batcher is starved, 'full' at fill 1.0 means it is saturated.

        Packing takes the FIFO *prefix* that fits and stops at the first
        request that does not — it never searches past the head for a
        narrower request that would.  The forgone fill is head-of-line
        blocking, accepted for arrival-order fairness; each occurrence is
        counted (``hol_stalls``, ``hol_underfill_columns``) so mixed-width
        traffic can see what FIFO costs it.
        """
        tracer = self.tracer
        block_id = self.counters["batches"] + 1
        with tracer.span(
            "batch.pack", cat="serve", reason=reason, block_id=block_id
        ) as pack_span:
            take: list[Ticket] = [self._pending.popleft()]
            cols = take[0].columns
            while self._pending and cols + self._pending[0].columns <= self.max_batch:
                ticket = self._pending.popleft()
                take.append(ticket)
                cols += ticket.columns
            self._pending_cols -= cols
            packed_at = self.clock()
            for ticket in take:
                ticket.packed_at = packed_at
                ticket.block_id = block_id
            underfill = self.max_batch - cols
            if (
                self._pending
                and underfill > 0
                and cols + self._pending[0].columns > self.max_batch
            ):
                # under-filled with work still queued AND the head refused
                # to fit: that — and only that — is a head-of-line stall.
                # An under-filled deadline flush with an empty queue is the
                # head arriving late, not FIFO refusing anyone.
                self.counters["hol_stalls"] += 1
                self.counters["hol_underfill_columns"] += underfill
                self._c_hol_stalls.inc()
                self._c_hol_underfill.inc(underfill)
                pack_span.set(hol_underfill=underfill)
            elif reason == "wait" and underfill > 0 and not self._pending:
                # latency-flush underfill: the timer fired before traffic
                # filled the block — tracked separately so sparse traffic
                # does not inflate serve_hol_stalls_total
                self.counters["timer_underfills"] += 1
                self.counters["timer_underfill_columns"] += underfill
                self._c_timer_underfill.inc(underfill)
                pack_span.set(timer_underfill=underfill)
            block = take[0].y0 if len(take) == 1 else np.hstack([t.y0 for t in take])
            pack_span.set(requests=len(take), columns=cols)
        with tracer.span(
            "batch.execute", cat="serve", reason=reason, requests=len(take),
            columns=cols, block_id=block_id,
        ) as exec_span:
            exec_t0 = time.perf_counter()
            try:
                result = self.session.run(block)
            except Exception as exc:
                # the block died: its requests are already off the queue, so
                # route the failure to exactly these tickets and leave the
                # batcher serviceable for the next block
                execute_seconds = time.perf_counter() - exec_t0
                now = self.clock()
                for ticket in take:
                    ticket.error = exc
                    ticket.completed_at = now
                    ticket.execute_seconds = execute_seconds
                    tracer.end_async(
                        "request", ticket.aid, error=type(exc).__name__, reason=reason
                    )
                self.counters["failed"] += len(take)
                self._c_failed.inc(len(take))
                self._notify_resolved(take)
                self._update_queue_gauges()
                raise
            execute_seconds = time.perf_counter() - exec_t0
            reuse_info = result.stats.get("centroid_reuse") if result.stats else None
            if reuse_info is not None:
                outcome = "hit" if reuse_info.get("hit") else reuse_info.get("reason", "miss")
                self.reuse_outcomes[outcome] = self.reuse_outcomes.get(outcome, 0) + 1
                counter = self._c_reuse_blocks.get(outcome)
                if counter is None:
                    counter = self._c_reuse_blocks[outcome] = self._metrics.counter(
                        "serve_reuse_blocks_total",
                        help="blocks served by centroid-reuse outcome",
                        outcome=outcome,
                    )
                counter.inc()
                exec_span.set(centroid_reuse=outcome)
        with tracer.span("batch.resolve", cat="serve", requests=len(take)):
            now = self.clock()
            lo = 0
            for ticket in take:
                hi = lo + ticket.columns
                ticket._y = result.y[:, lo:hi]
                ticket.result = result
                ticket.batch_columns = cols
                ticket.completed_at = now
                ticket.execute_seconds = execute_seconds
                ticket.stage_seconds = result.stage_seconds
                tracer.end_async(
                    "request", ticket.aid, batch_columns=cols, reason=reason
                )
                lo = hi
        self.counters["batches"] += 1
        self.counters["batched_columns"] += cols
        self._c_batches.inc()
        self._c_batched_columns.inc(cols)
        fill_hist = self._h_fill.get(reason)
        if fill_hist is None:
            fill_hist = self._h_fill[reason] = self._metrics.histogram(
                "serve_batch_fill",
                buckets=self._fill_buckets,
                help="block occupancy as a fraction of max_batch, per flush reason",
                reason=reason,
            )
        fill_hist.observe(cols / self.max_batch)
        self._h_queue_wait.observe(now - take[0].submitted_at)
        for ticket in take:
            self._w_latency.observe(
                ticket.latency_seconds,
                columns=ticket.columns,
                exemplar={
                    "request_aid": ticket.aid,
                    "block_id": block_id,
                    "latency_seconds": ticket.latency_seconds,
                    "breakdown": ticket.breakdown(),
                },
            )
        self._notify_resolved(take)
        self._update_queue_gauges()

    def _notify_resolved(self, tickets: list[Ticket]) -> None:
        """Hand resolved tickets to the subscriber (SLO tracker), guarded."""
        if self.on_resolve is None:
            return
        for ticket in tickets:
            try:
                self.on_resolve(ticket)
            except Exception:  # pragma: no cover - observability must not break serving
                pass

    def _update_queue_gauges(self) -> None:
        self._g_queue_depth.set(len(self._pending))
        self._g_queue_columns.set(self._pending_cols)

    # ------------------------------------------------------------- metrics
    def stats(self) -> dict:
        """Packing counters plus the mean block fill against ``max_batch``."""
        batches = self.counters["batches"]
        mean_fill = (
            self.counters["batched_columns"] / (batches * self.max_batch)
            if batches
            else 0.0
        )
        out = {
            **self.counters,
            "pending_requests": self.pending_requests,
            "pending_columns": self.pending_columns,
            "max_batch": self.max_batch,
            "mean_fill": mean_fill,
        }
        if self.reuse_outcomes:
            out["reuse_blocks"] = dict(self.reuse_outcomes)
        return out
