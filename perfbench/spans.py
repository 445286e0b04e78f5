"""Spans recorded from the benchmark's side of each layer boundary.

The traced run wraps public calls only: ``EngineSession.run`` on the served
session (as an instance attribute) and the public kernel functions the SNICIT
pipeline calls, replaced at the module attribute the pipeline looks them up
through.  Nothing in the program changes; :func:`install` returns the undo.
Spans stay in memory and :meth:`Recorder.dump` writes them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field

#: kernel span name -> (module, attribute) call sites it wraps.  The spMM
#: sites cover the baked-plan path of a warm session and the unplanned
#: champion path of a cold engine.
KERNEL_SITES = {
    "spmm": (("repro.core.plan", "planned_spmm"), ("repro.core.pipeline", "champion_spmm")),
    "update": (("repro.core.pipeline", "update_compact"),),
    "prune": (
        ("repro.core.pipeline", "prune_samples"),
        ("repro.core.pipeline", "select_centroids"),
    ),
    "convert": (("repro.core.pipeline", "convert"),),
}

#: blocks whose individual kernel spans are kept for the trace file (the
#: per-block totals are kept for every block)
DETAIL_BLOCKS = 16


@dataclass
class BlockSpan:
    """One ``EngineSession.run`` call and the kernel time inside it."""

    span_id: int
    columns: int
    start_mono: float
    start: float
    end: float = 0.0
    kernel_seconds: dict = field(default_factory=dict)
    kernel_calls: dict = field(default_factory=dict)
    spmm_madds: int = 0
    kernel_spans: list = field(default_factory=list)
    stage_seconds: dict = field(default_factory=dict)
    modeled_ms: dict = field(default_factory=dict)
    n_centroids: int = 0
    active_end: int = 0
    residues_pruned: int = 0

    @property
    def wall(self) -> float:
        return self.end - self.start

    def add(self, kernel: str, t0: float, t1: float, madds: int) -> None:
        self.kernel_seconds[kernel] = self.kernel_seconds.get(kernel, 0.0) + (t1 - t0)
        self.kernel_calls[kernel] = self.kernel_calls.get(kernel, 0) + 1
        self.spmm_madds += madds
        if self.span_id <= DETAIL_BLOCKS:
            self.kernel_spans.append((kernel, t0, t1))


class Recorder:
    """In-memory span store; the block in flight is tracked per thread."""

    def __init__(self):
        self.blocks: list[BlockSpan] = []
        self.by_result: dict[int, BlockSpan] = {}
        self.requests: list[tuple] = []
        #: kernel sites that no longer exist in the program (renamed or removed)
        self.missing_sites: list[str] = []
        self._local = threading.local()

    def current(self) -> BlockSpan | None:
        return getattr(self._local, "block", None)

    def open_block(self, columns: int) -> BlockSpan:
        block = BlockSpan(
            span_id=len(self.blocks) + 1,
            columns=columns,
            start_mono=time.monotonic(),
            start=time.perf_counter(),
        )
        self.blocks.append(block)
        self._local.block = block
        return block

    def close_block(self, block: BlockSpan, result) -> None:
        block.end = time.perf_counter()
        self._local.block = None
        if result is None:
            return
        self.by_result[id(result)] = block
        block.stage_seconds = dict(result.stage_seconds)
        block.modeled_ms = {
            stage: snap.modeled_seconds * 1e3 for stage, snap in result.modeled.items()
        }
        stats = result.stats or {}
        block.n_centroids = int(stats.get("n_centroids", 0))
        active = stats.get("active_columns_trace")
        block.active_end = int(active[-1]) if active is not None and len(active) else 0
        empties = stats.get("empty_columns_trace")
        block.residues_pruned = int(empties[-1]) if empties is not None and len(empties) else 0

    def request(self, due: float, submit_start: float, submit_s: float,
                completed: float | None, block: BlockSpan | None) -> None:
        """One served request: due time, the submit call, and its result time."""
        self.requests.append(
            (due, submit_start, submit_s, completed, block.span_id if block else None)
        )

    def dump(self, path) -> None:
        """Write every span as JSON: blocks with their kernels, then requests."""
        out = {"blocks": [], "requests": []}
        for b in self.blocks:
            out["blocks"].append({
                "id": b.span_id,
                "name": "session.run",
                "start_s": b.start,
                "dur_ms": b.wall * 1e3,
                "columns": b.columns,
                "stages_ms": {k: v * 1e3 for k, v in b.stage_seconds.items()},
                "kernels_ms": {k: v * 1e3 for k, v in b.kernel_seconds.items()},
                "kernel_spans": [
                    {"name": name, "parent": b.span_id, "start_s": t0, "dur_ms": (t1 - t0) * 1e3}
                    for name, t0, t1 in b.kernel_spans
                ],
            })
        for due, s0, submit_s, done, block_id in self.requests:
            out["requests"].append({
                "name": "request", "due_s": due, "submit_start_s": s0,
                "submit_us": submit_s * 1e6, "completed_s": done, "block": block_id,
            })
        with open(path, "w") as fh:
            json.dump(out, fh)


def _layer_index(args) -> int:
    # planned_spmm(net, layer_plan, y, ...) / champion_spmm(net, i, y, ...)
    site = args[1]
    return site if isinstance(site, int) else site.index


def _wrap(recorder: Recorder, kernel: str, fn):
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        block = recorder.current()
        if block is None:
            return fn(*args, **kwargs)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            madds = 0
            if kernel == "spmm":
                net, y = args[0], args[2]
                madds = net.layers[_layer_index(args)].weight.nnz * y.shape[1]
            block.add(kernel, t0, t1, madds)

    return traced


def install(recorder: Recorder, sessions=()):
    """Wrap the kernel sites and each session's ``run``; returns the undo.

    A site the program no longer has is skipped and listed in
    ``recorder.missing_sites``: it shows as a drop in kernel coverage rather
    than as a crash of the traced run.
    """
    undo = []
    for kernel, sites in KERNEL_SITES.items():
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in recorder.missing_sites:
                    recorder.missing_sites.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, _wrap(recorder, kernel, original))
            undo.append((module, attr, original))
    for session in sessions:
        run = session.run

        def traced_run(y0, _run=run):
            block = recorder.open_block(y0.shape[1])
            result = None
            try:
                result = _run(y0)
            finally:
                recorder.close_block(block, result)
            return result

        session.run = traced_run
        undo.append((session, "run", None))

    def restore():
        for target, attr, original in reversed(undo):
            if original is None:
                delattr(target, attr)  # back to the class method
            else:
                setattr(target, attr, original)

    return restore
