"""The SNICIT inference engine (paper Fig. 2, §3).

Orchestrates the four stages — pre-convergence feed-forward, cluster-based
conversion, post-convergence update, final recovery — with per-stage and
per-layer wall-clock timing plus cost-model accounting on the virtual
device, so every experiment of §4 can be regenerated.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import SNICITConfig
from repro.core.conversion import convert
from repro.core.pruning import prune_samples, select_centroids
from repro.core.recovery import recover_compact
from repro.core.reuse import CentroidCache, degenerate_fill_baselines
from repro.core.sampling import sample_columns, sum_downsample
from repro.core.postconv import update_compact, update_residues_external
from repro.gpu.costmodel import KernelCharge
from repro.gpu.device import VirtualDevice
from repro.gpu.memory import BufferPool
from repro.inference import InferenceResult
from repro.kernels import (
    StrategyMemo,
    assign_cached_centroids,
    assign_charge,
    champion_spmm,
    charge_for,
)
from repro.network import SparseNetwork
from repro.obs import as_tracer

__all__ = ["SNICIT"]


class SNICIT:
    """Compression-at-inference-time engine.

    Parameters
    ----------
    network:
        The sparse DNN to run.
    config:
        Pipeline parameters; ``config.threshold_layer`` is clamped to the
        network depth.
    device:
        Virtual device for cost accounting (a fresh one per engine by
        default).
    memo:
        Optional :class:`~repro.kernels.StrategyMemo`.  A warm session passes
        one so champion strategy decisions are replayed across calls instead
        of re-derived per layer.
    scratch:
        Optional :class:`~repro.gpu.memory.BufferPool`.  When given, the
        pre-convergence layers ping-pong between pooled output buffers via
        the kernels' ``out=`` parameters instead of allocating a fresh
        ``(N, B)`` block per layer — the allocation amortization a
        persistent :class:`~repro.serve.EngineSession` relies on.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When given, every run emits a
        request -> stage -> layer -> kernel span tree, with each kernel span
        carrying its :class:`~repro.gpu.costmodel.KernelCharge` (modeled
        flops/bytes next to wall time).  ``None`` means the shared no-op
        tracer — the hot path pays nothing.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` for strategy-decision
        counters (``spmm_strategy_total``).
    reuse:
        Optional :class:`~repro.core.reuse.CentroidCache`.  A warm session
        passes one so the layer-``t`` centroids (and their post-convergence
        evolution) carry across consecutive blocks: stage 2 then becomes
        *assign-only* on a cache hit — new columns are matched against the
        cached centroids and only their residues are computed, skipping
        sample pruning and the centroid feed-forward entirely.  The cache's
        staleness policy forces a full re-conversion (which refills the
        entry) when the block's assignment distance or residue density
        drifts past the configured budget.
    plan:
        Optional :class:`~repro.core.plan.StrategyPlan` baked at session
        warmup.  When set, every spMM dispatch goes through the plan's
        frozen per-layer decision instead of the memoized champion — a tuple
        index instead of a memo lookup per layer.  The plan makes the same
        per-block choice as the champion rules, so a planned engine stays
        bitwise identical to an unplanned one without a memo.
    """

    name = "SNICIT"

    def __init__(
        self,
        network: SparseNetwork,
        config: SNICITConfig,
        device: VirtualDevice | None = None,
        memo: StrategyMemo | None = None,
        scratch: BufferPool | None = None,
        tracer=None,
        metrics=None,
        reuse: CentroidCache | None = None,
        plan=None,
    ):
        self.network = network
        self.config = config.for_network(network.num_layers)
        self.device = device or VirtualDevice()
        self.memo = memo
        self.scratch = scratch
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        self.reuse = reuse
        self.plan = plan
        # residue arithmetic (Eq. 4-6) needs a fixed activation width from the
        # threshold layer onward; reject shape-changing post-convergence
        # layers up front rather than failing mid-inference.  With
        # auto_threshold the detector may fire anywhere, so all layers must
        # be square.
        first_checked = 0 if self.config.auto_threshold else self.config.threshold_layer
        for i in range(first_checked, network.num_layers):
            layer = network.layers[i]
            if layer.n_out != layer.n_in:
                from repro.errors import ConfigError

                raise ConfigError(
                    f"post-convergence layer {i} is {layer.n_out}x{layer.n_in}; "
                    "SNICIT's residue representation requires square layers "
                    "after the threshold"
                )
        # ELL views for the fixed-fan-in fast path are built lazily and cached
        # on the network itself, shared across engines.

    # ------------------------------------------------------------------ run
    def infer(self, y0: np.ndarray) -> InferenceResult:
        """Run the full pipeline on input block ``Y(0)`` of shape (N, B)."""
        net = self.network
        cfg = self.config
        tracer = self.tracer
        y0 = net.validate_input(y0).astype(np.float32, copy=True)
        t = cfg.threshold_layer
        batch = y0.shape[1]
        with tracer.span(
            "snicit.infer", cat="request", engine=self.name,
            benchmark=net.name, batch=batch,
        ) as req_span:
            result = self._infer_traced(y0, t, batch, req_span)
        return result

    def _infer_traced(self, y0, t: int, batch: int, req_span) -> InferenceResult:
        net = self.network
        cfg = self.config
        tracer = self.tracer
        layer_seconds = np.zeros(net.num_layers)
        stage_seconds: dict[str, float] = {}
        modeled: dict[str, object] = {}
        dev = self.device
        mark = dev.snapshot()

        # ---- stage 1: pre-convergence sparse matrix multiplication -------
        wall0 = time.perf_counter()
        y = y0
        detector = None
        if cfg.auto_threshold:
            from repro.core.convergence import ConvergenceDetector

            detector = ConvergenceDetector(
                tolerance=cfg.auto_tolerance,
                patience=cfg.auto_patience,
                probe_columns=cfg.sample_size,
                probe_dim=cfg.downsample_dim or cfg.sample_size,
            )
            detector.observe(y)
        with tracer.span("pre_convergence", cat="stage") as stage_span:
            for i in range(t):
                lt0 = time.perf_counter()
                with tracer.span(f"layer {i}", cat="layer", layer=i):
                    y = self._feedforward_layer(i, y)
                layer_seconds[i] = time.perf_counter() - lt0
                if detector is not None and detector.observe(y):
                    t = i + 1  # converged early: convert here (paper §5 extension)
                    break
            stage_span.set(layers=t, threshold_layer=t)
        stage_seconds["pre_convergence"] = time.perf_counter() - wall0
        modeled["pre_convergence"] = dev.snapshot() - mark
        mark = dev.snapshot()

        # Degenerate threshold: conversion never fires before the last layer
        # (explicit t == num_layers, or the auto detector staying quiet), so
        # there is nothing to compress.  Skip stages 2-4 entirely — sampling,
        # pruning, converting and then discarding the result would charge
        # conversion/recovery kernels to the cost model and pollute the stage
        # timings of what is really a pure feed-forward run.
        if t >= net.num_layers:
            for name in ("conversion", "post_convergence", "recovery"):
                # zero wall clock, zero modeled delta — but still advance the
                # mark per stage so the ledger and the span tree agree on
                # stage boundaries (each entry is its own empty window, not a
                # cumulative diff against the pre-convergence mark)
                with tracer.span(name, cat="stage", skipped=True):
                    stage_seconds[name] = 0.0
                    modeled[name] = dev.snapshot() - mark
                    mark = dev.snapshot()
            # pooled buffers are recycled by the next call; detach the result
            if self.scratch is not None and self.scratch.owns(y):
                y = y.copy()
            stats = {
                "threshold_layer": t,
                "auto_detected": False,
                "convergence_trace": list(detector.trace) if detector is not None else [],
                "n_centroids": 0,
                "centroid_cols": np.empty(0, np.int64),
                "active_columns_trace": np.array([]),
                "empty_columns_trace": np.array([]),
            }
            req_span.set(threshold_layer=t, n_centroids=0, degenerate_threshold=True)
            return InferenceResult(
                y=y,
                stage_seconds=stage_seconds,
                layer_seconds=layer_seconds,
                modeled=modeled,
                stats=stats,
            )

        # ---- stage 2: cluster-based conversion ---------------------------
        # With a centroid cache, try the cross-block assign-only path first:
        # match the block against a previous conversion's centroids and keep
        # only the residues, skipping sampling/pruning/centroid feed-forward.
        wall0 = time.perf_counter()
        reused = None
        reuse_info: dict | None = None
        capture = False
        with tracer.span("conversion", cat="stage") as stage_span:
            if self.reuse is not None:
                reused, reuse_info = self._try_reuse(y, t, stage_span)
            if reused is None:
                f0 = sample_columns(y, cfg.sample_size)
                if cfg.downsample_dim is not None:
                    f = sum_downsample(f0, cfg.downsample_dim)
                else:
                    f = f0
                col_idx = prune_samples(f, cfg.eta, cfg.eps)
                cent_cols = select_centroids(col_idx)
                if len(cent_cols) == 0:  # degenerate but possible with eta=inf-like configs
                    cent_cols = np.array([0], dtype=np.int64)
                with tracer.span("conversion_kernel", cat="kernel") as kernel_span:
                    yhat, m, ne_rec = convert(y, cent_cols, cfg.prune_threshold)
                    ne_idx = self._refresh_ne_idx(ne_rec, m)
                    charge = KernelCharge(
                        name="conversion",
                        flops=float(f.size * f.shape[1] + y.size * len(cent_cols)),
                        bytes_read=float(y.nbytes * 2),
                        bytes_written=float(yhat.nbytes),
                    )
                    kernel_span.charge(charge, dev.charge(charge))
                capture = (
                    self.reuse is not None
                    and len(cent_cols) <= self.reuse.max_centroids
                )
                if capture:
                    # fill-time staleness baseline: how far the block's own
                    # columns sit from their chosen centroids (pre-prune L0)
                    # and how dense their residues are post-prune
                    nc_mask = m != -1
                    if nc_mask.any():
                        baseline_distance = float(
                            (y[:, nc_mask] != y[:, m[nc_mask]]).mean()
                        )
                        baseline_density = float((yhat[:, nc_mask] != 0).mean())
                    else:
                        # degenerate conversion (every column its own
                        # centroid): no residue columns to baseline against,
                        # so fall back to the centroid set's own spacing —
                        # zero baselines would mark every later mix block
                        # stale and churn the cache
                        baseline_distance, baseline_density = (
                            degenerate_fill_baselines(
                                y[:, cent_cols], cfg.prune_threshold
                            )
                        )
                stage_span.set(
                    n_centroids=int(len(cent_cols)),
                    sampled_columns=int(f0.shape[1]),
                    active_columns=int(len(ne_idx)),
                )
        stage_seconds["conversion"] = time.perf_counter() - wall0
        modeled["conversion"] = dev.snapshot() - mark
        mark = dev.snapshot()

        if reused is not None:
            assign, residues, cached = reused
            return self._finish_reused(
                assign, residues, cached, t, batch, detector,
                layer_seconds, stage_seconds, modeled, mark, req_span, reuse_info,
            )

        # ---- stage 3: post-convergence update -----------------------------
        # The representation is kept *compacted*: only the ne_idx columns of
        # Ŷ are materialized, exactly as the paper launches size(ne_idx)
        # blocks.  Emptiness of residue columns is monotone, so columns are
        # only ever dropped (at ne_idx refreshes), never re-added; centroids
        # are pinned.
        wall0 = time.perf_counter()
        empties: list[int] = []
        active_trace: list[int] = []
        trajectory: list[np.ndarray] = []
        with tracer.span("post_convergence", cat="stage") as stage_span:
            sub = yhat[:, ne_idx]
            is_cent = m[ne_idx] == -1
            cent_pos = np.searchsorted(ne_idx, m[ne_idx[~is_cent]])
            ne_rec_sub = np.ones(len(ne_idx), dtype=bool)
            for i in range(t, net.num_layers):
                lt0 = time.perf_counter()
                layer = net.layers[i]
                with tracer.span(
                    f"layer {i}", cat="layer", layer=i, active_columns=int(len(ne_idx))
                ) as layer_span:
                    with tracer.span("load_reduced_spmm", cat="kernel", layer=i) as ks:
                        z_sub, work, strategy = self._spmm(i, sub)
                        charge = charge_for(
                            strategy, work, layer.n_out, len(ne_idx), "load_reduced_spmm"
                        )
                        ks.set(strategy=strategy, work=int(work))
                        ks.charge(charge, dev.charge(charge))
                    if capture:
                        # centroid evolution for cross-block reuse: the spMM
                        # output of the centroid columns, in sorted-centroid
                        # order (the mask indexing copies)
                        trajectory.append(z_sub[:, is_cent])
                    bias = layer.bias if isinstance(layer.bias, np.ndarray) else float(layer.bias)
                    with tracer.span("update_centroids_residues", cat="kernel", layer=i) as ku:
                        sub, ne_rec_sub = update_compact(
                            z_sub, bias, is_cent, cent_pos, net.ymax, cfg.prune_threshold
                        )
                        charge = KernelCharge(
                            name="update_centroids_residues",
                            flops=float(4 * layer.n_out * len(ne_idx)),
                            bytes_read=float(2 * layer.n_out * len(ne_idx) * 4),
                            bytes_written=float(layer.n_out * len(ne_idx) * 4),
                        )
                        ku.charge(charge, dev.charge(charge))
                    active_trace.append(len(ne_idx))
                    empties.append(batch - int(ne_rec_sub.sum()))
                    if (i - t) % cfg.ne_idx_interval == cfg.ne_idx_interval - 1:
                        keep = ne_rec_sub | is_cent
                        if not keep.all():
                            ne_idx = ne_idx[keep]
                            sub = sub[:, keep]
                            is_cent = is_cent[keep]
                            cent_pos = np.searchsorted(ne_idx, m[ne_idx[~is_cent]])
                    layer_span.set(empty_columns=empties[-1])
                layer_seconds[i] = time.perf_counter() - lt0
            stage_span.set(
                active_columns_start=active_trace[0] if active_trace else 0,
                active_columns_end=int(len(ne_idx)),
                residues_pruned=empties[-1] if empties else 0,
            )
        stage_seconds["post_convergence"] = time.perf_counter() - wall0
        modeled["post_convergence"] = dev.snapshot() - mark
        mark = dev.snapshot()

        if capture:
            # the next same-mix block can now convert assign-only
            self.reuse.fill(
                t,
                cent_y=y[:, cent_cols],
                z_cent=trajectory,
                cent_final=sub[:, is_cent],
                baseline_distance=baseline_distance,
                baseline_density=baseline_density,
                network=net,
            )

        # ---- stage 4: final results recovery ------------------------------
        wall0 = time.perf_counter()
        with tracer.span("recovery", cat="stage") as stage_span:
            with tracer.span("recovery_kernel", cat="kernel") as kernel_span:
                # scatter + centroid add-back in one pass: the full-width
                # Ŷ(L) never materializes separately from the result
                y_final = recover_compact(sub, ne_idx, m, net.output_dim)
                charge = KernelCharge(
                    name="recovery",
                    flops=float(y_final.size),
                    bytes_read=float(y_final.nbytes),
                    bytes_written=float(y_final.nbytes),
                )
                kernel_span.charge(charge, dev.charge(charge))
        stage_seconds["recovery"] = time.perf_counter() - wall0
        modeled["recovery"] = dev.snapshot() - mark

        stats = {
            "threshold_layer": t,
            "auto_detected": detector is not None and t < cfg.threshold_layer,
            "convergence_trace": list(detector.trace) if detector is not None else [],
            "n_centroids": int(len(cent_cols)),
            "centroid_cols": cent_cols,
            "active_columns_trace": np.array(active_trace),
            "empty_columns_trace": np.array(empties),
        }
        if reuse_info is not None:
            stats["centroid_reuse"] = reuse_info
        req_span.set(
            threshold_layer=t,
            n_centroids=int(len(cent_cols)),
            active_columns_end=int(len(ne_idx)),
            residues_pruned=empties[-1] if empties else 0,
        )
        return InferenceResult(
            y=y_final,
            stage_seconds=stage_seconds,
            layer_seconds=layer_seconds,
            modeled=modeled,
            stats=stats,
        )

    # ------------------------------------------------- cross-block reuse
    def _try_reuse(self, y: np.ndarray, t: int, stage_span):
        """Attempt assign-only conversion against the centroid cache.

        Returns ``((assign, residues, entry), info)`` on a hit or
        ``(None, info)`` when the cache is cold or the staleness policy
        rejects the block; ``info`` is the JSON-safe record that lands in
        ``result.stats['centroid_reuse']`` either way.
        """
        cfg = self.config
        dev = self.device
        tracer = self.tracer
        cached = self.reuse.lookup(t, y.shape[0], network=self.network)
        if cached is None:
            stage_span.set(reuse="miss")
            return None, {"enabled": True, "hit": False, "reason": "cold"}
        with tracer.span(
            "assign_cached_kernel", cat="kernel", n_centroids=cached.n_centroids
        ) as ks:
            assign, dist = assign_cached_centroids(y, cached.cent_y)
            charge = assign_charge(y.shape[0], y.shape[1], cached.n_centroids)
            ks.charge(charge, dev.charge(charge))
        with tracer.span("reuse_residues_kernel", cat="kernel") as kr:
            residues = y - cached.cent_y[:, assign]
            if cfg.prune_threshold > 0:
                residues[np.abs(residues) < cfg.prune_threshold] = 0
            charge = KernelCharge(
                name="reuse_residues",
                flops=float(residues.size),
                bytes_read=float(y.nbytes) * 2,
                bytes_written=float(residues.nbytes),
            )
            kr.charge(charge, dev.charge(charge))
        mean_distance = float(dist.mean()) / y.shape[0] if dist.size else 0.0
        density = float((residues != 0).mean()) if residues.size else 0.0
        info = {
            "enabled": True,
            "n_centroids": cached.n_centroids,
            "assignment_distance": mean_distance,
            "residue_density": density,
        }
        if not self.reuse.admit(cached, mean_distance, density):
            stage_span.set(reuse="invalidated")
            info.update(hit=False, reason="stale")
            return None, info
        info["hit"] = True
        stage_span.set(reuse="hit", n_centroids=cached.n_centroids)
        return (assign, residues, cached), info

    def _finish_reused(
        self, assign, residues, cached, t: int, batch: int, detector,
        layer_seconds, stage_seconds, modeled, mark, req_span, reuse_info,
    ) -> InferenceResult:
        """Stages 3-4 of the assign-only path.

        Every block column is a residue against an external cached centroid:
        the post-convergence loop feeds only residues through the
        load-reduced spMM and takes the centroid side of Eq. 5 from the
        cached trajectory; recovery gathers the cached final centroids and
        adds the surviving residues back.  With no in-block centroids there
        is nothing to pin, so the active set can shrink all the way to
        empty — the remaining layers then cost nothing.
        """
        net = self.network
        cfg = self.config
        tracer = self.tracer
        dev = self.device

        # ---- stage 3: post-convergence update (residues only) ------------
        wall0 = time.perf_counter()
        empties: list[int] = []
        active_trace: list[int] = []
        ne_idx = np.flatnonzero((residues != 0).any(axis=0)).astype(np.int64)
        with tracer.span("post_convergence", cat="stage", reuse="hit") as stage_span:
            sub = residues[:, ne_idx]
            asg = assign[ne_idx]
            for i in range(t, net.num_layers):
                lt0 = time.perf_counter()
                layer = net.layers[i]
                with tracer.span(
                    f"layer {i}", cat="layer", layer=i, active_columns=int(len(ne_idx))
                ) as layer_span:
                    if len(ne_idx):
                        with tracer.span("load_reduced_spmm", cat="kernel", layer=i) as ks:
                            z_sub, work, strategy = self._spmm(i, sub)
                            charge = charge_for(
                                strategy, work, layer.n_out, len(ne_idx),
                                "load_reduced_spmm",
                            )
                            ks.set(strategy=strategy, work=int(work))
                            ks.charge(charge, dev.charge(charge))
                        bias = (
                            layer.bias if isinstance(layer.bias, np.ndarray)
                            else float(layer.bias)
                        )
                        with tracer.span(
                            "update_residues_external", cat="kernel", layer=i
                        ) as ku:
                            z_cent = cached.z_cent[i - t][:, asg]
                            sub, ne_rec_sub = update_residues_external(
                                z_sub, z_cent, bias, net.ymax, cfg.prune_threshold
                            )
                            charge = KernelCharge(
                                name="update_residues_external",
                                flops=float(4 * layer.n_out * len(ne_idx)),
                                bytes_read=float(3 * layer.n_out * len(ne_idx) * 4),
                                bytes_written=float(layer.n_out * len(ne_idx) * 4),
                            )
                            ku.charge(charge, dev.charge(charge))
                        empty_now = batch - int(ne_rec_sub.sum())
                        active_trace.append(len(ne_idx))
                        empties.append(empty_now)
                        if (i - t) % cfg.ne_idx_interval == cfg.ne_idx_interval - 1:
                            if not ne_rec_sub.all():
                                ne_idx = ne_idx[ne_rec_sub]
                                sub = sub[:, ne_rec_sub]
                                asg = asg[ne_rec_sub]
                    else:
                        empty_now = batch  # everything resolved to a centroid
                        active_trace.append(0)
                        empties.append(empty_now)
                    layer_span.set(empty_columns=empty_now)
                layer_seconds[i] = time.perf_counter() - lt0
            stage_span.set(
                active_columns_start=active_trace[0] if active_trace else 0,
                active_columns_end=int(len(ne_idx)),
                residues_pruned=empties[-1] if empties else 0,
            )
        stage_seconds["post_convergence"] = time.perf_counter() - wall0
        modeled["post_convergence"] = dev.snapshot() - mark
        mark = dev.snapshot()

        # ---- stage 4: recovery from the cached final centroids -----------
        wall0 = time.perf_counter()
        with tracer.span("recovery", cat="stage", reuse="hit"):
            with tracer.span("recovery_kernel", cat="kernel") as kernel_span:
                y_final = cached.cent_final[:, assign]  # gather copies
                if len(ne_idx):
                    y_final[:, ne_idx] += sub
                charge = KernelCharge(
                    name="recovery",
                    flops=float(y_final.size),
                    bytes_read=float(y_final.nbytes) * 2,
                    bytes_written=float(y_final.nbytes),
                )
                kernel_span.charge(charge, dev.charge(charge))
        stage_seconds["recovery"] = time.perf_counter() - wall0
        modeled["recovery"] = dev.snapshot() - mark

        stats = {
            "threshold_layer": t,
            "auto_detected": detector is not None and t < cfg.threshold_layer,
            "convergence_trace": list(detector.trace) if detector is not None else [],
            "n_centroids": cached.n_centroids,
            # centroids live in the cache, not the block
            "centroid_cols": np.empty(0, np.int64),
            "active_columns_trace": np.array(active_trace),
            "empty_columns_trace": np.array(empties),
            "centroid_reuse": reuse_info,
        }
        req_span.set(
            threshold_layer=t,
            n_centroids=cached.n_centroids,
            active_columns_end=int(len(ne_idx)),
            residues_pruned=empties[-1] if empties else 0,
            centroid_reuse="hit",
        )
        return InferenceResult(
            y=y_final,
            stage_seconds=stage_seconds,
            layer_seconds=layer_seconds,
            modeled=modeled,
            stats=stats,
        )

    # ------------------------------------------------------------- helpers
    def _spmm(self, i: int, y: np.ndarray, out: np.ndarray | None = None):
        """One spMM dispatch: baked plan when present, champion otherwise."""
        if self.plan is not None:
            return self.plan.dispatch(self.network, i, y, out=out)
        return champion_spmm(
            self.network, i, y, memo=self.memo, out=out, metrics=self.metrics
        )

    def _feedforward_layer(self, i: int, y: np.ndarray) -> np.ndarray:
        """One pre-convergence layer.

        Uses the shared champion kernel (§3.1: "The implementation of any
        previous SDGC champion can be easily incorporated here"), which is
        exactly what the XY-2021 baseline runs — so pre-convergence latency
        matches XY's per-layer latency, as the paper reports (§4.1).
        """
        net = self.network
        layer = net.layers[i]
        out = None
        if self.scratch is not None:
            # ping-pong: never hand the kernel its own input as the output
            out = self.scratch.take((layer.n_out, y.shape[1]), y.dtype, avoid=y)
        with self.tracer.span("pre_spmm", cat="kernel", layer=i) as ks:
            z, work, strategy = self._spmm(i, y, out=out)
            z += layer.bias_column()
            charge = charge_for(strategy, work, layer.n_out, y.shape[1], "pre_spmm")
            ks.set(strategy=strategy, work=int(work))
            ks.charge(charge, self.device.charge(charge))
        return net.activation(z)

    def _refresh_ne_idx(self, ne_rec: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Rebuild ``ne_idx`` from ``ne_rec``; centroids are always kept."""
        keep = ne_rec | (m == -1)
        return np.flatnonzero(keep).astype(np.int64)
