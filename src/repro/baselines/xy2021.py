"""XY-2021 baseline (Xin et al., SDGC 2021 champion).

Published idea: generalize spMM kernels into a universal form, build an
*optimization space* of strategies, and select the performance-optimal point
with a cost model.  XY's kernels exploit the element-level sparsity of the
activations (dead neurons) but keep the full batch resident — no column
compaction — which is exactly the redundancy SNICIT removes after
convergence.

Reproduction: per layer, the engine chooses between the strategies in
:mod:`repro.kernels` (column-masked CSR for activation-sparse blocks, ELL
otherwise) either by the live-fraction cost model (the default) or by
exhaustive measurement over the space (``explore='measure'``), mirroring
XY's offline search.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ConfigError
from repro.gpu.device import VirtualDevice
from repro.inference import InferenceResult
from repro.kernels import DENSE_WEIGHT_THRESHOLD, champion_spmm, charge_for
from repro.network import SparseNetwork
from repro.sparse.spmm import (
    spmm_colwise,
    spmm_ell,
    spmm_masked,
    spmm_reduceat,
    spmm_tiled,
)

__all__ = ["XY2021"]

_STRATEGIES = ("masked", "ell", "reduceat", "tiled", "colwise")


class XY2021:
    """Optimization-space spMM feed-forward over the full batch."""

    name = "XY-2021"

    def __init__(
        self,
        network: SparseNetwork,
        device: VirtualDevice | None = None,
        explore: str = "model",
    ):
        if explore not in ("model", "measure"):
            raise ConfigError("explore must be 'model' or 'measure'")
        self.network = network
        self.device = device or VirtualDevice()
        self.explore = explore
        #: strategy chosen per layer on the last run (exposed for inspection)
        self.chosen: list[str] = []

    def _run_strategy(self, strategy: str, i: int, y: np.ndarray) -> tuple[np.ndarray, int]:
        layer = self.network.layers[i]
        if strategy == "masked":
            live = (y != 0).any(axis=1)
            return spmm_masked(layer.weight, y, live)
        if strategy == "ell":
            return spmm_ell(self.network.ell(i), y), layer.weight.nnz
        if strategy == "colwise":
            return spmm_colwise(self.network.dense(i), y)
        if strategy == "tiled":
            return spmm_tiled(layer.weight, y), layer.weight.nnz
        return spmm_reduceat(layer.weight, y), layer.weight.nnz

    def _candidates(self, i: int) -> tuple[str, ...]:
        # materializing a dense W only pays off for the medium-scale layers;
        # for SDGC-sparse weights the colwise point of the space is pruned
        if self.network.layers[i].weight.density >= DENSE_WEIGHT_THRESHOLD:
            return _STRATEGIES
        return tuple(s for s in _STRATEGIES if s != "colwise")

    def _measure_best(self, i: int, y: np.ndarray) -> str:
        best, best_t = "ell", float("inf")
        for strategy in self._candidates(i):
            t0 = time.perf_counter()
            self._run_strategy(strategy, i, y)
            dt = time.perf_counter() - t0
            if dt < best_t:
                best, best_t = strategy, dt
        return best

    def infer(self, y0: np.ndarray) -> InferenceResult:
        net = self.network
        y = net.validate_input(y0).astype(np.float32, copy=True)
        layer_seconds = np.zeros(net.num_layers)
        self.chosen = []
        mark = self.device.snapshot()
        wall0 = time.perf_counter()
        for i, layer in enumerate(net.layers):
            lt0 = time.perf_counter()
            if self.explore == "measure":
                strategy = self._measure_best(i, y)
                z, work = self._run_strategy(strategy, i, y)
            else:
                z, work, strategy = champion_spmm(net, i, y)
            self.chosen.append(strategy)
            z += layer.bias_column()
            y = net.activation(z)
            self.device.charge(
                charge_for(strategy, work, layer.n_out, y.shape[1], f"xy_{strategy}")
            )
            layer_seconds[i] = time.perf_counter() - lt0
        total = time.perf_counter() - wall0
        return InferenceResult(
            y=y,
            stage_seconds={"inference": total},
            layer_seconds=layer_seconds,
            modeled={"inference": self.device.snapshot() - mark},
            stats={"strategies": list(self.chosen)},
        )
