"""The three workloads: how each is set up, fed and checked.

Each workload builds the program through its public calls only, derives
every input from the seed, and labels outputs the way its oracle compares
them (see :mod:`oracle`).  ``build`` is the set-up that ``setup_s`` times;
``first_input`` is input generation, which ``setup_s`` excludes.
"""

from __future__ import annotations

import time

import numpy as np

import oracle

BLOCK = 64


class Env:
    """What one process holds after setting a workload up."""

    def __init__(self):
        self.network_s = 0.0
        self.warmup_s = 0.0

    def close(self) -> None:
        router = getattr(self, "router", None)
        if router is not None:
            router.close(drain=True, timeout=60.0)


class _Offline:
    """Closed loop, one caller, on a warm ``EngineSession.run``."""

    kind = "offline"

    def first_result(self, env, y0) -> None:
        env.session.run(y0)

    def _session(self, env, net, config) -> None:
        from repro.serve import EngineSession

        t0 = time.perf_counter()
        env.session = EngineSession(net, config, warm=True)
        env.warmup_s = time.perf_counter() - t0
        env.net = net


class DeepOffline(_Offline):
    name = "deep-offline"
    benchmark = "256-120"
    #: the post-convergence work of a block depends on how its columns
    #: cluster; over 32 blocks the total still moved by 0.1 from seed to seed
    pool_blocks = 64
    setup_repeats = 5

    def build(self) -> Env:
        from repro.harness.experiments.common import sdgc_config
        from repro.harness.workloads import get_benchmark

        env = Env()
        t0 = time.perf_counter()
        net = get_benchmark(self.benchmark)
        env.network_s = time.perf_counter() - t0
        self._session(env, net, sdgc_config(net.num_layers))
        return env

    def _columns(self, seed: int, n: int) -> np.ndarray:
        from repro.harness.workloads import get_input

        return np.asarray(get_input(self.benchmark, n, seed=seed), dtype=np.float32)

    def first_input(self, env, seed: int) -> np.ndarray:
        return self._columns(seed, BLOCK)

    def pool(self, env, seed: int) -> list[np.ndarray]:
        y = self._columns(seed, BLOCK * self.pool_blocks)
        return [np.ascontiguousarray(y[:, i:i + BLOCK]) for i in range(0, y.shape[1], BLOCK)]

    def reference(self, env, blocks) -> list[np.ndarray]:
        y = oracle.dense_forward(env.net, np.hstack(blocks))
        labels = oracle.sdgc_labels(y)
        return [labels[i:i + BLOCK] for i in range(0, len(labels), BLOCK)]

    def labels(self, env, y) -> np.ndarray:
        return oracle.sdgc_labels(y)


class MediumOffline(_Offline):
    name = "medium-offline"
    dnn = "A"
    pool_blocks = 12
    setup_repeats = 3

    def build(self) -> Env:
        from repro.harness.experiments.table4 import medium_config
        from repro.harness.medium import get_trained

        env = Env()
        t0 = time.perf_counter()
        trained = get_trained(self.dnn)
        env.network_s = time.perf_counter() - t0
        env.stack = trained.stack
        env.images = trained.test.images
        self._session(env, trained.stack.network, medium_config(trained.spec.sparse_layers))
        return env

    def _order(self, env, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).permutation(len(env.images))

    def first_input(self, env, seed: int) -> np.ndarray:
        return env.stack.head(env.images[self._order(env, seed)[:BLOCK]])

    def pool(self, env, seed: int) -> list[np.ndarray]:
        order = self._order(env, seed)[: BLOCK * self.pool_blocks]
        y = env.stack.head(env.images[order])
        return [np.ascontiguousarray(y[:, i:i + BLOCK]) for i in range(0, y.shape[1], BLOCK)]

    def reference(self, env, blocks) -> list[np.ndarray]:
        labels = oracle.class_labels(env.stack, oracle.dense_forward(env.net, np.hstack(blocks)))
        return [labels[i:i + BLOCK] for i in range(0, len(labels), BLOCK)]

    def labels(self, env, y) -> np.ndarray:
        return oracle.class_labels(env.stack, y)


class ShallowServe:
    """Open-loop Poisson arrivals into one ``AsyncRouter``, then a backlog."""

    kind = "serve"
    name = "shallow-serve"
    benchmark = "144-48"
    model = "shallow"
    setup_repeats = 5
    #: arrival rate of the open-loop phase, about a quarter of saturation:
    #: low enough that the host's own speed swings are not amplified by
    #: queueing into the latency figures
    rate_rps = 120.0
    #: share of ``--seconds`` given to the open-loop phase
    open_share = 0.7
    #: requests submitted at once in the saturation phase, split over bursts
    backlog = 3600
    #: open-loop segments, each followed by one backlog burst
    segments = 6
    max_wait_s = 0.002
    min_cols, max_cols = 1, 8
    pool_columns = 1024
    #: 64-column blocks cut from the pool for the equal-block arms
    arm_blocks = 8
    #: a run whose generator sent its p99 request later than this is invalid;
    #: the worker holding the GIL delays the sleeping generator by 2-6 ms
    #: normally and by up to ~40 ms while the host runs at half speed
    lag_limit_ms = 50.0
    #: intake bound far above any backlog here, so nothing is refused
    queue_limit = 100_000

    def build(self) -> Env:
        from repro.harness.experiments.common import sdgc_config
        from repro.harness.workloads import get_benchmark
        from repro.serve import AsyncRouter, ModelRegistry

        env = Env()
        t0 = time.perf_counter()
        net = get_benchmark(self.benchmark)
        env.network_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        registry = ModelRegistry()
        env.session = registry.register(
            self.model, net, config=sdgc_config(net.num_layers), warm=True
        )
        env.router = AsyncRouter(
            registry, max_batch=BLOCK, max_wait_s=self.max_wait_s,
            queue_limit=self.queue_limit,
        )
        env.warmup_s = time.perf_counter() - t0
        env.net = net
        return env

    def first_input(self, env, seed: int) -> np.ndarray:
        from repro.harness.workloads import get_input

        return np.asarray(get_input(self.benchmark, self.max_cols, seed=seed), dtype=np.float32)

    def first_result(self, env, y0) -> None:
        env.router.submit(self.model, y0).result(timeout=60.0)

    def inputs(self, env, seed: int, seconds: float) -> dict:
        """Pool, open-loop schedule and backlog bursts, all from ``seed``."""
        from repro.harness.workloads import get_input

        pool = np.asarray(get_input(self.benchmark, self.pool_columns, seed=seed), np.float32)
        rng = np.random.default_rng(seed)
        n_open = max(1000, int(round(self.rate_rps * self.open_share * seconds)))

        def requests(n):
            widths = rng.integers(self.min_cols, self.max_cols + 1, size=n)
            cols = [rng.choice(self.pool_columns, size=w, replace=False) for w in widths]
            return cols, [np.ascontiguousarray(pool[:, c]) for c in cols]

        segments = []
        for k in range(self.segments):
            n = n_open // self.segments + (k < n_open % self.segments)
            open_cols, open_y = requests(n)
            burst_cols, burst_y = requests(self.backlog // self.segments)
            segments.append({
                "open_cols": open_cols,
                "open": open_y,
                "offsets": np.cumsum(rng.exponential(1.0 / self.rate_rps, size=n)).tolist(),
                "burst_cols": burst_cols,
                "burst": burst_y,
            })
        arm_cols = [rng.choice(self.pool_columns, size=BLOCK, replace=False)
                    for _ in range(self.arm_blocks)]
        return {
            "pool": pool,
            "segments": segments,
            "arm_cols": arm_cols,
            "arms": [np.ascontiguousarray(pool[:, c]) for c in arm_cols],
        }

    def reference(self, env, pool) -> np.ndarray:
        return oracle.sdgc_labels(oracle.dense_forward(env.net, pool))

    def labels(self, env, y) -> np.ndarray:
        return oracle.sdgc_labels(y)


WORKLOADS = {w.name: w for w in (DeepOffline(), MediumOffline(), ShallowServe())}
