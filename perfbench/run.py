"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload deep-offline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and driven only through its public calls.  ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1`` wraps
the layer boundaries from this side (see ``spans.py``) and prints the
per-layer metrics.  Every output is checked against a dense reference.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See ``README.md``.
"""

import time

T_START = time.perf_counter()  # setup_s counts from here: a fresh process

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from measure import (  # noqa: E402
    Outcomes,
    due_latencies,
    generator_lags,
    mean_of_medians,
    percentile,
    tail_summary,
)
from oracle import CsrFeedForward  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: closed-loop blocks needed before the p90 block time may be reported
MIN_BLOCKS = 100
#: consecutive blocks per median in the offline ``latency_p50_ms``: about
#: 1.5 s of ``deep-offline``, short against the host's speed swings
MEDIAN_GROUP = 32
#: share of completed columns allowed to disagree with the dense reference;
#: residue pruning (prune threshold > 0) makes SNICIT lossy by design, and a
#: known defect reports a few dead SDGC inputs as alive at 64-column blocks
MISMATCH_TOLERANCE = 0.02
#: largest allowed gap between the summed stage_seconds and the wall time of
#: the EngineSession.run calls that returned them, as a share of that wall
#: time, summed over the traced blocks.  Single blocks are reported too: on
#: 1-column blocks the session's fixed ~0.1-0.2 ms outside the stages alone
#: is 3-5 % of the block.
STAGE_GAP_LIMIT = 0.05
STAGES = ("pre_convergence", "conversion", "post_convergence", "recovery")


def _attach_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(src))


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Judge:
    """Checks outputs against the reference labels and counts outcomes."""

    def __init__(self, workload, env):
        self.workload = workload
        self.env = env
        self.outcomes = Outcomes()

    def check(self, y, reference) -> None:
        y = np.asarray(y)
        if y.ndim != 2 or y.shape[1] != len(reference):
            self.outcomes.record(len(reference), len(reference))
            return
        wrong = self.workload.labels(self.env, y) != reference
        wrong |= ~np.isfinite(y).all(axis=0)
        self.outcomes.record(len(reference), int(np.count_nonzero(wrong)))


# --------------------------------------------------------------------- setup
def setup(workload, seed: int):
    """Build, warm and run the first block; ``env.setup_s`` is the time taken.

    Generating the first input is excluded; everything the program does to
    become ready, its import included, is counted.
    """
    env = workload.build()
    t0 = time.perf_counter()
    y0 = workload.first_input(env, seed)
    excluded = time.perf_counter() - t0
    workload.first_result(env, y0)
    env.setup_s = time.perf_counter() - T_START - excluded
    return env


def probe_setups(workload, seed: int, count: int) -> list[float]:
    """``setup_s`` of ``count`` fresh processes, run one after another."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
        "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe",
    ]
    samples = []
    for _ in range(count):
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


# ------------------------------------------------------------------- offline
def closed_loop(run, blocks, references, judge, seconds: float, min_blocks: int = 0):
    """Run ``blocks`` round-robin for ``seconds``; returns (rounds, columns).

    Stops only at the end of a round, so every block of the pool is timed
    equally often and a run's figures do not depend on where time ran out.
    ``rounds`` holds each round's block wall times; ``columns`` counts the
    columns of the blocks that completed.
    """
    outcomes = judge.outcomes
    rounds: list[list[float]] = []
    timed = columns = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # past ``seconds`` only to reach ``min_blocks``, and never past 3x
        if elapsed >= seconds and (timed >= min_blocks or elapsed >= 3 * seconds):
            break
        times = []
        for block, reference in zip(blocks, references):
            outcomes.attempted += 1
            t0 = time.perf_counter()
            try:
                result = run(block)
            except Exception as exc:  # a raised block is a failure, not a crash
                outcomes.raised += 1
                print(f"block raised: {exc!r}", file=sys.stderr)
                continue
            times.append(time.perf_counter() - t0)
            columns += block.shape[1]
            judge.check(result.y, reference)
        rounds.append(times)
        timed += len(times)
    return rounds, columns


def offline_e2e(workload, env, seed: int, seconds: float, setup_samples) -> tuple:
    blocks = workload.pool(env, seed)
    references = workload.reference(env, blocks)
    judge = Judge(workload, env)
    rounds, columns = closed_loop(
        env.session.run, blocks, references, judge, seconds, min_blocks=MIN_BLOCKS
    )
    times = [_ms(t) for r in rounds for t in r]
    summary = tail_summary(times, 90.0)
    groups = [times[i:i + MEDIAN_GROUP] for i in range(0, len(times), MEDIAN_GROUP)]
    out = judge.outcomes
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        # both linear in the host's fast/slow shares (see mean_of_medians)
        "throughput_cols_per_s": (columns / (sum(times) / 1e3), "cols/s"),
        "latency_p50_ms": (mean_of_medians(groups), "ms"),
        "latency_p90_ms": (summary["tail"], "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    ledger = {
        "block_p50_ms": (summary["p50"], "ms"),
        "block_p90_ms": (summary["tail"], "ms"),
        "timed_blocks": (summary["count"], "count"),
        "timed_rounds": (len(rounds), "count"),
        "setup_samples": (len(setup_samples), "count"),
        "error_rate": (out.error_rate, "fraction"),
        "mismatch_rate": (out.mismatch_rate, "fraction"),
    }
    return metrics, ledger, out, []


def block_metrics(blocks) -> tuple[dict, list[str]]:
    """Per-layer metrics over traced ``EngineSession.run`` spans."""
    problems = []
    walls = [b.wall for b in blocks]
    kernels = [sum(b.kernel_seconds.values()) for b in blocks]
    gaps = [abs(sum(b.stage_seconds.values()) - b.wall) for b in blocks]
    shares = [g / w for g, w in zip(gaps, walls)]
    if sum(gaps) > STAGE_GAP_LIMIT * sum(walls):
        problems.append(
            f"stage accounting: stage_seconds miss the run wall time by "
            f"{sum(gaps) / sum(walls):.1%} over {len(blocks)} blocks "
            f"(limit {STAGE_GAP_LIMIT:.0%})"
        )

    def kernel_ms(name):
        return _ms(_mean(b.kernel_seconds.get(name, 0.0) for b in blocks))

    metrics = {
        "session.run_ms_p50": (_ms(percentile(walls, 50.0)), "ms"),
        "kernels.spmm_ms": (kernel_ms("spmm"), "ms"),
        "kernels.spmm_calls": (_mean(b.kernel_calls.get("spmm", 0) for b in blocks), "count"),
        "kernels.spmm_madds": (_mean(b.spmm_madds for b in blocks), "count"),
        "core.update_ms": (kernel_ms("update"), "ms"),
        "core.prune_ms": (kernel_ms("prune"), "ms"),
        "core.convert_ms": (kernel_ms("convert"), "ms"),
        "core.glue_ms": (_ms(_mean(w - k for w, k in zip(walls, kernels))), "ms"),
        "core.centroid_frac": (_mean(b.n_centroids / b.columns for b in blocks), "fraction"),
        "core.active_frac_end": (_mean(b.active_end / b.columns for b in blocks), "fraction"),
        "core.residues_pruned": (_mean(b.residues_pruned for b in blocks), "count"),
        "trace.kernel_coverage": (sum(kernels) / sum(walls), "fraction"),
        "trace.stage_gap": (sum(gaps) / sum(walls), "fraction"),
        "trace.stage_gap_max": (max(shares), "fraction"),
        "trace.stage_gap_blocks_over": (sum(x > STAGE_GAP_LIMIT for x in shares), "count"),
        "trace.blocks": (len(blocks), "count"),
    }
    for stage in STAGES:
        measured = _mean(b.stage_seconds.get(stage, 0.0) for b in blocks)
        metrics[f"core.{stage}_ms"] = (_ms(measured), "ms")
        modeled = _mean(b.modeled_ms.get(stage, 0.0) for b in blocks)
        metrics[f"costmodel.{stage}_ms"] = (modeled, "ms")
    if metrics["trace.kernel_coverage"][0] <= 0.0:
        problems.append("no kernel span fired: a traced kernel site was renamed or bypassed")
    return metrics, problems


def arms_phase(workload, env, blocks, references, seconds: float, recorder):
    """Time every arm on each block in turn, in whole rounds of the pool.

    The arms are the warm SNICIT session untraced, the XY-2021 engine, the
    CSR floor, and the same session traced.  Running them back to back on
    identical blocks makes each comparison an equal-block A/B.
    """
    from repro.harness.runner import make_engine

    xy = make_engine("xy2021", env.net)
    csr = CsrFeedForward(env.net)
    session = env.session

    def traced(y):
        restore = spans.install(recorder, sessions=[session])
        try:
            return session.run(y).y
        finally:
            restore()

    arms = {
        "snicit": lambda y: session.run(y).y,
        "xy2021": lambda y: xy.infer(y).y,
        "csr": csr,
        "traced": traced,
    }
    judges = {name: Judge(workload, env) for name in arms}
    times = {name: [] for name in arms}
    start = time.perf_counter()
    i = 0
    while i % len(blocks) or i == 0 or time.perf_counter() - start < seconds:
        b = i % len(blocks)
        i += 1
        for name, fn in arms.items():
            judges[name].outcomes.attempted += 1
            t0 = time.perf_counter()
            y = fn(blocks[b])
            times[name].append(time.perf_counter() - t0)
            judges[name].check(y, references[b])
    return times, judges


def _serve_zero() -> dict:
    """Serve-layer metrics of a workload that bypasses the serve layer."""
    return {
        "serve.submit_us_p50": (0.0, "us"),
        "serve.queue_wait_ms_p50": (0.0, "ms"),
        "serve.queue_wait_ms_p99": (0.0, "ms"),
        "serve.block_cols_mean": (0.0, "cols"),
        "serve.blocks": (0, "count"),
        "serve.sat_block_cols_mean": (0.0, "cols"),
        "serve.rejected": (0, "count"),
        "loadgen.lag_p99_ms": (0.0, "ms"),
        "loadgen.sent_rps": (0.0, "req/s"),
    }


def offline_traced(workload, env, seed: int, seconds: float, recorder) -> tuple:
    blocks = workload.pool(env, seed)
    references = workload.reference(env, blocks)
    arm_times, arm_judges = arms_phase(workload, env, blocks, references, seconds, recorder)
    metrics, problems = block_metrics(recorder.blocks)
    metrics.update(_serve_zero())
    metrics.update(_arm_metrics(arm_times))
    metrics["trace.overhead"] = (_overhead(arm_times, recorder), "ratio")
    metrics["setup.network_s"] = (env.network_s, "s")
    metrics["setup.warmup_s"] = (env.warmup_s, "s")
    return (metrics, *_arm_ledger(arm_judges), problems)


def _overhead(arm_times, recorder) -> float:
    """Traced over untraced throughput of the session on the same blocks."""
    return sum(arm_times["snicit"]) / sum(b.wall for b in recorder.blocks)


def _arm_ledger(arm_judges) -> tuple:
    ledger, outcomes = {}, Outcomes()
    for name, judge in arm_judges.items():
        outcomes = outcomes.merge(judge.outcomes)
        ledger[f"{name}.mismatch_rate"] = (judge.outcomes.mismatch_rate, "fraction")
    return ledger, outcomes


def _arm_metrics(arm_times) -> dict:
    return {
        "baselines.xy2021_block_ms": (_ms(percentile(arm_times["xy2021"], 50.0)), "ms"),
        "ref.csr_floor_block_ms": (_ms(percentile(arm_times["csr"], 50.0)), "ms"),
        "baselines.snicit_block_ms": (_ms(percentile(arm_times["snicit"], 50.0)), "ms"),
    }


# --------------------------------------------------------------------- serve
def submit_all(router, model, requests, offsets=None):
    """Submit ``requests``; with ``offsets``, each at its due time (open loop).

    Returns ``(origin, tickets, submitted, submit_s)``: the schedule origin
    on the router's monotonic clock, a ticket or the refusal per request,
    when each submit call started and how long it took.
    """
    from repro.errors import ServeOverflowError, ServeClosedError

    n = len(requests)
    tickets: list = [None] * n
    submitted = [0.0] * n
    submit_s = [0.0] * n
    origin = time.monotonic() + 0.02
    for i, y in enumerate(requests):
        if offsets is not None:
            delay = origin + offsets[i] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        t0 = time.monotonic()
        try:
            tickets[i] = router.submit(model, y)
        except (ServeOverflowError, ServeClosedError) as exc:  # shed or refused
            tickets[i] = exc
        submitted[i] = t0
        submit_s[i] = time.monotonic() - t0
    return origin, tickets, submitted, submit_s


def settle(tickets, columns, reference, judge, deadline: float) -> list:
    """Wait for every ticket, check outputs; returns completion times (None if lost)."""
    outcomes = judge.outcomes
    completed = []
    for ticket, cols in zip(tickets, columns):
        outcomes.attempted += 1
        if isinstance(ticket, Exception):
            outcomes.rejected += 1
            completed.append(None)
            continue
        if not ticket.wait(max(0.0, deadline - time.monotonic())):
            outcomes.incomplete += 1
            completed.append(None)
            continue
        if ticket.failed:
            outcomes.raised += 1
            completed.append(None)
            continue
        judge.check(ticket.y, reference[np.asarray(cols)])
        completed.append(ticket.completed_at)
    return completed


def serve_phases(workload, env, data, reference, judge, deadline: float,
                 recorder=None) -> dict:
    """Alternate open-loop segments and backlog bursts across the run.

    Spreading both phases over the whole run keeps a slow stretch of the
    machine from landing on one phase only.  Each segment and each burst is
    drained before the next starts; saturation throughput is the columns
    completed in all bursts over the time spent draining them.  A request not
    done by ``deadline`` (monotonic clock) counts as never completed.  With
    a ``recorder``, the traced blocks are split into those that served
    open-loop traffic and those that served bursts.
    """
    router, model = env.router, workload.model
    out = {
        "latencies_ms": [], "segment_latencies_ms": [], "lags_ms": [], "submit_s": [],
        "waits_ms": [],
        "sent": 0, "send_span": 0.0, "tickets": [],
        "burst_columns": 0, "burst_drain_s": 0.0, "burst_requests": 0,
        "burst_latencies_ms": [],
        "open_blocks": [], "burst_blocks": [],
    }
    for segment in data["segments"]:
        mark = len(recorder.blocks) if recorder else 0
        origin, tickets, submitted, submit_s = submit_all(
            router, model, segment["open"], segment["offsets"]
        )
        completed = settle(tickets, segment["open_cols"], reference, judge, deadline)
        done = [c if c is not None else float("inf") for c in completed]
        latencies = [_ms(x) for x in due_latencies(origin, segment["offsets"], done)]
        out["latencies_ms"] += latencies
        out["segment_latencies_ms"].append(latencies)
        out["lags_ms"] += [_ms(x) for x in generator_lags(origin, segment["offsets"], submitted)]
        out["submit_s"] += submit_s
        out["sent"] += len(submitted) - 1
        out["send_span"] += submitted[-1] - submitted[0]
        out["tickets"] += tickets
        if recorder:
            out["open_blocks"] += recorder.blocks[mark:]
            for i, ticket in enumerate(tickets):
                served = not isinstance(ticket, Exception) and ticket.ready
                block = recorder.by_result.get(id(ticket.inner.result)) if served else None
                if block is not None:
                    out["waits_ms"].append(_ms(block.start_mono - submitted[i]))
                recorder.request(origin + segment["offsets"][i], submitted[i], submit_s[i],
                                 completed[i], block)
            mark = len(recorder.blocks)
        start = time.monotonic()
        tickets = submit_all(router, model, segment["burst"])[1]
        completed = settle(tickets, segment["burst_cols"], reference, judge, deadline)
        ok = [(c, len(cols)) for c, cols in zip(completed, segment["burst_cols"]) if c]
        if ok:
            drain = max(c for c, _ in ok) - start
            out["burst_columns"] += sum(w for _, w in ok)
            out["burst_drain_s"] += drain
            out["burst_requests"] += len(ok)
            out["burst_latencies_ms"].append([_ms(c - start) for c, _ in ok])
        out["tickets"] += tickets
        if recorder:
            out["burst_blocks"] += recorder.blocks[mark:]
    drained = out["burst_drain_s"]
    out["cols_per_s"] = out["burst_columns"] / drained if drained > 0 else 0.0
    out["rps"] = out["burst_requests"] / drained if drained > 0 else 0.0
    out["sent_rps"] = out["sent"] / out["send_span"] if out["send_span"] > 0 else 0.0
    return out


def _deadline(seconds: float) -> float:
    """Latest moment a serving run waits for results, to end well within 180 s."""
    return time.monotonic() + 2 * seconds + 30.0


def serve_e2e(workload, env, seed: int, seconds: float, setup_samples) -> tuple:
    data = workload.inputs(env, seed, seconds)
    reference = workload.reference(env, data["pool"])
    judge = Judge(workload, env)
    phases = serve_phases(workload, env, data, reference, judge, _deadline(seconds))
    # medians over the open-loop segments, which track thread wake-up delays;
    # means over bursts, which move with the share of bursts the host ran
    # slow instead of jumping between its two speeds (see mean_of_medians)
    segments = [tail_summary(lat, 90.0) for lat in phases["segment_latencies_ms"]]
    bursts = [tail_summary(lat, 90.0) for lat in phases["burst_latencies_ms"]]
    p99 = tail_summary(phases["latencies_ms"], 99.0)
    out = judge.outcomes
    lag = percentile(phases["lags_ms"], 99.0)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput_cols_per_s": (phases["cols_per_s"], "cols/s"),
        "latency_p50_ms": (_mean(b["p50"] for b in bursts), "ms"),
        "latency_p90_ms": (_mean(b["tail"] for b in bursts), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    ledger = {
        "saturation_rps": (phases["rps"], "req/s"),
        "open_loop.latency_p50_ms": (statistics.median(s["p50"] for s in segments), "ms"),
        "open_loop.latency_p90_ms": (statistics.median(s["tail"] for s in segments), "ms"),
        "open_loop.latency_p99_ms": (p99["tail"], "ms"),
        "open_loop_requests": (p99["count"], "count"),
        "backlog_requests": (phases["burst_requests"], "count"),
        "loadgen.lag_p99_ms": (lag, "ms"),
        "loadgen.sent_rps": (phases["sent_rps"], "req/s"),
        "setup_samples": (len(setup_samples), "count"),
        "error_rate": (out.error_rate, "fraction"),
        "mismatch_rate": (out.mismatch_rate, "fraction"),
    }
    return metrics, ledger, out, _lag_problems(workload, lag)


def _lag_problems(workload, lag_p99_ms: float) -> list[str]:
    if lag_p99_ms > workload.lag_limit_ms:
        return [
            f"invalid run: generator p99 lag {lag_p99_ms:.2f} ms exceeds "
            f"{workload.lag_limit_ms} ms"
        ]
    return []


def serve_traced(workload, env, seed: int, seconds: float, recorder) -> tuple:
    data = workload.inputs(env, seed, seconds)
    reference = workload.reference(env, data["pool"])
    arm_refs = [reference[c] for c in data["arm_cols"]]
    arm_recorder = spans.Recorder()
    arm_times, arm_judges = arms_phase(
        workload, env, data["arms"], arm_refs, 0.2 * seconds, arm_recorder
    )
    judge = Judge(workload, env)
    restore = spans.install(recorder, sessions=[env.session])
    try:
        phases = serve_phases(
            workload, env, data, reference, judge, _deadline(seconds), recorder
        )
    finally:
        restore()
    metrics, problems = block_metrics(phases["open_blocks"])
    problems += block_metrics(phases["burst_blocks"])[1]
    lag = percentile(phases["lags_ms"], 99.0)
    problems += _lag_problems(workload, lag)
    metrics.update({
        "serve.submit_us_p50": (percentile(phases["submit_s"], 50.0) * 1e6, "us"),
        "serve.queue_wait_ms_p50": (percentile(phases["waits_ms"], 50.0), "ms"),
        "serve.queue_wait_ms_p99": (percentile(phases["waits_ms"], 99.0), "ms"),
        "serve.block_cols_mean": (_mean(b.columns for b in phases["open_blocks"]), "cols"),
        "serve.blocks": (len(phases["open_blocks"]), "count"),
        "serve.sat_block_cols_mean": (_mean(b.columns for b in phases["burst_blocks"]), "cols"),
        "serve.rejected": (sum(isinstance(t, Exception) for t in phases["tickets"]), "count"),
        "loadgen.lag_p99_ms": (lag, "ms"),
        "loadgen.sent_rps": (phases["sent_rps"], "req/s"),
        "trace.overhead": (_overhead(arm_times, arm_recorder), "ratio"),
        "setup.network_s": (env.network_s, "s"),
        "setup.warmup_s": (env.warmup_s, "s"),
    })
    metrics.update(_arm_metrics(arm_times))
    ledger, outcomes = _arm_ledger(arm_judges)
    ledger["traced.mismatch_rate"] = (judge.outcomes.mismatch_rate, "fraction")
    return metrics, ledger, outcomes.merge(judge.outcomes), problems


# ---------------------------------------------------------------------- main
def _declared(kind: str) -> list[str]:
    """Metric names ``BENCHMARK.json`` lists under ``kind``, in its order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [metric["name"] for metric in json.load(fh)[kind]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _attach_program()
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = setup(workload, args.seed)
    if args.setup_probe:
        env.close()
        print(json.dumps({"setup_s": env.setup_s}))
        return 0
    outcomes = Outcomes()
    try:
        if args.trace:
            recorder = spans.Recorder()
            run = serve_traced if workload.kind == "serve" else offline_traced
            metrics, ledger, outcomes, problems = run(
                workload, env, args.seed, args.seconds, recorder
            )
            for site in recorder.missing_sites:
                print(f"perfbench: kernel site {site} not found; not traced", file=sys.stderr)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            recorder.dump(out_dir / f"trace-{workload.name}-seed{args.seed}.json")
        else:
            samples = [env.setup_s] + probe_setups(
                workload, args.seed, workload.setup_repeats - 1
            )
            run = serve_e2e if workload.kind == "serve" else offline_e2e
            metrics, ledger, outcomes, problems = run(
                workload, env, args.seed, args.seconds, samples
            )
    finally:
        env.close()
    if outcomes.mismatch_rate > MISMATCH_TOLERANCE:
        problems.append(
            f"mismatch rate {outcomes.mismatch_rate:.4f} exceeds {MISMATCH_TOLERANCE}"
        )
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    declared = _declared("per_layer" if args.trace else "end_to_end")
    missing = [name for name in declared if name not in metrics]
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    print(f"# {workload.name} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    for name, (value, unit) in {**metrics, **ledger}.items():
        print(f"{name:32s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
