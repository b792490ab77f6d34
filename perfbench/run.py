"""The repository's benchmark: seeded end-to-end and per-layer metrics
for rule analysis, rule cascades and the rule server.

Run from the repository root::

    python3 perfbench/run.py --workload iot-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload server-ingest --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --scaling   # iot cascade at 16/32/64 regions

Workloads: ``iot-wide``, ``drain-rows``, ``server-ingest`` (see
``cases.py``). A run builds everything from ``--seed`` and, for
``--seconds`` and at least ``MIN_ITERATIONS`` times, repeats:

1. set-up: build the workload, load rows, parse rules and statements
   (and, on ``server-ingest``, open the store);
2. the workload's measured rounds (two transactions on ``iot-wide``,
   one on ``drain-rows``, one drive of the stream on the server);
   every round's final state must equal the first round's;
3. static analysis on fresh analyzers for ``ANALYZE_SLICE`` seconds;
4. recovery of the WAL the last round wrote, for ``RECOVERY_SLICE``
   seconds, and that round's output check against its oracles (which,
   with step 2, checks every round).

The steps alternate, so a slow stretch of a shared machine lands on
every step alike rather than on whichever step ran during it.

Timings are in *reference seconds*. Next to every timed step the run
times a fixed pure-Python loop (``reference.py``, about 20 ms);
a step's wall time is multiplied by ``REFERENCE_S`` over the mean of
the loops just before and just after it (the server's drive is timed in
slices, each between two loops). On a small shared machine
whose speed changes by up to a factor of two from one second to the
next, and stays slow or fast for minutes, the wall-clock median of a
step moves by 20-40% between runs of the same code, while its ratio to
the neighbouring reference loops moves by a few percent; the benchmark
compares code, not the machine's moods. The loop uses none of the
repository's code, so a change to the program moves the figures but
not the loop. The report gives the wall-clock medians too, and the
reference loop's times.

Each timing is the median of its samples; ``commit_p95_ms`` is the
interpolated 95th percentile of the transaction latencies, each taken
at its round's speed, and ``commits_per_s`` is committed transactions
over total round time. Canonicalisation and every check stay outside
the transaction and commit timings.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` the iterations run untraced for
half the window and with every layer boundary wrapped (``layers.py``)
for the other half, followed by one traced verification, and the last
line carries the per-layer metrics (the overhead figure is traced minus
untraced round time). The line before it is a full report: fingerprint,
sample counts, percentiles, exact-repeat counts and failures.

``attempted`` counts transactions plus output checks; ``failed`` counts
transactions that raised, rolled back or ran out of retries, plus
failed checks. The exit code is 2 when the repository's sources are not
next to the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import Probe, Timing

ROOT = Path(__file__).resolve().parent.parent
#: scratch space for the WAL files a run writes (removed when it ends)
WORK_DIR = ROOT / ".perfbench-work"

#: each run makes at least this many iterations of the four steps
MIN_ITERATIONS = 3
#: analysis and recovery time per iteration (each runs at least once)
ANALYZE_SLICE = 0.3
RECOVERY_SLICE = 0.3

def p95(values: list[float]) -> float:
    """95th percentile of a non-empty sample, interpolated between the
    order statistics around it (``statistics.quantiles``, inclusive)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def fingerprint(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Samples:
    setup: list[Timing] = field(default_factory=list)
    analysis: list[Timing] = field(default_factory=list)
    rounds: list = field(default_factory=list)
    recovery: list[Timing] = field(default_factory=list)
    verify: list[Timing] = field(default_factory=list)


class Runner:
    """Drives one workload through the steps in the module docstring."""

    def __init__(self, workload, tracer) -> None:
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, bool] = {}
        self.analysis_stats: dict = {}
        self._verdicts: set = set()
        self._reference = None
        self.probe = Probe()

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {name}")
        self.checks[name] = self.checks.get(name, True) and ok

    def iterate(self, seconds: float, min_iterations: int) -> Samples:
        """Iterate for *seconds*: after *min_iterations*, an iteration
        starts only if one as long as the last would end less than half
        of it past the window."""
        samples = Samples()
        started = now = time.perf_counter()
        last = 0.0
        while (
            len(samples.setup) < min_iterations
            or now - started + last / 2 <= seconds
        ):
            self._setup(samples)
            for _ in range(self.workload.rounds_per_iteration):
                self._round(samples)
            self._analyze(samples)
            self._verify(samples)
            last = time.perf_counter() - now
            now += last
        return samples

    def _timed(self, run, samples: list[Timing]):
        """Call *run* once and append its :class:`Timing`. A full
        garbage collection precedes the call, so a collection left
        pending by earlier work does not land inside it."""
        gc.collect()
        result, timing = self.probe.timed(run)
        samples.append(timing)
        return result

    def _repeat(self, run, min_seconds: float, samples: list[Timing]):
        """:meth:`_timed` calls of *run* for *min_seconds*, reference
        loops and collections included (at least one call); returns
        the last result."""
        started, calls, result = time.perf_counter(), 0, None
        while not calls or time.perf_counter() - started < min_seconds:
            result = None  # free the previous result before timing the next
            result = self._timed(run, samples)
            calls += 1
        return result

    def _setup(self, samples: Samples) -> None:
        self.workload.workload = None
        self.tracer.phase = "setup"
        self._timed(self.workload.setup, samples.setup)

    def _round(self, samples: Samples) -> None:
        if samples.rounds:
            # keep the heap the same size for every round
            previous = samples.rounds[-1]
            previous.database = previous.log = previous.history = None
            _remove(previous.wal_path)
        gc.collect()
        self.tracer.phase = "txn"
        round_ = self.workload.round(self.tracer, self.probe)
        self.tracer.phase = "check"
        self.attempted += round_.attempted
        self.failed += round_.failed
        self.errors.extend(round_.errors)
        state = round_.database.canonical()
        if self._reference is None:
            self._reference = state
        else:
            self.check("round_state_repeats", state == self._reference)
        samples.rounds.append(round_)

    def _analyze(self, samples: Samples) -> None:
        """Analyses on fresh analyzers; every one must reach the same
        verdicts (checked once, by :meth:`finish`)."""
        self.tracer.phase = "analyze"

        def analyze():
            report, self.analysis_stats = self.workload.analyze()
            self._verdicts.add(
                (
                    ("terminates", report.terminates),
                    ("confluent", report.confluent),
                    ("observably_deterministic",
                     report.observably_deterministic),
                )
            )
            return report

        self._repeat(analyze, ANALYZE_SLICE, samples.analysis)

    def _verify(self, samples: Samples) -> None:
        """Recover the round's WAL, then check the round against the
        recovered state and the workload's oracles (timed apart)."""
        from repro.engine.database import Database

        self.tracer.phase = "verify"
        round_ = samples.rounds[-1]
        workload = self.workload
        path = workload.durable_log(round_, self.tracer)

        def recover():
            with self.tracer.span("engine.recover", opaque=True):
                return Database.recover(path, workload.schema)

        recovered = self._repeat(recover, RECOVERY_SLICE, samples.recovery)

        def check() -> dict[str, bool]:
            live = round_.database.canonical()
            results = {"recovered_equals_live": recovered.canonical() == live}
            results.update(workload.checks(round_, self.tracer))
            return results

        results = self._timed(check, samples.verify)
        for name, ok in results.items():
            self.check(name, ok)
        _remove(path)

    def finish(self) -> dict:
        self.check("analysis_verdicts_repeat", len(self._verdicts) == 1)
        return dict(min(self._verdicts))


def _remove(path) -> None:
    if path and os.path.exists(path):
        os.remove(path)


def _mean_stats(rounds) -> dict:
    keys = {key for round_ in rounds for key in round_.stats}
    return {
        key: sum(round_.stats.get(key, 0) for round_ in rounds) / len(rounds)
        for key in keys
    }


UNITS = {
    "setup_s": "s",
    "analyze_s": "s",
    "txn_s": "s",
    "commits_per_s": "1/s",
    "commit_p50_ms": "ms",
    "commit_p95_ms": "ms",
    "recovery_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


def _wall_and_reference(timings: list[Timing]) -> dict:
    return {
        "wall_s": [timing.seconds for timing in timings],
        "reference_s": [timing.reference for timing in timings],
    }


def run_end_to_end(workload, seconds: float) -> tuple[dict, dict, Runner]:
    from spans import NullTracer

    runner = Runner(workload, NullTracer())
    samples = runner.iterate(seconds, MIN_ITERATIONS)
    verdicts = runner.finish()
    rounds = samples.rounds
    round_timings = [timing for round_ in rounds for timing in round_.timings]
    # every transaction's latency at the speed of the stretch it ran in
    latencies = [
        value * scale for round_ in rounds
        for value, scale in zip(round_.latencies, round_.scales)
    ]
    wall_latencies = [value for round_ in rounds for value in round_.latencies]
    if not latencies:  # every transaction failed; the run is incorrect
        latencies = [timing.normalised for timing in round_timings]
        wall_latencies = [timing.seconds for timing in round_timings]

    def median(timings: list[Timing]) -> float:
        return statistics.median(timing.normalised for timing in timings)

    values = {
        "setup_s": median(samples.setup),
        "analyze_s": median(samples.analysis),
        "txn_s": statistics.median(latencies),
        "commits_per_s": sum(r.committed for r in rounds)
        / sum(round_.normalised for round_ in rounds),
        "commit_p50_ms": 1000.0 * statistics.median(latencies),
        "commit_p95_ms": 1000.0 * p95(latencies),
        "recovery_s": median(samples.recovery),
        "verify_s": median(samples.verify),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in values.items()
    }
    loops = runner.probe.loops
    detail = {
        "samples": {
            "setup": len(samples.setup),
            "analyze": len(samples.analysis),
            "rounds": len(rounds),
            "transactions": len(latencies),
            "recovery": len(samples.recovery),
            "verify": len(samples.verify),
        },
        "reference_loop_s": {
            "median": statistics.median(loops),
            "min": min(loops),
            "max": max(loops),
            "count": len(loops),
        },
        "wall_clock": {
            "setup_s": statistics.median(t.seconds for t in samples.setup),
            "analyze_s": statistics.median(
                t.seconds for t in samples.analysis
            ),
            "txn_s": statistics.median(wall_latencies),
            "commits_per_s": sum(r.committed for r in rounds)
            / sum(r.elapsed for r in rounds),
            "commit_p95_ms": 1000.0 * p95(wall_latencies),
            "recovery_s": statistics.median(
                t.seconds for t in samples.recovery
            ),
            "verify_s": statistics.median(t.seconds for t in samples.verify),
        },
        "raw": {
            "setup": _wall_and_reference(samples.setup),
            "analyze": _wall_and_reference(samples.analysis),
            "round": _wall_and_reference(round_timings),
            "recovery": _wall_and_reference(samples.recovery),
            "verify": _wall_and_reference(samples.verify),
        },
        "verdicts": verdicts,
        "counts": {
            "per_round": _mean_stats(rounds),
            "analysis": runner.analysis_stats,
        },
    }
    return metrics, detail, runner


def run_traced(workload, seconds: float) -> tuple[dict, dict, Runner]:
    """Untraced iterations for half the window, then traced ones for
    the other half."""
    import layers
    from spans import NullTracer, Tracer

    runner = Runner(workload, NullTracer())
    untraced = runner.iterate(seconds / 2, 1)
    untraced_round_s = statistics.median(r.normalised for r in untraced.rounds)
    untraced_rounds = len(untraced.rounds)
    del untraced

    tracer = Tracer()
    runner.tracer = tracer
    layers.instrument(tracer)
    try:
        traced = runner.iterate(seconds / 2, 1)
    finally:
        tracer.uninstall()
    verdicts = runner.finish()

    traced_round_s = statistics.median(r.normalised for r in traced.rounds)
    phases = {
        phase: tracer.totals(phase)
        for phase in ("setup", "analyze", "txn", "verify")
    }
    inputs = layers.LayerInputs(
        phases=phases,
        ops={
            "setup": len(traced.setup),
            "analyze": len(traced.analysis),
            "txn": len(traced.rounds),
            "verify": len(traced.verify),
        },
        round_stats=_mean_stats(traced.rounds),
        analysis_stats=runner.analysis_stats,
        overhead_seconds=traced_round_s - untraced_round_s,
    )
    metrics = layers.layer_metrics(inputs)
    txn = phases["txn"]
    detail = {
        "samples": {
            "untraced_rounds": untraced_rounds,
            "traced_rounds": len(traced.rounds),
            "traced_setups": len(traced.setup),
            "traced_analyses": len(traced.analysis),
        },
        "verdicts": verdicts,
        "coverage": {
            "share": metrics["trace.coverage"]["value"],
            "roots": txn.roots,
            "root_seconds": txn.root_seconds,
            "root_self_seconds": txn.root_self_seconds,
        },
        "overhead": {
            "untraced_round_s": untraced_round_s,
            "traced_round_s": traced_round_s,
        },
        "txn_layers_self_s": {
            name: entry.self_seconds / len(traced.rounds)
            for name, entry in sorted(
                txn.layers.items(), key=lambda item: -item[1].self_seconds
            )
        },
        "counts": {
            "per_round": _mean_stats(traced.rounds),
            "analysis": runner.analysis_stats,
        },
    }
    return metrics, detail, runner


def run_scaling(seed: int, workdir: str) -> dict:
    """``txn_s`` and ``analyze_s`` of the iot cascade at 16/32/64
    regions (48/96/192 rules), for the generator's default 1,024-row
    batch and the benchmark's 4,096-row batch: one wall-clock sample
    each, not gated. The record of why ``iot-wide`` has the size it
    has."""
    from cases import IotWide
    from spans import NullTracer

    points = []
    for batch_rows in (1024, 4096):
        for regions in (16, 32, 64):
            workload = IotWide(
                seed, workdir, regions=regions, batch_rows=batch_rows
            )
            workload.rounds_per_iteration = 1
            runner = Runner(workload, NullTracer())
            samples = runner.iterate(0.0, 1)
            (round_,) = samples.rounds
            points.append(
                {
                    "rows": workload.rows,
                    "regions": regions,
                    "rules": 3 * regions,
                    "batch_rows": batch_rows,
                    "txn_s": round_.elapsed,
                    "analyze_s": samples.analysis[0].seconds,
                    "considerations": round_.stats["considerations"],
                    "firings": round_.stats["firings"],
                    "failed": runner.failed,
                }
            )
    return {"fingerprint": fingerprint(seed), "iot_scaling": points}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="iot-wide")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scaling", action="store_true",
        help="measure the iot cascade at 16/32/64 regions once and exit",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repository sources at {ROOT / 'src'}; run from "
            "a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from cases import WORKLOADS

    if not args.scaling and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.scaling:
            print(json.dumps(run_scaling(args.seed, str(workdir)), indent=2))
            return 0
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        run = run_traced if args.trace else run_end_to_end
        metrics, detail, runner = run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "sizes": workload.sizes(),
        "fingerprint": fingerprint(args.seed),
        "checks": runner.checks,
        "errors": runner.errors[:20],
        "failed_ratio": runner.failed / max(1, runner.attempted),
        **detail,
    }
    print(json.dumps({"report": report}, default=float))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
