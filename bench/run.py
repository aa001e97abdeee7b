"""Run one workload of the starwalk benchmark and print its metrics.

    python3 bench/run.py --workload close-call --seed 0 --seconds 40 --trace 0

Each repetition is a fresh interpreter (bench/child.py). With --trace 0 the
run repeats untraced passes until --seconds is used up and reports the
end-to-end metrics: medians of wall time and CPU time (pool workers
included) per pass, both scaled to the calibrated host speed (see
child.calibration_s), of peak resident memory, and of the import time of
starwalk, measured in ten interpreters that import nothing else first.

With --trace 1 the run alternates a traced pass with untraced ones and
reports the per-layer metrics: self time, calls and counters of every layer,
the tracing overhead, and, for the workload that uses the process pool, its
speed-up from untraced passes at one worker and at the full pool. Pool
workers' spans cannot be seen from outside, so the traced pass runs at one
worker.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Every line before it is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACE_DIR = ROOT / ".bench_trace"
# import-only interpreters per run
SETUP_SAMPLES = 10
# what a CLI user's interpreter imports, timed inside it
SETUP_CODE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
              "import starwalk, starwalk.cli; print(time.perf_counter() - t)")
# every child is stopped well inside the 180 s a run may take
CHILD_BUDGET_S = 170.0

END_TO_END = {"wall_norm_s": "s", "cpu_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed for people; too dependent on the host's drifting speed to gate on
RAW_TIMES = {"wall_s": "s", "cpu_s": "s"}
POOL_METRICS = {"verify.pool.speedup": "x", "verify.pool.efficiency": "ratio",
                "verify.pool.overhead_s": "s"}
OVERHEAD_METRIC = "trace.overhead_frac"


def layer_unit(name: str) -> str:
    if name in POOL_METRICS:
        return POOL_METRICS[name]
    if name == OVERHEAD_METRIC:
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def per_layer_names() -> list[str]:
    return tracing.layer_metric_names() + list(POOL_METRICS) + [OVERHEAD_METRIC]


class Runner:
    """Starts repetitions and stops each one inside the run's time budget."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _last_line(self, cmd: list[str]) -> str:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, CHILD_BUDGET_S - self.elapsed()))
        if proc.returncode != 0:
            raise RuntimeError(f"repetition failed ({' '.join(cmd[1:])}):\n{proc.stderr}")
        return proc.stdout.splitlines()[-1]

    def child(self, mode: str, jobs: int = 1, trace_out: Path | None = None) -> dict:
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--jobs", str(jobs)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        return json.loads(self._last_line(cmd))

    def setup_s(self) -> float:
        return float(self._last_line([sys.executable, "-c", SETUP_CODE]))

    def repeat(self, seconds: float, iteration) -> None:
        """Call iteration() at least once, and again while another call of
        the length of the last one still ends within `seconds`."""
        while True:
            t0 = time.perf_counter()
            iteration()
            if self.elapsed() + (time.perf_counter() - t0) > seconds:
                return


def _median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def measure(runner: Runner, workload: workloads.Workload, seconds: float, trace: bool,
            jobs: int) -> tuple[dict, list[dict], list[float]]:
    """Run the repetitions; (metrics, every pass result, setup samples)."""
    runner.setup_s()  # discarded: the first import in a checkout compiles bytecode
    setups = [runner.setup_s() for _ in range(SETUP_SAMPLES)]

    if not trace:
        passes: list[dict] = []
        runner.repeat(seconds, lambda: passes.append(runner.child("pass", jobs)))
        metrics = {name: _median_of(passes, name)
                   for name in [*END_TO_END, *RAW_TIMES] if name != "setup_s"}
        metrics["setup_s"] = statistics.median(setups)
        return metrics, passes, setups

    TRACE_DIR.mkdir(exist_ok=True)
    trace_out = TRACE_DIR / f"{workload.name}-seed{runner.seed}.json"
    traced: list[dict] = []
    plain: list[dict] = []
    pooled: list[dict] = []

    def iteration():
        traced.append(runner.child("trace", 1, trace_out))
        plain.append(runner.child("pass", 1))
        if workload.uses_pool:
            pooled.append(runner.child("pass", jobs))

    runner.repeat(seconds, iteration)
    metrics = {name: statistics.median(t["layers"][name] for t in traced)
               for name in tracing.layer_metric_names()}
    metrics.update(dict.fromkeys(POOL_METRICS, 0.0))
    if pooled:
        one, many = _median_of(plain, "wall_norm_s"), _median_of(pooled, "wall_norm_s")
        metrics["verify.pool.speedup"] = one / many
        metrics["verify.pool.efficiency"] = one / many / jobs
        metrics["verify.pool.overhead_s"] = many - one / jobs
    metrics[OVERHEAD_METRIC] = (_median_of(traced, "wall_norm_s")
                                / _median_of(plain, "wall_norm_s") - 1)
    return metrics, traced + plain + pooled, setups


def _git_commit() -> str:
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:  # no git installed
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, workload: workloads.Workload, nproc: int, jobs: int, sample: dict) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": {**workload.params, "jobs": jobs},
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": sample["numpy"],
        "blas": sample["blas"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 is the paper's inputs; close-call draws other trios from it")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "starwalk" / "__init__.py").is_file():
        print(f"run.py: no starwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    jobs = workloads.pool_workers(nproc) if workload.uses_pool else 1
    runner = Runner(workload.name, args.seed)
    try:
        metrics, results, setups = measure(runner, workload, args.seconds, bool(args.trace), jobs)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    units = END_TO_END if not args.trace else {n: layer_unit(n) for n in per_layer_names()}
    print("provenance " + json.dumps(provenance(args, workload, nproc, jobs, results[0])))
    for error in sorted({e for r in results for e in r["errors"]}):
        print(f"FAILED {error}")
    print(f"{workload.name}: {len(results)} passes, {len(setups)} set-up samples, "
          f"{runner.elapsed():.1f} s")
    print("  pass wall times (s): " + " ".join(f"{r['wall_s']:.3f}" for r in results))
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        for name, unit in RAW_TIMES.items():
            print(f"  {name:34s} {metrics[name]:>16.6g} {unit} (raw, not gated)")
    print(f"  {'fail_frac':34s} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
