"""One repetition of a workload, in a fresh interpreter.

bench/run.py starts this script once per repetition, so every pass pays what
a CLI user pays: cold module caches and OpenBLAS thread start-up, with the
BLAS thread settings left as the user's environment has them. It runs one
pass of the workload with the host's speed measured around every operation,
checks every output, and prints one JSON object on stdout.

    python3 bench/child.py --workload sweep --seed 0 --mode pass --jobs 1
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def calibration_s(cal: workloads.Calibration) -> float:
    """Seconds for the workload's fixed calibration loop: CAL_STEPS steps of
    the packed-limb closed-walk recurrence on a path of `n` vertices with
    `limb`-bit limbs, repeated `reps` times. It is the benchmark's own copy
    of the kernel, so no change to starwalk alters it."""
    mask = (1 << cal.limb) - 1
    adj = [[j for j in (i - 1, i + 1) if 0 <= j < cal.n] for i in range(cal.n)]
    start = time.perf_counter()
    for _ in range(cal.reps):
        rows = [1 << (u * cal.limb) for u in range(cal.n)]
        for _ in range(workloads.CAL_STEPS):
            rows = [sum(rows[w] for w in nbrs) for nbrs in adj]
            sum((rows[u] >> (u * cal.limb)) & mask for u in range(cal.n))
    return time.perf_counter() - start


def _cpu_s() -> float:
    # pool workers are joined before run_suite returns, so their time is
    # in RUSAGE_CHILDREN by the time the pass ends
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def run_op(op: workloads.Op) -> tuple[int, str]:
    """Run one operation through the public entry points; (status, output)."""
    from starwalk import cli, spectra
    from starwalk.partitions import Partition

    if op.kind == "exact":
        a, b = op.args
        return 0, spectra.compare_spectral_radii_exact(Partition(a), Partition(b)).name
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(list(op.args))
    return status, buf.getvalue()


def run_pass(ops: list[workloads.Op], tracer: tracing.Tracer | None = None,
             calibrate=None) -> tuple[list, list, list]:
    """Run every op once: each op's (status, output), each op's (wall, cpu)
    seconds, and, when `calibrate` is given, its times before the first op,
    between ops and after the last."""
    outcomes, costs = [], []
    cals = [calibrate()] if calibrate else []
    for op in ops:
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            status, text = run_op(op)
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            status, text = None, f"{type(exc).__name__}: {exc}"
        costs.append((time.perf_counter() - start, _cpu_s() - cpu0))
        outcomes.append((status, text))
        if calibrate:
            cals.append(calibrate())
    if tracer is not None:
        tracer.count("cli.output_bytes", sum(
            len(text.encode()) for op, (_, text) in zip(ops, outcomes) if op.kind != "exact"
        ))
    return outcomes, costs, cals


def check_pass(ops, outcomes, reference: dict) -> list[list[str]]:
    """The errors of each op, in order; an empty list for an op that passed."""
    return [
        [f"{op.key}: raised {text}"] if status is None
        else workloads.check(op, status, text, reference)
        for op, (status, text) in zip(ops, outcomes)
    ]


def _numpy_build() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {"numpy": numpy.__version__, "blas": blas_build}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "trace"), required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace-out", help="write the spans of a traced pass here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed, args.jobs)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    cal = workload.calibration
    tracer = tracing.Tracer().install() if args.mode == "trace" else None
    outcomes, costs, cals = run_pass(ops, tracer, lambda: calibration_s(cal))
    if tracer is not None:
        tracer.uninstall()
        if args.trace_out:
            tracer.dump(args.trace_out)
    # each op at the host speed the calibrations on either side of it saw
    speeds = [2 * cal.nominal_s / (a + b) for a, b in zip(cals, cals[1:])]
    errors = check_pass(ops, outcomes, reference)
    print(json.dumps({
        "wall_s": sum(w for w, _ in costs),
        "cpu_s": sum(c for _, c in costs),
        "wall_norm_s": sum(w * v for (w, _), v in zip(costs, speeds)),
        "cpu_norm_s": sum(c * v for (_, c), v in zip(costs, speeds)),
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": len(ops),
        "failed": sum(1 for e in errors if e),
        "errors": [line for e in errors for line in e],
        "layers": tracer.layer_metrics() if tracer else None,
        **_numpy_build(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
