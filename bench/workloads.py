"""The benchmark's workloads: fixed user commands, the inputs drawn from the
seed, and the checks every output must pass.

Every CLI parameter is spelled out, so a later change to a default cannot
silently change the work a workload does. Why each workload is here, and
which layer metrics it is predicted to move, is in bench/README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

# The paper's close-call trio, in shortlex order, and the walk lengths at
# which the certified comparisons of its adjacent pairs find their witnesses.
PAPER_TRIO = ((80, 90, 100), (85, 90, 95), (90, 90, 90))
PAPER_WITNESS_K = (164, 174)
CLOSE_CALL_N = 271
CLOSE_CALL_K = 400
# other seeds draw three-branch trees whose shortest arm is at least this
# long: their radii, like the paper trio's, are equal in double precision
CLOSE_CALL_MIN_ARM = 60
# D_271: the one three-branch tree on 271 vertices with its radius below 2.
# Every radius of a trio is above 2, where spectral_radius bisects without
# a Sturm chain; this tree sends spectra through the Sturm-chain branch.
STURM_TREE = (1, 1, CLOSE_CALL_N - 3)

SWEEP_N_MAX = 24
SWEEP_REPORTS = 5586
SUITE_N_MAX = 22
SUITE_REPORTS = 3797
SWEEP_K = 40
# the suite's pool size; it is never larger than the machine's core count
SUITE_JOBS = 2

FLOAT_TOL = 1e-9
# walk steps per calibration loop
CAL_STEPS = 40
NOMINAL_LARGE = 0.097
NOMINAL_SMALL = 0.48


@dataclass(frozen=True)
class Op:
    """One user operation: a CLI invocation or a direct library call.

    key names the operation without its parallelism, so runs at --jobs 1
    and --jobs 2 share one reference entry.
    """

    key: str
    kind: str  # "compare", "exact", "spectra" or "verify"
    args: tuple
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Calibration:
    """Shape of the loop that measures the host's speed around each op
    (child.calibration_s), and its typical time, nominal_s, on the machine
    the benchmark was defined on: 2 vCPUs of an Intel Xeon at 2.1 GHz,
    Python 3.11.7.

    That machine's speed drifts by up to 60 % over seconds and minutes, and
    CPU time drifts with wall time. Ops are timed in units of the loop's time
    just before and after them, scaled back to seconds by nominal_s. The loop
    is shaped like the workload's dominant kernel, because big integers that
    outgrow the cache slow down differently from small ones.
    """

    n: int
    limb: int
    reps: int
    nominal_s: float


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    uses_pool: bool
    build: Callable[[int, int], list[Op]]
    calibration: Calibration


def pool_workers(nproc: int) -> int:
    """Workers for the suite's pool: SUITE_JOBS, capped by the core count."""
    return max(1, min(SUITE_JOBS, nproc))


def spec(parts) -> str:
    return "S(" + ",".join(str(p) for p in parts) + ")"


def close_call_trio(seed: int) -> tuple[tuple[int, ...], ...]:
    """Seed 0 is the paper's trio; other seeds draw three distinct
    three-branch trees on CLOSE_CALL_N vertices, in shortlex order."""
    if seed == 0:
        return PAPER_TRIO
    m = CLOSE_CALL_N - 1
    candidates = [
        (a, b, m - a - b)
        for a in range(CLOSE_CALL_MIN_ARM, m // 3 + 1)
        for b in range(a, (m - a) // 2 + 1)
    ]
    return tuple(sorted(random.Random(seed).sample(candidates, 3)))


def _close_call(seed: int, jobs: int) -> list[Op]:
    trio = close_call_trio(seed)
    pairs = list(zip(trio, trio[1:]))
    ops = []
    for i, (a, b) in enumerate(pairs):
        argv = ("compare", spec(a), spec(b), "--certify",
                "--max-k", str(CLOSE_CALL_K), "--format", "json")
        expect = {"witness_k": PAPER_WITNESS_K[i]} if seed == 0 else {}
        ops.append(Op(" ".join(argv), "compare", argv, expect))
    for a, b in pairs:
        ops.append(Op(f"compare_spectral_radii_exact {spec(a)} {spec(b)}", "exact", (a, b)))
    for t in trio + (STURM_TREE,):
        argv = ("spectra", "--tree", spec(t), "--format", "json")
        ops.append(Op(" ".join(argv), "spectra", argv, {"n": CLOSE_CALL_N}))
    return ops


def _sweep(seed: int, jobs: int) -> list[Op]:
    argv = ("verify", "--suite", "theorem", "--n-max", str(SWEEP_N_MAX),
            "--max-k", str(SWEEP_K), "--pairs", "consecutive", "--format", "json")
    return [Op(" ".join(argv), "verify", argv, {"reports": SWEEP_REPORTS})]


def _suite(seed: int, jobs: int) -> list[Op]:
    argv = ("verify", "--suite", "full", "--n-max", str(SUITE_N_MAX),
            "--max-k", str(SWEEP_K), "--format", "json")
    return [Op(" ".join(argv), "verify", argv + ("--jobs", str(jobs)),
               {"reports": SUITE_REPORTS})]


# limbs as the kernel packs them on a path, where the maximum degree is 2
SMALL_CAL = Calibration(n=SWEEP_N_MAX, limb=2 * SWEEP_K + 4, reps=500, nominal_s=NOMINAL_SMALL)
# rows as wide as the kernel's on close-call, but 48 of them instead of 271,
# so the loop holds about 3 MB where the kernel holds about 18 MB
LARGE_CAL = Calibration(n=48, limb=CLOSE_CALL_N * (2 * CLOSE_CALL_K + 4) // 48, reps=4,
                        nominal_s=NOMINAL_LARGE)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("close-call", {"n": CLOSE_CALL_N, "max_k": CLOSE_CALL_K,
                                "min_arm": CLOSE_CALL_MIN_ARM}, False, _close_call, LARGE_CAL),
        Workload("sweep", {"suite": "theorem", "n_max": SWEEP_N_MAX, "max_k": SWEEP_K,
                           "pairs": "consecutive"}, False, _sweep, SMALL_CAL),
        Workload("suite", {"suite": "full", "n_max": SUITE_N_MAX, "max_k": SWEEP_K},
                 True, _suite, SMALL_CAL),
    )
}


# ---------------------------------------------------------------------------
# Checks


def split_output(kind: str, text: str) -> tuple[str, list[float]]:
    """The exact part of an output, compared byte for byte, and its floats,
    compared to FLOAT_TOL. Only `spectra` prints floats."""
    if kind != "spectra":
        return text, []
    doc = json.loads(text)
    skeleton = {
        "command": doc["command"],
        "params": doc["params"],
        "quantities": [row["quantity"] for row in doc["rows"]],
    }
    return json.dumps(skeleton, sort_keys=True), [float(row["value"]) for row in doc["rows"]]


def reference_entry(kind: str, text: str) -> dict:
    exact, floats = split_output(kind, text)
    return {"sha256": hashlib.sha256(exact.encode()).hexdigest(), "floats": floats}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def _check_compare(op: Op, text: str) -> list[str]:
    result = json.loads(text)["params"]["result"]
    cert = result["certificate"]
    errors = []
    if result["relation"] != "strictly_less":
        errors.append(f"shortlex relation {result['relation']}")
    if cert["relation"] != "strictly_less":
        errors.append(f"certified relation {cert['relation']}")
    if cert["witness_up"] is not None:
        errors.append("unexpected upward witness")
    w = cert["witness_down"]
    if w is None:
        return errors + ["no strict witness"]
    # trees are bipartite: odd closed-walk counts are zero on both sides
    if w["k"] % 2 or not 0 < w["k"] <= CLOSE_CALL_K or int(w["lhs"]) >= int(w["rhs"]):
        errors.append(f"bad witness {w}")
    if "witness_k" in op.expect and w["k"] != op.expect["witness_k"]:
        errors.append(f"witness at k={w['k']}, expected k={op.expect['witness_k']}")
    return errors


def _check_spectra(op: Op, text: str) -> list[str]:
    _, values = split_output("spectra", text)
    radius, estrada, eig = values[0], values[1], values[2:]
    n = op.expect["n"]
    errors = []
    if len(eig) != n or json.loads(text)["params"]["n"] != n:
        errors.append(f"expected {n} eigenvalues, got {len(eig)}")
    if any(x < y for x, y in zip(eig, eig[1:])):
        errors.append("eigenvalues not descending")
    if eig and not _close(radius, eig[0]):
        errors.append(f"radius {radius} vs top eigenvalue {eig[0]}")
    if not _close(estrada, sum(math.exp(x) for x in eig)):
        errors.append(f"estrada index {estrada} vs sum of exp(eigenvalues)")
    # trace of A is 0 and trace of A^2 is twice the edge count, n - 1
    if abs(sum(eig)) > n * FLOAT_TOL:
        errors.append(f"eigenvalue sum {sum(eig)}")
    if not math.isclose(sum(x * x for x in eig), 2 * (n - 1), rel_tol=FLOAT_TOL):
        errors.append(f"eigenvalue square sum {sum(x * x for x in eig)}")
    return errors


def _check_verify(op: Op, text: str) -> list[str]:
    reports = [json.loads(line) for line in text.splitlines()]
    errors = []
    if len(reports) != op.expect["reports"]:
        errors.append(f"{len(reports)} reports, expected {op.expect['reports']}")
    bad = [r for r in reports if not r["holds"] or r["violation"] is not None]
    if bad:
        errors.append(f"{len(bad)} violations, first: {bad[0]['instance']}")
    return errors


_CHECKS = {
    "compare": _check_compare,
    "exact": lambda op, text: [] if text == "LESS" else [f"exact order {text}"],
    "spectra": _check_spectra,
    "verify": _check_verify,
}


def check(op: Op, status: int, text: str, reference: dict) -> list[str]:
    """Every way this output is wrong; empty when it is right.

    The invariants hold for any seed; the recorded reference, keyed by the
    operation, applies wherever it has an entry.
    """
    if status != 0:
        return [f"exit code {status}"]
    try:
        errors = _CHECKS[op.kind](op, text)
        ref = reference.get(op.key)
        if ref is not None:
            exact, floats = split_output(op.kind, text)
            if hashlib.sha256(exact.encode()).hexdigest() != ref["sha256"]:
                errors.append("exact output differs from the reference")
            if len(floats) != len(ref["floats"]) or not all(
                _close(a, b) for a, b in zip(floats, ref["floats"])
            ):
                errors.append(f"floats differ from the reference by more than {FLOAT_TOL}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        errors = [f"unreadable output: {exc!r}"]
    return [f"{op.key}: {e}" for e in errors]
