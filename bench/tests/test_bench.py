"""Fast self-tests of the benchmark harness, at tiny sizes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tiny_verify_op(reports: int = 0) -> workloads.Op:
    argv = ("verify", "--suite", "theorem", "--n-max", "7", "--max-k", "8",
            "--pairs", "consecutive", "--format", "json")
    return workloads.Op(" ".join(argv), "verify", argv, {"reports": reports})


def test_every_emitted_metric_name_is_well_formed():
    names = list(run.END_TO_END) + run.per_layer_names()
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_pass_emits_every_layer_metric():
    ops = [_tiny_verify_op()]
    with tracing.Tracer() as tracer:
        child.run_pass(ops, tracer)
    metrics = tracer.layer_metrics()
    assert list(metrics) == tracing.layer_metric_names()
    assert metrics["walks.calls"] > 0 and metrics["verify.reports"] > 0
    assert metrics["spectra.bisect.calls"] == 0


def test_tracer_sees_calls_through_names_bound_by_import():
    import starwalk.cli
    import starwalk.walks

    original = starwalk.walks.closed_walk_counts
    op = workloads.Op("moments", "moments",
                      ("moments", "--tree", "S(1,2,3)", "--max-k", "5", "--format", "json"))
    with tracing.Tracer() as tracer:
        child.run_pass([op], tracer)
    metrics = tracer.layer_metrics()
    assert metrics["walks.calls"] == 1
    assert metrics["walks.vertex_steps"] == 7 * 5
    assert metrics["cli.calls"] == 1 and metrics["cli.output_bytes"] > 0
    assert starwalk.cli.closed_walk_counts is original
    assert starwalk.walks.closed_walk_counts is original


def test_wrong_reference_counts_as_failed_op():
    op = _tiny_verify_op()
    outcomes, _, _ = child.run_pass([op])
    status, text = outcomes[0]
    op = _tiny_verify_op(len(text.splitlines()))
    right = {op.key: workloads.reference_entry("verify", text)}
    wrong = {op.key: workloads.reference_entry("verify", text.replace("true", "false", 1))}
    assert child.check_pass([op], outcomes, right) == [[]]
    errors = child.check_pass([op], outcomes, wrong)
    assert sum(1 for e in errors if e) == 1
    assert "differs from the reference" in errors[0][0]


def test_each_op_is_timed_between_two_calibrations():
    ops = [_tiny_verify_op(), _tiny_verify_op()]
    ticks = iter(range(10))
    outcomes, costs, cals = child.run_pass(ops, calibrate=lambda: next(ticks))
    assert len(outcomes) == len(costs) == 2 and cals == [0, 1, 2]
    assert child.calibration_s(workloads.Calibration(n=4, limb=12, reps=1, nominal_s=1.0)) > 0


def test_spectra_floats_are_compared_to_tolerance():
    text = json.dumps({"command": "spectra", "params": {"n": 2, "tol": 1e-10}, "rows": [
        {"quantity": "spectral_radius", "value": "1.0"},
        {"quantity": "estrada_index", "value": repr(2 * 1.5430806348152437)},
        {"quantity": "eigenvalue_0", "value": "1.0"},
        {"quantity": "eigenvalue_1", "value": "-1.0"},
    ]})
    op = workloads.Op("spectra P2", "spectra", (), {"n": 2})
    ref = {op.key: workloads.reference_entry("spectra", text)}
    assert workloads.check(op, 0, text, ref) == []
    nudged = text.replace('"1.0"', '"1.0000000000001"', 1)
    assert workloads.check(op, 0, nudged, ref) == []
    moved = text.replace('"1.0"', '"1.00001"', 1)
    assert workloads.check(op, 0, moved, ref)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        (0, -1, "a", 0.0, 10.0),
        (1, 0, "b", 1.0, 4.0),
        (2, 1, "c", 2.0, 3.0),
        (3, 0, "b", 3.0, 6.0),  # overlaps span 1: covered time is counted once
        (4, 0, "a", 8.0, 9.0),  # same layer nested in itself
    ]
    own = tracing.self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0}
    metrics = tracing.layer_metrics(
        [(s, p, {"a": "walks", "b": "trees", "c": "cli"}[n], t0, t1) for s, p, n, t0, t1 in spans],
        {},
    )
    assert metrics["walks.self_s"] == 5.0 and metrics["walks.calls"] == 2
    assert metrics["trees.self_s"] == 5.0 and metrics["cli.self_s"] == 1.0


def test_pool_workers_never_exceed_nproc():
    for nproc in range(1, 65):
        assert 1 <= workloads.pool_workers(nproc) <= nproc
    for jobs in (1, 2):
        (op,) = workloads.WORKLOADS["suite"].build(0, jobs)
        assert op.args[op.args.index("--jobs") + 1] == str(jobs)


def test_close_call_seeds():
    assert workloads.close_call_trio(0) == workloads.PAPER_TRIO
    for seed in (1, 2, 99):
        trio = workloads.close_call_trio(seed)
        assert trio == workloads.close_call_trio(seed)
        assert len(set(trio)) == 3 and list(trio) == sorted(trio)
        for parts in trio:
            assert sum(parts) + 1 == workloads.CLOSE_CALL_N
            assert list(parts) == sorted(parts) and parts[0] >= workloads.CLOSE_CALL_MIN_ARM


def test_reference_covers_every_seed_zero_op():
    reference = json.loads(child.REFERENCE.read_text())
    keys = {op.key for w in workloads.WORKLOADS.values() for op in w.build(0, 1)}
    assert set(reference) == keys
