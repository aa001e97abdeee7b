import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from starwalk import cli, trees
from starwalk.cli import main

from oracles import render_json_dumps


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestMoments:
    def test_frozen_star(self, capsys):
        status, out, _ = run(
            capsys, "moments", "--tree", "S(1,1,1)", "--max-k", "4", "--no-timestamp"
        )
        assert status == 0
        assert out.splitlines()[-1].split() == ["4", "18"]

    def test_frozen_single_branch_is_path(self, capsys):
        status, out, _ = run(
            capsys, "moments", "--tree", "S(3)", "--max-k", "2", "--no-timestamp"
        )
        assert status == 0
        assert out.splitlines()[-1].split() == ["2", "6"]

    def test_malformed_spec_is_status_2(self, capsys):
        status, _, err = run(capsys, "moments", "--tree", "S(1,,2)", "--max-k", "4")
        assert status == 2
        assert "malformed" in err

    def test_optional_columns(self, capsys):
        status, out, _ = run(
            capsys, "moments", "--tree", "S(1,2)", "--max-k", "4",
            "--all-walks", "--vertex", "0", "--no-timestamp",
        )
        assert status == 0
        header = out.splitlines()[0].split()
        assert header == ["k", "closed", "all_walks", "closed_at_0"]
        assert out.splitlines()[-1].split() == ["4", "14", "26", "5"]

    def test_edges_file(self, capsys, tmp_path):
        path = tmp_path / "p4.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        status, out, _ = run(
            capsys, "moments", "--edges", str(path), "--max-k", "4", "--no-timestamp"
        )
        assert status == 0
        assert out.splitlines()[-1].split() == ["4", "14"]

    def test_missing_edges_file(self, capsys):
        status, _, err = run(capsys, "moments", "--edges", "/nonexistent", "--max-k", "4")
        assert status == 2
        assert "cannot read" in err

    def test_tree_and_edges_both_given(self, capsys, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 1\n")
        status, _, err = run(
            capsys, "moments", "--tree", "S(1,1,1)", "--edges", str(path)
        )
        assert status == 2
        assert "exactly one" in err

    def test_output_file_and_csv(self, capsys, tmp_path):
        out_path = tmp_path / "m.csv"
        status, out, _ = run(
            capsys, "moments", "--tree", "S(1,1,1)", "--max-k", "4",
            "--format", "csv", "--output", str(out_path),
        )
        assert status == 0
        assert out == ""
        lines = out_path.read_text().splitlines()
        assert lines[0] == "k,closed"
        assert lines[-1] == "4,18"

    def test_unwritable_output_is_status_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "m.json"
        status, out, err = run(
            capsys, "moments", "--tree", "S(1,1,1)", "--max-k", "4",
            "--format", "json", "--output", str(out_path),
        )
        assert status == 2
        assert out == ""
        assert err.startswith("starwalk: error: ")


class TestCompare:
    def test_starlike_with_certificate(self, capsys):
        status, out, _ = run(
            capsys, "compare", "S(1,2,3)", "S(2,2,2)", "--certify", "--no-timestamp"
        )
        assert status == 0
        assert "strictly_less" in out
        assert "k=6: 126 vs 132" in out

    def test_starlike_without_certificate_has_no_witness(self, capsys):
        status, out, _ = run(capsys, "compare", "S(1,2,3)", "S(2,2,2)", "--format", "json")
        assert status == 0
        payload = json.loads(out)
        rows = {r["field"]: r["value"] for r in payload["rows"]}
        assert rows["relation"] == "strictly_less"
        assert rows["witness"] == ""
        assert payload["params"]["result"]["certificate"] is None

    def test_paths_given_as_different_lists_are_equal(self, capsys):
        status, out, err = run(
            capsys, "compare", "S(1,3)", "S(2,2)", "--certify", "--format", "json"
        )
        assert (status, err) == (0, "")
        rows = {r["field"]: r["value"] for r in json.loads(out)["rows"]}
        assert rows == {"lhs": "S(1,3)", "rhs": "S(2,2)", "relation": "equal", "witness": ""}
        status, out, _ = run(
            capsys, "compare", "S(1,2)", "S(1,1,1)", "--certify", "--no-timestamp"
        )
        assert status == 0
        assert "strictly_less" in out

    def test_unequal_totals_fall_back_to_dominance(self, capsys):
        status, out, _ = run(capsys, "compare", "S(1,1)", "S(1,1,1)", "--no-timestamp")
        assert status == 0
        assert "strictly_less" in out

    def test_edge_file_operand(self, capsys, tmp_path):
        path = tmp_path / "p4.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        status, out, _ = run(
            capsys, "compare", str(path), "S(1,1,1)", "--no-timestamp"
        )
        assert status == 0
        assert "strictly_less" in out
        assert "k=4: 14 vs 18" in out

    def test_shortlex_compare_builds_no_graph(self, capsys, monkeypatch):
        # an uncertified compare of equal-order descriptors is decided on the
        # branch lists alone, however many vertices the trees have
        for module in (cli, trees):
            monkeypatch.setattr(module, "make_starlike", lambda *a: pytest.fail("graph built"))
        status, out, _ = run(
            capsys, "compare", "S(100000,100000,100000)", "S(99999,100000,100001)",
            "--no-timestamp",
        )
        assert status == 0
        assert "strictly_greater" in out


class TestSuccessor:
    def test_chain_with_case_tags(self, capsys):
        status, out, _ = run(
            capsys, "successor", "4,4,5", "--count", "2", "--no-timestamp"
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[2].split()[:3] == ["0", "4,4,5"]
        assert lines[3].split()[:3] == ["1", "1,1,1,10", "CASE_III"]
        assert lines[4].split()[:3] == ["2", "1,1,2,9", "CASE_I"]

    def test_case2_detail_column(self, capsys):
        status, out, _ = run(capsys, "successor", "1,3,3", "--count", "1", "--no-timestamp")
        assert status == 0
        assert "CASE_II" in out
        assert "j=1 p=0 q=2 f=3" in out

    def test_chain_end(self, capsys):
        status, out, _ = run(capsys, "successor", "1,1,1", "--count", "3", "--no-timestamp")
        assert status == 0
        assert "(end of chain)" in out

    def test_accepts_wrapped_spec(self, capsys):
        status, out, _ = run(capsys, "successor", "S(1,1,4)", "--count", "1", "--no-timestamp")
        assert status == 0
        assert "1,2,3" in out

    def test_negative_count_is_status_2(self, capsys):
        status, out, err = run(capsys, "successor", "1,3,3", "--count", "-1")
        assert status == 2
        assert out == ""
        assert "count must be non-negative" in err


class TestSpectra:
    def test_table_has_radius_and_estrada(self, capsys):
        status, out, _ = run(capsys, "spectra", "--tree", "S(2,3,4)", "--no-timestamp")
        assert status == 0
        rows = {line.split()[0]: line.split()[1] for line in out.splitlines()[2:]}
        assert abs(float(rows["spectral_radius"]) - 2.06416009) < 1e-7
        assert abs(float(rows["estrada_index"]) - 21.5359221) < 1e-6
        assert "eigenvalue_0" in rows

    def test_graph_with_cycle_reports_float_radius(self, capsys, tmp_path):
        path = tmp_path / "paw.txt"
        path.write_text("0 1\n1 2\n2 0\n2 3\n")  # a triangle with a pendant vertex
        status, out, _ = run(capsys, "spectra", "--edges", str(path), "--format", "json")
        assert status == 0
        payload = json.loads(out)
        assert payload["params"] == {"n": 4, "tol": 1e-10, "exact_radius": False}
        rows = {row["quantity"]: row["value"] for row in payload["rows"]}
        assert rows["spectral_radius"] == rows["eigenvalue_0"]
        assert abs(float(rows["spectral_radius"]) - 2.1700864866) < 1e-9
        assert abs(float(rows["estrada_index"]) - 10.7192233484) < 1e-9
        assert len(rows) == 6

    def test_disconnected_graph_reports_float_radius(self, capsys, tmp_path):
        path = tmp_path / "two_edges.txt"
        path.write_text("0 1\n2 3\n")  # two components, top eigenvalue 1 twice
        status, out, _ = run(capsys, "spectra", "--edges", str(path), "--format", "json")
        assert status == 0
        payload = json.loads(out)
        assert payload["params"] == {"n": 4, "tol": 1e-10, "exact_radius": False}
        rows = {row["quantity"]: row["value"] for row in payload["rows"]}
        assert rows["spectral_radius"] == rows["eigenvalue_0"]
        assert abs(float(rows["spectral_radius"]) - 1.0) < 1e-12
        assert abs(float(rows["estrada_index"]) - 4 * math.cosh(1)) < 1e-12
        # the fallback does not reach a graph with no edge
        path.write_text("# no edges\n")
        status, out, err = run(capsys, "spectra", "--edges", str(path))
        assert (status, out) == (2, "")
        assert "connected graph with an edge" in err

    def test_forest_json_has_no_exact_radius_key(self, capsys):
        status, out, _ = run(capsys, "spectra", "--tree", "S(2,3,4)", "--format", "json")
        assert status == 0
        assert json.loads(out)["params"] == {"n": 10, "tol": 1e-10}

    def test_bad_tol(self, capsys, tmp_path):
        # nan or inf would stop halving at once: a wrong radius, invalid JSON;
        # a disconnected graph, which falls back to floats, is rejected alike
        split = tmp_path / "two_edges.txt"
        split.write_text("0 1\n2 3\n")
        for tol in ("-1", "0", "nan", "inf"):
            for graph in (("--tree", "S(80,90,100)"), ("--edges", str(split))):
                status, out, err = run(capsys, "spectra", *graph, "--tol", tol)
                assert status == 2, (tol, graph)
                assert "tol" in err
                assert out == ""


class TestVerify:
    def test_theorem_suite_green(self, capsys):
        status, out, _ = run(
            capsys, "verify", "--suite", "theorem", "--n-max", "8",
            "--max-k", "30", "--no-timestamp",
        )
        assert status == 0
        assert "violations: 0" in out

    def test_all_walks_violation_sets_exit_1(self, capsys):
        status, out, _ = run(
            capsys, "verify", "--suite", "all-walks", "--n-max", "10",
            "--max-k", "40", "--no-timestamp",
        )
        assert status == 1
        assert "VIOLATION" in out
        assert "S(1,2,2,2,2) -> S(1,1,1,1,1,4)" in out
        assert "k=3: 106 vs 104" in out

    def test_json_lines_shape(self, capsys):
        status, out, _ = run(
            capsys, "verify", "--suite", "theorem", "--n-max", "7",
            "--max-k", "25", "--format", "json",
        )
        assert status == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(reports) == 10
        assert all(r["holds"] is True for r in reports)
        assert all(r["name"] == "theorem_sweep" for r in reports)
        # order 4 has one tree and so no pair: the output is a lone newline
        status, out, _ = run(
            capsys, "verify", "--suite", "theorem", "--n-max", "4", "--format", "json"
        )
        assert (status, out) == (0, "\n")

    def test_csv_columns(self, capsys):
        status, out, _ = run(
            capsys, "verify", "--suite", "theorem", "--n-max", "6",
            "--max-k", "20", "--format", "csv",
        )
        assert status == 0
        assert out.splitlines()[0].startswith("name,instance,max_k,holds")

    def test_full_suite_deterministic_across_jobs(self, capsys, monkeypatch):
        status, serial, _ = run(
            capsys, "verify", "--suite", "full", "--n-max", "7",
            "--max-k", "20", "--format", "json", "--jobs", "1",
        )
        assert status == 0
        status, parallel, _ = run(
            capsys, "verify", "--suite", "full", "--n-max", "7",
            "--max-k", "20", "--format", "json", "--jobs", "3",
        )
        assert status == 0
        assert serial == parallel

    def test_bad_jobs_env(self, capsys):
        argv = ("verify", "--n-max", "6", "--max-k", "20")
        for suite in ("theorem", "full"):
            status, _, err = run(capsys, *argv, "--suite", suite, "--jobs", "0")
            assert status == 2
            assert "jobs" in err

    def test_jobs_env_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("STARWALK_JOBS", "many")
        status, out, err = run(capsys, "verify", "--suite", "full", "--n-max", "5")
        assert status == 0
        assert err == ""
        assert out

    @pytest.mark.parametrize("suite", ["theorem", "all-walks"])
    def test_jobs_only_on_full_suite(self, capsys, suite):
        status, out, err = run(
            capsys, "verify", "--suite", suite, "--n-max", "5", "--jobs", "2"
        )
        assert status == 2
        assert out == ""
        assert "--jobs applies to --suite full only" in err

    @pytest.mark.parametrize("suite", ["full", "all-walks"])
    def test_pairs_only_on_theorem_suite(self, capsys, suite):
        status, out, err = run(
            capsys, "verify", "--suite", suite, "--n-max", "4", "--pairs", "all"
        )
        assert status == 2
        assert out == ""
        message = f"--pairs applies to --suite theorem only, not {suite}"
        assert err == f"starwalk: error: {message}\n"

    def test_theorem_suite_pairs_default_to_consecutive(self, capsys):
        argv = (
            "verify", "--suite", "theorem", "--n-max", "7", "--max-k", "20",
            "--format", "json",
        )
        _, default, _ = run(capsys, *argv)
        _, consecutive, _ = run(capsys, *argv, "--pairs", "consecutive")
        _, every, _ = run(capsys, *argv, "--pairs", "all")
        assert default == consecutive
        assert len(default.splitlines()) == 10
        assert len(every.splitlines()) > 10

    def test_full_suite_rejects_small_n_max(self, capsys):
        status, out, err = run(capsys, "verify", "--suite", "full", "--n-max", "3")
        assert status == 2
        assert out == ""
        assert "n_max must be at least 4" in err


class TestIncomparable:
    def test_order_eight_pairs(self, capsys):
        status, out, _ = run(capsys, "incomparable", "--n", "8", "--no-timestamp")
        assert status == 0
        assert len(out.splitlines()) == 2 + 3

    def test_starlike_only_empty(self, capsys):
        status, out, _ = run(
            capsys, "incomparable", "--n", "8", "--starlike-only", "--format", "json"
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["params"]["pairs_found"] == 0

    def test_census_cap_is_status_2(self, capsys):
        status, _, err = run(capsys, "incomparable", "--n", "13")
        assert status == 2
        assert "n <= 12" in err


class TestDeterminism:
    def test_timestamp_header_toggles(self, capsys):
        _, with_ts, _ = run(capsys, "moments", "--tree", "S(1,1)", "--max-k", "2")
        assert with_ts.splitlines()[0].startswith("# starwalk moments 2")
        _, without, _ = run(
            capsys, "moments", "--tree", "S(1,1)", "--max-k", "2", "--no-timestamp"
        )
        assert with_ts.splitlines()[1:] == without.splitlines()

    def test_repeat_runs_byte_identical(self, capsys):
        args = ("compare", "S(1,1,4)", "S(1,2,3)", "--certify", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_matches_the_reference_encoder(self, capsys, monkeypatch, tmp_path):
        # every JSON table byte for byte as json.dumps(indent=2) writes it
        tables = []
        render = cli._render_json

        def recorded(command, table):
            tables.append((command, table))
            return render(command, table)

        monkeypatch.setattr(cli, "_render_json", recorded)
        paw = tmp_path / "paw.txt"
        paw.write_text("0 1\n1 2\n2 0\n2 3\n")
        odd = tmp_path / 'p4 "quoted" back\\slash\ttab \u00e9\u2603.txt'
        odd.write_text("0 1\n1 2\n2 3\n")
        outputs = {}
        for argv in (
            ("spectra", "--tree", "S(1,2,3)"),
            ("spectra", "--edges", str(paw)),
            ("compare", "S(1,1,4)", "S(1,2,3)", "--certify"),
            ("compare", str(odd), "S(1,1,1)"),
            ("moments", "--tree", "S(1,2)", "--max-k", "6", "--all-walks", "--vertex", "0"),
            ("successor", "1,1,1", "--count", "3"),
            ("incomparable", "--n", "5"),
        ):
            tables.clear()
            status, out, _ = run(capsys, *argv, "--format", "json")
            assert status == 0, argv
            [(command, table)] = tables
            assert out == render_json_dumps(command, table), argv
            outputs[argv[:2]] = json.loads(out)
        # the cases cover a graph with a cycle, escapes, the end of a chain
        # and a table with no rows
        assert outputs["spectra", "--edges"]["params"]["exact_radius"] is False
        assert outputs["compare", str(odd)]["rows"][0]["value"] == str(odd)
        assert outputs["successor", "1,1,1"]["rows"][-1]["partition"] == "(end of chain)"
        assert outputs["incomparable", "--n"]["rows"] == []
        # and an empty params dict
        table = cli.Table(["quantity", "value"], [["x", "1"]])
        assert render("spectra", table) == render_json_dumps("spectra", table)

    def test_max_k_floor_rejected(self, capsys):
        # every command that counts walks takes --max-k, with one floor
        for argv in (
            ("moments", "--tree", "S(1,1)"),
            ("compare", "S(1,2,3)", "S(2,2,2)"),
            ("verify", "--suite", "theorem", "--n-max", "6"),
            ("incomparable", "--n", "5"),
        ):
            status, out, err = run(capsys, *argv, "--max-k", "1")
            assert status == 2, argv
            assert out == ""
            assert "max_k must be at least 2" in err

    def test_max_k_only_on_walk_commands(self, capsys):
        # spectra and successor count no walks, so they have no horizon
        for argv in (("spectra", "--tree", "S(1,1)"), ("successor", "1,1,1")):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--max-k", "10"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --max-k" in capsys.readouterr().err

    def test_unknown_format_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--tree", "S(1,1)", "--format", "yaml"])
        assert exc.value.code == 2
        assert "invalid choice: 'yaml'" in capsys.readouterr().err


def test_one_parser_keeps_no_state_between_calls(capsys):
    """main reuses one parser: a vertex column, a format or an argparse
    error in one call leaves the next call's bytes as they were."""
    plain = ("moments", "--tree", "S(1,2)", "--max-k", "4", "--no-timestamp")
    _, before, _ = run(capsys, *plain)
    status, out, _ = run(capsys, "moments", "--tree", "S(1,2)", "--vertex", "0",
                         "--format", "json")
    assert status == 0 and "closed_at_0" in out
    with pytest.raises(SystemExit):
        main(["moments", "--tree", "S(1,2)", "--format", "yaml"])
    capsys.readouterr()
    _, after, _ = run(capsys, *plain)
    assert after == before
    assert after.split()[:2] == ["k", "closed"] and "closed_at" not in after


def test_readme_cli_lines_parse():
    """Every documented `starwalk ...` line is accepted by the parser as is."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("starwalk ")]
    assert len(commands) >= 7
    parser = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
        assert callable(args.handler)


def _probe(code: str) -> str:
    """stdout of a fresh interpreter that runs code with src on its path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_neither_numpy_nor_pool():
    """Only a dense spectrum needs numpy, only a parallel suite the pool,
    only the verify command the verify module, only the spectra command
    the spectra module, only csv output csv and only a table's timestamp
    datetime; no command loads fractions."""
    probe = (
        "import sys, starwalk, starwalk.cli; print(sorted(m for m in "
        "('numpy', 'concurrent.futures', 'starwalk.verify', 'starwalk.spectra', "
        "'fractions', 'csv', 'datetime') if m in sys.modules))"
    )
    assert _probe(probe) == "[]\n"


def test_cli_start_up_imports_only_starwalk_modules():
    """Once the standard-library modules that the start-up modules import at
    top level are loaded, importing the CLI adds its seven starwalk modules
    and nothing else: a new start-up import shows here first."""
    probe = (
        "import __future__, argparse, enum, functools, io, itertools, json, math, "
        "operator, sys, typing\n"
        "before = set(sys.modules)\n"
        "import starwalk, starwalk.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    assert _probe(probe).split() == [
        "starwalk", "starwalk.cli", "starwalk.ordering", "starwalk.partitions",
        "starwalk.poly", "starwalk.trees", "starwalk.walks",
    ]


def test_dense_spectrum_without_numpy_is_usage_error(tmp_path, capsys):
    """Only the dense spectrum of a graph that is not starlike needs numpy.
    Without numpy it exits 2 with a message that names numpy, and a
    starlike spectrum prints the same bytes as with numpy."""
    edges = tmp_path / "two_hubs.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n1 5\n3 6\n")  # two vertices of degree 3
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from starwalk.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    runs = [
        subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                       env=env, timeout=60)
        for argv in (["spectra", "--edges", str(edges)],
                     ["spectra", "--tree", "S(80,90,100)", "--format", "json"])
    ]
    dense, starlike = runs
    assert dense.returncode == 2 and dense.stdout == ""
    assert "Traceback" not in dense.stderr and "numpy" in dense.stderr
    assert starlike.returncode == 0, starlike.stderr
    status, out, _ = run(capsys, "spectra", "--tree", "S(80,90,100)", "--format", "json")
    assert status == 0 and starlike.stdout == out
    assert main(["spectra", "--edges", str(edges), "--output", str(tmp_path / "x")]) == 0


def test_start_up_loads_no_dataclasses():
    """The records are named tuples and slotted classes, so neither the CLI
    nor the spectra and verify modules load dataclasses, or inspect, which
    it imports; a module a bare interpreter already holds does not count."""
    probe = (
        "import sys\n"
        "watched = [m for m in ('dataclasses', 'inspect') if m not in sys.modules]\n"
        "import starwalk, starwalk.cli\n"
        "found = [[m for m in watched if m in sys.modules]]\n"
        "import starwalk.spectra, starwalk.verify\n"
        "found.append([m for m in watched if m in sys.modules])\n"
        "print(found)\n"
    )
    assert _probe(probe) == "[[], []]\n"


def test_cli_builds_one_parser_tree_per_process():
    """Importing the CLI builds no parser; the first main call builds the
    parser tree, and later calls parse with that same tree."""
    probe = (
        "import argparse, os\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = "
        "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "from starwalk.cli import main\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        "    main(['successor', '1,2', '--output', os.devnull])\n"
        "    counts.append(len(built))\n"
        "print(counts)\n"
    )
    counts = json.loads(_probe(probe))
    assert counts[0] == 0
    assert counts[1] > 0 and counts[2] == counts[1]


def test_starlike_spectra_load_no_numpy(tmp_path):
    """A starlike tree's spectrum is read off its branch list: the spectra
    command exits 0 without ever importing numpy. The exact root layer
    works on dyadic integers, so neither a radius above 2, one below 2
    (D_271) nor a certified comparison of the trio loads fractions."""
    out = tmp_path / "trio.json"
    probe = (
        "import sys; from starwalk.cli import main; "
        "from starwalk.partitions import Partition; "
        "from starwalk.spectra import compare_spectral_radii_exact; "
        "status = main(['spectra', '--tree', 'S(80,90,100)', '--format', 'json', "
        f"'--output', {str(out)!r}]); "
        "status += main(['spectra', '--tree', 'S(1,1,268)', '--format', 'json', "
        f"'--output', {str(tmp_path / 'd271.json')!r}]); "
        "order = compare_spectral_radii_exact(Partition([80, 90, 100]), Partition([85, 90, 95])); "
        "print(status, order.name, 'numpy' in sys.modules, 'fractions' in sys.modules)"
    )
    assert _probe(probe) == "0 LESS False False\n"
    rows = {r["quantity"]: r["value"] for r in json.loads(out.read_text())["rows"]}
    assert len(rows) == 2 + 271
    assert float(rows["eigenvalue_0"]) == pytest.approx(3 / math.sqrt(2), abs=1e-14)
