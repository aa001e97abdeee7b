"""The study scripts reject bad input with a usage error (exit 2).

Exit 1 from sweep_report.py means a violation was found, so bad input must
never leave through a traceback's exit 1. Only inputs that fail while
parsing are run here, and one short close-call study, so each case takes
well under a second.
radius_digests.py's radii digest is checked whole, its verdict digest on a
subset of its pairs.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("sweep_report.py", ["--n-max", "3"], "n_max must be at least 4"),
        ("sweep_report.py", ["--max-k", "-1"], "max_k must be at least 2"),
        ("close_call_radii.py", ["--tree", "1,2,3"], "need at least two trees"),
        ("close_call_radii.py", ["--tree", "1,x", "--tree", "1,2,3"], "malformed partition"),
        ("close_call_radii.py", ["--max-k", "1"], "max_k must be at least 2"),
        ("close_call_radii.py", ["--tol", "0"], "tol must be positive and finite"),
        (
            "close_call_radii.py",
            ["--tree", "1,2,3", "--tree", "1,2,4"],
            "trees must all have the same order",
        ),
    ],
    ids=[
        "sweep-n-max-3", "sweep-max-k-1", "close-call-one-tree", "close-call-bad-tree",
        "close-call-max-k-1",
        "close-call-tol-0", "close-call-mixed-orders",
    ],
)
def test_bad_input_is_usage_error(script, argv, message):
    proc = run_script(script, *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"{script}: error: {message}" in proc.stderr


def test_close_call_study_runs_below_float_accuracy():
    # the exact radius takes any positive tol; the float columns need none
    proc = run_script("close_call_radii.py", "--tol", "1e-14", "--max-k", "200")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("lambda_1 = 2.121320343559") == 3
    assert "lambda_1(S(80, 90, 100)) < lambda_1(S(85, 90, 95))" in proc.stdout


def test_close_call_study_on_one_path_given_two_ways():
    # S(1,3) and S(2,2) are both the path on five vertices
    proc = run_script("close_call_radii.py", "--tree", "1,3", "--tree", "2,2", "--max-k", "20")
    assert proc.returncode == 0, proc.stderr
    assert "lambda_1(S(1, 3)) = lambda_1(S(2, 2))" in proc.stdout
    assert "no strict moment witness through k = 20" in proc.stdout


def _radius_digests():
    path = ROOT / "scripts" / "radius_digests.py"
    spec = importlib.util.spec_from_file_location("radius_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return digests


# both digests were recorded on the Sturm-chain and halving root code, an
# independent path to the same verdicts and floats


@pytest.mark.slow
def test_radius_verdict_digest_unchanged():
    # 9216 ordered pairs, n <= 10
    digests = _radius_digests()
    lines = digests.verdict_lines(10)
    assert len(lines) == 9216
    assert digests.digest(lines) == (
        "887226509b4bd82b0d9f67137808eaece015e82803df3cf2074a3c23d60d4c9f"
    )


def test_radius_reprs_digest_unchanged():
    digests = _radius_digests()
    lines = digests.radius_lines()
    assert len(lines) == 280
    assert digests.digest(lines) == (
        "5d48d463c7cccbf14a13f83f67ae6c6abf17e3e8b8aef1ecdc251668d02c0e11"
    )
