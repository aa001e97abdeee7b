"""The study scripts reject bad input with a usage error (exit 2).

Exit 1 from sweep_report.py means a violation was found, so bad input must
never leave through a traceback's exit 1. Only inputs that fail while
parsing are run here, so each case takes well under a second.
"""

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
        ("close_call_radii.py", ["--tree", "1,2,3"], "need at least two trees"),
        ("close_call_radii.py", ["--tree", "1,x", "--tree", "1,2,3"], "malformed partition"),
        ("close_call_radii.py", ["--max-k", "1"], "max_k must be at least 2"),
    ],
    ids=["sweep-n-max-3", "close-call-one-tree", "close-call-bad-tree", "close-call-max-k-1"],
)
def test_bad_input_is_usage_error(script, argv, message):
    proc = run_script(script, *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"{script}: error: {message}" in proc.stderr
