"""CLI output pinned byte for byte by sha256 digests.

Each digest was recorded before a refactor of the tree, walk, ordering and
verify layers, so any change to what these commands print fails here.
Refactors that claim byte-identical output are held to that claim.
"""

import hashlib

import pytest

from starwalk.cli import main

# a triangle 0-1-2 with a pendant path 2-3-4 and a pendant vertex 5 at 0
CYCLE_EDGES = "0 1\n1 2\n2 0\n2 3\n3 4\n0 5\n"
# a tree on 6 vertices with two vertices of degree 3, so not starlike
TREE_EDGES = "0 1\n1 2\n1 3\n3 4\n3 5\n"

CASES = {
    "verify-full-json": (
        ("verify", "--suite", "full", "--n-max", "12", "--format", "json"),
        None,
    ),
    "verify-full-csv": (
        ("verify", "--suite", "full", "--n-max", "12", "--format", "csv"),
        None,
    ),
    "verify-full-table": (
        ("verify", "--suite", "full", "--n-max", "12", "--no-timestamp"),
        None,
    ),
    # the battery of the benchmark's suite workload, orders 4..22
    "verify-full-22-json": (
        ("verify", "--suite", "full", "--n-max", "22", "--max-k", "40", "--format", "json"),
        None,
    ),
    "verify-all-walks-json": (
        ("verify", "--suite", "all-walks", "--n-max", "12", "--format", "json"),
        None,
    ),
    "verify-theorem-all-pairs-json": (
        ("verify", "--suite", "theorem", "--n-max", "12", "--pairs", "all",
         "--format", "json"),
        None,
    ),
    "verify-theorem-consecutive-18-json": (
        ("verify", "--suite", "theorem", "--n-max", "18", "--pairs", "consecutive",
         "--format", "json"),
        None,
    ),
    # orders 19..24: exactly the chains of the benchmark's sweep
    "verify-theorem-consecutive-24-json": (
        ("verify", "--suite", "theorem", "--n-max", "24", "--pairs", "consecutive",
         "--format", "json"),
        None,
    ),
    "compare-certify-trio-json": (
        ("compare", "S(80,90,100)", "S(85,90,95)", "--certify", "--max-k", "400",
         "--format", "json"),
        None,
    ),
    "moments-starlike-json": (
        ("moments", "--tree", "S(2,3,4)", "--all-walks", "--vertex", "1",
         "--format", "json"),
        None,
    ),
    "moments-cycle-json": (
        ("moments", "--edges", "{edges}", "--all-walks", "--vertex", "1",
         "--format", "json"),
        CYCLE_EDGES,
    ),
    "incomparable-8-json": (
        ("incomparable", "--n", "8", "--format", "json"),
        None,
    ),
    # compare's graph branch: starlike trees of unequal orders, and an
    # edge-list operand, whose path the lhs row echoes
    "compare-unequal-orders-json": (
        ("compare", "S(1,2)", "S(1,1,2)", "--format", "json"),
        None,
    ),
    "compare-unequal-orders-table": (
        ("compare", "S(1,2)", "S(1,1,2)", "--no-timestamp"),
        None,
    ),
    "compare-edges-json": (
        ("compare", "{edges}", "S(1,1,3)", "--format", "json"),
        TREE_EDGES,
    ),
    "compare-edges-table": (
        ("compare", "{edges}", "S(1,1,3)", "--no-timestamp"),
        TREE_EDGES,
    ),
    # verify's csv with violation columns filled, and its summary table
    "verify-all-walks-10-csv": (
        ("verify", "--suite", "all-walks", "--n-max", "10", "--format", "csv"),
        None,
    ),
    "verify-theorem-8-table": (
        ("verify", "--suite", "theorem", "--n-max", "8", "--no-timestamp"),
        None,
    ),
    # a starlike spectrum is read off its branch list with no LAPACK call,
    # so its floats are pinned too: a radius above 2, D_271 below it and
    # the affine E_8 = S(1,2,5) at it
    "spectra-trio-top-json": (
        ("spectra", "--tree", "S(90,90,90)", "--format", "json"),
        None,
    ),
    "spectra-d271-json": (
        ("spectra", "--tree", "S(1,1,268)", "--format", "json"),
        None,
    ),
    "spectra-affine-e8-json": (
        ("spectra", "--tree", "S(1,2,5)", "--format", "json"),
        None,
    ),
}

DIGESTS = {
    "verify-full-json": (
        "662ec8892e4e2a5321c20c2f732c76d70029ef52cdf24b4cc9a86d2184e3dad6"
    ),
    "verify-full-csv": (
        "53fa2557abc79e1e073f229ca761c38b90f0841ca218104dcb899d9012afcf20"
    ),
    "verify-full-table": (
        "22479c2da20ff6f0d0ea4937c083785f7fc7b74d49336685562a06900e835b16"
    ),
    "verify-full-22-json": (
        "120e023ad44d3d9031c53f8c4171f84874419246b9fd97b55e626fd0c0aabbf6"
    ),
    "verify-all-walks-json": (
        "927910f3959bef59efebe066364e2036a3b0085b445164d77384ffa26faf929a"
    ),
    "verify-theorem-all-pairs-json": (
        "a226aada440369ce8d1053aa4cd57854677eaaf83601cb9319e189cda2730843"
    ),
    "verify-theorem-consecutive-18-json": (
        "24576b4e6551ba1fb80a02aa3e1a26ec7aa3bfd585654e18eb6671702a43d2ba"
    ),
    "verify-theorem-consecutive-24-json": (
        "3e6cc7b08a9255dd974a64033f133da7387a60edca2e63abfe109f70b288ee04"
    ),
    "compare-certify-trio-json": (
        "89b728321f23a6b67370e417c03c3e13c902e884d5f0e2e6f5242596434271ce"
    ),
    "moments-starlike-json": (
        "e1abf402a3f3a140f8a1492a45f089b3b14c73deea51ad1343a3af7f08dc7e5d"
    ),
    "moments-cycle-json": (
        "a7683bb0e69ec739a828f429ad16bd312533e107838c73aff04a6819dcbc89f2"
    ),
    "incomparable-8-json": (
        "6f0db307bdda803482da1e471faab4f31476423030dd1563d8ee9d5862081267"
    ),
    "spectra-trio-top-json": (
        "e7378818865c8ae41f0880c32849c7312c0bb77f4c2161bc21a92165901c9103"
    ),
    "spectra-d271-json": (
        "34d4f4509f0334223761de65e764b01151089aa86d0ba027b30baf8f77689942"
    ),
    "spectra-affine-e8-json": (
        "13a173f4221f131b5acc52588e856bccf71bd4d0393974261ffa080040f19691"
    ),
    "compare-unequal-orders-json": (
        "109273bf8ae0143fdd11a8c532bca6acb8e167ee2c5cad198406d4ce1d50a1f8"
    ),
    "compare-unequal-orders-table": (
        "e8b0ff899f8f3d334c6812ce14f20a4130799750dc6d5bec4b5b24e91999ec9d"
    ),
    "compare-edges-json": (
        "556b04857a7a5dc14517eb4afbbde75d7a841f4ea7da604e882d65e386346c4c"
    ),
    "compare-edges-table": (
        "5707ff563be17abbf4d082928f1557eb5bc1d453c0cdefbead45f2f4cd0a87e7"
    ),
    "verify-all-walks-10-csv": (
        "3524aeb93b3680e3dd8455b39706d19bf13782a5c25d5975d5b2fc25c5cf6f97"
    ),
    "verify-theorem-8-table": (
        "521171179afee39c79349c79d45bb2b80fc2fbd1f4c5347ff42bda66efaa8b1e"
    ),
}


# the all-walks analogue fails from order 10 on, so that battery exits 1
STATUS = {"verify-all-walks-json": 1, "verify-all-walks-10-csv": 1}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name, capsys, tmp_path, monkeypatch):
    argv, edges = CASES[name]
    if edges is not None:
        # a relative path, so that output echoing it is the same everywhere
        monkeypatch.chdir(tmp_path)
        (tmp_path / "edges.txt").write_text(edges)
        argv = tuple(a.replace("{edges}", "edges.txt") for a in argv)
    status = main(list(argv))
    out = capsys.readouterr().out
    assert status == STATUS.get(name, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]
