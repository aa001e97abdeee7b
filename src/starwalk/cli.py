"""Command-line front end.

Subcommands cover the whole pipeline: exact walk counts, dominance
comparisons, shortlex successor chains, spectra, the verification batteries,
and the incomparable-pair search. Output is deterministic for a fixed
configuration (the table-format timestamp header is the one exception, and
--no-timestamp removes it), so runs can be diffed byte for byte. Exact
integers are always rendered as decimal strings; JSON never carries a walk
count as a native number, since the counts outgrow double precision quickly.

Exit status: 0 on success, 1 when a verification battery reports a
violation, 2 on unusable input (malformed tree spec, bad parameters).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from functools import cache
from itertools import groupby
from typing import TYPE_CHECKING, NamedTuple, Optional

from .ordering import Witness, compare_starlike, find_incomparable_pairs, moment_dominance
from .partitions import Partition, parse_partition, shortlex_successor
from .trees import CycleError, Graph, make_starlike, parse_branches, parse_edge_list
from .walks import all_walk_counts, closed_walk_counts, closed_walk_counts_at

if TYPE_CHECKING:
    from .verify import CheckReport

__all__ = ["main"]


class Table(NamedTuple):
    columns: list[str]
    rows: list[list[str]]
    # structured payload echoed into JSON output next to the flat rows; the
    # default is one dict shared by every table, which nothing writes to
    params: dict = {}


def _render_json(command: str, table: Table) -> str:
    """The bytes of json.dumps(indent=2) on {"command", "params", "rows"},
    each row an object keyed by the columns. With an indent json runs its
    pure-Python encoder, so only the small params take it; every cell is a
    string, and the rows fill one template with the C string encoder."""
    quote = json.encoder.encode_basestring_ascii
    params = json.dumps(table.params, indent=2).replace("\n", "\n  ")
    rows = "[]"
    if table.rows:
        template = "    {" + ",".join(
            "\n      " + quote(col).replace("%", "%%") + ": %s" for col in table.columns
        ) + "\n    }"
        rows = "[\n" + ",\n".join(
            template % tuple(map(quote, row)) for row in table.rows
        ) + "\n  ]"
    return f'{{\n  "command": {quote(command)},\n  "params": {params},\n  "rows": {rows}\n}}\n'


def _render_csv(table: Table) -> str:
    import csv  # here and below, imports only the output that needs them pays for

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    return buf.getvalue()


def _render_table(command: str, table: Table, timestamp: bool) -> str:
    lines = []
    if timestamp:
        from datetime import datetime, timezone

        now = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"# starwalk {command} {now}")
    widths = [
        max(len(col), *(len(row[i]) for row in table.rows)) if table.rows else len(col)
        for i, col in enumerate(table.columns)
    ]
    lines.append("  ".join(col.ljust(w) for col, w in zip(table.columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table.rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _emit(args: argparse.Namespace, table: Table) -> str:
    if args.format == "json":
        return _render_json(args.command, table)
    if args.format == "csv":
        return _render_csv(table)
    return _render_table(args.command, table, not args.no_timestamp)


def _load(tree: Optional[str] = None, edges: Optional[str] = None) -> Partition | Graph:
    """The one input loader, for exactly one of its two arguments: an
    "S(...)" descriptor gives its branches, an edge-list path the graph in
    that file. A descriptor's tree is built only where its graph is needed
    (_graph), so a shortlex-only compare of huge trees builds no graph."""
    if (tree is None) == (edges is None):
        raise ValueError("give exactly one of --tree or --edges")
    if tree is not None:
        return parse_branches(tree)
    try:
        with open(edges, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read edge list {edges!r}: {exc}") from None


def _graph(loaded: Partition | Graph) -> Graph:
    return make_starlike(loaded) if isinstance(loaded, Partition) else loaded


def cmd_moments(args: argparse.Namespace) -> tuple[str, int]:
    g = _graph(_load(args.tree, args.edges))
    columns = ["k", "closed"]
    series = [closed_walk_counts(g, args.max_k).values]
    if args.all_walks:
        columns.append("all_walks")
        series.append(all_walk_counts(g, args.max_k).values)
    if args.vertex is not None:
        columns.append(f"closed_at_{args.vertex}")
        series.append(closed_walk_counts_at(g, args.vertex, args.max_k).values)
    rows = [
        [str(k)] + [str(s[k]) for s in series] for k in range(args.max_k + 1)
    ]
    params = {"n": g.n, "edges": g.edge_count, "max_k": args.max_k}
    return _emit(args, Table(columns, rows, params)), 0


def cmd_compare(args: argparse.Namespace) -> tuple[str, int]:
    a, b = (
        _load(tree=t) if t.strip().startswith("S(") else _load(edges=t)
        for t in (args.a, args.b)
    )
    if isinstance(a, Partition) and isinstance(b, Partition) and a.n == b.n:
        result = compare_starlike(a, b, certify=args.certify, max_k=args.max_k)
        lhs, rhs = f"S({a})", f"S({b})"
        cert = result.certificate
        witnesses = [("witness", cert.witness_strict if cert else None)]
    else:
        # fall back to the raw dominance check on realized graphs
        result = moment_dominance(_graph(a), _graph(b), max_k=args.max_k)
        lhs, rhs = args.a, args.b
        witnesses = [("witness_up", result.witness_up), ("witness_down", result.witness_down)]
    rows = [["lhs", lhs], ["rhs", rhs], ["relation", result.relation.value]]
    rows += [[label, _witness(w)] for label, w in witnesses]
    params = {"max_k": args.max_k, "result": result.to_json_obj()}
    return _emit(args, Table(["field", "value"], rows, params)), 0


def _witness(w: Optional[Witness]) -> str:
    return f"k={w.k}: {w.lhs} vs {w.rhs}" if w else ""


def cmd_successor(args: argparse.Namespace) -> tuple[str, int]:
    if args.count < 0:
        raise ValueError("count must be non-negative")
    start = args.start.strip()
    wrapped = start.startswith("S(") and start.endswith(")")
    current = parse_branches(start) if wrapped else parse_partition(start)
    columns = ["step", "partition", "case", "detail"]
    rows = [["0", str(current), "", ""]]
    for step in range(1, args.count + 1):
        nxt = shortlex_successor(current)
        if nxt is None:
            rows.append([str(step), "(end of chain)", "", ""])
            break
        current, info = nxt
        detail = ""
        if info.j is not None:
            detail = f"j={info.j} p={info.p} q={info.q} f={info.f}"
        rows.append([str(step), str(current), info.tag.name, detail])
    return _emit(args, Table(columns, rows, {"count": args.count})), 0


def cmd_spectra(args: argparse.Namespace) -> tuple[str, int]:
    # imported here, the one command that reads a spectrum, so that no other
    # command compiles spectra
    from .spectra import DisconnectedError, eigenvalues, estrada_index, spectral_radius

    g = _graph(_load(args.tree, args.edges))
    params = {"n": g.n, "tol": args.tol}
    # the exact radius runs first: it rejects a bad tol and an edgeless graph
    # before any float work
    try:
        radius = spectral_radius(g, tol=args.tol)
    except (CycleError, DisconnectedError):
        # the exact radius needs a connected forest; a cycle or a second
        # component is not bad input, so the row falls back to the top float
        # eigenvalue and says so
        radius = None
        params["exact_radius"] = False
    eigs = eigenvalues(g)
    columns = ["quantity", "value"]
    rows = [
        ["spectral_radius", repr(eigs[0] if radius is None else radius)],
        ["estrada_index", repr(estrada_index(eigs))],
    ]
    rows.extend([f"eigenvalue_{i}", repr(v)] for i, v in enumerate(eigs))
    return _emit(args, Table(columns, rows, params)), 0


def _verify_reports(args: argparse.Namespace) -> list[CheckReport]:
    # imported here, the one place that runs a battery, so that no other
    # command compiles verify
    from .verify import check_all_walks_analogue, run_suite, verify_theorem

    if args.pairs is not None and args.suite != "theorem":
        raise ValueError(f"--pairs applies to --suite theorem only, not {args.suite}")
    if args.jobs is not None and args.suite != "full":
        raise ValueError(f"--jobs applies to --suite full only, not {args.suite}")
    if args.suite == "full":
        jobs = 1 if args.jobs is None else args.jobs
        return run_suite(n_max=args.n_max, max_k=args.max_k, jobs=jobs)
    if args.suite == "theorem":
        return verify_theorem(args.n_max, max_k=args.max_k, pairs=args.pairs or "consecutive")
    return check_all_walks_analogue(args.n_max, max_k=args.max_k)


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    reports = _verify_reports(args)
    bad = [r for r in reports if not r.holds]
    status = 1 if bad else 0
    if args.format == "json":
        return "\n".join([r.json_line() for r in reports]) + "\n", status
    if args.format == "csv":
        columns = [
            "name", "instance", "max_k", "holds", "vacuous",
            "first_strict_witness", "violation_k", "violation_lhs", "violation_rhs",
        ]
        rows = [
            [
                r.name, r.instance, str(r.max_k),
                str(r.holds).lower(), str(r.vacuous).lower(),
                "" if r.first_strict_witness is None else str(r.first_strict_witness),
                *map(str, r.violation or ("", "", "")),
            ]
            for r in reports
        ]
        return _emit(args, Table(columns, rows)), status
    # human summary: one line per check family (the reports come sorted by
    # name), then any violations in full
    columns = ["check", "instances", "holds", "vacuous", "max_witness"]
    rows = []
    for name, family in groupby(reports, key=lambda r: r.name):
        group = list(family)
        witnesses = [
            r.first_strict_witness for r in group if r.first_strict_witness is not None
        ]
        rows.append([
            name,
            str(len(group)),
            str(sum(r.holds for r in group)),
            str(sum(r.vacuous for r in group)),
            str(max(witnesses)) if witnesses else "",
        ])
    tail = [f"reports: {len(reports)}  violations: {len(bad)}"]
    for r in bad:
        k, lhs, rhs = r.violation
        tail.append(f"VIOLATION {r.name} | {r.instance} | k={k}: {lhs} vs {rhs}")
    return _emit(args, Table(columns, rows)) + "\n" + "\n".join(tail) + "\n", status


def cmd_incomparable(args: argparse.Namespace) -> tuple[str, int]:
    found = find_incomparable_pairs(args.n, max_k=args.max_k, starlike_only=args.starlike_only)
    columns = ["tree_a", "tree_b", "witness_up", "witness_down"]
    rows = [
        [_inline_edges(g), _inline_edges(h), _witness(v.witness_up), _witness(v.witness_down)]
        for g, h, v in found
    ]
    params = {"n": args.n, "max_k": args.max_k, "pairs_found": len(found)}
    return _emit(args, Table(columns, rows, params)), 0


def _inline_edges(g: Graph) -> str:
    return ",".join(f"{u}-{v}" for u, v in g.edges())


@cache  # one parser per process: main parses with the one it built first
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starwalk",
        description=(
            "Exact walk counts, dominance order, and spectra of starlike trees. "
            "Defaults: --max-k 40 for verify, 50 for moments, compare and "
            "incomparable; spectra --tol 1e-10; verify --n-max 14."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, max_k_default=None):
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--output", help="write the report to this file instead of stdout")
        if max_k_default is not None:
            p.add_argument("--max-k", type=int, default=max_k_default,
                           help=f"walk-length horizon (default {max_k_default})")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the table-format timestamp header")

    p = sub.add_parser("moments", help="exact walk counts of one tree")
    p.add_argument("--tree", help='starlike descriptor like "S(1,2,3)"')
    p.add_argument("--edges", help="path to an edge-list file (u v per line)")
    p.add_argument("--all-walks", action="store_true", dest="all_walks",
                   help="add the all-walk counts column")
    p.add_argument("--vertex", type=int, help="add closed counts started at this vertex")
    common(p, cmd_moments, max_k_default=50)

    p = sub.add_parser("compare", help="order two trees by walk dominance")
    p.add_argument("a", help='tree spec "S(...)" or edge-list path')
    p.add_argument("b", help='tree spec "S(...)" or edge-list path')
    p.add_argument("--certify", action="store_true",
                   help="run the walk-count certificate alongside the shortlex answer")
    common(p, cmd_compare, max_k_default=50)

    p = sub.add_parser("successor", help="walk the shortlex successor chain")
    p.add_argument("start", help='partition like "1,2,3" (or "S(1,2,3)")')
    p.add_argument("--count", type=int, default=1, help="steps to take (default 1)")
    common(p, cmd_successor)

    p = sub.add_parser("spectra", help="eigenvalues, spectral radius, Estrada index")
    p.add_argument("--tree", help='starlike descriptor like "S(1,2,3)"')
    p.add_argument("--edges", help="path to an edge-list file")
    p.add_argument("--tol", type=float, default=1e-10)
    common(p, cmd_spectra)

    p = sub.add_parser("verify", help="run a verification battery")
    p.add_argument("--suite", choices=("full", "theorem", "all-walks"), default="full")
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--pairs", choices=("consecutive", "all"),
                   help="pair selection for --suite theorem only (default consecutive)")
    p.add_argument("--jobs", type=int,
                   help="parallel workers for --suite full only, capped by the "
                        "CPUs this process may run on (default 1)")
    common(p, cmd_verify, max_k_default=40)

    p = sub.add_parser("incomparable", help="search small trees for dominance crossings")
    p.add_argument("--n", type=int, required=True, help="tree order to search")
    p.add_argument("--starlike-only", action="store_true")
    common(p, cmd_incomparable, max_k_default=50)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "max_k" in args and args.max_k < 2:
            raise ValueError("max_k must be at least 2")
        text, status = args.handler(args)
    except ValueError as exc:
        print(f"starwalk: error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"starwalk: error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
