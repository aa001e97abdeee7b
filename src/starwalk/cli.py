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
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

from .ordering import compare_starlike, find_incomparable_pairs, moment_dominance
from .partitions import Partition, parse_partition, shortlex_successor
from .spectra import eigenvalues, estrada_index, spectral_radius
from .trees import Graph, parse_edge_list, parse_tree_spec
from .verify import CheckReport, check_all_walks_analogue, run_suite, verify_theorem
from .walks import all_walk_counts, closed_walk_counts, closed_walk_counts_at

__all__ = ["RunConfig", "main"]


@dataclass
class RunConfig:
    """Validated bundle of everything one invocation needs."""

    command: str
    tree: Optional[str] = None
    edges: Optional[str] = None
    spec_a: Optional[str] = None
    spec_b: Optional[str] = None
    start: Optional[str] = None
    count: int = 1
    max_k: int = 50
    n_max: int = 14
    n: int = 8
    tol: float = 1e-10
    fmt: str = "table"
    jobs: int = 1
    output: Optional[str] = None
    certify: bool = False
    with_all_walks: bool = False
    vertex: Optional[int] = None
    suite: str = "full"
    pairs: str = "consecutive"
    starlike_only: bool = False
    timestamp: bool = True

    def __post_init__(self):
        if self.max_k < 2:
            raise ValueError("max_k must be at least 2")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.fmt not in ("json", "csv", "table"):
            raise ValueError(f"unknown format {self.fmt!r}")


@dataclass
class Table:
    columns: list[str]
    rows: list[list[str]]
    # structured payload echoed into JSON output next to the flat rows
    params: dict = field(default_factory=dict)


def _render_json(command: str, table: Table) -> str:
    payload = {
        "command": command,
        "params": table.params,
        "rows": [dict(zip(table.columns, row)) for row in table.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _render_csv(table: Table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    return buf.getvalue()


def _render_table(command: str, table: Table, timestamp: bool) -> str:
    lines = []
    if timestamp:
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


def _emit(cfg: RunConfig, table: Table) -> str:
    if cfg.fmt == "json":
        return _render_json(cfg.command, table)
    if cfg.fmt == "csv":
        return _render_csv(table)
    return _render_table(cfg.command, table, cfg.timestamp)


def _load_graph(cfg: RunConfig) -> Graph:
    if (cfg.tree is None) == (cfg.edges is None):
        raise ValueError("give exactly one of --tree or --edges")
    if cfg.tree is not None:
        return parse_tree_spec(cfg.tree).graph
    try:
        with open(cfg.edges, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read edge list {cfg.edges!r}: {exc}") from None


def _parse_branches(text: str) -> Partition:
    s = text.strip()
    if s.startswith("S(") and s.endswith(")"):
        s = s[2:-1]
    partition, _ = parse_partition(s)
    return partition


def cmd_moments(cfg: RunConfig) -> tuple[str, int]:
    g = _load_graph(cfg)
    closed = closed_walk_counts(g, cfg.max_k).values
    columns = ["k", "closed"]
    series = [closed]
    if cfg.with_all_walks:
        columns.append("all_walks")
        series.append(all_walk_counts(g, cfg.max_k).values)
    if cfg.vertex is not None:
        columns.append(f"closed_at_{cfg.vertex}")
        series.append(closed_walk_counts_at(g, cfg.vertex, cfg.max_k).values)
    rows = [
        [str(k)] + [str(s[k]) for s in series] for k in range(cfg.max_k + 1)
    ]
    params = {"n": g.n, "edges": g.edge_count, "max_k": cfg.max_k}
    return _emit(cfg, Table(columns, rows, params)), 0


def cmd_compare(cfg: RunConfig) -> tuple[str, int]:
    a_text, b_text = cfg.spec_a, cfg.spec_b
    both_starlike = all(
        t is not None and t.strip().startswith("S(") for t in (a_text, b_text)
    )
    columns = ["field", "value"]
    rows: list[list[str]] = []
    params: dict = {"max_k": cfg.max_k}
    if both_starlike:
        alpha = _parse_branches(a_text)
        beta = _parse_branches(b_text)
        if alpha.n == beta.n:
            cmp = compare_starlike(alpha, beta, certify=cfg.certify, max_k=cfg.max_k)
            rows.append(["lhs", f"S({alpha})"])
            rows.append(["rhs", f"S({beta})"])
            rows.append(["relation", cmp.relation.value])
            witness = cmp.certificate.witness_strict if cmp.certificate else None
            rows.append(
                ["witness", f"k={witness.k}: {witness.lhs} vs {witness.rhs}" if witness else ""]
            )
            params["result"] = cmp.to_json_obj()
            return _emit(cfg, Table(columns, rows, params)), 0
    # fall back to the raw dominance check on realized graphs
    ga = parse_tree_spec(a_text).graph if a_text.strip().startswith("S(") else _read_edges(a_text)
    gb = parse_tree_spec(b_text).graph if b_text.strip().startswith("S(") else _read_edges(b_text)
    verdict = moment_dominance(ga, gb, max_k=cfg.max_k)
    rows.append(["lhs", a_text])
    rows.append(["rhs", b_text])
    rows.append(["relation", verdict.relation.value])
    for label, w in (("witness_up", verdict.witness_up), ("witness_down", verdict.witness_down)):
        rows.append([label, f"k={w.k}: {w.lhs} vs {w.rhs}" if w else ""])
    params["result"] = verdict.to_json_obj()
    return _emit(cfg, Table(columns, rows, params)), 0


def _read_edges(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read edge list {path!r}: {exc}") from None


def cmd_successor(cfg: RunConfig) -> tuple[str, int]:
    current = _parse_branches(cfg.start)
    columns = ["step", "partition", "case", "detail"]
    rows = [["0", str(current), "", ""]]
    for step in range(1, cfg.count + 1):
        nxt = shortlex_successor(current)
        if nxt is None:
            rows.append([str(step), "(end of chain)", "", ""])
            break
        current, info = nxt
        detail = ""
        if info.j is not None:
            detail = f"j={info.j} p={info.p} q={info.q} f={info.f}"
        rows.append([str(step), str(current), info.tag.name, detail])
    return _emit(cfg, Table(columns, rows, {"count": cfg.count})), 0


def cmd_spectra(cfg: RunConfig) -> tuple[str, int]:
    g = _load_graph(cfg)
    radius = spectral_radius(g, tol=cfg.tol)
    estrada = estrada_index(g, tol=max(cfg.tol, 1e-12))
    spectrum = eigenvalues(g, tol=max(cfg.tol, 1e-12))
    columns = ["quantity", "value"]
    rows = [
        ["spectral_radius", repr(radius)],
        ["estrada_index", repr(estrada)],
    ]
    rows.extend(
        [f"eigenvalue_{i}", repr(v)] for i, v in enumerate(spectrum.eigenvalues)
    )
    params = {"n": g.n, "tol": cfg.tol}
    return _emit(cfg, Table(columns, rows, params)), 0


def _verify_reports(cfg: RunConfig) -> list[CheckReport]:
    if cfg.suite == "full":
        return run_suite(n_max=cfg.n_max, max_k=cfg.max_k, jobs=cfg.jobs)
    if cfg.suite == "theorem":
        reports = verify_theorem(cfg.n_max, max_k=cfg.max_k, pairs=cfg.pairs)
    elif cfg.suite == "all-walks":
        reports = check_all_walks_analogue(cfg.n_max, max_k=cfg.max_k)
    else:
        raise ValueError(f"unknown suite {cfg.suite!r}")
    return sorted(reports, key=lambda r: (r.name, r.instance))


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    reports = _verify_reports(cfg)
    bad = [r for r in reports if not r.holds]
    status = 1 if bad else 0
    if cfg.fmt == "json":
        lines = [json.dumps(r.to_json_obj()) for r in reports]
        return "\n".join(lines) + "\n", status
    if cfg.fmt == "csv":
        columns = [
            "name", "instance", "max_k", "holds", "vacuous",
            "first_strict_witness", "violation_k", "violation_lhs", "violation_rhs",
        ]
        rows = []
        for r in reports:
            vk, vl, vr = ("", "", "")
            if r.violation is not None:
                vk, vl, vr = (str(r.violation[0]), str(r.violation[1]), str(r.violation[2]))
            rows.append([
                r.name, r.instance, str(r.max_k),
                str(r.holds).lower(), str(r.vacuous).lower(),
                "" if r.first_strict_witness is None else str(r.first_strict_witness),
                vk, vl, vr,
            ])
        return _render_csv(Table(columns, rows)), status
    # human summary: one line per check family, then any violations in full
    by_name: dict[str, list[CheckReport]] = {}
    for r in reports:
        by_name.setdefault(r.name, []).append(r)
    columns = ["check", "instances", "holds", "vacuous", "max_witness"]
    rows = []
    for name in sorted(by_name):
        group = by_name[name]
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
    text = _render_table(cfg.command, Table(columns, rows), cfg.timestamp)
    tail = [f"reports: {len(reports)}  violations: {len(bad)}"]
    for r in bad:
        k, lhs, rhs = r.violation
        tail.append(f"VIOLATION {r.name} | {r.instance} | k={k}: {lhs} vs {rhs}")
    return text + "\n" + "\n".join(tail) + "\n", status


def cmd_incomparable(cfg: RunConfig) -> tuple[str, int]:
    found = find_incomparable_pairs(cfg.n, max_k=cfg.max_k, starlike_only=cfg.starlike_only)
    columns = ["tree_a", "tree_b", "witness_up", "witness_down"]
    rows = []
    for g, h, verdict in found:
        up, down = verdict.witness_up, verdict.witness_down
        rows.append([
            _inline_edges(g),
            _inline_edges(h),
            f"k={up.k}: {up.lhs} vs {up.rhs}",
            f"k={down.k}: {down.lhs} vs {down.rhs}",
        ])
    params = {"n": cfg.n, "max_k": cfg.max_k, "pairs_found": len(found)}
    return _emit(cfg, Table(columns, rows, params)), 0


def _inline_edges(g: Graph) -> str:
    return ",".join(f"{u}-{v}" for u, v in g.edges())


_COMMANDS = {
    "moments": cmd_moments,
    "compare": cmd_compare,
    "successor": cmd_successor,
    "spectra": cmd_spectra,
    "verify": cmd_verify,
    "incomparable": cmd_incomparable,
}


def _default_jobs() -> str:
    return os.environ.get("STARWALK_JOBS", "1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starwalk",
        description=(
            "Exact walk counts, dominance order, and spectra of starlike trees. "
            "Defaults: --max-k 50, --tol 1e-10, --n-max 14 (the acceptance "
            "suite in tests/test_acceptance.py exercises exactly these)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, max_k_default=50):
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--output", help="write the report to this file instead of stdout")
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
    common(p)

    p = sub.add_parser("compare", help="order two trees by walk dominance")
    p.add_argument("a", help='tree spec "S(...)" or edge-list path')
    p.add_argument("b", help='tree spec "S(...)" or edge-list path')
    p.add_argument("--certify", action="store_true",
                   help="run the walk-count certificate alongside the shortlex answer")
    common(p)

    p = sub.add_parser("successor", help="walk the shortlex successor chain")
    p.add_argument("start", help='partition like "1,2,3" (or "S(1,2,3)")')
    p.add_argument("--count", type=int, default=1, help="steps to take (default 1)")
    common(p)

    p = sub.add_parser("spectra", help="eigenvalues, spectral radius, Estrada index")
    p.add_argument("--tree", help='starlike descriptor like "S(1,2,3)"')
    p.add_argument("--edges", help="path to an edge-list file")
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)

    p = sub.add_parser("verify", help="run a verification battery")
    p.add_argument("--suite", choices=("full", "theorem", "all-walks"), default="full")
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--pairs", choices=("consecutive", "all"), default="consecutive",
                   help="pair selection for --suite theorem")
    p.add_argument("--jobs", type=str, default=None,
                   help="parallel workers, capped by the core count "
                        "(default: STARWALK_JOBS or 1)")
    common(p, max_k_default=40)

    p = sub.add_parser("incomparable", help="search small trees for dominance crossings")
    p.add_argument("--n", type=int, required=True, help="tree order to search")
    p.add_argument("--starlike-only", action="store_true")
    common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    jobs_text = getattr(args, "jobs", None)
    if jobs_text is None:
        jobs_text = _default_jobs()
    try:
        jobs = int(jobs_text)
    except ValueError:
        raise ValueError(f"jobs must be an integer, got {jobs_text!r}") from None
    return RunConfig(
        command=args.command,
        tree=getattr(args, "tree", None),
        edges=getattr(args, "edges", None),
        spec_a=getattr(args, "a", None),
        spec_b=getattr(args, "b", None),
        start=getattr(args, "start", None),
        count=getattr(args, "count", 1),
        max_k=args.max_k,
        n_max=getattr(args, "n_max", 14),
        n=getattr(args, "n", 8),
        tol=getattr(args, "tol", 1e-10),
        fmt=args.format,
        jobs=jobs,
        output=args.output,
        certify=getattr(args, "certify", False),
        with_all_walks=getattr(args, "all_walks", False),
        vertex=getattr(args, "vertex", None),
        suite=getattr(args, "suite", "full"),
        pairs=getattr(args, "pairs", "consecutive"),
        starlike_only=getattr(args, "starlike_only", False),
        timestamp=not args.no_timestamp,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        text, status = _COMMANDS[cfg.command](cfg)
    except ValueError as exc:
        print(f"starwalk: error: {exc}", file=sys.stderr)
        return 2
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"starwalk: error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
