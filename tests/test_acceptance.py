"""Acceptance gate: one test per shipped criterion, run `pytest -v` for a
pass/fail line each.

Criteria 8 and 9 are asserted exactly as stated and fail on current
mathematics; the failure messages carry the measured facts. Everything
else must stay green.
"""

import itertools
import math
import time

import pytest

from starwalk.ordering import compare_starlike, find_incomparable_pairs
from starwalk.partitions import (
    CaseTag,
    Ordering,
    Partition,
    enumerate_shortlex,
    shortlex_successor,
)
from starwalk.spectra import (
    charpoly,
    compare_spectral_radii_exact,
    estrada_index,
    spectral_radius,
    starlike_charpoly_factored,
)
from starwalk.trees import (
    enumerate_free_trees,
    make_path,
    make_starlike,
)
from starwalk.verify import (
    check_all_walks_analogue,
    check_case1,
    check_case2,
    check_case3,
    check_coalescence_lemma,
    check_corollaries,
    check_li_feng,
    check_moment_canceling,
    check_path_difference,
    verify_theorem,
)
from starwalk.walks import (
    brute_force_closed_walks,
    closed_walk_counts,
    closed_walk_counts_at,
)

CLOSE_CALL = [(90, 90, 90), (80, 90, 100), (85, 90, 95)]

# recorded by a standalone walk-count run before the library was assembled
WITNESS_80_90_100_VS_85_90_95 = 164
WITNESS_85_90_95_VS_90_90_90 = 174


def test_criterion_01_close_call_radius_and_estrada():
    for parts in CLOSE_CALL:
        g = make_starlike(parts).graph
        t0 = time.monotonic()
        lam = spectral_radius(g)
        ee = estrada_index(g)
        elapsed = time.monotonic() - t0
        assert abs(lam - 2.12132034355964) <= 1e-10, (parts, lam)
        assert abs(ee - 616.507916871363) <= 1e-6, (parts, ee)
        assert elapsed < 10.0, (parts, elapsed)


def test_criterion_02_exact_separation_where_floats_tie():
    t0 = time.monotonic()
    assert (
        compare_spectral_radii_exact(Partition((80, 90, 100)), Partition((85, 90, 95)))
        is Ordering.LESS
    )
    assert (
        compare_spectral_radii_exact(Partition((85, 90, 95)), Partition((90, 90, 90)))
        is Ordering.LESS
    )
    for alpha, beta, expected_k in [
        ((80, 90, 100), (85, 90, 95), WITNESS_80_90_100_VS_85_90_95),
        ((85, 90, 95), (90, 90, 90), WITNESS_85_90_95_VS_90_90_90),
    ]:
        cmp = compare_starlike(
            Partition(alpha), Partition(beta), certify=True, max_k=400
        )
        witness = cmp.certificate.witness_strict
        assert witness is not None and witness.k == expected_k, (alpha, beta, witness)
        assert witness.lhs < witness.rhs
    assert time.monotonic() - t0 < 60.0


@pytest.mark.slow
def test_criterion_03_dominance_sweep_to_order_fourteen():
    t0 = time.monotonic()
    reports = verify_theorem(14, max_k=40, pairs="all")
    elapsed = time.monotonic() - t0
    bad = [r for r in reports if not r.holds]
    missing = [r for r in reports if r.first_strict_witness is None]
    expected = sum(
        math.comb(len(enumerate_shortlex(n - 1, 3)), 2) for n in range(4, 15)
    )
    assert len(reports) == expected == 9160
    assert not bad, bad[:3]
    assert not missing, missing[:3]
    assert elapsed < 300.0, elapsed


def test_criterion_04_identity_suite_is_exact():
    for a in range(1, 7):
        for b in range(a + 1, 7):
            for pq in range(2, 6):
                rep = check_moment_canceling(a, b, pq, max_k=40)
                assert rep.holds and rep.violation is None, (a, b, pq)
                assert rep.first_strict_witness is None, (a, b, pq)
    for c in range(1, 7):
        for d in range(1, 7):
            for q in range(2, 6):
                path_factor, exponent, core = starlike_charpoly_factored(c, d, q)
                direct = charpoly(make_starlike((c,) + (d,) * q).graph)
                assert (path_factor**exponent) * core == direct, (c, d, q)


def _case2_reports(max_order: int):
    plain, composed = [], []
    for m in range(6, max_order + 1):
        for pi in enumerate_shortlex(m, 3):
            nxt = shortlex_successor(pi)
            if nxt is None or nxt[1].tag is not CaseTag.CASE_II:
                continue
            parts, case = tuple(pi), nxt[1]
            rep = check_case2(
                parts[case.j - 1],
                parts[-1] - 1,
                case.p,
                case.q,
                parts[: case.j - 1],
                max_k=40,
            )
            (composed if case.j > 1 else plain).append(rep)
    return plain, composed


def _assert_family(reports, min_count, require_witness=True):
    assert len(reports) >= min_count, len(reports)
    for rep in reports:
        assert rep.holds and not rep.vacuous, rep
        if require_witness:
            assert rep.first_strict_witness is not None, rep


def test_criterion_05_inequality_families_hold_in_bulk():
    exchange_bases = [
        (make_path(2), 0),
        (make_path(3), 0),
        (make_path(3), 1),
        (make_path(4), 0),
        (make_starlike((1, 1, 1)).graph, 0),
        (make_starlike((1, 2)).graph, 2),
    ]
    li_feng = [
        check_li_feng(g, u, p, q, max_k=40)
        for (g, u) in exchange_bases
        for q in range(0, 2)
        for p in range(q + 2, q + 4)
    ]
    _assert_family(li_feng, 20)

    hosts = [
        (make_path(3), 1),
        (make_path(4), 0),
        (make_starlike((1, 1, 1)).graph, 0),
        (make_starlike((1, 2)).graph, 0),
    ]
    coalescence = [
        check_coalescence_lemma(g, u, make_path(a), 0, make_path(b), 0, max_k=40)
        for (g, u) in hosts
        for (a, b) in [(2, 3), (2, 4), (3, 4), (3, 5), (2, 5), (4, 5)]
    ]
    _assert_family(coalescence, 20)

    pendant_bases = [
        (make_starlike((1, 1, 1)).graph, 1),
        (make_starlike((2, 2)).graph, 0),
        (make_starlike((1, 1, 2)).graph, 2),
        (make_path(5), 0),
    ]
    path_difference = [
        check_path_difference(g, u, c, d, max_k=40)
        for (g, u) in pendant_bases
        for c in (1, 2)
        for d in (1, 2, 3)
    ]
    _assert_family(path_difference, 20)

    attachment_lists = [
        [(1, 1)],
        [(1, 2)],
        [(1, 1), (1, 2)],
        [(2, 1)],
        [(1, 3)],
        [(2, 2)],
    ]
    for mode in ("disjoint", "sequential"):
        summed = [
            check_corollaries(mode, g, u, plist, max_k=40)
            for (g, u) in pendant_bases
            for plist in attachment_lists
        ]
        _assert_family(summed, 20)

    case1 = [
        check_case1(pi, max_k=40)
        for m in range(5, 11)
        for pi in enumerate_shortlex(m, 3)
        if tuple(pi)[-2] <= tuple(pi)[-1] - 2
    ]
    _assert_family(case1, 20)

    case3 = [
        check_case3(pi, max_k=40)
        for m in range(4, 10)
        for pi in enumerate_shortlex(m, 3)
        if any(x > 1 for x in pi)
    ]
    _assert_family(case3, 20)

    plain, composed = _case2_reports(12)
    _assert_family(plain + composed, 20)
    _assert_family(composed, 20)

    def subchecks(name):
        return [s for r in plain + composed for s in r.subchecks if s.name == name]

    heads = subchecks("case2_total_walks") + subchecks("case2_reduction")
    _assert_family(heads, 20)
    _assert_family(subchecks("case2_center_walks"), 20)
    # the stepping stones degenerate to equalities when p or q-1 vanishes,
    # so strictness is only required where some instance can show it
    for name in ("case2_lengthen", "case2_tail"):
        subs = subchecks(name)
        _assert_family(subs, 20, require_witness=False)
        assert sum(1 for s in subs if s.first_strict_witness is not None) >= 20


def test_criterion_06_dp_matches_brute_enumeration():
    for n in range(1, 8):
        for g in enumerate_free_trees(n):
            for v in range(g.n):
                dp = closed_walk_counts_at(g, v, 8).values
                for k in range(9):
                    assert dp[k] == brute_force_closed_walks(g, v, k), (n, v, k)


def test_criterion_07_incomparable_pairs_exist_but_not_among_starlike():
    crossing = []
    for n in range(1, 11):
        crossing.extend(find_incomparable_pairs(n, max_k=40))
    assert crossing
    for g, h, verdict in crossing:
        assert verdict.witness_up is not None and verdict.witness_down is not None
        assert verdict.witness_up.lhs > verdict.witness_up.rhs
        assert verdict.witness_down.lhs < verdict.witness_down.rhs
    for n in range(1, 11):
        assert find_incomparable_pairs(n, max_k=40, starlike_only=True) == []


def test_criterion_08_even_moment_root_convergence_rate():
    g = make_starlike((2, 3, 4)).graph
    lam = spectral_radius(g, tol=1e-14)
    moments = closed_walk_counts(g, 400).values
    estimates = [
        math.exp(math.log(moments[2 * k]) / (2 * k)) for k in range(1, 201)
    ]
    gaps = [est - lam for est in estimates]
    # trend: the root estimates approach lam from above, monotonically
    assert all(gap > 0 for gap in gaps)
    assert all(a >= b for a, b in itertools.pairwise(estimates))
    assert abs(gaps[-1]) <= 1e-3, (
        f"|M_400^(1/400) - lam| = {gaps[-1]:.6e} at k=200, above the 1e-3 "
        f"target; the tree is bipartite, so -lam is also an eigenvalue and "
        f"even-length closed-walk counts carry a factor-2 overshoot that "
        f"decays like lam*ln(2)/(2k) = {lam * math.log(2) / 400:.6e}; the "
        f"gap first drops under 1e-3 at k=716"
    )


def test_criterion_09_all_walk_totals_track_the_same_order():
    reports = check_all_walks_analogue(12, max_k=40)
    bad = [r for r in reports if not r.holds]
    detail = ""
    if bad:
        k, lhs, rhs = bad[0].violation
        detail = (
            f"{len(bad)} of {len(reports)} consecutive pairs fail; first is "
            f"{bad[0].instance} with W_{k} = {lhs} > {rhs} while the closed-"
            f"walk order points the other way, so the total-walk analogue "
            f"breaks from order 10 on"
        )
    assert not bad, detail
