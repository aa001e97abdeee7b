import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

import starwalk.verify
from starwalk.partitions import (
    CaseTag, Partition, enumerate_shortlex, shortlex_successor, shortlex_tuples
)
from starwalk.trees import Graph, attach_paths, canonical_code, make_path, make_starlike
from starwalk.verify import (
    CheckReport,
    check_all_walks_analogue,
    check_case1,
    check_case2,
    check_case3,
    check_coalescence_lemma,
    check_corollaries,
    check_li_feng,
    check_moment_canceling,
    check_path_difference,
    run_suite,
    verify_theorem,
    _case2_rows,
    _chain_reports,
    _dominance_report,
    _has_path_from,
    _order_reports,
    _pool_workers,
)
from starwalk.walks import all_walk_counts, closed_walk_counts

from oracles import (
    all_partitions,
    check_report_json_obj,
    first_witness_closed_form,
    has_path_from_recursive,
)


class TestCheckReport:
    def test_json_serializes_big_ints_as_strings(self):
        big = 10**40
        rep = CheckReport("x", "y", 5, violation=(3, big, big - 1))
        back = json.loads(rep.json_line())
        assert back["holds"] is False
        assert back["violation"]["lhs"] == str(big)
        assert int(back["violation"]["lhs"]) - int(back["violation"]["rhs"]) == 1

    def test_json_subchecks_nested(self):
        rep = check_case2(1, 3, 1, 1, max_k=10)
        back = json.loads(rep.json_line())
        assert [s["name"] for s in back["subchecks"]] == [
            s.name for s in rep.subchecks
        ]

    def test_json_line_matches_the_dict_route(self):
        vacuous = check_coalescence_lemma(
            make_path(3), 0, make_starlike((1, 1, 1)), 0, make_path(4), 0, max_k=20
        )
        canceling = check_moment_canceling(1, 3, 2, max_k=12)
        reports = [
            # counts past 2**53, where a JSON number would lose digits
            CheckReport("x", "y", 70, 4, (70, 2**53 + 1, 3**70)),
            # an identity's violation holds differences, which can be negative
            canceling._replace(violation=(6, -(2**60), 12)),
            canceling,
            check_case2(1, 4, 2, 2, prefix=(1,), max_k=12),
            vacuous,
            CheckReport("theorem_sweep", "n=4: S(1,1,1) -> S(1,1,1)", 40),
            CheckReport('q"uote', 'back\\slash "S(α)" \u2192 tab\t', 3, vacuous=True),
        ]
        assert reports[3].subchecks and vacuous.subchecks
        assert vacuous.vacuous and vacuous.first_strict_witness is None
        for rep in reports:
            line = rep.json_line()
            assert line == json.dumps(check_report_json_obj(rep)), rep
            assert line.isascii() and "\n" not in line

    def test_json_line_matches_the_dict_route_on_the_battery(self):
        for rep in run_suite(n_max=6, max_k=12):
            assert rep.json_line() == json.dumps(check_report_json_obj(rep))


class TestLiFeng:
    def test_frozen_p2_leaf(self):
        # P_4 vs the 3-branch star: first difference at k=4, 14 < 18
        rep = check_li_feng(make_path(2), 0, 2, 0, max_k=10)
        assert rep.holds
        assert rep.first_strict_witness == 4
        assert closed_walk_counts(make_path(4), 4).values[4] == 14
        assert closed_walk_counts(make_starlike((1, 1, 1)), 4).values[4] == 18

    def test_frozen_p2_deeper(self):
        rep = check_li_feng(make_path(2), 0, 3, 1, max_k=20)
        assert rep.holds
        assert rep.first_strict_witness is not None
        assert rep.first_strict_witness <= 20

    def test_frozen_p3_middle(self):
        rep = check_li_feng(make_path(3), 1, 2, 0, max_k=20)
        assert rep.holds

    def test_premise_rejected(self):
        with pytest.raises(ValueError, match="p >= q\\+2"):
            check_li_feng(make_path(3), 0, 2, 1, max_k=10)
        with pytest.raises(ValueError, match="p >= q\\+2"):
            check_li_feng(make_path(3), 0, 3, 2, max_k=10)

    def test_base_must_have_an_edge(self):
        with pytest.raises(ValueError, match="connected with at least one edge"):
            check_li_feng(make_path(1), 0, 2, 0, max_k=10)

    def test_instance_names_the_base_shape(self):
        assert check_li_feng(make_path(2), 0, 2, 0, max_k=4).instance.startswith("P_2 ")
        star = make_starlike((1, 1, 1))
        assert check_li_feng(star, 0, 2, 0, max_k=4).instance.startswith("S(1,1,1) ")
        # a cycle has max degree 2 but is no path
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert check_li_feng(c4, 0, 2, 0, max_k=4).instance.startswith("graph(n=4,m=4) ")

    @given(
        n=st.integers(2, 5),
        q=st.integers(0, 2),
        extra=st.integers(2, 4),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_holds_on_any_path_base(self, n, q, extra, data):
        u = data.draw(st.integers(0, n - 1))
        rep = check_li_feng(make_path(n), u, q + extra, q, max_k=16)
        assert rep.holds


class TestCase1:
    @pytest.mark.parametrize("alpha", [(1, 1, 4), (1, 1, 3), (2, 2, 5)])
    def test_frozen_three_branch(self, alpha):
        rep = check_case1(alpha, max_k=30)
        assert rep.holds
        assert rep.first_strict_witness is not None

    def test_four_and_five_branch_bases(self):
        # k=4 attaches at an interior path vertex, k=5 at a star center
        assert check_case1((1, 1, 2, 5), max_k=24).holds
        assert check_case1((1, 1, 1, 2, 4), max_k=24).holds

    def test_premise_rejected(self):
        with pytest.raises(ValueError, match="premise"):
            check_case1((1, 2, 3), max_k=10)
        with pytest.raises(ValueError, match="three branches"):
            check_case1((2, 4), max_k=10)


class TestCase3:
    @pytest.mark.parametrize("alpha", [(2, 2, 2), (1, 2, 3), (1, 1, 4)])
    def test_frozen(self, alpha):
        rep = check_case3(alpha, max_k=30)
        assert rep.holds
        assert rep.first_strict_witness is not None

    def test_target_is_broom(self):
        rep = check_case3((2, 2, 2), max_k=10)
        assert "S(1,1,1,3)" in rep.instance

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="all-ones"):
            check_case3((1, 1, 1), max_k=10)
        with pytest.raises(ValueError, match="three branches"):
            check_case3((3, 4), max_k=10)


class TestCoalescenceLemma:
    def test_frozen_paths(self):
        # gluing P_2 vs P_3 onto a P_3 leaf gives P_4 vs P_5
        rep = check_coalescence_lemma(
            make_path(3), 0, make_path(2), 0, make_path(3), 0, max_k=20
        )
        assert rep.holds and not rep.vacuous

    def test_frozen_star_center(self):
        rep = check_coalescence_lemma(
            make_starlike((1, 1, 1)), 0, make_path(2), 0, make_path(3), 0,
            max_k=20,
        )
        assert rep.holds and not rep.vacuous

    def test_equal_twins(self):
        rep = check_coalescence_lemma(
            make_path(3), 0, make_path(3), 1, make_path(3), 1, max_k=20
        )
        assert rep.holds
        assert rep.first_strict_witness is None

    def test_vacuous_when_hypothesis_fails(self):
        # the 3-branch star beats P_4 at k=4 (18 > 14), so as h1 it cannot
        # satisfy the total-count hypothesis
        rep = check_coalescence_lemma(
            make_path(3), 0, make_starlike((1, 1, 1)), 0, make_path(4), 0,
            max_k=20,
        )
        assert rep.vacuous
        assert rep.holds
        assert rep.violation is None
        assert "vacuous" in rep.instance
        hyp_total = rep.subchecks[0]
        assert hyp_total.name == "coalescence_hyp_total"
        assert hyp_total.violation == (4, 18, 14)


class TestPathDifference:
    def test_frozen_p3(self):
        # equality at k = 2, 4; first strict at k = 6 with 36 >= 30
        rep = check_path_difference(make_path(3), 0, 1, 1, max_k=10)
        assert rep.holds
        assert rep.first_strict_witness == 6
        m_p4 = closed_walk_counts(make_path(4), 6).values
        m_p3 = closed_walk_counts(make_path(3), 6).values
        m_p2 = closed_walk_counts(make_path(2), 6).values
        assert m_p4[6] == 36
        assert m_p3[6] + m_p3[6] - m_p2[6] == 30

    def test_frozen_star_and_longer(self):
        star = make_starlike((1, 1, 1))
        rep = check_path_difference(star, 1, 1, 2, max_k=20)
        assert rep.holds and rep.first_strict_witness is not None
        assert check_path_difference(make_path(4), 0, 2, 3, max_k=30).holds

    def test_premise_validated_by_search(self):
        with pytest.raises(ValueError, match="no simple path"):
            check_path_difference(make_path(3), 0, 5, 1, max_k=10)
        with pytest.raises(ValueError, match="proper"):
            check_path_difference(make_path(3), 0, 2, 1, max_k=10)
        with pytest.raises(ValueError, match="at least 1"):
            check_path_difference(make_path(3), 0, 0, 1, max_k=10)

    def test_proper_premise_checked_before_any_walk_count(self, monkeypatch):
        # the whole graph as the premise path is rejected before a kernel runs
        calls = []
        for name in ("closed_walk_counts", "starlike_closed_walk_counts"):
            kernel = getattr(starwalk.verify, name)
            spy = lambda *args, kernel=kernel: calls.append(args) or kernel(*args)
            monkeypatch.setattr(starwalk.verify, name, spy)
        with pytest.raises(ValueError, match="proper"):
            check_path_difference(make_path(3), 0, 2, 1)
        assert calls == []
        assert check_path_difference(make_path(3), 0, 1, 1, max_k=4).holds
        assert calls  # the spies see a valid instance's walk counts


class TestPremiseSearch:
    def test_long_premise_path_does_not_recurse(self):
        # a 1 200-edge premise path is deeper than the recursion limit
        g = make_path(1500)
        assert check_corollaries("disjoint", g, 0, [(1200, 1)]).holds
        assert check_path_difference(g, 0, 1200, 1).holds
        assert _has_path_from(g, 700, 799) and not _has_path_from(g, 700, 800)

    def test_search_matches_the_recursive_reference(self):
        # random graphs with cycles, every start and every length
        rng = random.Random(28)
        for _ in range(150):
            n = rng.randrange(1, 9)
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            g = Graph.from_edges(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
            for u in range(n):
                for c in range(n + 1):
                    want = has_path_from_recursive(list(g.adj), u, c)
                    assert _has_path_from(g, u, c) == want, (g.edges(), u, c)


class TestCorollaries:
    def test_frozen_disjoint(self):
        rep = check_corollaries("disjoint", make_path(3), 0, [(1, 1), (1, 2)], max_k=20)
        assert rep.holds

    def test_sequential_single_pair_matches_lemma(self):
        cor = check_corollaries("sequential", make_path(3), 0, [(1, 2)], max_k=20)
        lem = check_path_difference(make_path(3), 0, 1, 2, max_k=20)
        assert cor.holds == lem.holds
        assert cor.first_strict_witness == lem.first_strict_witness

    def test_frozen_sequential_chain_on_edge(self):
        # pure paths telescope exactly: the bound is met with equality
        rep = check_corollaries("sequential", make_path(2), 0, [(1, 1), (2, 2)], max_k=20)
        assert rep.holds
        assert rep.first_strict_witness is None

    def test_sequential_revalidates_each_stage(self):
        with pytest.raises(ValueError, match="no simple path"):
            check_corollaries("sequential", make_path(4), 0, [(1, 1), (9, 1)], max_k=10)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="mode"):
            check_corollaries("zigzag", make_path(3), 0, [(1, 1)], max_k=10)
        with pytest.raises(ValueError, match="at least one"):
            check_corollaries("disjoint", make_path(3), 0, [], max_k=10)
        with pytest.raises(ValueError, match="no simple path"):
            check_corollaries("disjoint", make_path(3), 0, [(4, 1)], max_k=10)


class TestMomentCanceling:
    def test_frozen_smallest(self):
        # at k=2: 14 - 12 = 2 = 1 * (4 - 2)
        m_a = closed_walk_counts(make_starlike((1, 3, 3)), 2).values
        m_b = closed_walk_counts(make_starlike((2, 2, 2)), 2).values
        assert m_a[2] == 14 and m_b[2] == 12
        rep = check_moment_canceling(1, 2, 2, max_k=30)
        assert rep.holds

    def test_frozen_deeper(self):
        assert check_moment_canceling(2, 4, 3, max_k=30).holds

    def test_small_grid_exact(self):
        for a in range(1, 4):
            for b in range(a + 1, 5):
                for pq in (2, 3):
                    assert check_moment_canceling(a, b, pq, max_k=30).holds

    def test_validation(self):
        with pytest.raises(ValueError, match="a < b"):
            check_moment_canceling(3, 3, 2, max_k=10)
        with pytest.raises(ValueError, match="p\\+q"):
            check_moment_canceling(1, 2, 1, max_k=10)


class TestCase2:
    def test_frozen_basic(self):
        rep = check_case2(1, 3, 1, 1, max_k=30)
        assert rep.holds
        assert "f=4" in rep.instance
        names = [s.name for s in rep.subchecks]
        assert names == [
            "case2_total_walks",
            "case2_center_walks",
            "case2_lengthen",
            "case2_tail",
        ]
        assert all(s.holds for s in rep.subchecks)

    def test_frozen_excluded_case_routes_to_reduction(self):
        # f = b: the flattening collapses to a single pendant-path shift
        rep = check_case2(1, 2, 0, 1, max_k=30)
        assert rep.holds
        assert "f=2" in rep.instance
        assert rep.subchecks[0].name == "case2_reduction"
        assert rep.subchecks[0].instance == "a=1 b=2 p=0 q=1 f=2 prefix=() [bare]"

    def test_reduction_with_branches_to_attach_to(self):
        rep = check_case2(1, 2, 3, 1, max_k=30)
        assert rep.holds
        assert rep.subchecks[0].name == "case2_reduction"
        assert rep.subchecks[0].first_strict_witness is not None

    def test_frozen_prefixed(self):
        rep = check_case2(2, 4, 1, 2, prefix=(1,), max_k=40)
        assert rep.holds
        assert any(s.name == "case2_composed" for s in rep.subchecks)

    def test_validation(self):
        with pytest.raises(ValueError, match="a < b"):
            check_case2(3, 2, 1, 1, max_k=10)
        with pytest.raises(ValueError, match="q >= 1"):
            check_case2(1, 3, 1, 0, max_k=10)
        with pytest.raises(ValueError, match="prefix"):
            check_case2(1, 3, 1, 1, prefix=(0,), max_k=10)

    def test_matches_real_successor_instances(self):
        # every Case II rewrite in the order-10..11 chains, reconstructed
        # from its bookkeeping, reproduces the successor partition
        ran = 0
        for m in (9, 10):
            for pi in enumerate_shortlex(m, min_parts=3):
                nxt = shortlex_successor(pi)
                if nxt is None or nxt[1].tag is not CaseTag.CASE_II:
                    continue
                beta, info = nxt
                a = pi.parts[info.j - 1]
                b = pi.parts[-1] - 1
                prefix = pi.parts[: info.j - 1]
                lhs = Partition(prefix + (a,) + (b,) * info.p + (b + 1,) * info.q)
                rhs = Partition(prefix + (a + 1,) * (info.p + info.q) + (info.f,))
                assert lhs == pi and rhs == beta
                rep = check_case2(a, b, info.p, info.q, prefix, max_k=24)
                assert rep.holds
                ran += 1
        assert ran >= 4


def _li_feng_at_center(rest, p, q, max_k):
    """The graph route to a pendant-path shift at the center of S(rest):
    build S(rest) as a graph (a path when rest has one or two branches),
    check that attaching paths of p and q edges there gives S(rest + (p, q)),
    and run check_li_feng on that base."""
    if len(rest) >= 3:
        base, u = make_starlike(rest), 0
    else:
        base, u = make_path(sum(rest) + 1), rest[0]
    assert canonical_code(attach_paths(base, u, (p, q))) == (
        canonical_code(make_starlike(rest + (p, q)))
    )
    assert canonical_code(attach_paths(base, u, (p - 1, q + 1))) == (
        canonical_code(make_starlike(rest + (p - 1, q + 1)))
    )
    return check_li_feng(base, u, p, q, max_k=max_k)


class TestRewritesMatchTheGraphRoute:
    """Case I and the f = b reduction of Case II, read from branch lists,
    report exactly what check_li_feng reports on the rebuilt base graph."""

    def test_case1(self):
        ran = 0
        for m in range(4, 11):
            for pi in enumerate_shortlex(m):
                nxt = shortlex_successor(pi)
                if nxt is None or nxt[1].tag is not CaseTag.CASE_I:
                    continue
                ref = _li_feng_at_center(pi.parts[:-2], pi.parts[-1], pi.parts[-2], 30)
                # its instance is "<base> u=<u> p=<p> q=<q>"
                via = ref.instance.rsplit(" p=", 1)[0]
                ref = ref._replace(name="case1", instance=f"S({pi}) -> S({nxt[0]}) via {via}")
                assert check_case1(pi, max_k=30) == ref
                ran += 1
        assert ran == 42

    def test_case2_reduction_rows_of_the_battery(self):
        ran = 0
        for a, b, p, q, prefix in _case2_rows():
            if (p + q - 1) * (b - a) + b - p != b:
                continue
            rep = check_case2(a, b, p, q, prefix, max_k=40).subchecks[0]
            rest = prefix + (b,) * p
            if rest:
                ref = _li_feng_at_center(rest, b + 1, a, 40)
                ref = ref._replace(name="case2_reduction", instance=rep.instance)
            else:
                # both sides are the path on a + b + 2 vertices
                assert rep.instance.endswith(" [bare]")
                ref = CheckReport("case2_reduction", rep.instance, 40)
            assert ref == rep
            ran += 1
        assert ran >= 10

    @pytest.mark.parametrize(
        "alpha, instance",
        [
            ((1, 1, 4), "S(1,1,4) -> S(1,2,3) via P_2 u=1"),
            ((1, 1, 2, 5), "S(1,1,2,5) -> S(1,1,3,4) via P_3 u=1"),
            ((1, 1, 1, 2, 4), "S(1,1,1,2,4) -> S(1,1,1,3,3) via S(1,1,1) u=0"),
        ],
    )
    def test_case1_instance_names_the_base(self, alpha, instance):
        assert check_case1(alpha, max_k=4).instance == instance


class TestTheoremSweep:
    def test_consecutive_n7(self):
        reps = verify_theorem(7, max_k=30, pairs="consecutive")
        n7 = [r for r in reps if r.instance.startswith("n=7:")]
        assert len(n7) == 6
        assert all(r.holds for r in reps)
        assert all(r.first_strict_witness is not None for r in reps)

    def test_all_pairs_n7(self):
        reps = verify_theorem(7, max_k=30, pairs="all")
        n7 = [r for r in reps if r.instance.startswith("n=7:")]
        assert len(n7) == 21
        assert all(r.holds for r in reps)

    def test_first_witness_matches_the_closed_form(self):
        # every consecutive pair through order 24, the chains rebuilt by the
        # brute-force enumeration
        reports = {r.instance: r for r in verify_theorem(24)}
        assert len(reports) == 5586
        for n in range(4, 25):
            chain = all_partitions(n - 1, 3)
            for alpha, beta in zip(chain, chain[1:]):
                label = "n={}: S({}) -> S({})".format(
                    n, ",".join(map(str, alpha)), ",".join(map(str, beta))
                )
                rep = reports.pop(label)
                assert rep.holds, label
                assert rep.first_strict_witness == first_witness_closed_form(alpha, beta), label
        assert not reports

    def test_validation(self):
        with pytest.raises(ValueError, match="pairs"):
            verify_theorem(7, max_k=30, pairs="some")
        with pytest.raises(ValueError, match="n_max"):
            verify_theorem(3, max_k=30)

    def test_strictness_localization_observed(self):
        # once a strict gap appears at an even k0 it persists at every even
        # k in [k0, K]; observed on the order-10 chain, not assumed anywhere
        max_k = 30
        chain = enumerate_shortlex(9, min_parts=3)
        seqs = [closed_walk_counts(make_starlike(pi), max_k).values for pi in chain]
        for a, b in zip(seqs, seqs[1:]):
            k0 = next(k for k in range(max_k + 1) if a[k] < b[k])
            assert k0 % 2 == 0
            assert all(a[k] < b[k] for k in range(k0, max_k + 1, 2))


class TestEvenStrideChainCheck:
    # hand-made even counts (k = 0, 2, ..., 10) of five trees on 8 vertices:
    # the theorem sweep never violates, so only made-up chains reach the
    # violation branch
    CHAIN = [(1, 1, 5), (1, 2, 4), (1, 3, 3), (2, 2, 3), (1, 1, 1, 4)]
    EVEN = [
        (8, 14, 50, 200, 900, 4000),
        (8, 14, 49, 210, 900, 4000),  # violation at k = 4 before strict k = 6
        (8, 14, 52, 205, 900, 4000),  # strict k = 4 before violation k = 6
        (8, 14, 52, 205, 900, 4000),  # equal
        (8, 14, 52, 205, 900, 4001),  # first strict at index 5, so k = 10
    ]

    @staticmethod
    def _interleaved(even, max_k):
        values = [0] * (max_k + 1)
        values[::2] = even
        return tuple(values)

    @pytest.mark.parametrize("pairs", ["consecutive", "all"])
    @pytest.mark.parametrize("max_k", [10, 11])
    def test_matches_the_report_on_interleaved_counts(self, pairs, max_k):
        full = [self._interleaved(even, max_k) for even in self.EVEN]
        got = _chain_reports("theorem_sweep", 8, self.CHAIN, self.EVEN, max_k, pairs, 2)
        # stride 1 reads the interleaved counts themselves, as the all-walks sweep
        flat = _chain_reports("theorem_sweep", 8, self.CHAIN, full, max_k, pairs, 1)
        index = range(len(self.CHAIN))
        index_pairs = zip(index, index[1:]) if pairs == "consecutive" else [
            (i, j) for i in index for j in index if i < j
        ]
        expected = [
            _dominance_report(
                "theorem_sweep",
                f"n=8: S({','.join(map(str, self.CHAIN[i]))}) -> "
                f"S({','.join(map(str, self.CHAIN[j]))})",
                max_k,
                full[i],
                full[j],
            )
            for i, j in index_pairs
        ]
        assert got == flat == expected
        if pairs == "consecutive":
            assert [(r.first_strict_witness, r.violation) for r in got] == [
                (None, (4, 50, 49)),
                (4, (6, 210, 205)),
                (None, None),
                (10, None),
            ]
            assert [r.holds for r in got] == [False, False, True, True]

    def test_the_path_label_and_an_empty_chain(self):
        path_first = [(7,), (1, 1, 5)]
        reps = _chain_reports("initial_chain", 8, path_first, self.EVEN[3:], 10, "consecutive", 2)
        assert reps == [CheckReport("initial_chain", "n=8: P_8 -> S(1,1,5)", 10, 10)]
        assert _chain_reports("theorem_sweep", 8, [], [], 10, "consecutive", 2) == []


class TestAllWalksAnalogue:
    def test_holds_through_order_nine(self):
        reps = check_all_walks_analogue(9, max_k=40)
        assert all(r.holds for r in reps)

    def test_odd_witnesses_appear(self):
        reps = check_all_walks_analogue(7, max_k=30)
        assert any(
            r.first_strict_witness is not None and r.first_strict_witness % 2 == 1
            for r in reps
        )

    def test_analogue_breaks_at_order_ten(self):
        # the balanced-to-broom step on 10 vertices crosses at k=3:
        # W_3(S(1,2,2,2,2)) = 106 > 104 = W_3(S(1,1,1,1,1,4)), even though
        # W_2 orders the other way (46 < 54); the claim is order-limited
        reps = check_all_walks_analogue(10, max_k=40)
        bad = [r for r in reps if not r.holds]
        assert len(bad) == 1
        assert bad[0].instance == "n=10: S(1,2,2,2,2) -> S(1,1,1,1,1,4)"
        assert bad[0].violation == (3, 106, 104)
        w_a = all_walk_counts(make_starlike((1, 2, 2, 2, 2)), 3).values
        w_b = all_walk_counts(make_starlike((1, 1, 1, 1, 1, 4)), 3).values
        assert (w_a[2], w_b[2]) == (46, 54)
        assert (w_a[3], w_b[3]) == (106, 104)


def _initial_chain(n, max_k):
    return [r for r in _order_reports(n, max_k) if r.name == "initial_chain"]


class TestInitialChain:
    def test_chain_strict_through_fourteen(self):
        for n in range(4, 15):
            reps = _initial_chain(n, max_k=40)
            assert len(reps) == (n - 2) // 2, n
            for rep in reps:
                assert rep.holds, rep.instance
                assert rep.first_strict_witness is not None, rep.instance

    def test_chain_shape(self):
        reps = _initial_chain(10, max_k=10)
        assert reps[0].instance == "n=10: P_10 -> S(1,1,7)"
        assert reps[-1].instance == "n=10: S(1,3,5) -> S(1,4,4)"

    def test_each_order_counts_its_trees_once(self, monkeypatch):
        # the path and the theorem chain, whose first trees are the low end,
        # go to the kernel in one call, for their even counts alone
        calls = []
        kernel = starwalk.verify.starlike_even_walk_counts

        def counted(chain, max_k):
            calls.append(list(chain))
            return kernel(calls[-1], max_k)

        monkeypatch.setattr(starwalk.verify, "starlike_even_walk_counts", counted)
        for n in range(4, 13):
            calls.clear()
            _order_reports(n, 12)
            assert calls == [[(n - 1,)] + shortlex_tuples(n - 1)], n


class TestRunSuite:
    def test_deterministic_across_parallelism(self):
        serial = run_suite(n_max=8, max_k=25, jobs=1)
        parallel = run_suite(n_max=8, max_k=25, jobs=2)
        assert serial == parallel
        assert serial == sorted(serial, key=lambda r: (r.name, r.instance))

    @pytest.mark.slow
    def test_default_battery_is_green(self):
        reps = run_suite(n_max=9, max_k=30, jobs=1)
        assert all(r.holds for r in reps)
        names = {r.name for r in reps}
        assert {
            "theorem_sweep",
            "all_walks_sweep",
            "initial_chain",
            "li_feng",
            "case1",
            "case2",
            "case3",
            "coalescence",
            "path_difference",
            "corollary_disjoint",
            "corollary_sequential",
            "moment_canceling",
        } <= names
        # the deliberately misapplied coalescence instances surface as
        # vacuous, not as failures
        assert sum(r.vacuous for r in reps) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            run_suite(n_max=8, max_k=10, jobs=0)
        with pytest.raises(ValueError, match="n_max must be at least 4"):
            run_suite(n_max=3, max_k=10, jobs=1)

    def test_pool_workers_capped_by_cores_and_tasks(self, monkeypatch):
        # the cap is computed, never exercised by starting a pool. The CPUs
        # this process may run on cap it, not the host's CPU count
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _pool_workers(10**9, 350) == 1
        monkeypatch.undo()
        # where the platform has no affinity call, the host's count caps it
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        cores = os.cpu_count() or 1
        assert _pool_workers(10**9, 350) == min(cores, 350)
        assert _pool_workers(10**9, 1) == 1
        assert _pool_workers(1, 350) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _pool_workers(10**9, 350) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _pool_workers(10**9, 350) == 64
        assert _pool_workers(10**9, 3) == 3
