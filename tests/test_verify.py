import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from starwalk.partitions import CaseTag, Partition, enumerate_shortlex, shortlex_successor
from starwalk.trees import make_path, make_starlike
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
    _initial_chain_reports,
    _pool_workers,
)
from starwalk.walks import all_walk_counts, closed_walk_counts


class TestCheckReport:
    def test_holds_must_mirror_violation(self):
        with pytest.raises(ValueError):
            CheckReport("x", "y", 10, holds=False)
        with pytest.raises(ValueError):
            CheckReport("x", "y", 10, holds=True, violation=(2, 5, 4))

    def test_json_serializes_big_ints_as_strings(self):
        big = 10**40
        rep = CheckReport("x", "y", 5, holds=False, violation=(3, big, big - 1))
        obj = rep.to_json_obj()
        line = json.dumps(obj)
        back = json.loads(line)
        assert back["violation"]["lhs"] == str(big)
        assert int(back["violation"]["lhs"]) - int(back["violation"]["rhs"]) == 1

    def test_json_subchecks_nested(self):
        rep = check_case2(1, 3, 1, 1, max_k=10)
        obj = rep.to_json_obj()
        assert [s["name"] for s in obj["subchecks"]] == [
            s.name for s in rep.subchecks
        ]


class TestLiFeng:
    def test_frozen_p2_leaf(self):
        # P_4 vs the 3-branch star: first difference at k=4, 14 < 18
        rep = check_li_feng(make_path(2), 0, 2, 0, max_k=10)
        assert rep.holds
        assert rep.first_strict_witness == 4
        assert closed_walk_counts(make_path(4), 4).values[4] == 14
        assert closed_walk_counts(make_starlike((1, 1, 1)).graph, 4).values[4] == 18

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
            make_starlike((1, 1, 1)).graph, 0, make_path(2), 0, make_path(3), 0,
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
            make_path(3), 0, make_starlike((1, 1, 1)).graph, 0, make_path(4), 0,
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
        star = make_starlike((1, 1, 1)).graph
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
        m_a = closed_walk_counts(make_starlike((1, 3, 3)).graph, 2).values
        m_b = closed_walk_counts(make_starlike((2, 2, 2)).graph, 2).values
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
        seqs = [closed_walk_counts(make_starlike(pi).graph, max_k).values for pi in chain]
        for a, b in zip(seqs, seqs[1:]):
            k0 = next(k for k in range(max_k + 1) if a[k] < b[k])
            assert k0 % 2 == 0
            assert all(a[k] < b[k] for k in range(k0, max_k + 1, 2))


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
        w_a = all_walk_counts(make_starlike((1, 2, 2, 2, 2)).graph, 3).values
        w_b = all_walk_counts(make_starlike((1, 1, 1, 1, 1, 4)).graph, 3).values
        assert (w_a[2], w_b[2]) == (46, 54)
        assert (w_a[3], w_b[3]) == (106, 104)


class TestInitialChain:
    def test_chain_strict_through_fourteen(self):
        for n in range(4, 15):
            for rep in _initial_chain_reports(n, max_k=40):
                assert rep.holds, rep.instance
                assert rep.first_strict_witness is not None, rep.instance

    def test_chain_shape(self):
        reps = _initial_chain_reports(10, max_k=10)
        assert reps[0].instance == "n=10: P_10 -> S(1,1,7)"
        assert reps[-1].instance == "n=10: S(1,3,5) -> S(1,4,4)"


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

    def test_pool_workers_capped_by_cores_and_tasks(self, monkeypatch):
        # the cap is computed, never exercised by starting a pool
        cores = os.cpu_count() or 1
        assert _pool_workers(10**9, 350) == min(cores, 350)
        assert _pool_workers(10**9, 1) == 1
        assert _pool_workers(1, 350) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _pool_workers(10**9, 350) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _pool_workers(10**9, 350) == 64
        assert _pool_workers(10**9, 3) == 3
