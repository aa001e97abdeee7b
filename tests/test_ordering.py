import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starwalk.ordering import (
    DominanceVerdict,
    _first_divergences,
    Relation,
    Witness,
    compare_starlike,
    find_incomparable_pairs,
    moment_dominance,
)
from starwalk.partitions import Partition, enumerate_shortlex
from starwalk.trees import Graph, canonical_code, is_starlike, make_path, make_starlike

from oracles import prufer_to_edges

MIRROR = {
    Relation.STRICTLY_LESS: Relation.STRICTLY_GREATER,
    Relation.STRICTLY_GREATER: Relation.STRICTLY_LESS,
    Relation.EQUAL: Relation.EQUAL,
    Relation.INCOMPARABLE: Relation.INCOMPARABLE,
    Relation.WEAKLY_LESS_UNDECIDED: Relation.WEAKLY_GREATER_UNDECIDED,
    Relation.WEAKLY_GREATER_UNDECIDED: Relation.WEAKLY_LESS_UNDECIDED,
}

# smallest incomparable pair found by exhaustive search over order-8 trees:
# a spider against a double star whose walk counts cross between k=4 and k=8
CROSSING_A = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)]
CROSSING_B = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (5, 6), (5, 7)]


def test_moment_dominance_path_below_star():
    verdict = moment_dominance(make_path(4), make_starlike([1, 1, 1]), 10)
    assert verdict.relation is Relation.STRICTLY_LESS
    assert verdict.witness_down == Witness(4, 14, 18)
    assert verdict.witness_up is None
    assert verdict.witness_strict == verdict.witness_down

    flipped = moment_dominance(make_starlike([1, 1, 1]), make_path(4), 10)
    assert flipped.relation is Relation.STRICTLY_GREATER
    assert flipped.witness_up == Witness(4, 18, 14)
    assert flipped.witness_strict == flipped.witness_up


def test_moment_dominance_short_horizon_stays_undecided():
    # P_4 and the 3-branch star agree on walk lengths 0..3 and split at 4
    verdict = moment_dominance(make_path(4), make_starlike([1, 1, 1]), 3)
    assert verdict.relation is Relation.WEAKLY_LESS_UNDECIDED
    assert verdict.witness_down == Witness(4, 14, 18)
    assert verdict.witness_down.k > verdict.max_k
    assert verdict.witness_strict is None


def test_moment_dominance_equal_for_relabeled_tree():
    edges = prufer_to_edges((0, 0, 3, 3, 5, 1))
    g = Graph.from_edges(8, edges)
    relabel = [3, 6, 0, 7, 1, 2, 5, 4]
    h = Graph.from_edges(8, [(relabel[u], relabel[v]) for u, v in edges])
    for max_k in (5, 20):
        verdict = moment_dominance(g, h, max_k)
        assert verdict.relation is Relation.EQUAL
        assert verdict.witness_up is None and verdict.witness_down is None
    assert moment_dominance(g, g, 12).relation is Relation.EQUAL


def test_moment_dominance_incomparable_frozen():
    g = Graph.from_edges(8, CROSSING_A)
    h = Graph.from_edges(8, CROSSING_B)
    verdict = moment_dominance(g, h, 40)
    assert verdict.relation is Relation.INCOMPARABLE
    assert verdict.witness_down == Witness(4, 50, 54)
    assert verdict.witness_up == Witness(8, 1058, 974)


def test_first_divergences_on_the_callers_windows():
    lhs = (5, 0, 3, 0, 9, 0, 1, 0, 8)
    rhs = [5, 0, 4, 0, 2, 0, 7, 0, 8]
    # down before up, and its mirror, up before down
    assert _first_divergences(lhs, rhs, 0, 8) == (Witness(4, 9, 2), Witness(2, 3, 4))
    assert _first_divergences(rhs, lhs, 0, 8) == (Witness(2, 4, 3), Witness(4, 2, 9))
    # lo > 0, as in the tie extension of moment_dominance: earlier
    # differences are not seen
    assert _first_divergences(lhs, rhs, 3, 8) == (Witness(4, 9, 2), Witness(6, 1, 7))
    assert _first_divergences(lhs, rhs, 5, 8) == (None, Witness(6, 1, 7))
    assert _first_divergences(lhs, rhs, 7, 8) == (None, None)
    # an empty window, as when the tie extension reaches no further
    assert _first_divergences(lhs, rhs, 9, 8) == (None, None)
    # hi below the sequence end stops the scan there
    assert _first_divergences(lhs, rhs, 0, 3) == (None, Witness(2, 3, 4))
    assert _first_divergences(lhs, rhs, 0, 4) == (Witness(4, 9, 2), Witness(2, 3, 4))
    assert _first_divergences(lhs, rhs, 0, 1) == (None, None)
    assert _first_divergences(lhs, rhs, 2, 2) == (None, Witness(2, 3, 4))
    # equal sequences, exact on counts past 64 bits
    big = [2**80 + k for k in range(6)]
    assert _first_divergences(big, tuple(big), 0, 5) == (None, None)
    assert _first_divergences(big, big[:5] + [2**80 + 6], 0, 5) == (None, Witness(5, big[5], 2**80 + 6))


def test_moment_dominance_validation():
    with pytest.raises(ValueError):
        moment_dominance(make_path(3), make_path(3), -1)


def test_verdict_json_round_trip():
    verdict = moment_dominance(make_path(4), make_starlike([1, 1, 1]), 10)
    blob = json.dumps(verdict.to_json_obj())
    back = json.loads(blob)
    assert back["relation"] == "strictly_less"
    assert back["witness_down"] == {"k": 4, "lhs": "14", "rhs": "18"}
    assert back["witness_up"] is None


@given(st.integers(4, 9), st.integers(4, 9), st.integers(0, 16), st.data())
@settings(max_examples=40, deadline=None)
def test_moment_dominance_mirror_antisymmetry(na, nb, max_k, data):
    seq_a = tuple(data.draw(st.integers(0, na - 1)) for _ in range(na - 2))
    seq_b = tuple(data.draw(st.integers(0, nb - 1)) for _ in range(nb - 2))
    g = Graph.from_edges(na, prufer_to_edges(seq_a))
    h = Graph.from_edges(nb, prufer_to_edges(seq_b))
    ab = moment_dominance(g, h, max_k)
    ba = moment_dominance(h, g, max_k)
    assert ba.relation is MIRROR[ab.relation]
    if ab.witness_up:
        assert ba.witness_down == Witness(
            ab.witness_up.k, ab.witness_up.rhs, ab.witness_up.lhs
        )
    if ab.witness_down:
        assert ba.witness_up == Witness(
            ab.witness_down.k, ab.witness_down.rhs, ab.witness_down.lhs
        )


def test_compare_starlike_frozen():
    out = compare_starlike(Partition([1, 2, 3]), Partition([2, 2, 2]))
    assert out.relation is Relation.STRICTLY_LESS
    assert out.certificate is None

    # fewer branches win before lexicographic order kicks in
    assert (
        compare_starlike(Partition([2, 2, 2]), Partition([1, 1, 1, 3])).relation
        is Relation.STRICTLY_LESS
    )
    assert (
        compare_starlike(Partition([3, 3]), Partition([3, 3])).relation
        is Relation.EQUAL
    )
    with pytest.raises(ValueError):
        compare_starlike(Partition([1, 2, 3]), Partition([1, 2, 4]))


def test_compare_starlike_certificates_frozen():
    out = compare_starlike(
        Partition([1, 1, 4]), Partition([1, 2, 3]), certify=True, max_k=40
    )
    assert out.relation is Relation.STRICTLY_LESS
    assert out.certificate.witness_strict == Witness(6, 120, 126)

    out = compare_starlike(
        Partition([1, 2, 3]), Partition([2, 2, 2]), certify=True, max_k=40
    )
    assert out.certificate.witness_strict == Witness(6, 126, 132)

    out = compare_starlike(
        Partition([2, 2, 2]), Partition([1, 2, 3]), certify=True, max_k=40
    )
    assert out.relation is Relation.STRICTLY_GREATER
    assert out.certificate.witness_strict == Witness(6, 132, 126)

    out = compare_starlike(
        Partition([2, 3, 4]), Partition([2, 3, 4]), certify=True, max_k=20
    )
    assert out.relation is Relation.EQUAL
    assert out.certificate.relation is Relation.EQUAL


def test_compare_starlike_certify_whole_chain():
    chain = enumerate_shortlex(10, 3)
    for a, b in zip(chain, chain[1:]):
        out = compare_starlike(a, b, certify=True, max_k=30)
        assert out.relation is Relation.STRICTLY_LESS
        assert out.certificate.relation in (
            Relation.STRICTLY_LESS,
            Relation.WEAKLY_LESS_UNDECIDED,
        )


def test_compare_starlike_ranks_paths_as_one_list():
    # one or two branches make the same path, whatever the split
    for a, b in [((1, 3), (2, 2)), ((4,), (1, 3)), ((2, 2), (4,))]:
        out = compare_starlike(Partition(a), Partition(b), certify=True, max_k=20)
        assert out.relation is Relation.EQUAL
        assert out.certificate.relation is Relation.EQUAL
        # the output keeps the lists it was given
        assert (out.alpha.parts, out.beta.parts) == (a, b)
    # a path stays below every tree with three branches
    out = compare_starlike(Partition([1, 2]), Partition([1, 1, 1]), certify=True, max_k=20)
    assert out.relation is Relation.STRICTLY_LESS
    out = compare_starlike(Partition([1, 1, 1]), Partition([3]), certify=True, max_k=20)
    assert out.relation is Relation.STRICTLY_GREATER


def test_compare_starlike_certify_short_horizon():
    # strict witnesses can exceed a tiny horizon without raising
    out = compare_starlike(
        Partition([1, 1, 4]), Partition([1, 2, 3]), certify=True, max_k=4
    )
    assert out.relation is Relation.STRICTLY_LESS
    assert out.certificate.relation is Relation.WEAKLY_LESS_UNDECIDED
    assert out.certificate.witness_down.k == 6


def test_compare_starlike_certifies_on_branch_lists(monkeypatch):
    # moment_dominance on the realized trees is the reference; every branch
    # list of orders 5..9, the one- and two-branch paths included, against
    # every other of its order, once at a horizon a tie extends past
    chains = [enumerate_shortlex(n - 1, 1) for n in range(5, 10)]
    trees = {a: make_starlike(a) for chain in chains for a in chain}
    for chain in chains:
        for a in chain:
            for b in chain:
                for k in (4, 12):
                    out = compare_starlike(a, b, certify=True, max_k=k)
                    assert out.certificate == moment_dominance(trees[a], trees[b], k)

    def no_tree(*args, **kwargs):
        raise AssertionError("a certified starlike compare built a tree")

    monkeypatch.setattr(Graph, "from_edges", no_tree)
    trio = [Partition(p) for p in ((80, 90, 100), (85, 90, 95), (90, 90, 90))]
    for a, b in zip(trio, trio[1:]):
        out = compare_starlike(a, b, certify=True, max_k=400)
        assert out.certificate.relation is Relation.STRICTLY_LESS
    # tied through 4: the extension to the order runs on the lists too
    out = compare_starlike(Partition([1, 1, 4]), Partition([1, 2, 3]), certify=True, max_k=4)
    assert out.certificate.relation is Relation.WEAKLY_LESS_UNDECIDED


def test_find_incomparable_pairs_counts():
    assert find_incomparable_pairs(6, 40) == []
    assert find_incomparable_pairs(7, 40) == []
    assert len(find_incomparable_pairs(8, 40)) == 3
    assert len(find_incomparable_pairs(9, 40)) == 30
    for n in (8, 9, 10):
        assert find_incomparable_pairs(n, 40, starlike_only=True) == []


def test_find_incomparable_pairs_structure():
    pairs = find_incomparable_pairs(8, 40)
    first = pairs[0]
    assert canonical_code(first[0]) != canonical_code(first[1])
    codes = {(canonical_code(g), canonical_code(h)) for g, h, _ in pairs}
    assert len(codes) == len(pairs)
    for g, h, verdict in pairs:
        assert verdict.relation is Relation.INCOMPARABLE
        assert verdict.witness_up.lhs > verdict.witness_up.rhs
        assert verdict.witness_down.lhs < verdict.witness_down.rhs
        # crossing pairs never show up among starlike trees of one order,
        # so at least one side is not starlike
        assert not (is_starlike(g) and is_starlike(h))


def test_find_incomparable_requires_census_range():
    with pytest.raises(ValueError):
        find_incomparable_pairs(13, 10)
