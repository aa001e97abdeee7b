"""The value semantics of starwalk's record classes: repr text, equality,
hash, immutability and pickling, one sample instance per class."""

import pickle

import pytest

from starwalk.cli import Table, _render_json
from starwalk.ordering import DominanceVerdict, Relation, StarlikeComparison, Witness
from starwalk.partitions import CaseTag, Partition, SuccessorCase
from starwalk.poly import IntPolynomial
from starwalk.trees import Graph, make_path
from starwalk.verify import CheckReport
from starwalk.walks import MomentSequence


def _report(instance: str = "P_3") -> CheckReport:
    sub = CheckReport("sub", instance, 4, first_strict_witness=2)
    return CheckReport(
        "top", instance, 4, violation=(3, 5, 4), vacuous=False, subchecks=(sub,)
    )


# (make an instance, make an unequal one, its field tuple, its repr)
SAMPLES = {
    "Table": (
        lambda: Table(["k", "v"], [["0", "1"]], {"n": 3}),
        lambda: Table(["k", "v"], [["0", "2"]], {"n": 3}),
        lambda: (["k", "v"], [["0", "1"]], {"n": 3}),
        "Table(columns=['k', 'v'], rows=[['0', '1']], params={'n': 3})",
    ),
    "DominanceVerdict": (
        lambda: DominanceVerdict(Relation.STRICTLY_LESS, 4, None, Witness(2, 1, 3)),
        lambda: DominanceVerdict(Relation.STRICTLY_LESS, 5, None, Witness(2, 1, 3)),
        lambda: (Relation.STRICTLY_LESS, 4, None, Witness(2, 1, 3)),
        "DominanceVerdict(relation=<Relation.STRICTLY_LESS: 'strictly_less'>, "
        "max_k=4, witness_up=None, witness_down=Witness(k=2, lhs=1, rhs=3))",
    ),
    "StarlikeComparison": (
        lambda: StarlikeComparison(Partition((1, 2)), Partition((3,)), Relation.EQUAL),
        lambda: StarlikeComparison(Partition((1, 2)), Partition((1, 2)), Relation.EQUAL),
        lambda: (Partition((1, 2)), Partition((3,)), Relation.EQUAL, None),
        "StarlikeComparison(alpha=Partition(parts=(1, 2)), beta=Partition(parts=(3,)), "
        "relation=<Relation.EQUAL: 'equal'>, certificate=None)",
    ),
    "SuccessorCase": (
        lambda: SuccessorCase(CaseTag.CASE_II, j=1, p=2, q=1, f=4),
        lambda: SuccessorCase(CaseTag.CASE_II, j=1, p=2, q=1, f=5),
        lambda: (CaseTag.CASE_II, 1, 2, 1, 4),
        "SuccessorCase(tag=<CaseTag.CASE_II: 'II'>, j=1, p=2, q=1, f=4)",
    ),
    "Graph": (
        lambda: make_path(3),
        lambda: make_path(4),
        lambda: (3, ((1,), (0, 2), (1,))),
        "Graph(n=3, adj=((1,), (0, 2), (1,)))",
    ),
    "MomentSequence": (
        lambda: MomentSequence((3, 0, 4)),
        lambda: MomentSequence((3, 0, 6)),
        lambda: ((3, 0, 4),),
        "MomentSequence(values=(3, 0, 4))",
    ),
    "CheckReport": (
        lambda: _report(),
        lambda: _report("P_4"),
        lambda: ("top", "P_3", 4, None, (3, 5, 4), False, (
            CheckReport("sub", "P_3", 4, first_strict_witness=2),
        )),
        "CheckReport(name='top', instance='P_3', max_k=4, first_strict_witness=None, "
        "violation=(3, 5, 4), vacuous=False, subchecks=(CheckReport(name='sub', "
        "instance='P_3', max_k=4, first_strict_witness=2, violation=None, "
        "vacuous=False, subchecks=()),))",
    ),
    "Partition": (
        lambda: Partition([2, 1]),
        lambda: Partition([1, 1, 1]),
        lambda: ((1, 2),),
        "Partition(parts=(1, 2))",
    ),
    "IntPolynomial": (
        lambda: IntPolynomial([-1, 0, 1, 0, 0]),
        lambda: IntPolynomial([1, 0, 1]),
        lambda: ((-1, 0, 1),),
        "IntPolynomial(coeffs=(-1, 0, 1))",
    ),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_repr(name):
    make, _, _, text = SAMPLES[name]
    assert type(make()).__name__ == name
    assert repr(make()) == text


@pytest.mark.parametrize("name", SAMPLES)
def test_equality(name):
    make, other, _, _ = SAMPLES[name]
    assert make() == make()
    assert not make() != make()
    assert make() != other()
    assert not make() == other()


@pytest.mark.parametrize("name", SAMPLES)
def test_hash_is_the_hash_of_the_field_tuple(name):
    make, _, fields, _ = SAMPLES[name]
    if name == "Table":
        # its fields are lists: neither the table nor the tuple hashes
        with pytest.raises(TypeError):
            hash(fields())
        with pytest.raises(TypeError):
            hash(make())
        return
    assert hash(make()) == hash(fields())


@pytest.mark.parametrize("name", [name for name in SAMPLES if name != "Table"])
def test_fields_cannot_be_assigned(name):
    make = SAMPLES[name][0]
    record = make()
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert repr(record) == before


@pytest.mark.parametrize("name", ["CheckReport", "Partition", "Graph", "IntPolynomial"])
def test_pickle_round_trip(name):
    make = SAMPLES[name][0]
    back = pickle.loads(pickle.dumps(make()))
    assert type(back) is type(make())
    assert back == make()
    assert repr(back) == repr(make())
    assert hash(back) == hash(make())


def test_pickled_polynomial_still_evaluates():
    # the parity of the coefficients is kept, so the odd polynomial reads
    # only its even-offset coefficients again
    p = pickle.loads(pickle.dumps(IntPolynomial([0, -2, 0, 1])))
    assert p.dyadic_value(3, 1) == 3**3 - 2 * 3 * 4
    assert p.degree == 3


def test_partition_equals_no_plain_tuple():
    assert Partition([1, 2]) != (1, 2)
    assert Partition([1, 2]) != ((1, 2),)
    assert IntPolynomial([1]) != ((1,),)


def test_table_default_params_render_empty():
    for table in (Table(["a"], [["1"]]), Table(["a"], [])):
        assert table.params == {}
        assert '"params": {}' in _render_json("x", table)
