"""Value semantics of torrigid's frozen record classes.

Every record is immutable, equal only to records of its own class with equal
fields, hashed by its field tuple, printed as ``Name(field=value, ...)``, and
survives ``pickle`` and ``copy.deepcopy``.  The ideal's cached hash takes no
part in equality.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import torrigid
from torrigid import ideals, lattice, localcoh, rigidity, t1, toric
from torrigid.ideals import SquarefreeMonomialIdeal
from torrigid.lattice import AffineSystem, BoundExceeded, Infeasible, SmithDecomposition, Witness
from torrigid.localcoh import MultMap, SimplicialComplex
from torrigid.rigidity import Hypothesis, RigidityCertificate, Verdict
from torrigid.t1 import CoxPolynomial, CyReport, DegreeContribution, PolygonReport, T1Report
from torrigid.toric import Cone, CoxData, Fan, Graph, QGorensteinCertificate, WeightSystem

FAN = Fan(rays=((1, 0), (0, 1)), max_cones=(frozenset({0, 1}),), name="A2", warnings=())
HYP = Hypothesis(name="a", status="satisfied", detail="")

# one sample per record class: its fields in order, and its pinned repr
SAMPLES = [
    (
        SquarefreeMonomialIdeal,
        {"num_vars": 2, "generators": (frozenset({0}),)},
        "SquarefreeMonomialIdeal(num_vars=2, generators=(frozenset({0}),))",
    ),
    (SmithDecomposition, {"u": ((1,),), "d": ((2,),), "v": ((1,),)}, "SmithDecomposition(u=((1,),), d=((2,),), v=((1,),))"),
    (
        AffineSystem,
        {"num_vars": 1, "equalities": (((1,), 2),), "inequalities": (((-1,), 0),)},
        "AffineSystem(num_vars=1, equalities=(((1,), 2),), inequalities=(((-1,), 0),))",
    ),
    (Witness, {"point": (0,)}, "Witness(point=(0,))"),
    (Infeasible, {}, "Infeasible()"),
    (BoundExceeded, {"search_bound": 0}, "BoundExceeded(search_bound=0)"),
    (
        SimplicialComplex,
        {"vertices": (0, 1), "facets": (frozenset({0, 1}),)},
        "SimplicialComplex(vertices=(0, 1), facets=(frozenset({0, 1}),))",
    ),
    (
        MultMap,
        {"source_dimension": 1, "target_dimension": 1, "matrix": ((Fraction(1, 2),),)},
        "MultMap(source_dimension=1, target_dimension=1, matrix=((Fraction(1, 2),),))",
    ),
    (Hypothesis, {"name": "a", "status": "satisfied", "detail": ""}, "Hypothesis(name='a', status='satisfied', detail='')"),
    (
        RigidityCertificate,
        {"criterion": "c", "verdict": Verdict.RIGID, "hypotheses": (HYP,), "search_bound": 3, "reason": "r"},
        "RigidityCertificate(criterion='c', verdict=<Verdict.RIGID: 'rigid'>, "
        "hypotheses=(Hypothesis(name='a', status='satisfied', detail=''),), search_bound=3, reason='r')",
    ),
    (DegreeContribution, {"fine_degree": (1, -1), "dimension": 2}, "DegreeContribution(fine_degree=(1, -1), dimension=2)"),
    (
        T1Report,
        {
            "mode": "simplicial",
            "der_dimension": 1,
            "homq_dimension": 0,
            "contributions": (DegreeContribution((1,), 1),),
            "hypotheses": (HYP,),
            "witness_face": None,
        },
        "T1Report(mode='simplicial', der_dimension=1, homq_dimension=0, "
        "contributions=(DegreeContribution(fine_degree=(1,), dimension=1),), "
        "hypotheses=(Hypothesis(name='a', status='satisfied', detail=''),), witness_face=None)",
    ),
    (
        PolygonReport,
        {"dimension": 3, "vertex_count": 6, "minor_condition": True, "cross_check_total": 3},
        "PolygonReport(dimension=3, vertex_count=6, minor_condition=True, cross_check_total=3)",
    ),
    (CoxPolynomial, {"terms": ((Fraction(2), (1, 0)),)}, "CoxPolynomial(terms=((Fraction(2, 1), (1, 0)),))"),
    (
        CyReport,
        {"dimension": 4, "hypotheses": (), "monomial_count": 10, "jacobian_rank": 6},
        "CyReport(dimension=4, hypotheses=(), monomial_count=10, jacobian_rank=6)",
    ),
    (
        Fan,
        {"rays": ((1, 0), (0, 1)), "max_cones": (frozenset({0, 1}),), "name": "A2", "warnings": ()},
        "Fan(rays=((1, 0), (0, 1)), max_cones=(frozenset({0, 1}),), name='A2', warnings=())",
    ),
    (
        Cone,
        {"fan": FAN, "indices": frozenset({0})},
        "Cone(fan=Fan(rays=((1, 0), (0, 1)), max_cones=(frozenset({0, 1}),), name='A2', warnings=()), "
        "indices=frozenset({0}))",
    ),
    (
        CoxData,
        {
            "num_rays": 1,
            "ambient_rank": 1,
            "grading_matrix": (),
            "ray_matrix": ((2,),),
            "torsion": (2,),
            "torsion_rows": ((1,),),
        },
        "CoxData(num_rays=1, ambient_rank=1, grading_matrix=(), ray_matrix=((2,),), torsion=(2,), "
        "torsion_rows=((1,),))",
    ),
    (QGorensteinCertificate, {"covector": (1, 1), "index": 1}, "QGorensteinCertificate(covector=(1, 1), index=1)"),
    (WeightSystem, {"weights": (1, 1, 2)}, "WeightSystem(weights=(1, 1, 2))"),
    (
        Graph,
        {"vertices": frozenset({0, 1}), "edges": frozenset({frozenset({0, 1})})},
        "Graph(vertices=frozenset({0, 1}), edges=frozenset({frozenset({0, 1})}))",
    ),
]

IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def test_samples_cover_every_record_class():
    # a frozen class without __slots__ is a record (GradedPiece has slots)
    found = {
        cls
        for mod in (ideals, lattice, localcoh, rigidity, t1, toric)
        for cls in vars(mod).values()
        if isinstance(cls, type) and cls.__module__ == mod.__name__ and "__setattr__" in vars(cls)
        and "__slots__" not in vars(cls)
    }
    assert found == {cls for cls, _, _ in SAMPLES}
    assert len(found) == 21


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_construction_repr_and_fields(cls, fields, text):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    for obj in (by_keyword, by_position):
        assert repr(obj) == text
        for name, value in fields.items():
            assert getattr(obj, name) == value
    assert by_keyword == by_position


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(cls, fields, text):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert a != tuple(fields.values())
    for other_cls, other_fields, _ in SAMPLES:
        if other_cls is not cls:
            assert a != other_cls(**other_fields)


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_fields_are_frozen(cls, fields, text):
    obj = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, fields, text):
    obj = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(twin) is cls
        assert twin == obj and hash(twin) == hash(obj) and repr(twin) == text


def test_records_of_different_classes_differ():
    # equal field tuples, different classes
    contribution, certificate = DegreeContribution((1,), 2), QGorensteinCertificate((1,), 2)
    assert contribution != certificate
    assert Witness((0,)) != BoundExceeded(0)
    assert Witness((0,)) != ((0,),)
    assert len({contribution, certificate, DegreeContribution((1,), 2)}) == 2


def test_uncompared_fields():
    ideal = SquarefreeMonomialIdeal(3, (frozenset({0}), frozenset({1, 2})))
    twin = SquarefreeMonomialIdeal(3, (frozenset({1, 2}), frozenset({0})))
    assert twin.generators == ideal.generators
    object.__setattr__(twin, "_hash", hash(twin) + 1)
    assert twin == ideal


def test_defaults():
    assert Hypothesis("a", "failed").detail == ""
    assert AffineSystem(2) == AffineSystem(2, (), ())
    cert = RigidityCertificate("c", Verdict.INCONCLUSIVE, ())
    assert (cert.search_bound, cert.reason) == (None, "")
    report = T1Report("codim_ge_3")
    assert report == T1Report("codim_ge_3", None, None, (), (), None)
    assert CyReport(None, ()).monomial_count is None and CyReport(None, ()).jacobian_rank is None
    fan = Fan(((1,),), (frozenset({0}),))
    assert (fan.name, fan.warnings) == ("", ())
    with pytest.raises(TypeError):
        Witness()
    with pytest.raises(TypeError):
        Infeasible(1)


def test_post_init_normalizes_and_checks():
    ideal = SquarefreeMonomialIdeal(3, (frozenset({0, 1}), frozenset({0})))
    assert ideal.generators == (frozenset({0}),)
    assert hash(ideal) == hash((3, (frozenset({0}),)))
    cx = SimplicialComplex((0, 1, 2), (frozenset({0}), frozenset({0, 1}), frozenset({2})))
    assert cx.facets == (frozenset({2}), frozenset({0, 1}))
    cases = [
        (lambda: SquarefreeMonomialIdeal(2, (frozenset({0, 2}),)), "generator [0, 2] out of range"),
        (lambda: AffineSystem(2, (((1,), 0),)), "constraint row has length 1, expected 2"),
        (lambda: AffineSystem(1, (), (((1, 2), 0),)), "constraint row has length 2, expected 1"),
        (lambda: SimplicialComplex((0,), (frozenset({1}),)), "facet outside the vertex set"),
        (lambda: CoxPolynomial(()), "polynomial must have at least one term"),
        (lambda: CoxPolynomial(((Fraction(0), (1,)),)), "zero coefficient"),
        (lambda: CoxPolynomial(((1, (1,)), (1, (1, 0)))), "bad exponent (1, 0)"),
        (lambda: CoxPolynomial(((1, (-1,)),)), "bad exponent (-1,)"),
        (lambda: QGorensteinCertificate((1,), 0), "index must be positive"),
        (lambda: WeightSystem((1,)), "need at least two positive weights"),
        (lambda: WeightSystem((1, 0)), "need at least two positive weights"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_cli_import_leaves_dataclasses_unloaded():
    # the records are built without dataclasses, which would also pull in
    # inspect; a fresh interpreter shows what importing the CLI loads
    src = str(Path(torrigid.__file__).resolve().parents[1])
    code = (
        "import sys, torrigid.cli; "
        "print(torrigid.cli.__file__); "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    )
    origin, loaded = fresh.stdout.splitlines()
    assert Path(origin).resolve().parents[1] == Path(src)
    assert loaded == "[]"
