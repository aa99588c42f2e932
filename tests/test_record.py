"""Every record class behaves as the frozen dataclass it replaced.  Each is
checked against a frozen ``dataclasses`` twin with the same fields and
defaults, on instances the package builds from seeded inputs: repr,
equality (also across classes with equal fields), hash, JSON and the
refusal to assign.  The two value types, matrices and polynomials, are
records with a repr of their own; their modules' tests check them."""

import dataclasses
import random
from itertools import product

import pytest

from tiltkit import analysis, brauer, explore, families, linalg, quiver, serialize
from tiltkit._record import Record
from tiltkit.matrix import RationalMatrix
from tiltkit.poly import Polynomial

CLASSES = [
    linalg.MatrixOrder, analysis.AnalysisReport, analysis.NakayamaPermutation,
    brauer.RibbonVertex, brauer.RibbonEdge, brauer.RibbonGraph, brauer.GraphVerdict,
    brauer.Certificate, explore.FrontierNode, explore.Frontier, explore.SearchResult,
    explore.DeltaSequence, quiver.Arrow, quiver.Quiver, quiver.MonomialPresentation,
    quiver.GentlePresentation, families.AlgebraFamilyEntry, families._Family,
]
# records with a repr of their own, so without a dataclass twin
VALUE_TYPES = [RationalMatrix, Polynomial]


def _twin(cls):
    """A frozen dataclass with cls's name, fields and defaults."""
    fields = [(f, object, dataclasses.field(default=cls._defaults[f]))
              if f in cls._defaults else (f, object) for f in cls._fields]
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)


def _collect(x, found):
    """Every record in x, nested ones included."""
    if isinstance(x, Record):
        found.setdefault(type(x), []).append(x)
        x = x._values()
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (tuple, list)):
        for v in x:
            _collect(v, found)
    return found


def _seeded_instances():
    rng = random.Random(24)
    made = [families.list_families(), list(families._FAMILIES.values())]
    for _ in range(4):
        n = rng.randint(1, 5)
        entry = families.family("bgs", n=n, r=rng.randint(1, n), m=rng.randint(0, 2))
        made += [entry, quiver.validate_gentle(entry.presentation)]
    made += [analysis.analyze(e.cartan, e.coxeter_override) for e in families.list_families()]
    for n in (1, 3, 5):
        points = rng.sample(range(1, n + 1), n)
        cut = rng.randint(1, n)
        made.append(analysis.NakayamaPermutation(
            tuple(c for c in (tuple(points[:cut]), tuple(points[cut:])) if c)))
    for g in brauer.enumerate_ribbon_structures(3):
        mult = {u: rng.randint(1, 3) for u in range(1, len(g.vertices) + 1)}
        graph = brauer.RibbonGraph(
            tuple(brauer.RibbonVertex(v.id, mult[k], v.order)
                  for k, v in enumerate(g.vertices, start=1)), g.edges)
        gens = {e.id: brauer.mutation_g_matrix(graph, e.id)
                for e in graph.edges if not graph.is_leaf_edge(e.id)}
        made += [graph, brauer.decide(graph), brauer.disconnectedness_certificate(graph),
                 [linalg.matrix_order(m) for m in gens.values()]]
        if gens:
            made += [explore.generate(gens, 2), explore.reach_shift(gens, 2)]
    for m in (1, 2, 4):
        made.append(explore.alternating_shift_search(
            RationalMatrix([[-1, 0], [m, 1]]), RationalMatrix([[1, 1], [0, -1]])))
    made += [explore.delta_sequence(m, l, 4) for m, l in product((1, 2, 3), (1, 2, 3))]
    made += [linalg.matrix_order(RationalMatrix(rows)) for rows in (
        [[0, -1], [1, 0]], [[0, -1], [1, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 0]])]
    return _collect(made, {})


def _sample(records):
    """Up to eight records of distinct reprs, then up to four repeats."""
    distinct = list({repr(x): x for x in reversed(records)}.values())[:8]
    kept = {id(x) for x in distinct}
    return distinct + [x for x in records if id(x) not in kept][:4]


INSTANCES = _seeded_instances()


def _outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except (AttributeError, TypeError) as exc:
        return (AttributeError if isinstance(exc, AttributeError) else TypeError), str(exc)


def test_every_record_class_is_covered():
    assert len(CLASSES) == 18
    package = {c for c in Record.__subclasses__() if c.__module__.startswith("tiltkit.")}
    assert package == set(CLASSES) | set(VALUE_TYPES) == set(INSTANCES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_matches_its_dataclass_twin(cls):
    twin = _twin(cls)
    # a class with the same fields: records of the two are never equal
    sibling = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(cls._fields)})
    sibling_twin = _twin(sibling)
    records = _sample(INSTANCES[cls])
    twins = [twin(*x._values()) for x in records]
    for x, t in zip(records, twins):
        assert x._fields == tuple(f.name for f in dataclasses.fields(t))
        assert repr(x) == repr(t)
        assert _outcome(hash, x) == _outcome(hash, t)
        # the former to_json of a dataclass, key order included
        assert list(serialize.to_json(x).items()) == [
            (f.name, serialize.to_json(getattr(t, f.name))) for f in dataclasses.fields(t)]
        for f in cls._fields:
            assert _outcome(setattr, x, f, None) == _outcome(setattr, t, f, None)
            assert _outcome(delattr, x, f) == _outcome(delattr, t, f)
        assert _outcome(setattr, x, "other", 1) == _outcome(setattr, t, "other", 1)
        # rebuilt positionally, and by keyword with its defaults left out
        again = cls(**{f: v for f, v in zip(cls._fields, x._values())
                       if f not in cls._defaults or v != cls._defaults[f]})
        assert x == again == cls(*x._values()) and not x != again
        assert x != t and not x == t
        alike, twin_alike = sibling(*x._values()), sibling_twin(*x._values())
        assert (x == alike, x != alike) == (t == twin_alike, t != twin_alike) == (False, True)
    for (x, t), (y, u) in product(zip(records, twins), repeat=2):
        assert (x == y, x != y) == (t == u, t != u)
        if x == y:
            assert _outcome(hash, x) == _outcome(hash, y)


def test_construction_by_keyword_and_its_errors():
    assert quiver.Arrow(id="a", source=1, target=2) == quiver.Arrow("a", 1, target=2)
    assert explore.SearchResult("found") == explore.SearchResult("found", None, None, None, "")
    # missing, one too many, repeated, unknown
    for args, kwargs in [(("a", 1), {}), (("a", 1, 2, 3), {}),
                         (("a", 1), {"target": 2, "id": "b"}), (("a", 1, 2), {"colour": 0})]:
        with pytest.raises(TypeError, match=r"^Arrow\(\) takes \(id, source, target\)"):
            quiver.Arrow(*args, **kwargs)
