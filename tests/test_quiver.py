import itertools
import sys

import pytest

from tiltkit.matrix import RationalMatrix
from tiltkit.quiver import (
    MULTI_CYCLE,
    ONE_CYCLE_CLOCK,
    ONE_CYCLE_NONCLOCK,
    TREE,
    Arrow,
    InfiniteDimensionalError,
    MonomialPresentation,
    Quiver,
    bgs_normal_form,
    cartan_from_monomial,
    clock_condition,
    count_oriented_3cycles_with_full_relations,
    gentleness_violations,
    validate_gentle,
)


def _brute_cartan(pres: MonomialPresentation, max_len: int = 30) -> RationalMatrix:
    """Path enumeration oracle: grow all nonzero paths explicitly."""
    q = pres.quiver
    relations = set(pres.zero_relations)

    def dead(word):
        return any(
            word[i : i + len(rel)] == rel
            for rel in relations
            for i in range(len(word) - len(rel) + 1)
        )

    counts = [[0] * q.vertices for _ in range(q.vertices)]
    for v in range(1, q.vertices + 1):
        counts[v - 1][v - 1] += 1  # trivial path
    frontier = [((), v, v) for v in range(1, q.vertices + 1)]
    for _ in range(max_len):
        nxt = []
        for word, start, end in frontier:
            for a in q.arrows_out(end):
                new = word + (a.id,)
                if dead(new):
                    continue
                counts[a.target - 1][start - 1] += 1
                nxt.append((new, start, a.target))
        frontier = nxt
        if not frontier:
            break
    assert not frontier, "oracle hit the path-length cap"
    return RationalMatrix(counts)


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(1, (Arrow("a", 1, 2),))
    with pytest.raises(ValueError):
        Quiver(2, (Arrow("a", 1, 2), Arrow("a", 2, 1)))


def test_presentation_validation():
    q = Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 1)))
    with pytest.raises(ValueError):
        MonomialPresentation(q, (("a",),))  # too short
    with pytest.raises(ValueError):
        MonomialPresentation(q, (("a", "a"),))  # not composable
    MonomialPresentation(q, (("a", "b"),))


def test_infinite_dimensional_detection():
    q = Quiver(1, (Arrow("x", 1, 1),))
    with pytest.raises(InfiniteDimensionalError):
        cartan_from_monomial(MonomialPresentation(q, ()))
    # x^3 = 0 makes it finite dimensional
    c = cartan_from_monomial(MonomialPresentation(q, (("x", "x", "x"),)))
    assert c == RationalMatrix([[3]])


def test_cartan_long_linear_quiver_needs_no_recursion():
    # 1 -> 2 -> ... -> n without relations: one path j -> i exactly when i >= j.
    # At this length a recursive path count overflows the default stack limit.
    n = 1500
    arrows = tuple(Arrow(f"a{i}", i, i + 1) for i in range(1, n))
    limit = sys.getrecursionlimit()
    c = cartan_from_monomial(MonomialPresentation(Quiver(n, arrows), ()))
    assert sys.getrecursionlimit() == limit
    assert c.nrows == c.ncols == n
    assert all(
        x == (1 if j <= i else 0)
        for i, row in enumerate(c.entries)
        for j, x in enumerate(row)
    )


def test_cartan_four_vertex_example():
    arrows = (
        Arrow("a", 1, 2),
        Arrow("b", 1, 3),
        Arrow("d", 1, 4),
        Arrow("c", 2, 4),
        Arrow("e", 3, 4),
    )
    pres = MonomialPresentation(Quiver(4, arrows), (("a", "c"), ("b", "e")))
    c = cartan_from_monomial(pres)
    assert c == RationalMatrix(
        [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
    )
    assert c == _brute_cartan(pres)


def test_cartan_relation_free_paths_only():
    # 1 -> 2 -> 3 with the composite killed: no path 1 -> 3
    arrows = (Arrow("a", 1, 2), Arrow("b", 2, 3))
    pres = MonomialPresentation(Quiver(3, arrows), (("a", "b"),))
    c = cartan_from_monomial(pres)
    assert c == RationalMatrix([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    assert c == _brute_cartan(pres)


def test_cartan_parallel_arrows_counted_separately():
    arrows = (Arrow("y1", 1, 2), Arrow("y2", 1, 2), Arrow("y3", 1, 2))
    c = cartan_from_monomial(MonomialPresentation(Quiver(2, arrows), ()))
    assert c == RationalMatrix([[1, 0], [3, 1]])


def test_cartan_overlapping_relations():
    # loop with x^2 = 0 and a long relation that overlaps itself
    q = Quiver(1, (Arrow("x", 1, 1),))
    pres = MonomialPresentation(q, (("x", "x"),))
    c = cartan_from_monomial(pres)
    assert c == RationalMatrix([[2]]) == _brute_cartan(pres)


def test_cartan_vertex_relabel_equivariance():
    arrows = (Arrow("a", 1, 2), Arrow("b", 2, 3))
    pres = MonomialPresentation(Quiver(3, arrows), (("a", "b"),))
    c = cartan_from_monomial(pres)
    for perm in itertools.permutations((1, 2, 3)):
        relabeled = MonomialPresentation(
            Quiver(
                3,
                tuple(
                    Arrow(a.id, perm[a.source - 1], perm[a.target - 1])
                    for a in arrows
                ),
            ),
            (("a", "b"),),
        )
        cp = cartan_from_monomial(relabeled)
        p = RationalMatrix(
            [[1 if perm[j] - 1 == i else 0 for j in range(3)] for i in range(3)]
        )
        assert cp == p @ c @ p.inverse()


def test_gentleness():
    good = bgs_normal_form(3, 1, 0)
    assert gentleness_violations(good) == []
    assert validate_gentle(good).presentation is good

    bad = MonomialPresentation(
        Quiver(2, (Arrow("a", 1, 2), Arrow("b", 1, 2), Arrow("c", 1, 2))), ()
    )
    violations = gentleness_violations(bad)
    assert any("out-arrows" in v for v in violations)
    assert validate_gentle(bad) == violations


def test_clock_condition_tree_and_multicycle():
    tree = MonomialPresentation(
        Quiver(3, (Arrow("a", 1, 2), Arrow("b", 1, 3))), ()
    )
    assert clock_condition(validate_gentle(tree)) == TREE

    multi = bgs_normal_form(1, 1, 0)  # loop, betti 1
    assert clock_condition(validate_gentle(multi)) in (
        ONE_CYCLE_CLOCK,
        ONE_CYCLE_NONCLOCK,
    )

    two_loops_q = Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 1), Arrow("c", 1, 2), Arrow("d", 2, 1)))
    two = MonomialPresentation(
        two_loops_q, (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))
    )
    assert clock_condition(validate_gentle(two)) == MULTI_CYCLE


def test_clock_condition_oriented_cycle():
    # fully relational oriented n-cycle: all relations clockwise, none counter
    for n, r in [(3, 1), (3, 2), (4, 1), (5, 3)]:
        g = validate_gentle(bgs_normal_form(n, r, 0))
        assert clock_condition(g) == ONE_CYCLE_NONCLOCK
    # r = n with n = 3: three clockwise relations, zero counterclockwise
    g = validate_gentle(bgs_normal_form(3, 3, 0))
    assert clock_condition(g) == ONE_CYCLE_NONCLOCK


def test_clock_condition_balanced_cycle():
    # square with alternating orientation and one relation per direction
    arrows = (
        Arrow("a", 1, 2),
        Arrow("b", 3, 2),
        Arrow("c", 3, 4),
        Arrow("d", 1, 4),
    )
    pres = MonomialPresentation(Quiver(4, arrows), ())
    assert clock_condition(validate_gentle(pres)) == ONE_CYCLE_CLOCK


def test_count_oriented_3cycles():
    tri = MonomialPresentation(
        Quiver(3, (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1))),
        (("a", "b"), ("b", "c"), ("c", "a")),
    )
    assert count_oriented_3cycles_with_full_relations(validate_gentle(tri)) == 1

    acyclic = MonomialPresentation(
        Quiver(3, (Arrow("a", 1, 2), Arrow("b", 2, 3))), (("a", "b"),)
    )
    assert count_oriented_3cycles_with_full_relations(validate_gentle(acyclic)) == 0


def test_count_two_joined_triangles():
    arrows = (
        Arrow("a", 1, 2),
        Arrow("b", 2, 3),
        Arrow("c", 3, 1),
        Arrow("j", 3, 4),
        Arrow("d", 4, 5),
        Arrow("e", 5, 6),
        Arrow("f", 6, 4),
    )
    rels = (
        ("a", "b"), ("b", "c"), ("c", "a"),
        ("d", "e"), ("e", "f"), ("f", "d"),
    )
    pres = MonomialPresentation(Quiver(6, arrows), rels)
    assert count_oriented_3cycles_with_full_relations(
        validate_gentle(pres)
    ) == 2


def test_bgs_normal_form_determinants():
    for n in range(3, 10):
        c = cartan_from_monomial(bgs_normal_form(n, n, 0))
        assert c.det() == (2 if n % 2 == 1 else 0)


def test_bgs_normal_form_shape():
    pres = bgs_normal_form(3, 1, 2)
    assert pres.quiver.vertices == 5
    assert len(pres.quiver.arrows) == 5
    assert len(pres.zero_relations) == 1
    c = cartan_from_monomial(pres)
    assert c == _brute_cartan(pres)
    with pytest.raises(ValueError):
        bgs_normal_form(3, 4, 0)
    with pytest.raises(ValueError):
        bgs_normal_form(3, 0, 0)
