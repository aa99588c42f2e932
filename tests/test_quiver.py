import itertools
import random
import sys

import pytest

from tiltkit.matrix import RationalMatrix
from tiltkit.quiver import (
    MULTI_CYCLE,
    ONE_CYCLE_CLOCK,
    ONE_CYCLE_NONCLOCK,
    TREE,
    Arrow,
    GentlePresentation,
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


def test_quiver_indexes_arrows_in_arrow_order():
    arrows = (Arrow("b", 1, 2), Arrow("a", 1, 2), Arrow("l", 2, 2), Arrow("c", 2, 1))
    q = Quiver(3, arrows)
    assert q.arrow("l") is arrows[2]
    with pytest.raises(KeyError):
        q.arrow("z")
    for v in (0, 1, 2, 3, 4):
        assert list(q.arrows_out(v)) == [a for a in arrows if a.source == v]
        assert list(q.arrows_in(v)) == [a for a in arrows if a.target == v]


def test_quiver_equality_and_hash_ignore_the_index():
    arrows = (Arrow("a", 1, 2), Arrow("b", 2, 1))
    q, same = Quiver(2, arrows), Quiver(2, tuple(arrows))
    assert q == same and hash(q) == hash(same)
    assert q != Quiver(2, arrows[:1]) and q != Quiver(3, arrows)
    assert Quiver._fields == ("vertices", "arrows")
    assert repr(q) == (
        "Quiver(vertices=2, arrows=(Arrow(id='a', source=1, target=2), "
        "Arrow(id='b', source=2, target=1)))"
    )
    pres = MonomialPresentation(q, (("a", "b"),))
    assert pres == MonomialPresentation(same, (("a", "b"),))
    assert hash(pres) == hash(MonomialPresentation(same, (("a", "b"),)))
    assert MonomialPresentation._fields == ("quiver", "zero_relations")


def test_presentation_validation():
    q = Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 1)))
    with pytest.raises(ValueError):
        MonomialPresentation(q, (("a",),))  # too short
    with pytest.raises(ValueError):
        MonomialPresentation(q, (("a", "a"),))  # not composable
    MonomialPresentation(q, (("a", "b"),))


def test_relation_naming_an_unknown_arrow_is_a_value_error():
    with pytest.raises(ValueError) as exc:
        MonomialPresentation(Quiver(1, ()), (("a", "b"),))
    assert str(exc.value) == "relation ('a', 'b') names an unknown arrow 'a'"
    q = Quiver(2, (Arrow("a", 1, 2),))
    with pytest.raises(ValueError) as exc:
        MonomialPresentation(q, (("a", "b"),))
    assert str(exc.value) == "relation ('a', 'b') names an unknown arrow 'b'"


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


def test_cartan_long_oriented_cycle_raises_without_recursion():
    # 1 -> 2 -> ... -> n -> 1 without relations: every power of the cycle survives
    n = 1500
    arrows = tuple(Arrow(f"a{i}", i, i % n + 1) for i in range(1, n + 1))
    limit = sys.getrecursionlimit()
    with pytest.raises(InfiniteDimensionalError) as exc:
        cartan_from_monomial(MonomialPresentation(Quiver(n, arrows), ()))
    assert str(exc.value) == "a nonzero cyclic path survives the relations"
    assert sys.getrecursionlimit() == limit


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

    # k[x]/(x^2): the walk (x, x, x) closes up but passes one vertex only
    loop = MonomialPresentation(Quiver(1, (Arrow("x", 1, 1),)), (("x", "x"),))
    assert count_oriented_3cycles_with_full_relations(validate_gentle(loop)) == 0
    # a loop and a 2-cycle with every composition killed: no 3-cycle either
    arrows = (Arrow("x", 1, 1), Arrow("a", 1, 2), Arrow("b", 2, 1))
    mixed = MonomialPresentation(
        Quiver(2, arrows), (("x", "x"), ("x", "a"), ("a", "b"), ("b", "x"), ("b", "a"))
    )
    assert count_oriented_3cycles_with_full_relations(GentlePresentation(mixed)) == 0


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


# -- reference: the clock condition with its own union-find and leaf strip ----
# Copied from the earlier implementation and compared with the one that reads
# the multigraph core shared with ``brauer``.


def _ref_underlying_components(q: Quiver) -> int:
    parent = list(range(q.vertices + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in q.arrows:
        ra, rb = find(a.source), find(a.target)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(1, q.vertices + 1)})


def _ref_clock_condition(g: GentlePresentation) -> str:
    q = g.presentation.quiver
    betti = len(q.arrows) - q.vertices + _ref_underlying_components(q)
    if betti == 0:
        return TREE
    if betti > 1:
        return MULTI_CYCLE

    # strip leaves of the underlying multigraph to isolate the cycle
    alive = set(a.id for a in q.arrows)
    degree = {v: 0 for v in range(1, q.vertices + 1)}
    for a in q.arrows:
        degree[a.source] += 1
        degree[a.target] += 1
    changed = True
    while changed:
        changed = False
        for a in q.arrows:
            if a.id not in alive:
                continue
            if a.source != a.target and (
                degree[a.source] == 1 or degree[a.target] == 1
            ):
                alive.remove(a.id)
                degree[a.source] -= 1
                degree[a.target] -= 1
                changed = True

    cycle_arrows = [q.arrow(aid) for aid in sorted(alive)]
    # order the cycle as a closed walk
    first = cycle_arrows[0]
    walk = [(first, True)]  # (arrow, traversed source->target)
    used = {first.id}
    current = first.target
    while len(walk) < len(cycle_arrows):
        for a in cycle_arrows:
            if a.id in used:
                continue
            if a.source == current:
                walk.append((a, True))
                used.add(a.id)
                current = a.target
                break
            if a.target == current:
                walk.append((a, False))
                used.add(a.id)
                current = a.source
                break
        else:
            raise AssertionError("betti-one core is a single closed walk")

    relations = {rel for rel in g.presentation.zero_relations}
    clockwise = counter = 0
    k = len(walk)
    for idx in range(k):
        (a, fwd_a) = walk[idx]
        (b, fwd_b) = walk[(idx + 1) % k]
        if k == 1:
            # loop: the only composition is the loop with itself
            if (a.id, a.id) in relations:
                clockwise += 1
            continue
        if fwd_a and fwd_b and (a.id, b.id) in relations:
            clockwise += 1
        if not fwd_a and not fwd_b and (b.id, a.id) in relations:
            counter += 1
    return ONE_CYCLE_CLOCK if clockwise == counter else ONE_CYCLE_NONCLOCK


def _presentations_in_this_file() -> list[MonomialPresentation]:
    """The presentations the clock-condition and 3-cycle tests above use, the
    bgs normal forms, and seeded one-cycle quivers with random relations."""
    square = (Arrow("a", 1, 2), Arrow("b", 3, 2), Arrow("c", 3, 4), Arrow("d", 1, 4))
    triangles = (
        Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1), Arrow("j", 3, 4),
        Arrow("d", 4, 5), Arrow("e", 5, 6), Arrow("f", 6, 4),
    )
    out = [
        MonomialPresentation(Quiver(3, (Arrow("a", 1, 2), Arrow("b", 1, 3))), ()),
        MonomialPresentation(
            Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 1), Arrow("c", 1, 2), Arrow("d", 2, 1))),
            (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")),
        ),
        MonomialPresentation(Quiver(4, square), ()),
        MonomialPresentation(
            Quiver(3, (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1))),
            (("a", "b"), ("b", "c"), ("c", "a")),
        ),
        MonomialPresentation(Quiver(3, (Arrow("a", 1, 2), Arrow("b", 2, 3))), (("a", "b"),)),
        MonomialPresentation(
            Quiver(6, triangles),
            (("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d")),
        ),
    ]
    out += [bgs_normal_form(n, r, m) for n in range(1, 7) for r in range(1, n + 1)
            for m in range(4)]
    rng = random.Random(3)
    for _ in range(300):
        v = rng.randint(1, 6)
        ends = [(rng.randrange(1, k + 1), k + 1) for k in range(1, v)]
        ends += [(rng.randint(1, v), rng.randint(1, v)) for _ in range(rng.randint(0, 2))]
        arrows = tuple(
            Arrow(f"x{rng.randrange(100)}_{k}", *(pair if rng.random() < 0.5 else pair[::-1]))
            for k, pair in enumerate(ends)
        )
        composable = [(a.id, b.id) for a in arrows for b in arrows if a.target == b.source]
        relations = tuple(p for p in composable if rng.random() < 0.5)
        out.append(MonomialPresentation(Quiver(v, arrows), relations))
    return out


def test_clock_condition_matches_reference():
    verdicts = set()
    for pres in _presentations_in_this_file():
        g = GentlePresentation(pres)
        verdicts.add(_ref_clock_condition(g))
        assert clock_condition(g) == _ref_clock_condition(g)
    assert verdicts == {TREE, ONE_CYCLE_CLOCK, ONE_CYCLE_NONCLOCK, MULTI_CYCLE}


# -- reference: the path count as automaton, state graph and Kahn's order -----
# Copied from the earlier implementation and compared with the one
# depth-first walk that sums the counts in post-order.


def _ref_automaton(pres: MonomialPresentation):
    relations = set(pres.zero_relations)
    prefixes = {()} | {
        rel[:k] for rel in relations for k in range(1, len(rel))
    }

    def step(state, arrow: Arrow):
        vertex, suffix = state
        if arrow.source != vertex:
            raise AssertionError("arrow does not start at the current vertex")
        word = suffix + (arrow.id,)
        for k in range(len(word)):
            if word[k:] in relations:
                return None
        for k in range(len(word) + 1):
            if word[k:] in prefixes:
                return (arrow.target, word[k:])
        raise AssertionError("empty suffix is always a prefix")

    return step


def _ref_reachable_states(pres: MonomialPresentation) -> dict:
    step = _ref_automaton(pres)
    q = pres.quiver
    edges = {(v, ()): [] for v in range(1, q.vertices + 1)}
    stack = list(edges)
    while stack:
        state = stack.pop()
        for arrow in (a for a in q.arrows if a.source == state[0]):
            nxt = step(state, arrow)
            if nxt is None:
                continue
            edges[state].append((arrow.id, nxt))
            if nxt not in edges:
                edges[nxt] = []
                stack.append(nxt)
    return edges


def _ref_topological_order(edges) -> list:
    indegree = dict.fromkeys(edges, 0)
    for out in edges.values():
        for _, t in out:
            indegree[t] += 1
    order = [s for s, d in indegree.items() if d == 0]
    for s in order:
        for _, t in edges[s]:
            indegree[t] -= 1
            if indegree[t] == 0:
                order.append(t)
    if len(order) != len(edges):
        raise InfiniteDimensionalError("a nonzero cyclic path survives the relations")
    return order


def _ref_cartan_from_monomial(pres: MonomialPresentation) -> RationalMatrix:
    edges = _ref_reachable_states(pres)
    n = pres.quiver.vertices
    counts = {}
    for state in reversed(_ref_topological_order(edges)):
        out = [0] * n
        out[state[0] - 1] += 1
        for _, nxt in edges[state]:
            for i, c in enumerate(counts[nxt]):
                out[i] += c
        counts[state] = out
    cols = [counts[(j, ())] for j in range(1, n + 1)]
    return RationalMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


def _cyclic_presentations() -> list[MonomialPresentation]:
    """Seeded quivers around an oriented cycle through every vertex, with
    extra arrows (loops among them) and relations read off random walks."""
    rng = random.Random(11)
    out = []
    for _ in range(300):
        v = rng.randint(1, 5)
        ends = [(i, i % v + 1) for i in range(1, v + 1)]
        ends += [(rng.randint(1, v), rng.randint(1, v)) for _ in range(rng.randint(0, 3))]
        arrows = tuple(Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(ends))
        q = Quiver(v, arrows)
        relations = set()
        for _ in range(rng.randint(0, 8)):
            path = [rng.choice(arrows)]
            for _ in range(rng.randint(1, 3)):
                path.append(rng.choice(q.arrows_out(path[-1].target)))
            relations.add(tuple(a.id for a in path))
        out.append(MonomialPresentation(q, tuple(sorted(relations))))
    return out


def _cartan_or_infinite(count, pres):
    try:
        return count(pres)
    except InfiniteDimensionalError as exc:
        return str(exc)


def test_cartan_matches_reference():
    for pres in _presentations_in_this_file():
        got = _cartan_or_infinite(cartan_from_monomial, pres)
        assert got == _cartan_or_infinite(_ref_cartan_from_monomial, pres)
    finite = 0
    for pres in _cyclic_presentations():
        got = _cartan_or_infinite(cartan_from_monomial, pres)
        assert got == _cartan_or_infinite(_ref_cartan_from_monomial, pres)
        finite += isinstance(got, RationalMatrix)
    assert 50 < finite < 250  # both verdicts are exercised on directed cycles
