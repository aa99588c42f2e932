import itertools
import random
from fractions import Fraction

import pytest

from tiltkit import brauer
from tiltkit.brauer import (
    Certificate,
    LeafEdgeError,
    RibbonEdge,
    RibbonGraph,
    RibbonVertex,
    betti_number,
    canonical_key,
    cycle_criterion,
    decide,
    disconnectedness_certificate,
    enumerate_connected_multigraphs,
    enumerate_ribbon_structures,
    from_multigraph,
    is_bipartite,
    is_isomorphic,
    k0_criterion,
    kauer_move,
    mutation_g_matrix,
    unique_cycle_length,
)
from tiltkit.linalg import char_poly
from tiltkit.matrix import RationalMatrix
from tiltkit.poly import Polynomial


def digon() -> RibbonGraph:
    return RibbonGraph(
        (
            RibbonVertex("u", 1, ("h1a", "h2a")),
            RibbonVertex("w", 1, ("h1b", "h2b")),
        ),
        (RibbonEdge("1", ("h1a", "h1b")), RibbonEdge("2", ("h2a", "h2b"))),
    )


def loop() -> RibbonGraph:
    return RibbonGraph(
        (RibbonVertex("u", 1, ("a1", "a2")),),
        (RibbonEdge("1", ("a1", "a2")),),
    )


def two_loops() -> RibbonGraph:
    return RibbonGraph(
        (RibbonVertex("u", 1, ("a1", "b1", "a2", "b2")),),
        (RibbonEdge("a", ("a1", "a2")), RibbonEdge("b", ("b1", "b2"))),
    )


def line(k: int = 2) -> RibbonGraph:
    return from_multigraph(k + 1, [(i, i + 1) for i in range(1, k + 1)])


def triangle() -> RibbonGraph:
    return from_multigraph(3, [(1, 2), (2, 3), (1, 3)])


def test_validation():
    with pytest.raises(ValueError):  # half-edge on two vertices
        RibbonGraph(
            (RibbonVertex("u", 1, ("x",)), RibbonVertex("w", 1, ("x",))),
            (RibbonEdge("1", ("x", "x")),),
        )
    with pytest.raises(ValueError):  # disconnected
        RibbonGraph(
            (RibbonVertex("u", 1, ("a1", "a2")), RibbonVertex("w", 1, ("b1", "b2"))),
            (RibbonEdge("1", ("a1", "a2")), RibbonEdge("2", ("b1", "b2"))),
        )
    with pytest.raises(ValueError):
        RibbonVertex("u", 0, ())


def test_decide_examples():
    v = decide(line(2))
    assert v.tilting_discrete and v.betti == 0 and not v.k0_has_free_part

    v = decide(digon())
    assert not v.tilting_discrete and v.bipartite and v.k0_has_free_part
    assert v.betti == 1 and v.odd_cycle_unique is False

    v = decide(loop())
    assert v.tilting_discrete and not v.bipartite and not v.k0_has_free_part
    assert v.odd_cycle_unique is True

    v = decide(triangle())
    assert v.tilting_discrete and v.odd_cycle_unique is True

    theta = from_multigraph(2, [(1, 2), (1, 2), (1, 2)])
    v = decide(theta)
    assert v.betti == 2 and not v.tilting_discrete


def test_unique_cycle_length():
    assert unique_cycle_length(loop()) == 1
    assert unique_cycle_length(digon()) == 2
    assert unique_cycle_length(triangle()) == 3
    # triangle with a pendant edge
    g = from_multigraph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    assert unique_cycle_length(g) == 3


def test_criteria_agree_small():
    for n in range(1, 6):
        for g in enumerate_connected_multigraphs(n):
            assert cycle_criterion(g) == k0_criterion(g)
            decide(g)  # also exercises the internal assertion


def test_mutation_digon():
    assert mutation_g_matrix(digon(), "1") == RationalMatrix([[-1, 0], [2, 1]])
    assert mutation_g_matrix(digon(), "2") == RationalMatrix([[1, 2], [0, -1]])


def test_mutation_two_loops():
    m = mutation_g_matrix(two_loops(), "a")
    assert m == RationalMatrix([[-1, 0], [2, 1]])


def test_mutation_leaf_errors():
    with pytest.raises(LeafEdgeError):
        mutation_g_matrix(line(2), "1")
    with pytest.raises(LeafEdgeError):
        kauer_move(line(2), "2")
    with pytest.raises(LeafEdgeError):
        mutation_g_matrix(loop(), "1")  # single edge: nothing to re-attach to


def _nonleaf_edges(g: RibbonGraph):
    if len(g.edges) < 2:
        return []
    return [e.id for e in g.edges if not g.is_leaf_edge(e.id)]


def _check_mutation_invariants(g: RibbonGraph):
    n = len(g.edges)
    for eid in _nonleaf_edges(g):
        m = mutation_g_matrix(g, eid)
        assert m.det() == -1
        assert (m @ m).det() == 1
        assert all(s == 1 for s in m.column_sums())
        assert Polynomial([-1, 1]).divides(char_poly(m))
        assert m.nrows == n


def test_mutation_invariants_exhaustive_small():
    for n in (2, 3):
        for g in enumerate_ribbon_structures(n):
            _check_mutation_invariants(g)


def test_kauer_digon_roundtrip():
    moved = kauer_move(digon(), "1")
    assert is_isomorphic(moved, digon())
    # and again
    assert is_isomorphic(kauer_move(moved, "2"), digon())


def test_kauer_two_loops_class_preserved():
    moved = kauer_move(two_loops(), "a")
    assert len(moved.vertices) == 1 and len(moved.edges) == 2
    cert = disconnectedness_certificate(moved)
    assert cert.applicable and cert.graph_class == "one_vertex"


def test_kauer_triangle():
    for eid in ("1", "2", "3"):
        moved = kauer_move(triangle(), eid)
        assert betti_number(moved) == 1
        assert unique_cycle_length(moved) % 2 == 1
        assert decide(moved).tilting_discrete


def test_kauer_preserves_counts_exhaustive():
    for n in (2, 3):
        for g in enumerate_ribbon_structures(n):
            mults = sorted(v.multiplicity for v in g.vertices)
            for eid in _nonleaf_edges(g):
                moved = kauer_move(g, eid)
                assert len(moved.vertices) == len(g.vertices)
                assert len(moved.edges) == len(g.edges)
                assert betti_number(moved) == betti_number(g)
                assert sorted(v.multiplicity for v in moved.vertices) == mults


def test_certificates():
    assert disconnectedness_certificate(digon()).graph_class == "two_vertex_bipartite"
    assert disconnectedness_certificate(two_loops()).graph_class == "one_vertex"
    assert not disconnectedness_certificate(line(2)).applicable  # leaves
    assert not disconnectedness_certificate(triangle()).applicable  # 3 vertices
    assert not disconnectedness_certificate(loop()).applicable  # single edge
    cert = disconnectedness_certificate(digon())
    assert cert.generator_column_sums_verified
    assert "column sums" in cert.statement


def test_column_sum_product_closure():
    rng = random.Random(7)
    for n in (2, 3, 5):
        mats = []
        for _ in range(4):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
            last = [1 - sum(col) for col in zip(*rows)] if rows else [1] * n
            mats.append(RationalMatrix(rows + [last]))
        prod = RationalMatrix.identity(n)
        for m in mats:
            assert all(s == 1 for s in m.column_sums())
            prod = prod @ m
        assert all(s == 1 for s in prod.column_sums())


def test_canonical_key_relabeling_invariance():
    g = triangle()
    relabeled = RibbonGraph(
        tuple(
            RibbonVertex("X" + v.id, v.multiplicity, tuple("H" + h for h in v.order))
            for v in g.vertices
        ),
        tuple(
            RibbonEdge("E" + e.id, tuple("H" + h for h in e.halves))
            for e in g.edges
        ),
    )
    assert canonical_key(g) == canonical_key(relabeled)
    assert is_isomorphic(g, relabeled)
    bumped = RibbonGraph(
        (RibbonVertex(g.vertices[0].id, 5, g.vertices[0].order),) + g.vertices[1:],
        g.edges,
    )
    assert not is_isomorphic(g, bumped)  # multiplicities distinguish


def test_enumeration_counts():
    ones = list(enumerate_ribbon_structures(1))
    assert len(ones) == 2  # a single edge between two vertices, or a loop
    multis = list(enumerate_connected_multigraphs(2))
    # 2 edges: double edge, path, loop+pendant (two labelings), two loops,
    # loop with double... enumerate and sanity check basic properties instead
    assert all(len(g.edges) == 2 for g in multis)
    assert any(len(g.vertices) == 3 for g in multis)
    assert any(len(g.vertices) == 1 for g in multis)


def _reference_enumerate(n_edges: int):
    """The (2n)! walk over all rotations, deduplicated by canonical_key: the
    oracle for the orderly enumerator (feasible for n_edges <= 4)."""
    darts = list(range(2 * n_edges))
    seen = set()
    for perm in itertools.permutations(darts):
        # connectivity of <rotation, pairing> acting on darts
        parent = darts[:]

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for d in darts:
            for other in (perm[d], d ^ 1):
                ra, rb = find(d), find(other)
                if ra != rb:
                    parent[ra] = rb
        if len({find(d) for d in darts}) != 1:
            continue

        # vertices are the cycles of the rotation permutation
        unvisited = set(darts)
        vertices = []
        while unvisited:
            start = min(unvisited)
            cycle = [start]
            unvisited.remove(start)
            d = perm[start]
            while d != start:
                cycle.append(d)
                unvisited.remove(d)
                d = perm[d]
            vertices.append(cycle)
        g = RibbonGraph(
            vertices=tuple(
                RibbonVertex(f"v{i}", 1, tuple(f"d{d}" for d in cyc))
                for i, cyc in enumerate(vertices)
            ),
            edges=tuple(
                RibbonEdge(str(k + 1), (f"d{2 * k}", f"d{2 * k + 1}"))
                for k in range(n_edges)
            ),
        )
        key = canonical_key(g)
        if key in seen:
            continue
        seen.add(key)
        yield g


def _automorphism_count(g: RibbonGraph) -> int:
    """Number of roots whose breadth-first relabelled (rotation, pairing)
    encoding is minimal; each automorphism sends the root to one of them."""
    nxt = {
        h: v.order[(i + 1) % len(v.order)]
        for v in g.vertices
        for i, h in enumerate(v.order)
    }
    partner = {a: b for e in g.edges for a, b in (e.halves, e.halves[::-1])}
    encodings = []
    for root in nxt:
        label, queue = {root: 0}, [root]
        for h in queue:
            for neighbor in (nxt[h], partner[h]):
                if neighbor not in label:
                    label[neighbor] = len(label)
                    queue.append(neighbor)
        encodings.append(
            (tuple(label[nxt[h]] for h in queue), tuple(label[partner[h]] for h in queue))
        )
    return encodings.count(min(encodings))


def _rooted_map_count(n_edges: int) -> int:
    """Rooted maps with n_edges edges (Walsh–Lehman 1972): a(n + 1) with
    a(m) = (2m-1)!! - sum_{k=1}^{m-1} (2k-1)!! a(m-k) and a(1) = 1."""

    def double_factorial(m: int) -> int:  # (2m-1)!!
        return 1 if m == 0 else (2 * m - 1) * double_factorial(m - 1)

    a = {1: 1}
    for m in range(2, n_edges + 2):
        a[m] = double_factorial(m) - sum(
            double_factorial(k) * a[m - k] for k in range(1, m)
        )
    return a[n_edges + 1]


def test_rooted_map_recurrence():
    assert [_rooted_map_count(n) for n in range(1, 7)] == [2, 10, 74, 706, 8162, 110410]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_the_permutation_walk(n):
    assert list(enumerate_ribbon_structures(n)) == list(_reference_enumerate(n))


@pytest.mark.parametrize(
    "n, classes", [(1, 2), (2, 5), (3, 20), (4, 107), (5, 870), (6, 9436)]
)
def test_enumeration_is_one_graph_per_class(n, classes):
    graphs = list(enumerate_ribbon_structures(n))
    assert len(graphs) == classes
    assert len({canonical_key(g) for g in graphs}) == classes
    # every class contributes its 2n roots up to automorphism
    assert sum(Fraction(2 * n, _automorphism_count(g)) for g in graphs) == _rooted_map_count(n)


def test_enumeration_calls_no_canonical_key_and_no_permutations(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called by the enumerator")

    monkeypatch.setattr(brauer, "canonical_key", forbidden)
    monkeypatch.setattr(itertools, "permutations", forbidden)
    assert len(list(enumerate_ribbon_structures(4))) == 107


def test_multiplicities_do_not_change_verdicts():
    plain = digon()
    fat = RibbonGraph(
        tuple(RibbonVertex(v.id, 4, v.order) for v in plain.vertices),
        plain.edges,
    )
    assert decide(fat) == decide(plain)
