import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tiltkit import brauer
from tiltkit.brauer import (
    Certificate,
    GraphVerdict,
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


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (
            (RibbonVertex("u", 1, ("a", "b")), RibbonVertex("w", 1, ("b",))),
            (RibbonEdge("1", ("a", "b")),),
            "a half-edge appears in two cyclic orders",
        ),
        (
            (RibbonVertex("u", 1, ("a", "b")),),
            (RibbonEdge("1", ("a", "b")), RibbonEdge("2", ("b", "c"))),
            "a half-edge belongs to two edges",
        ),
        (
            (RibbonVertex("u", 1, ("a", "b", "c")),),
            (RibbonEdge("1", ("a", "b")),),
            "half-edges at vertices and on edges disagree",
        ),
        (
            (RibbonVertex("u", 1, ("a",)), RibbonVertex("u", 1, ("b",))),
            (RibbonEdge("1", ("a", "b")),),
            "duplicate vertex id",
        ),
        (
            (RibbonVertex("u", 1, ("a", "b", "c", "d")),),
            (RibbonEdge("1", ("a", "b")), RibbonEdge("1", ("c", "d"))),
            "duplicate edge id",
        ),
        (
            (RibbonVertex("u", 1, ("a1", "a2")), RibbonVertex("w", 1, ("b1", "b2"))),
            (RibbonEdge("1", ("a1", "a2")), RibbonEdge("2", ("b1", "b2"))),
            "ribbon graph must be connected",
        ),
        ((), (), "ribbon graph must be connected"),
        # two faults at once: the checks run in the order listed above
        (
            (RibbonVertex("u", 1, ("a", "a")), RibbonVertex("u", 1, ())),
            (RibbonEdge("1", ("a", "a")),),
            "a half-edge appears in two cyclic orders",
        ),
        (
            (RibbonVertex("u", 1, ("a",)), RibbonVertex("u", 1, ("b",))),
            (RibbonEdge("1", ("a", "b")), RibbonEdge("1", ("b", "a"))),
            "a half-edge belongs to two edges",
        ),
    ],
)
def test_validation_messages(vertices, edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RibbonGraph(vertices, edges)


def test_lookups_read_the_index():
    g = digon()
    assert g.half_vertex("h2b").id == "w"
    assert g.half_edge("h2b").id == "2"
    assert g.edge("1").halves == ("h1a", "h1b")
    for lookup, key in ((g.half_vertex, "zz"), (g.half_edge, "zz"), (g.edge, "9")):
        with pytest.raises(KeyError):
            lookup(key)


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


def _reference_connected_multigraphs(n_edges: int):
    """The enumeration as it stood: every combination with repetition of
    vertex pairs, filtered for touching every vertex and for connectivity."""
    for v in range(1, n_edges + 2):
        pairs = [(i, j) for i in range(1, v + 1) for j in range(i, v + 1)]
        for combo in itertools.combinations_with_replacement(pairs, n_edges):
            used = {x for pair in combo for x in pair}
            if len(used) == v and brauer._traverse(range(1, v + 1), combo)[0] == 1:
                yield from_multigraph(v, list(combo))


@pytest.mark.parametrize("n_edges", [1, 2, 3, 4, 5])
def test_connected_multigraphs_match_the_full_walk(n_edges):
    assert list(enumerate_connected_multigraphs(n_edges)) == list(
        _reference_connected_multigraphs(n_edges)
    )


def test_covering_walk_yields_only_covering_combinations():
    for v in range(1, 6):
        for n_edges in range(5):
            pairs = [(i, j) for i in range(1, v + 1) for j in range(i, v + 1)]
            full = [c for c in itertools.combinations_with_replacement(pairs, n_edges)
                    if {x for pair in c for x in pair} == set(range(1, v + 1))]
            assert list(brauer._covering_combinations(v, n_edges)) == full


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


# -- reference routines: the graph layer before the half-edge index -----------
# Copied from the earlier implementation (lookups by linear scan, a vertex map
# rebuilt per routine, one BFS, leaf strip and relabelling of their own) and
# compared with the index-backed routines on every small graph.


def _ref_half_vertex(g, half):
    for v in g.vertices:
        if half in v.order:
            return v
    raise KeyError(half)


def _ref_half_edge(g, half):
    for e in g.edges:
        if half in e.halves:
            return e
    raise KeyError(half)


def _ref_edge(g, edge_id):
    for e in g.edges:
        if e.id == edge_id:
            return e
    raise KeyError(edge_id)


def _ref_is_connected(g) -> bool:
    if not g.vertices:
        return False
    vertex_of = {h: v.id for v in g.vertices for h in v.order}
    adj: dict[str, set[str]] = {v.id: set() for v in g.vertices}
    for e in g.edges:
        a, b = vertex_of.get(e.halves[0]), vertex_of.get(e.halves[1])
        if a is None or b is None:
            return True  # defer to the half-edge consistency checks
        adj[a].add(b)
        adj[b].add(a)
    seen = {g.vertices[0].id}
    stack = [g.vertices[0].id]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


def _ref_is_bipartite(g: RibbonGraph) -> bool:
    color: dict[str, int] = {}
    vertex_of = {h: v.id for v in g.vertices for h in v.order}
    adj: dict[str, list[str]] = {v.id: [] for v in g.vertices}
    for e in g.edges:
        a, b = vertex_of[e.halves[0]], vertex_of[e.halves[1]]
        if a == b:
            return False  # a loop is an odd cycle
        adj[a].append(b)
        adj[b].append(a)
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def _ref_unique_cycle_length(g: RibbonGraph) -> int:
    """Length of the unique cycle of a betti-one graph (a loop counts 1)."""
    if betti_number(g) != 1:
        raise AssertionError("unique_cycle_length needs a graph with one cycle")
    vertex_of = {h: v.id for v in g.vertices for h in v.order}
    alive = {e.id for e in g.edges}
    degree = {v.id: len(v.order) for v in g.vertices}
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if e.id not in alive:
                continue
            a, b = vertex_of[e.halves[0]], vertex_of[e.halves[1]]
            if a != b and (degree[a] == 1 or degree[b] == 1):
                alive.remove(e.id)
                degree[a] -= 1
                degree[b] -= 1
                changed = True
    return len(alive)


def _ref_decide(g: RibbonGraph) -> GraphVerdict:
    b, bip = betti_number(g), _ref_is_bipartite(g)
    odd = _ref_unique_cycle_length(g) % 2 == 1 if b == 1 else None
    discrete = b == 0 or (b == 1 and odd)
    no_free_part = len(g.edges) == len(g.vertices) - (1 if bip else 0)
    assert discrete == no_free_part
    return GraphVerdict(b, bip, odd, discrete, not no_free_part)


def _ref_canonical_key(g: RibbonGraph) -> tuple:
    """Isomorphism-invariant key: minimal relabelled (rotation, pairing,
    multiplicity) encoding over all choices of root half-edge."""
    halves = sorted(h for v in g.vertices for h in v.order)
    nxt = {}
    mult = {}
    for v in g.vertices:
        k = len(v.order)
        for i, h in enumerate(v.order):
            nxt[h] = v.order[(i + 1) % k]
            mult[h] = v.multiplicity
    partner = {}
    for e in g.edges:
        a, b = e.halves
        partner[a] = b
        partner[b] = a

    best = None
    for root in halves:
        label = {root: 0}
        queue = [root]
        while queue:
            h = queue.pop(0)
            for neighbor in (nxt[h], partner[h]):
                if neighbor not in label:
                    label[neighbor] = len(label)
                    queue.append(neighbor)
        inverse = sorted(label, key=label.get)
        encoding = (
            tuple(label[nxt[h]] for h in inverse),
            tuple(label[partner[h]] for h in inverse),
            tuple(mult[h] for h in inverse),
        )
        if best is None or encoding < best:
            best = encoding
    return best


def _ref_predecessor_half(g: RibbonGraph, half: str, skip_edge: str) -> str:
    """Previous half-edge in the cyclic order, skipping halves of skip_edge."""
    v = _ref_half_vertex(g, half)
    pos = v.order.index(half)
    k = len(v.order)
    for step in range(1, k + 1):
        candidate = v.order[(pos - step) % k]
        if _ref_half_edge(g, candidate).id != skip_edge:
            return candidate
    raise ValueError(
        f"no predecessor outside edge {skip_edge!r}; graph must have >= 2 edges"
    )


def _ref_mutation_g_matrix(g: RibbonGraph, edge_id: str) -> RationalMatrix:
    e = _ref_edge(g, edge_id)
    index = {edge.id: k for k, edge in enumerate(g.edges)}
    n = len(g.edges)
    col = [0] * n
    col[index[edge_id]] = -1
    for half in e.halves:
        pred = _ref_predecessor_half(g, half, skip_edge=edge_id)
        col[index[_ref_half_edge(g, pred).id]] += 1
    rows = [
        [
            col[i] if j == index[edge_id] else (1 if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return RationalMatrix(rows)


def _ref_kauer_move(g: RibbonGraph, edge_id: str) -> RibbonGraph:
    e = _ref_edge(g, edge_id)
    moves = []
    for half in e.halves:
        pred = _ref_predecessor_half(g, half, skip_edge=edge_id)
        pred_edge = _ref_half_edge(g, pred)
        far_half = g.other_half(pred_edge, pred)
        moves.append((half, far_half))

    orders = {v.id: list(v.order) for v in g.vertices}
    for half, _ in moves:
        vid = _ref_half_vertex(g, half).id
        orders[vid].remove(half)
    for half, far_half in moves:
        for vid, order in orders.items():
            if far_half in order:
                order.insert(order.index(far_half) + 1, half)
                break
    return RibbonGraph(
        vertices=tuple(
            RibbonVertex(v.id, v.multiplicity, tuple(orders[v.id]))
            for v in g.vertices
        ),
        edges=g.edges,
    )


def _random_spec(rng: random.Random, n_edges: int, v: int, connected: bool = True):
    """Vertices and edges over v vertices with loops, multi-edges, shuffled
    cyclic orders and multiplicities 1 or 2; spanning when connected."""
    pairs = [(rng.randrange(k), k) for k in range(1, v)] if connected else []
    while len(pairs) < n_edges:
        pairs.append((rng.randrange(v), rng.randrange(v)))  # equal ends: a loop
    rng.shuffle(pairs)
    orders = [[] for _ in range(v)]
    edges = []
    for k, (a, b) in enumerate(pairs, start=1):
        orders[a].append(f"h{k}a")
        orders[b].append(f"h{k}b")
        edges.append(RibbonEdge(str(k), (f"h{k}a", f"h{k}b")))
    for order in orders:
        rng.shuffle(order)
    vertices = tuple(
        RibbonVertex(f"v{u}", rng.choice((1, 1, 2)), tuple(orders[u])) for u in range(v)
    )
    return vertices, tuple(edges)


def _reversed(g: RibbonGraph) -> RibbonGraph:
    return RibbonGraph(
        tuple(RibbonVertex(v.id, v.multiplicity, v.order[::-1]) for v in g.vertices),
        g.edges,
    )


def _reference_inputs(kind: str) -> list[RibbonGraph]:
    if kind == "ribbon-classes":
        return [g for n in range(1, 6) for g in enumerate_ribbon_structures(n)]
    if kind == "multigraphs":
        return [
            h
            for n in range(1, 5)
            for g in enumerate_connected_multigraphs(n)
            for h in (g, _reversed(g))
        ]
    rng = random.Random(711)
    graphs = []
    for _ in range(400):
        n_edges = rng.randint(1, 7)
        v = rng.randint(1, n_edges + 1)
        graphs.append(RibbonGraph(*_random_spec(rng, n_edges, v)))
    return graphs


REFERENCE_KINDS = ["ribbon-classes", "multigraphs", "random"]


@pytest.mark.parametrize("kind", REFERENCE_KINDS)
def test_verdicts_match_reference(kind):
    for g in _reference_inputs(kind):
        assert _ref_is_connected(g)
        assert is_bipartite(g) == _ref_is_bipartite(g)
        if betti_number(g) == 1:
            assert unique_cycle_length(g) == _ref_unique_cycle_length(g)
        assert decide(g) == _ref_decide(g)
        assert canonical_key(g) == _ref_canonical_key(g)


@pytest.mark.parametrize("kind", REFERENCE_KINDS)
def test_mutations_match_reference(kind):
    for g in _reference_inputs(kind):
        for eid in _nonleaf_edges(g):
            assert mutation_g_matrix(g, eid) == _ref_mutation_g_matrix(g, eid)
            moved = kauer_move(g, eid)
            assert moved == _ref_kauer_move(g, eid)
            assert canonical_key(moved) == _ref_canonical_key(moved)


def test_connectivity_matches_reference():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(500):
        n_edges = rng.randint(0, 5)
        vertices, edges = _random_spec(rng, n_edges, rng.randint(1, 5), connected=False)
        connected = _ref_is_connected(SimpleNamespace(vertices=vertices, edges=edges))
        verdicts.add(connected)
        if connected:
            RibbonGraph(vertices, edges)
        else:
            with pytest.raises(ValueError, match="^ribbon graph must be connected$"):
                RibbonGraph(vertices, edges)
    assert verdicts == {True, False}
