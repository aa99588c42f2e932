"""Brauer graphs as ribbon graphs.

A ribbon graph stores, at every vertex, the cyclic order of its incident
half-edges.  Building a graph indexes every half-edge once (its vertex, its
edge, its partner and the next half in its cyclic order); every routine
here reads that index.  Connectivity, bipartiteness and the cycle core are
read off the underlying multigraph by two helpers on vertex pairs, which
``quiver`` shares.  This module implements the tilting-discreteness
decision procedure, mutation g-matrices, Kauer moves, and the column-sum
unreachability certificate for one-vertex and two-vertex bipartite graphs.
Graphs, verdicts and certificates are plain immutable records.
"""

from __future__ import annotations

from collections import Counter

from ._record import Record
from .matrix import RationalMatrix


class LeafEdgeError(ValueError):
    """Mutation or Kauer move requested at a leaf edge."""


class RibbonVertex(Record):
    id: str
    multiplicity: int
    order: tuple[str, ...]  # cyclic order of incident half-edges

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError(f"vertex {self.id}: multiplicity must be >= 1")


class RibbonEdge(Record):
    id: str
    halves: tuple[str, str]


class RibbonGraph(Record):
    vertices: tuple[RibbonVertex, ...]
    edges: tuple[RibbonEdge, ...]

    def __post_init__(self):
        # the half-edge index: vertex, next half in the cyclic order, edge
        # and partner of every half; vertex-id pairs of the edges
        vertex_of, nxt = {}, {}
        for v in self.vertices:
            for h, after in zip(v.order, v.order[1:] + v.order[:1]):
                if h in vertex_of:
                    raise ValueError("a half-edge appears in two cyclic orders")
                vertex_of[h], nxt[h] = v, after
        edge_of, partner = {}, {}
        for e in self.edges:
            for h, other in (e.halves, e.halves[::-1]):
                if h in edge_of:
                    raise ValueError("a half-edge belongs to two edges")
                edge_of[h], partner[h] = e, other
        if vertex_of.keys() != edge_of.keys():
            raise ValueError("half-edges at vertices and on edges disagree")
        if len({v.id for v in self.vertices}) != len(self.vertices):
            raise ValueError("duplicate vertex id")
        edge_by_id = {e.id: e for e in self.edges}
        if len(edge_by_id) != len(self.edges):
            raise ValueError("duplicate edge id")
        pairs = [(vertex_of[a].id, vertex_of[b].id) for a, b in (e.halves for e in self.edges)]
        if _traverse([v.id for v in self.vertices], pairs)[0] != 1:
            raise ValueError("ribbon graph must be connected")
        vars(self).update(_vertex_of=vertex_of, _next=nxt, _edge_of=edge_of,
                          _partner=partner, _edge_by_id=edge_by_id, _pairs=pairs)

    # -- lookups -----------------------------------------------------------

    def half_vertex(self, half: str) -> RibbonVertex:
        return self._vertex_of[half]

    def half_edge(self, half: str) -> RibbonEdge:
        return self._edge_of[half]

    def edge(self, edge_id: str) -> RibbonEdge:
        return self._edge_by_id[edge_id]

    def endpoints(self, e: RibbonEdge) -> tuple[RibbonVertex, RibbonVertex]:
        return self.half_vertex(e.halves[0]), self.half_vertex(e.halves[1])

    def other_half(self, e: RibbonEdge, half: str) -> str:
        a, b = e.halves
        return b if half == a else a

    def is_leaf_edge(self, edge_id: str) -> bool:
        e = self.edge(edge_id)
        return any(len(v.order) == 1 for v in self.endpoints(e))


# -- the underlying multigraph ------------------------------------------------


def _traverse(vertices, pairs) -> tuple[int, bool]:
    """Component count of the multigraph with one edge per vertex pair, and
    whether it is bipartite (a loop is an odd cycle)."""
    adj = {u: [] for u in vertices}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    color: dict = {}
    components, bipartite = 0, True
    for start in adj:
        if start in color:
            continue
        components += 1
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    bipartite = False
    return components, bipartite


def _cycle_core(pairs) -> list[int]:
    """Positions of the pairs left after stripping, until none is left, every
    edge at a vertex of degree one (a loop adds two to the degree of its
    vertex, so it stays): the cycle of a betti-one graph."""
    degree = Counter(x for pair in pairs for x in pair)
    core = dict(enumerate(pairs))
    stripped = True
    while stripped:
        stripped = False
        for k, (a, b) in list(core.items()):
            if 1 in (degree[a], degree[b]):
                del core[k]
                degree[a] -= 1
                degree[b] -= 1
                stripped = True
    return list(core)


# -- decision procedure -------------------------------------------------------


class GraphVerdict(Record):
    betti: int
    bipartite: bool
    odd_cycle_unique: bool | None  # parity of the unique cycle when betti = 1
    tilting_discrete: bool
    k0_has_free_part: bool


def betti_number(g: RibbonGraph) -> int:
    return len(g.edges) - len(g.vertices) + 1


def is_bipartite(g: RibbonGraph) -> bool:
    return _traverse([v.id for v in g.vertices], g._pairs)[1]


def unique_cycle_length(g: RibbonGraph) -> int:
    """Length of the unique cycle of a betti-one graph (a loop counts 1)."""
    if betti_number(g) != 1:
        raise AssertionError("unique_cycle_length needs a graph with one cycle")
    return len(_cycle_core(g._pairs))


def cycle_criterion(g: RibbonGraph) -> bool:
    """Tilting-discreteness read off the cycle structure: no cycle at all,
    or exactly one cycle of odd length."""
    b = betti_number(g)
    if b == 0:
        return True
    if b > 1:
        return False
    return unique_cycle_length(g) % 2 == 1


def k0_criterion(g: RibbonGraph) -> bool:
    """Independent criterion: the stable Grothendieck group has no free part
    iff n = v - 1 for bipartite graphs and n = v otherwise."""
    n, v = len(g.edges), len(g.vertices)
    if is_bipartite(g):
        return n == v - 1
    return n == v


def decide(g: RibbonGraph) -> GraphVerdict:
    b = betti_number(g)
    bip = is_bipartite(g)
    odd = unique_cycle_length(g) % 2 == 1 if b == 1 else None
    discrete = cycle_criterion(g)
    no_free_part = k0_criterion(g)
    if discrete != no_free_part:
        raise AssertionError("cycle and K0 criteria must agree")
    return GraphVerdict(
        betti=b,
        bipartite=bip,
        odd_cycle_unique=odd,
        tilting_discrete=discrete,
        k0_has_free_part=not no_free_part,
    )


# -- mutation -----------------------------------------------------------------


def _predecessor_half(g: RibbonGraph, half: str, skip_edge: str) -> str:
    """Previous half-edge in the cyclic order, skipping halves of skip_edge."""
    v = g.half_vertex(half)
    pos = v.order.index(half)
    k = len(v.order)
    for step in range(1, k + 1):
        candidate = v.order[(pos - step) % k]
        if g.half_edge(candidate).id != skip_edge:
            return candidate
    raise ValueError(
        f"no predecessor outside edge {skip_edge!r}; graph must have >= 2 edges"
    )


def _check_mutable(g: RibbonGraph, edge_id: str) -> RibbonEdge:
    e = g.edge(edge_id)
    if g.is_leaf_edge(edge_id):
        raise LeafEdgeError(f"edge {edge_id!r} is a leaf")
    if len(g.edges) < 2:
        raise LeafEdgeError("mutation needs at least two edges")
    return e


def mutation_g_matrix(g: RibbonGraph, edge_id: str) -> RationalMatrix:
    """g-matrix of the irreducible tilting mutation at a nonleaf edge.

    Identity outside column i; column i is -e_i + e_j + e_k where j and k
    own the half-edges cyclically preceding the two halves of i (possibly
    j = k).  Columns are indexed by the edge order of the graph.
    """
    e = _check_mutable(g, edge_id)
    index = {edge.id: k for k, edge in enumerate(g.edges)}
    n = len(g.edges)
    col = [0] * n
    col[index[edge_id]] = -1
    for half in e.halves:
        pred = _predecessor_half(g, half, skip_edge=edge_id)
        col[index[g.half_edge(pred).id]] += 1
    rows = [
        [
            col[i] if j == index[edge_id] else (1 if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return RationalMatrix(rows)


def kauer_move(g: RibbonGraph, edge_id: str) -> RibbonGraph:
    """Brauer graph mutation matching the tilting mutation at the edge.

    Each half of the edge detaches and re-attaches at the far endpoint of
    its predecessor edge, inserted right after the predecessor's far half.
    """
    e = _check_mutable(g, edge_id)
    moves = []
    for half in e.halves:
        pred = _predecessor_half(g, half, skip_edge=edge_id)
        pred_edge = g.half_edge(pred)
        far_half = g.other_half(pred_edge, pred)
        moves.append((half, far_half))

    orders = {v.id: list(v.order) for v in g.vertices}
    for half, _ in moves:
        vid = g.half_vertex(half).id
        orders[vid].remove(half)
    for half, far_half in moves:
        order = orders[g.half_vertex(far_half).id]
        order.insert(order.index(far_half) + 1, half)
    return RibbonGraph(
        vertices=tuple(
            RibbonVertex(v.id, v.multiplicity, tuple(orders[v.id]))
            for v in g.vertices
        ),
        edges=g.edges,
    )


# -- unreachability certificate ----------------------------------------------


class Certificate(Record):
    applicable: bool
    graph_class: str | None = None
    statement: str | None = None
    generator_column_sums_verified: bool = False


_CERTIFICATE_STATEMENT = (
    "every irreducible mutation g-matrix of this graph has all column sums "
    "equal to 1; matrices with all column sums 1 are closed under products; "
    "the g-matrix of the shift has all column sums -1, so no product of "
    "mutation g-matrices reaches it"
)


def disconnectedness_certificate(g: RibbonGraph) -> Certificate:
    """Shift-unreachability certificate for leafless one-vertex graphs and
    leafless two-vertex bipartite graphs; not applicable otherwise."""
    if any(g.is_leaf_edge(e.id) for e in g.edges):
        return Certificate(applicable=False)
    n, v = len(g.edges), len(g.vertices)
    if v == 1 and n >= 2:
        cls = "one_vertex"
    elif v == 2 and n >= 2 and is_bipartite(g):
        cls = "two_vertex_bipartite"
    else:
        return Certificate(applicable=False)
    verified = all(
        all(s == 1 for s in mutation_g_matrix(g, e.id).column_sums())
        for e in g.edges
    )
    if not verified:
        raise AssertionError("column-sum certificate failed its own soundness check")
    return Certificate(
        applicable=True,
        graph_class=cls,
        statement=_CERTIFICATE_STATEMENT,
        generator_column_sums_verified=True,
    )


# -- canonical form and enumeration --------------------------------------------


def canonical_key(g: RibbonGraph) -> tuple:
    """Isomorphism-invariant key: minimal relabelled (rotation, pairing,
    multiplicity) encoding over all choices of root half-edge."""
    nxt, partner, vertex_of = g._next, g._partner, g._vertex_of
    best = None
    for root in nxt:
        label, queue = {root: 0}, [root]
        for h in queue:  # breadth first: the queue grows while it is read
            for neighbor in (nxt[h], partner[h]):
                if neighbor not in label:
                    label[neighbor] = len(label)
                    queue.append(neighbor)
        encoding = (
            tuple(label[nxt[h]] for h in queue),
            tuple(label[partner[h]] for h in queue),
            tuple(vertex_of[h].multiplicity for h in queue),
        )
        if best is None or encoding < best:
            best = encoding
    return best


def is_isomorphic(a: RibbonGraph, b: RibbonGraph) -> bool:
    return canonical_key(a) == canonical_key(b)


def from_multigraph(
    v: int, edge_list: list[tuple[int, int]], multiplicities: dict[int, int] | None = None
) -> RibbonGraph:
    """Ribbon graph over a labelled multigraph with sorted cyclic orders."""
    halves_at: dict[int, list[str]] = {u: [] for u in range(1, v + 1)}
    edges = []
    for k, (a, b) in enumerate(edge_list, start=1):
        h1, h2 = f"h{k}a", f"h{k}b"
        halves_at[a].append(h1)
        halves_at[b].append(h2)
        edges.append(RibbonEdge(str(k), (h1, h2)))
    mult = multiplicities or {}
    vertices = tuple(
        RibbonVertex(f"v{u}", mult.get(u, 1), tuple(halves_at[u]))
        for u in range(1, v + 1)
    )
    return RibbonGraph(vertices, tuple(edges))


def enumerate_connected_multigraphs(n_edges: int):
    """All connected labelled multigraphs with exactly n_edges edges,
    realized as ribbon graphs with sorted cyclic orders.

    The enumeration is exhaustive on underlying multigraphs; every
    isomorphism class appears (with labelled repetitions).
    """
    for v in range(1, n_edges + 2):
        for combo in _covering_combinations(v, n_edges):
            if _traverse(range(1, v + 1), combo)[0] == 1:
                yield from_multigraph(v, list(combo))


def _covering_combinations(v: int, n_edges: int):
    """The n_edges-combinations with repetition of the pairs i <= j of 1..v
    that touch every vertex, in ``itertools.combinations_with_replacement``
    order.  Slots take non-decreasing pairs, so a branch dies once its next
    pair (i, .) passes an untouched vertex below i, or when more vertices
    are untouched than two per slot left."""
    pairs = [(i, j) for i in range(1, v + 1) for j in range(i, v + 1)]

    def walk(start: int, combo: tuple, untouched: frozenset):
        if len(combo) == n_edges:
            if not untouched:
                yield combo
            return
        for k in range(start, len(pairs)):
            if untouched and min(untouched) < pairs[k][0]:
                return
            rest = untouched.difference(pairs[k])
            if len(rest) <= 2 * (n_edges - len(combo) - 1):
                yield from walk(k, combo + (pairs[k],), rest)

    return walk(0, (), frozenset(range(1, v + 1)))


def enumerate_ribbon_structures(n_edges: int):
    """All connected ribbon graphs with n_edges edges, one per isomorphism
    class, by orderly generation (Read 1978; McKay 1998).

    Darts 0..2n-1 are paired d <-> d ^ 1.  Position k of the rotation takes
    a labelled dart that is not yet an image, or the fresh even label (its
    partner takes the next odd one); a branch dies when position k is still
    unlabelled (disconnected).  That reaches every connected rooted map once,
    in its greedy form from root 0; keeping those that no other root
    relabels to a smaller rotation yields each class once, as its
    lexicographically least rotation, in lex order.  Vertex v{i} is the
    i-th rotation cycle by least dart; edge k + 1 joins d{2k} and d{2k + 1}.
    """
    size = 2 * n_edges
    rotation, is_image = [0] * size, [False] * size
    edges = tuple(RibbonEdge(str(k + 1), (f"d{2 * k}", f"d{2 * k + 1}"))
                  for k in range(n_edges))

    def extend(k: int, fresh: int):
        if 0 < k == size and _is_lex_min_rooting(rotation):
            vertices, placed = [], set()
            for d in range(size):
                cycle = []
                while d not in placed:
                    placed.add(d)
                    cycle.append(f"d{d}")
                    d = rotation[d]
                if cycle:
                    vertices.append(RibbonVertex(f"v{len(vertices)}", 1, tuple(cycle)))
            yield RibbonGraph(tuple(vertices), edges)
        # k == fresh: darts 0..k-1 are closed under rotation and pairing
        for d in range(min(fresh + 1, size) if k < fresh else 0):
            if not is_image[d]:
                rotation[k], is_image[d] = d, True
                yield from extend(k + 1, fresh + 2 if d == fresh else fresh)
                is_image[d] = False

    yield from extend(0, 2)


def _is_lex_min_rooting(rotation: list[int]) -> bool:
    """No root's greedy relabelling is lexicographically smaller than the
    rotation, which is its own greedy form from root 0."""
    for root in range(1, len(rotation)):
        label = {root: 0, root ^ 1: 1}
        order = [root, root ^ 1]
        for k, value in enumerate(rotation):
            image = rotation[order[k]]
            if image not in label:
                label[image], label[image ^ 1] = len(order), len(order) + 1
                order += (image, image ^ 1)
            if label[image] != value:
                if label[image] < value:
                    return False
                break
    return True
