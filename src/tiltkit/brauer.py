"""Brauer graphs as ribbon graphs.

A ribbon graph stores, at every vertex, the cyclic order of its incident
half-edges.  This module implements the tilting-discreteness decision
procedure, mutation g-matrices, Kauer moves, and the column-sum
unreachability certificate for one-vertex and two-vertex bipartite graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .matrix import RationalMatrix


class LeafEdgeError(ValueError):
    """Mutation or Kauer move requested at a leaf edge."""


@dataclass(frozen=True)
class RibbonVertex:
    id: str
    multiplicity: int
    order: tuple[str, ...]  # cyclic order of incident half-edges

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError(f"vertex {self.id}: multiplicity must be >= 1")


@dataclass(frozen=True)
class RibbonEdge:
    id: str
    halves: tuple[str, str]


@dataclass(frozen=True)
class RibbonGraph:
    vertices: tuple[RibbonVertex, ...]
    edges: tuple[RibbonEdge, ...]

    def __post_init__(self):
        placed = [h for v in self.vertices for h in v.order]
        if len(placed) != len(set(placed)):
            raise ValueError("a half-edge appears in two cyclic orders")
        edge_halves = [h for e in self.edges for h in e.halves]
        if len(edge_halves) != len(set(edge_halves)):
            raise ValueError("a half-edge belongs to two edges")
        if set(placed) != set(edge_halves):
            raise ValueError("half-edges at vertices and on edges disagree")
        if len({v.id for v in self.vertices}) != len(self.vertices):
            raise ValueError("duplicate vertex id")
        if len({e.id for e in self.edges}) != len(self.edges):
            raise ValueError("duplicate edge id")
        if not _is_connected(self):
            raise ValueError("ribbon graph must be connected")

    # -- lookups -----------------------------------------------------------

    def half_vertex(self, half: str) -> RibbonVertex:
        for v in self.vertices:
            if half in v.order:
                return v
        raise KeyError(half)

    def half_edge(self, half: str) -> RibbonEdge:
        for e in self.edges:
            if half in e.halves:
                return e
        raise KeyError(half)

    def edge(self, edge_id: str) -> RibbonEdge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(edge_id)

    def endpoints(self, e: RibbonEdge) -> tuple[RibbonVertex, RibbonVertex]:
        return self.half_vertex(e.halves[0]), self.half_vertex(e.halves[1])

    def other_half(self, e: RibbonEdge, half: str) -> str:
        a, b = e.halves
        return b if half == a else a

    def is_leaf_edge(self, edge_id: str) -> bool:
        e = self.edge(edge_id)
        return any(len(v.order) == 1 for v in self.endpoints(e))


def _is_connected(g: RibbonGraph) -> bool:
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


# -- decision procedure -------------------------------------------------------


@dataclass(frozen=True)
class GraphVerdict:
    betti: int
    bipartite: bool
    odd_cycle_unique: bool | None  # parity of the unique cycle when betti = 1
    tilting_discrete: bool
    k0_has_free_part: bool

    def to_dict(self) -> dict:
        return {
            "betti": self.betti,
            "bipartite": self.bipartite,
            "odd_cycle_unique": self.odd_cycle_unique,
            "tilting_discrete": self.tilting_discrete,
            "k0_has_free_part": self.k0_has_free_part,
        }


def betti_number(g: RibbonGraph) -> int:
    return len(g.edges) - len(g.vertices) + 1


def is_bipartite(g: RibbonGraph) -> bool:
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


def unique_cycle_length(g: RibbonGraph) -> int:
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


# -- unreachability certificate ----------------------------------------------


@dataclass(frozen=True)
class Certificate:
    applicable: bool
    graph_class: str | None = None
    statement: str | None = None
    generator_column_sums_verified: bool = False

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "graph_class": self.graph_class,
            "statement": self.statement,
            "generator_column_sums_verified": self.generator_column_sums_verified,
        }


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
        pairs = [(i, j) for i in range(1, v + 1) for j in range(i, v + 1)]
        if n_edges < v - 1:
            continue
        for combo in itertools.combinations_with_replacement(pairs, n_edges):
            used = {x for pair in combo for x in pair}
            if len(used) != v:
                continue
            if not _edges_connected(v, combo):
                continue
            yield from_multigraph(v, list(combo))


def _edges_connected(v: int, combo) -> bool:
    parent = list(range(v + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in combo:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(u) for u in range(1, v + 1)}) == 1


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
