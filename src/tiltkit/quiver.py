"""Quivers with monomial zero relations.

Provides path-counted Cartan matrices (via a forbidden-factor automaton),
gentleness validation, the one-cycle clock condition, and the one-cycle
normal forms used to classify derived-discrete gentle algebras.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brauer import _cycle_core, _traverse
from .matrix import RationalMatrix


class InfiniteDimensionalError(ValueError):
    """A nonzero cyclic path survives the relations."""


@dataclass(frozen=True)
class Arrow:
    id: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    """Finite quiver on vertices 1..n with labelled arrows.

    Parallel arrows carry distinct ids even when they share a drawing label.
    """

    vertices: int
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        seen = set()
        for a in self.arrows:
            if a.id in seen:
                raise ValueError(f"duplicate arrow id {a.id!r}")
            seen.add(a.id)
            if not (1 <= a.source <= self.vertices and 1 <= a.target <= self.vertices):
                raise ValueError(f"arrow {a.id!r} endpoints out of range")

    def arrow(self, arrow_id: str) -> Arrow:
        for a in self.arrows:
            if a.id == arrow_id:
                return a
        raise KeyError(arrow_id)

    def arrows_out(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.source == v]

    def arrows_in(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.target == v]


@dataclass(frozen=True)
class MonomialPresentation:
    """Quiver plus zero relations, each a composable arrow path of length >= 2.

    Relation paths are written left to right: ``("x", "y")`` kills the path
    that traverses ``x`` and then ``y``.
    """

    quiver: Quiver
    zero_relations: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        seen = set()
        for rel in self.zero_relations:
            if len(rel) < 2:
                raise ValueError(f"relation {rel} shorter than 2 arrows")
            if rel in seen:
                raise ValueError(f"duplicate relation {rel}")
            seen.add(rel)
            for first, second in zip(rel, rel[1:]):
                a, b = self.quiver.arrow(first), self.quiver.arrow(second)
                if a.target != b.source:
                    raise ValueError(f"relation {rel} is not composable")


def _automaton(pres: MonomialPresentation):
    """Deterministic suffix automaton over nonzero paths.

    A state is (current vertex, longest path suffix that is a proper prefix
    of some relation).  Extending by an arrow is dead exactly when some
    suffix of the extended word is a relation.
    """
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
            # longest suffix of word that is a proper prefix of a relation
        for k in range(len(word) + 1):
            if word[k:] in prefixes:
                return (arrow.target, word[k:])
        raise AssertionError("empty suffix is always a prefix")

    return step


def _reachable_states(pres: MonomialPresentation) -> dict:
    """Transitions (arrow id, next state) of every live automaton state."""
    step = _automaton(pres)
    q = pres.quiver
    edges: dict[tuple, list[tuple[str, tuple]]] = {
        (v, ()): [] for v in range(1, q.vertices + 1)
    }
    stack = list(edges)
    while stack:
        state = stack.pop()
        for arrow in q.arrows_out(state[0]):
            nxt = step(state, arrow)
            if nxt is None:
                continue
            edges[state].append((arrow.id, nxt))
            if nxt not in edges:
                edges[nxt] = []
                stack.append(nxt)
    return edges


def _topological_order(edges) -> list:
    """Live states in topological order (Kahn's algorithm), iteratively.

    Every state is reachable from a trivial path, so a state left over on a
    directed cycle witnesses infinitely many nonzero paths.
    """
    indegree = dict.fromkeys(edges, 0)
    for out in edges.values():
        for _, t in out:
            indegree[t] += 1
    order = [s for s, d in indegree.items() if d == 0]
    for s in order:  # the list grows while it is scanned
        for _, t in edges[s]:
            indegree[t] -= 1
            if indegree[t] == 0:
                order.append(t)
    if len(order) != len(edges):
        raise InfiniteDimensionalError("a nonzero cyclic path survives the relations")
    return order


def cartan_from_monomial(pres: MonomialPresentation) -> RationalMatrix:
    """Cartan matrix with C[i][j] = number of relation-free paths j -> i.

    Column j is the dimension vector of the projective at vertex j.
    Raises InfiniteDimensionalError when the algebra is infinite dimensional.
    """
    edges = _reachable_states(pres)
    n = pres.quiver.vertices
    # number of nonzero paths from each state ending at each vertex, filled
    # in reverse topological order so successors are always done first
    counts: dict[tuple, list[int]] = {}
    for state in reversed(_topological_order(edges)):
        out = [0] * n
        out[state[0] - 1] += 1
        for _, nxt in edges[state]:
            for i, c in enumerate(counts[nxt]):
                out[i] += c
        counts[state] = out
    cols = [counts[(j, ())] for j in range(1, n + 1)]
    return RationalMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


# -- gentle presentations ---------------------------------------------------


@dataclass(frozen=True)
class GentlePresentation:
    presentation: MonomialPresentation


def gentleness_violations(pres: MonomialPresentation) -> list[str]:
    q = pres.quiver
    violations: list[str] = []
    for v in range(1, q.vertices + 1):
        if len(q.arrows_in(v)) > 2:
            violations.append(f"vertex {v} has more than two in-arrows")
        if len(q.arrows_out(v)) > 2:
            violations.append(f"vertex {v} has more than two out-arrows")
    relations = set(pres.zero_relations)
    for rel in relations:
        if len(rel) != 2:
            violations.append(f"relation {rel} has length != 2")
    pairs = {rel for rel in relations if len(rel) == 2}
    for b in q.arrows:
        followers = [c for c in q.arrows_out(b.target)]
        rel_next = [c for c in followers if (b.id, c.id) in pairs]
        free_next = [c for c in followers if (b.id, c.id) not in pairs]
        if len(rel_next) > 1:
            violations.append(f"arrow {b.id} has two relation successors")
        if len(free_next) > 1:
            violations.append(f"arrow {b.id} has two nonzero successors")
        preceders = [a for a in q.arrows_in(b.source)]
        rel_prev = [a for a in preceders if (a.id, b.id) in pairs]
        free_prev = [a for a in preceders if (a.id, b.id) not in pairs]
        if len(rel_prev) > 1:
            violations.append(f"arrow {b.id} has two relation predecessors")
        if len(free_prev) > 1:
            violations.append(f"arrow {b.id} has two nonzero predecessors")
    return violations


def validate_gentle(
    pres: MonomialPresentation,
) -> GentlePresentation | list[str]:
    """A certified gentle presentation, or the list of violated axioms."""
    violations = gentleness_violations(pres)
    if violations:
        return violations
    return GentlePresentation(pres)


TREE = "tree"
ONE_CYCLE_CLOCK = "one_cycle_clock"
ONE_CYCLE_NONCLOCK = "one_cycle_nonclock"
MULTI_CYCLE = "multi_cycle"


def clock_condition(g: GentlePresentation) -> str:
    """Cycle shape of a gentle presentation.

    For a unique undirected cycle, relations lying on the cycle are counted
    by the direction of their composition along a fixed traversal; equal
    counts mean the clock condition holds.
    """
    q = g.presentation.quiver
    pairs = [(a.source, a.target) for a in q.arrows]
    betti = len(q.arrows) - q.vertices + _traverse(range(1, q.vertices + 1), pairs)[0]
    if betti == 0:
        return TREE
    if betti > 1:
        return MULTI_CYCLE

    cycle_arrows = sorted((q.arrows[k] for k in _cycle_core(pairs)), key=lambda a: a.id)
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


def count_oriented_3cycles_with_full_relations(g: GentlePresentation) -> int:
    """Oriented 3-cycles all of whose consecutive compositions vanish."""
    q = g.presentation.quiver
    relations = set(g.presentation.zero_relations)
    found = set()
    for a in q.arrows:
        for b in q.arrows_out(a.target):
            for c in q.arrows_out(b.target):
                if c.target != a.source:
                    continue
                if (
                    (a.id, b.id) in relations
                    and (b.id, c.id) in relations
                    and (c.id, a.id) in relations
                ):
                    key = min(
                        (a.id, b.id, c.id),
                        (b.id, c.id, a.id),
                        (c.id, a.id, b.id),
                    )
                    found.add(key)
    return len(found)


def bgs_normal_form(n: int, r: int, m: int) -> MonomialPresentation:
    """One-cycle-with-tail normal form of a derived-discrete gentle algebra.

    Vertices 1..n form an oriented cycle c1: 1->2, ..., cn: n->1 with the r
    consecutive compositions ending at vertices n-r+2, ..., n, 1 set to zero;
    a tail of m extra vertices feeds into vertex 1.
    """
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    if m < 0:
        raise ValueError("need m >= 0")
    arrows = []
    if n == 1:
        arrows.append(Arrow("c1", 1, 1))
    else:
        for i in range(1, n):
            arrows.append(Arrow(f"c{i}", i, i + 1))
        arrows.append(Arrow(f"c{n}", n, 1))
    for t in range(1, m + 1):
        # tail vertex n+t maps towards the cycle; chain ends at vertex 1
        arrows.append(Arrow(f"t{t}", n + t, n + t - 1 if t > 1 else 1))
    relations = []
    for j in range(n - r + 1, n + 1):
        nxt = j % n + 1
        relations.append((f"c{j}", f"c{nxt}"))
    quiver = Quiver(n + m, tuple(arrows))
    return MonomialPresentation(quiver, tuple(relations))
