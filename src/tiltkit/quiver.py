"""Quivers with monomial zero relations.

A quiver indexes its arrows once, at construction (by id, and out of and
into each vertex), and a presentation keeps its set of relations; every
routine here reads those.  Provides Cartan matrices counted by one
depth-first walk over a forbidden-factor automaton, gentleness validation,
the one-cycle clock condition, and the one-cycle normal forms used to
classify derived-discrete gentle algebras.  Arrows, quivers and
presentations are plain immutable records.
"""

from __future__ import annotations

from ._record import Record
from .brauer import _cycle_core, _traverse
from .matrix import RationalMatrix


class InfiniteDimensionalError(ValueError):
    """A nonzero cyclic path survives the relations."""


class Arrow(Record):
    id: str
    source: int
    target: int


class Quiver(Record):
    """Finite quiver on vertices 1..n with labelled arrows.

    Parallel arrows carry distinct ids even when they share a drawing label.
    """

    vertices: int
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        # the arrow index: by id, and out of and into each vertex in arrow order
        by_id: dict[str, Arrow] = {}
        out: dict[int, list[Arrow]] = {}
        into: dict[int, list[Arrow]] = {}
        for a in self.arrows:
            if a.id in by_id:
                raise ValueError(f"duplicate arrow id {a.id!r}")
            by_id[a.id] = a
            if not (1 <= a.source <= self.vertices and 1 <= a.target <= self.vertices):
                raise ValueError(f"arrow {a.id!r} endpoints out of range")
            out.setdefault(a.source, []).append(a)
            into.setdefault(a.target, []).append(a)
        vars(self).update(_by_id=by_id,
                          _out={v: tuple(arrows) for v, arrows in out.items()},
                          _in={v: tuple(arrows) for v, arrows in into.items()})

    def arrow(self, arrow_id: str) -> Arrow:
        return self._by_id[arrow_id]

    def arrows_out(self, v: int) -> tuple[Arrow, ...]:
        return self._out.get(v, ())

    def arrows_in(self, v: int) -> tuple[Arrow, ...]:
        return self._in.get(v, ())


class MonomialPresentation(Record):
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
            try:
                arrows = [self.quiver.arrow(x) for x in rel]
            except KeyError as exc:
                raise ValueError(
                    f"relation {rel} names an unknown arrow {exc.args[0]!r}"
                ) from None
            if any(a.target != b.source for a, b in zip(arrows, arrows[1:])):
                raise ValueError(f"relation {rel} is not composable")
        vars(self)["_relations"] = seen


def cartan_from_monomial(pres: MonomialPresentation) -> RationalMatrix:
    """Cartan matrix with C[i][j] = number of relation-free paths j -> i.

    Column j is the dimension vector of the projective at vertex j.
    Raises InfiniteDimensionalError when the algebra is infinite dimensional.

    The paths are counted by one iterative depth-first walk over the live
    states of a suffix automaton.  A state is (current vertex, longest path
    suffix that is a proper prefix of some relation); extending by an arrow
    is dead exactly when some suffix of the extended word is a relation.
    A state's counts (its nonzero paths, by end vertex) are summed in
    post-order.  Every state is reachable from a trivial path, so reaching a
    state that is still open closes a cycle of live states, which witnesses
    infinitely many nonzero paths.
    """
    q, relations, n = pres.quiver, pres._relations, pres.quiver.vertices
    prefixes = {()} | {rel[:k] for rel in relations for k in range(1, len(rel))}
    counts: dict[tuple, list[int] | None] = {}  # None while a state is open
    for root in ((v, ()) for v in range(1, n + 1)):
        if root in counts:
            continue
        counts[root] = None
        # (state, its arrows not yet tried, its live successors so far)
        stack = [(root, iter(q.arrows_out(root[0])), [])]
        while stack:
            state, arrows, succ = stack[-1]
            for arrow in arrows:
                word = state[1] + (arrow.id,)
                if any(word[k:] in relations for k in range(len(word))):
                    continue
                suffix = next(word[k:] for k in range(len(word) + 1) if word[k:] in prefixes)
                nxt = (arrow.target, suffix)
                succ.append(nxt)
                if nxt not in counts:
                    counts[nxt] = None
                    stack.append((nxt, iter(q.arrows_out(arrow.target)), []))
                    break
                if counts[nxt] is None:
                    raise InfiniteDimensionalError(
                        "a nonzero cyclic path survives the relations"
                    )
            else:
                stack.pop()
                total = [0] * n
                total[state[0] - 1] = 1
                for s in succ:
                    total = [x + y for x, y in zip(total, counts[s])]
                counts[state] = total
    # column j holds the counts of the trivial path at j
    return RationalMatrix(zip(*(counts[(j, ())] for j in range(1, n + 1))))


# -- gentle presentations ---------------------------------------------------


class GentlePresentation(Record):
    presentation: MonomialPresentation


def gentleness_violations(pres: MonomialPresentation) -> list[str]:
    q, relations = pres.quiver, pres._relations
    violations: list[str] = []
    for v in range(1, q.vertices + 1):
        if len(q.arrows_in(v)) > 2:
            violations.append(f"vertex {v} has more than two in-arrows")
        if len(q.arrows_out(v)) > 2:
            violations.append(f"vertex {v} has more than two out-arrows")
    for rel in pres.zero_relations:
        if len(rel) != 2:
            violations.append(f"relation {rel} has length != 2")
    for b in q.arrows:
        for side, pairs in (
            ("successors", [(b.id, c.id) for c in q.arrows_out(b.target)]),
            ("predecessors", [(a.id, b.id) for a in q.arrows_in(b.source)]),
        ):
            killed = sum(pair in relations for pair in pairs)
            if killed > 1:
                violations.append(f"arrow {b.id} has two relation {side}")
            if len(pairs) - killed > 1:
                violations.append(f"arrow {b.id} has two nonzero {side}")
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

    For a unique undirected cycle, one closed walk along it records whether
    it passes each cycle arrow forwards.  A relation xy with both arrows on
    the cycle is clockwise when the walk passes x forwards (and then y), and
    counterclockwise otherwise; equal counts mean the clock condition holds.
    """
    q = g.presentation.quiver
    pairs = [(a.source, a.target) for a in q.arrows]
    betti = len(q.arrows) - q.vertices + _traverse(range(1, q.vertices + 1), pairs)[0]
    if betti == 0:
        return TREE
    if betti > 1:
        return MULTI_CYCLE

    core = sorted((q.arrows[k] for k in _cycle_core(pairs)), key=lambda a: a.id)
    forward = {core[0].id: True}  # arrow id -> passed source->target
    current = core[0].target
    while len(forward) < len(core):
        a = next((a for a in core if a.id not in forward and current in (a.source, a.target)),
                 None)
        if a is None:
            raise AssertionError("betti-one core is a single closed walk")
        forward[a.id] = a.source == current
        current = a.target if forward[a.id] else a.source

    clockwise = [
        forward[rel[0]]
        for rel in g.presentation._relations
        if len(rel) == 2 and rel[0] in forward and rel[1] in forward
    ]
    # as many clockwise (True) as counterclockwise (False) relations
    return ONE_CYCLE_CLOCK if 2 * sum(clockwise) == len(clockwise) else ONE_CYCLE_NONCLOCK


def count_oriented_3cycles_with_full_relations(g: GentlePresentation) -> int:
    """Oriented 3-cycles through three distinct vertices all of whose
    consecutive compositions vanish."""
    q, relations = g.presentation.quiver, g.presentation._relations
    # each such cycle is found once from each of its three arrows
    return sum(
        c.target == a.source
        and len({a.source, b.source, c.source}) == 3
        and {(a.id, b.id), (b.id, c.id), (c.id, a.id)} <= relations
        for a in q.arrows
        for b in q.arrows_out(a.target)
        for c in q.arrows_out(b.target)
    ) // 3


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
