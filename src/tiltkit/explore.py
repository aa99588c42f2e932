"""Exploration of groups generated by mutation g-matrices.

Breadth-first enumeration of products of generator matrices, a
reachability search for the shift g-matrix with an exact column-sum
unreachability certificate, the alternating two-generator search with its
own exactness certificates, and the quadratic-form growth sequences along
alternating mutation rays.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from ._record import Record
from .linalg import _integer_rows, matrix_order
from .matrix import RationalMatrix, _frac, _integers


class FrontierNode(Record):
    matrix: RationalMatrix
    word: tuple[str, ...]  # shortest word, lexicographic tie-break
    depth: int


class Frontier(Record):
    nodes: tuple[FrontierNode, ...]
    depth: int
    edges: tuple[tuple[int, str, int], ...]  # (from node, generator, to node)


def _check_generators(generators: dict[str, RationalMatrix]) -> int:
    if not generators:
        raise ValueError("need at least one generator")
    sizes = {g.nrows for g in generators.values()} | {
        g.ncols for g in generators.values()
    }
    if len(sizes) != 1:
        raise ValueError("generators must be square matrices of one size")
    # g-matrices lie in GL_n(Z); the shift search runs on Python ints
    for name, g in generators.items():
        if not g.is_integral:
            raise ValueError(f"generator {name!r} is not an integer matrix")
    return sizes.pop()


def generate(generators: dict[str, RationalMatrix], depth: int) -> Frontier:
    """All distinct products of at most `depth` integer generators, starting
    from the identity; exact deduplication, words grown by right
    multiplication.

    A node first reached from its parent by an involution g (g g = E) has
    node g = parent, so that edge is recorded without a product.
    """
    n = _check_generators(generators)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    names = sorted(generators)
    start = RationalMatrix.identity(n)
    involutions = {
        name for name in names if generators[name] @ generators[name] == start
    }
    nodes: list[FrontierNode] = [FrontierNode(start, (), 0)]
    parents: list[int] = [0]  # node index it was first reached from
    index = {start: 0}
    edges: list[tuple[int, str, int]] = []
    layer = [0]
    for d in range(1, depth + 1):
        nxt: list[int] = []
        for i in layer:
            node = nodes[i]
            back = node.word[-1] if node.word else None
            if back not in involutions:
                back = None
            for name in names:
                if name == back:
                    edges.append((i, name, parents[i]))
                    continue
                m = node.matrix @ generators[name]
                j = index.get(m)
                if j is None:
                    j = len(nodes)
                    index[m] = j
                    nodes.append(FrontierNode(m, node.word + (name,), d))
                    parents.append(i)
                    nxt.append(j)
                edges.append((i, name, j))
        layer = nxt
        if not layer:
            break
    return Frontier(tuple(nodes), depth, tuple(edges))


class SearchResult(Record):
    # reach_shift: "found" | "not_found_within_depth" | "certified_unreachable";
    # alternating_shift_search: "reached" | "certified_never" | "not_found"
    status: str
    word: tuple[str, ...] | None = None
    target: RationalMatrix | None = None
    depth_searched: int | None = None
    reason: str = ""


def shift_targets(n: int) -> list[RationalMatrix]:
    """Matrices witnessing the shift up to algebra automorphism: the n!
    negated permutation matrices.  Searches test membership with
    :func:`is_negated_permutation`; only the 2x2 residual check of
    :func:`alternating_shift_search` walks the list."""
    return [
        RationalMatrix([[-int(p[i] == j) for j in range(n)] for i in range(n)])
        for p in itertools.permutations(range(n))
    ]


def _negated_permutation(m: tuple, n: int) -> bool:
    """Whether the flat row-major n x n entries m are a negated permutation
    matrix: n entries -1 in pairwise distinct rows and columns, all others 0."""
    if m.count(-1) != n or m.count(0) != n * n - n:
        return False
    hits = [k for k, x in enumerate(m) if x]
    return len({k // n for k in hits}) == n == len({k % n for k in hits})


def is_negated_permutation(m: RationalMatrix) -> bool:
    """Whether m is in ``shift_targets(m.nrows)``, decided in O(n^2)."""
    return m.is_square and _negated_permutation(
        tuple(x for row in m.entries for x in row), m.nrows
    )


def _rows(m: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    return [m[r : r + n] for r in range(0, n * n, n)]


def _product(rows: list[tuple[int, ...]], cols: list[tuple[int, ...]]) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, col)) for row in rows for col in cols])


def _find_shift(
    generators: dict[str, RationalMatrix], depth: int
) -> tuple[tuple[str, ...], RationalMatrix] | None:
    """The first negated permutation among the nodes of
    ``generate(generators, depth)``, in their order, as (word, matrix).

    The same breadth-first walk on flat row-major int tuples: each node keeps
    only its entries, its parent and its last generator.  Every product is
    tested before deduplication; the first hit is a new node, since an
    earlier copy would have ended the walk (the identity is no negated
    permutation).  So the last layer is tested and never stored, and no
    frontier, edge or per-node matrix is built.
    """
    n = next(iter(generators.values())).nrows
    names = sorted(generators)
    flat = {
        name: tuple(int(x) for row in generators[name].entries for x in row)
        for name in names
    }
    cols = {name: [g[j::n] for j in range(n)] for name, g in flat.items()}
    start = tuple(int(i == j) for i in range(n) for j in range(n))
    involutions = {
        name for name in names if _product(_rows(flat[name], n), cols[name]) == start
    }
    keys = [start]
    seen = {start}
    parents: list[int] = [0]
    lasts: list[str | None] = [None]
    lo = 0
    for d in range(1, depth + 1):
        hi = len(keys)
        for i in range(lo, hi):
            rows = _rows(keys[i], n)
            back = lasts[i] if lasts[i] in involutions else None
            for name in names:
                if name == back:
                    continue  # the product is the parent
                m = _product(rows, cols[name])
                if _negated_permutation(m, n):
                    word = [name]
                    while i:
                        word.append(lasts[i])
                        i = parents[i]
                    return tuple(reversed(word)), RationalMatrix(_rows(m, n))
                if d < depth and m not in seen:
                    seen.add(m)
                    keys.append(m)
                    parents.append(i)
                    lasts.append(name)
        if hi == len(keys):
            break
        lo = hi
    return None


def reach_shift(
    generators: dict[str, RationalMatrix], max_depth: int
) -> SearchResult:
    """Search for a product of integer generators equal to a negated
    permutation.

    The nodes of the breadth-first frontier of :func:`generate` are tested
    in order and the first hit is returned; the walk runs on Python ints and
    stops there.  When every generator has all column sums 1, products keep
    that property while every target has column sums -1, so the search is
    certified unreachable without enumeration.
    """
    _check_generators(generators)
    if max_depth < 0:
        raise ValueError("depth must be >= 0")
    if all(
        all(s == 1 for s in g.column_sums()) for g in generators.values()
    ):
        return SearchResult(
            status="certified_unreachable",
            reason=(
                "all generators have column sums 1, a property closed under "
                "products; every negated permutation has column sums -1"
            ),
        )
    hit = _find_shift(generators, max_depth)
    if hit is None:
        return SearchResult(status="not_found_within_depth", depth_searched=max_depth)
    word, target = hit
    return SearchResult(
        status="found", word=word, target=target, depth_searched=len(word)
    )


# the two 2x2 negated permutation matrices
_SHIFT_TARGETS_2 = tuple(shift_targets(2))


def alternating_shift_search(
    mu1: RationalMatrix, mu2: RationalMatrix, bound: int = 64
) -> SearchResult:
    """Test the alternating words mu2, mu2 mu1, mu2 mu1 mu2, ... (2x2 case)
    of length at most 2 limit + 1, in order, for a negated permutation matrix.

    With G = mu2 mu1, length 2s gives G^s and length 2s + 1 gives G^s mu2.
    The limit is read off the exact order of G:
    - finite order k: k, past which the words repeat, so a miss is certified;
    - certified infinite order: G^s (s >= 1) is never a target, which has
      order 2, and G^s mu2 = T forces G^s = T mu2^{-1} (mu2 is invertible, as
      det mu2 det mu1 = det G = +-1).  If every such residual has finite
      order or det != +-1, the limit is 1 and a miss is certified; otherwise
      it is ``bound``, at least 1;
    - det G != +-1: ``bound``.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    for m in (mu1, mu2):
        if (m.nrows, m.ncols) != (2, 2):
            raise ValueError("alternating search is implemented for 2x2 matrices")
    g = mu2 @ mu1
    order = matrix_order(g) if g.det() in (1, -1) else None
    limit, reason = bound, ""
    if order is not None and order.kind == "finite":
        limit, reason = order.order, (
            f"the alternating product has finite order {order.order}; all "
            "distinct alternating words were checked exactly"
        )
    elif order is not None:
        limit = max(bound, 1)
        residuals = [t @ mu2.inverse() for t in _SHIFT_TARGETS_2]
        if all(r.det() not in (1, -1) or matrix_order(r).kind == "finite" for r in residuals):
            limit, reason = 1, (
                "the alternating product of the two generators has "
                "infinite order (certified exactly) while every target "
                "and target residual has finite order, so no alternating "
                "word beyond the lengths already checked can match"
            )
    word = ("mu2", "mu1") * (limit + 1)
    product = RationalMatrix.identity(2)
    for length, name in enumerate(word):
        if is_negated_permutation(product):
            return SearchResult(status="reached", word=word[:length], target=product,
                                depth_searched=length)
        product = product @ (mu2 if name == "mu2" else mu1)
    if reason:
        return SearchResult(status="certified_never", reason=reason)
    return SearchResult(status="not_found", depth_searched=2 * bound + 1)


# -- quadratic growth along alternating rays ----------------------------------


def delta(c: RationalMatrix, v: Sequence) -> Fraction:
    """Value v^T C v of the symmetric form attached to C."""
    if not c.is_square:
        raise ValueError("delta requires a square matrix")
    return _form_value(*_integer_rows(c), v)


def _form_value(rows: list[list[int]], scale: int, v: Sequence) -> Fraction:
    """v^T C v for C = rows / scale on ints: u^T rows u / (scale b^2) for v = u / b."""
    if len(v) != len(rows):
        raise ValueError("vector length does not match column count")
    u, b = _integers([x if isinstance(x, int) else _frac(x) for x in v])
    return Fraction(sum(x * sum(map(mul, row, u)) for x, row in zip(u, rows)), scale * b * b)


class DeltaSequence(Record):
    vectors: tuple[tuple[int, int], ...]
    values: tuple[Fraction, ...]
    constant: bool


def delta_sequence(m: int, l: int, terms: int) -> DeltaSequence:
    """Growth of the symmetric form [[2m, l], [l, 2]] along the alternating
    mutation ray: v_t = (a_{t+1}, -a_t) with a_1 = 0, a_2 = 1 and
    a_{t+1} = l*a_t - a_{t-1}.

    For m = 1 the sequence is constant; for m >= 2 and l >= 2 it grows
    (quadratically for l = 2, exponentially for l > 2).
    """
    if terms < 1:
        raise ValueError("need at least one term")
    if m < 1 or l < 1:
        raise ValueError("parameters must be >= 1")
    rows = [[2 * m, l], [l, 2]]
    a = [0, 0, 1]  # a_0 unused; a_1 = 0, a_2 = 1
    while len(a) < terms + 2:
        a.append(l * a[-1] - a[-2])
    vectors = tuple((a[t + 1], -a[t]) for t in range(1, terms + 1))
    values = tuple(_form_value(rows, 1, v) for v in vectors)
    return DeltaSequence(vectors, values, constant=len(set(values)) == 1)
