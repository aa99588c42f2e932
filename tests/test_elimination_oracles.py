"""The exact elimination kernels and the power-sequence spectral routines
against sympy and against the Fraction elimination loops they replaced.

`row_reduce` (behind det, inverse, solve and min_poly) and `ldl` (behind
definiteness and lattice.solutions) are checked on random integer and
rational square matrices up to 6x6, about half of them singular or of
lower rank.  Both integer kernels are also compared with the Fraction
loops they replaced (kept below as the reference), on augmented, non-square,
rank-deficient and sparse inputs and on coprime denominators up to 10^6.
`char_poly` (Newton's identities on the memoised powers) and its sharing of
those powers with `min_poly` are checked up to 8x8, nilpotent matrices
included.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltkit.linalg import char_poly, ldl, min_poly
from tiltkit.matrix import RationalMatrix, SingularMatrixError, row_reduce, solve
from tiltkit.poly import Polynomial

sympy = pytest.importorskip("sympy")

INTEGER = st.integers(min_value=-6, max_value=6).map(Fraction)
RATIONAL = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _scalar(n: int, c=0) -> RationalMatrix:
    """c times the n x n identity (the zero matrix by default)."""
    return RationalMatrix([[c if i == j else 0 for j in range(n)] for i in range(n)])


def _product(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


@st.composite
def square_matrices(draw, max_n=6):
    """A square matrix of rank at most a drawn bound: full-size random
    entries, or a product (n x r)(r x n) with r < n."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = draw(st.sampled_from([INTEGER, RATIONAL]))
    rank = draw(st.one_of(st.just(n), st.integers(min_value=0, max_value=n - 1)))

    def block(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    if rank == n:
        return RationalMatrix(block(n, n))
    if rank == 0:
        return _scalar(n)
    return RationalMatrix(_product(block(n, rank), block(rank, n)))


@st.composite
def nilpotent_matrices(draw, max_n=8):
    """P N P^-1 with N strictly upper triangular and P a product of a lower
    and an upper unitriangular integer matrix (det P = 1)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = draw(st.sampled_from([INTEGER, RATIONAL]))
    small = st.integers(min_value=-2, max_value=2)
    nil = [[draw(entry) if j > i else 0 for j in range(n)] for i in range(n)]
    lower = [[draw(small) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[draw(small) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    p = RationalMatrix(lower) @ RationalMatrix(upper)
    return p @ RationalMatrix(nil) @ p.inverse()


SPECTRAL_MATRICES = st.one_of(square_matrices(max_n=8), nilpotent_matrices())


def _sym(rows) -> "sympy.Matrix":
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


def _frac(r) -> Fraction:
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_det_matches_sympy(m):
    assert m.det() == _frac(_sym(m.entries).det())


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_inverse_matches_sympy(m):
    s = _sym(m.entries)
    if s.det() == 0:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    assert m.inverse() == RationalMatrix(
        [[_frac(x) for x in row] for row in s.inv().tolist()]
    )


@settings(max_examples=150, deadline=None)
@given(
    square_matrices().flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.one_of(
                # a consistent right-hand side, or an arbitrary one
                st.lists(INTEGER, min_size=m.ncols, max_size=m.ncols).map(m.vec_mul),
                st.lists(RATIONAL, min_size=m.nrows, max_size=m.nrows),
            ),
        )
    )
)
def test_solve_matches_sympy_rank(mb):
    m, b = mb
    s = _sym(m.entries)
    inconsistent = s.row_join(_sym([[x] for x in b])).rank() > s.rank()
    x = solve(m, b)
    assert (x is None) == inconsistent
    if x is not None:
        assert m.vec_mul(x) == tuple(b)


def _evaluate_at_matrix(p, m):
    """p(M) by Horner's rule."""
    acc = _scalar(m.nrows)
    for c in reversed(p.coeffs):
        acc = acc @ m + _scalar(m.nrows, c)
    return acc


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_min_poly_matches_sympy_krylov_rank(m):
    p, diagonalizable = min_poly(m)
    assert p.is_monic
    assert _evaluate_at_matrix(p, m) == _scalar(m.nrows)
    assert p.divides(char_poly(m))
    assert diagonalizable == p.is_squarefree
    n = m.nrows
    power, columns = RationalMatrix.identity(n), []
    for _ in range(n + 1):
        columns.append([x for row in power.entries for x in row])
        power = m @ power
    assert p.degree == _sym(zip(*columns)).rank()


@settings(max_examples=150, deadline=None)
@given(SPECTRAL_MATRICES)
def test_char_poly_matches_sympy(m):
    expected = _sym(m.entries).charpoly(sympy.Symbol("x")).all_coeffs()
    assert char_poly(m) == Polynomial([_frac(c) for c in reversed(expected)])


@settings(max_examples=80, deadline=None)
@given(SPECTRAL_MATRICES, st.booleans())
def test_char_poly_and_min_poly_share_powers_in_either_order(m, char_first):
    # the second routine reads the powers the first one memoised on m
    if char_first:
        p = char_poly(m)
        q, diagonalizable = min_poly(m)
    else:
        q, diagonalizable = min_poly(m)
        p = char_poly(m)
    assert p == char_poly(RationalMatrix(m.entries))
    assert (q, diagonalizable) == min_poly(RationalMatrix(m.entries))
    assert q.divides(p)


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_ldl_rebuilds_positive_definite_forms(b):
    # B^T B + E is positive definite for every square B
    n = b.nrows
    c = b.T @ b + RationalMatrix.identity(n)
    d, lower, blocked = ldl(c)
    assert not blocked and all(x > 0 for x in d)
    assert all(lower[i][i] == 1 for i in range(n))
    assert all(lower[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    diag = RationalMatrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
    lmat = RationalMatrix(lower)
    assert lmat @ diag @ lmat.T == c


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_ldl_rebuilds_unblocked_symmetric_forms(m):
    # with diagonal pivoting L is a row-permuted unit lower triangular matrix
    c = m + m.T
    n = c.nrows
    d, lower, blocked = ldl(c)
    if blocked:
        return
    diag = RationalMatrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
    lmat = RationalMatrix(lower)
    assert lmat @ diag @ lmat.T == c


# -- the integer kernels against the Fraction loops they replaced ---------------


def _reference_row_reduce(rows: list[list[Fraction]], ncols: int) -> tuple[list[int], Fraction]:
    """Gauss-Jordan reduction of ``rows`` in place on its first ``ncols`` columns.

    Whole rows are combined, so any columns past ``ncols`` (a right-hand side,
    an identity block) are carried along.  Returns the pivot columns in order
    and the determinant of the leading ``ncols`` x ``ncols`` block (0 when a
    column has no pivot).  Pivot rows end up first, scaled to a leading 1,
    with zeros above and below every pivot.
    """
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        p = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        pivot = rows[r][col]
        det *= pivot
        # the pivot row is zero left of col (rows below the pivots so far are
        # zero in every earlier column), so only the tail from col changes
        pivot_tail = [x / pivot for x in rows[r][col:]]
        rows[r][col:] = pivot_tail
        for k, row in enumerate(rows):
            f = row[col]
            if k != r and f != 0:
                row[col:] = [x - f * y for x, y in zip(row[col:], pivot_tail)]
        pivots.append(col)
    return pivots, det


def _reference_ldl(s: RationalMatrix) -> tuple[list[Fraction], list[list[Fraction]], bool]:
    """Symmetric LDL^T with diagonal pivots, exactly.

    Each step eliminates on the first nonzero diagonal entry that remains, in
    index order.  Returns ``(d, lower, blocked)``: ``d[i]`` is the pivot taken
    at index i (0 where none was), ``lower[i][p]`` the multiplier of pivot p in
    row i, with a unit diagonal.  ``blocked`` is True when elimination stopped
    on a remainder whose diagonal is zero but which has a nonzero entry;
    otherwise s = L diag(d) L^T.  When every d[i] is positive the pivots
    were taken in index order (a positive definite s keeps a positive
    diagonal), so ``lower`` is lower triangular.
    """
    if not s.is_symmetric:
        raise ValueError("LDL^T requires a symmetric matrix")
    n = s.nrows
    a = [list(row) for row in s.entries]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    active = list(range(n))
    while active:
        pivot = next((i for i in active if a[i][i] != 0), None)
        if pivot is None:
            blocked = any(a[i][j] != 0 for i in active for j in active)
            return d, lower, blocked
        d[pivot] = a[pivot][pivot]
        active.remove(pivot)
        pivot_row = a[pivot]
        for i in active:
            if a[i][pivot] == 0:
                continue
            f = lower[i][pivot] = a[i][pivot] / d[pivot]
            for j in active:
                a[i][j] -= f * pivot_row[j]
    return d, lower, False


# denominators from 1 to 10^6, and primes near 10^6 so that the lcm a row is
# scaled by has several large coprime factors
PRIMES_NEAR_1E6 = [999_953, 999_959, 999_961, 999_979, 999_983]
WIDE = st.one_of(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(PRIMES_NEAR_1E6)),
)


@st.composite
def reducible_rows(draw):
    """(rows, ncols): m x w rows with ncols <= w (the rest carried along),
    m and w independent, of drawn rank, with about half the entries of each
    factor zero so that pivots often need a row swap."""
    m = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=1, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=width))
    entry = draw(st.sampled_from([INTEGER, RATIONAL, WIDE]))
    sparse = st.one_of(st.just(Fraction(0)), entry)

    def block(rows, cols):
        return [[draw(sparse) for _ in range(cols)] for _ in range(rows)]

    rank = draw(st.integers(min_value=0, max_value=min(m, width)))
    if rank == min(m, width):
        return block(m, width), ncols
    if rank == 0:
        return [[Fraction(0)] * width for _ in range(m)], ncols
    return _product(block(m, rank), block(rank, width)), ncols


@settings(max_examples=300, deadline=None)
@given(reducible_rows())
@example(([[Fraction(0)] * 3 for _ in range(3)], 3))
@example(([[Fraction(0)] * 3 for _ in range(3)], 2))
@example(([[Fraction(7, 999_983)]], 1))
@example(([[Fraction(0)]], 1))
@example(([[Fraction(0), Fraction(1, 3)], [Fraction(2, 5), Fraction(1)]], 2))
def test_row_reduce_matches_the_fraction_reference(case):
    rows, ncols = case
    expected = [list(row) for row in rows]
    expected_pivots, expected_det = _reference_row_reduce(expected, ncols)
    got = [list(row) for row in rows]
    pivots, det, p = row_reduce(got, ncols)
    assert pivots == expected_pivots
    assert det == expected_det
    assert all(type(x) is int for row in got for x in row)
    r = len(pivots)
    for row, ref in zip(got[:r], expected[:r]):
        assert [Fraction(x, p) for x in row] == ref
    for row, ref in zip(got[r:], expected[r:]):
        assert not any(row[:ncols])
        assert [x != 0 for x in row[ncols:]] == [x != 0 for x in ref[ncols:]]


@st.composite
def symmetric_matrices(draw):
    """B + B^T: rank-deficient, zero-diagonal (blocked) and sparse cases
    come from drawing B of low rank or with many zeros."""
    rows, _ = draw(reducible_rows())
    n = min(len(rows), len(rows[0]))
    b = RationalMatrix([row[:n] for row in rows[:n]])
    return b + b.T


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
@example(_scalar(3))
@example(RationalMatrix([[Fraction(3, 999_983)]]))
@example(RationalMatrix([[0]]))
@example(RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]]))
@example(RationalMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 0]]))
def test_ldl_matches_the_fraction_reference(s):
    assert ldl(s) == _reference_ldl(s)
