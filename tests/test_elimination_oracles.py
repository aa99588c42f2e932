"""The exact elimination kernels and the power-sequence spectral routines
against sympy.

`row_reduce` (behind det, inverse, solve and min_poly) and `ldl` (behind
definiteness and lattice.solutions) are checked on random integer and
rational square matrices up to 6x6, about half of them singular or of
lower rank.  `char_poly` (Newton's identities on the memoised powers) and
its sharing of those powers with `min_poly` are checked up to 8x8,
nilpotent matrices included.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltkit.linalg import char_poly, evaluate_at_matrix, ldl, min_poly
from tiltkit.matrix import RationalMatrix, SingularMatrixError, solve
from tiltkit.poly import Polynomial

sympy = pytest.importorskip("sympy")

INTEGER = st.integers(min_value=-6, max_value=6).map(Fraction)
RATIONAL = st.fractions(min_value=-5, max_value=5, max_denominator=6)


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
        return RationalMatrix.zero(n)
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


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_min_poly_matches_sympy_krylov_rank(m):
    p, diagonalizable = min_poly(m)
    assert p.is_monic
    assert evaluate_at_matrix(p, m) == RationalMatrix.zero(m.nrows)
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
