"""Exact spectral invariants: characteristic/minimal polynomials, definiteness,
the exact order of every rational matrix with det +-1, Coxeter matrices and
the Euler form.

The characteristic polynomial reads the memoised ``RationalMatrix.powers``
(Newton's identities on their traces), and diagonalizability its radical
evaluated on the same powers, so a matrix pays its n - 1 products once.
No float ever decides a verdict.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from ._record import Record
from .matrix import RationalMatrix, SingularMatrixError, _frac, _integers, row_reduce
from .poly import Polynomial, _radical, is_cyclotomic_product

POSITIVE_DEFINITE = "positive_definite"
POSITIVE_SEMIDEFINITE_SINGULAR = "positive_semidefinite_singular"
INDEFINITE = "indefinite"
NEGATIVE_SEMIDEFINITE_SINGULAR = "negative_semidefinite_singular"
NEGATIVE_DEFINITE = "negative_definite"


def char_poly(m: RationalMatrix) -> Polynomial:
    """Monic det(xE - M) by Newton: c_k = -(1/k) sum_{i<=k} c_{k-i} tr(M^i)."""
    traces = [p.trace() for p in m.powers()]
    coeffs = [Fraction(1)]  # descending powers, leading first
    for k in range(1, m.nrows + 1):
        coeffs.append(-sum(coeffs[k - i] * traces[i] for i in range(1, k + 1)) / k)
    return Polynomial(coeffs[::-1])


def min_poly(m: RationalMatrix) -> tuple[Polynomial, bool]:
    """Monic minimal polynomial and a diagonalizability flag (squarefreeness
    of the minimal polynomial); the reference for ``is_diagonalizable``.

    One row reduction of the Krylov matrix [vec E, vec M, ..., vec M^n] of the
    memoised powers: the first column without a pivot, k, is the first power
    that depends on the lower ones, and the reduced column k, over the common
    pivot, holds the coefficients of that dependence (later pivots sit in rows
    that are zero in column k, so they only rescale it with the pivot).
    """
    n = m.nrows
    krylov = list(zip(*(
        [x for row in power.entries for x in row] for power in m.powers()
    )))
    pivots, _, pivot = row_reduce(krylov, n + 1)
    # Cayley-Hamilton: M^n depends on the lower powers, so k <= n
    k = next(j for j in range(n + 1) if j not in pivots)
    p = Polynomial([Fraction(-krylov[i][k], pivot) for i in range(k)] + [1])
    return p, p.is_squarefree


def is_diagonalizable(m: RationalMatrix, chi: Polynomial) -> bool:
    """Whether m is diagonalizable over C, given its characteristic polynomial.

    The minimal polynomial has the roots of chi, so it is squarefree exactly
    when it divides the radical s = chi / gcd(chi, chi'), that is when
    s(M) = 0 (a squarefree chi is s).  s is taken on ints, up to a constant,
    and summed on ints over the memoised powers: for M^k = P_k / L_k and
    D = lcm(L_k), D s(M) = sum of (s_k D / L_k) P_k.
    """
    s = _radical(_integers(chi.coeffs)[0])
    if len(s) == len(chi.coeffs):
        return True
    terms = [(c, *_integer_rows(p)) for c, p in zip(s, m.powers()) if c]
    d = lcm(*(scale for _, _, scale in terms))
    weights = [c * (d // scale) for c, _, scale in terms]
    flat = [[x for row in rows for x in row] for _, rows, _ in terms]
    return not any(sum(w * x for w, x in zip(weights, column)) for column in zip(*flat))


def _integer_rows(m: RationalMatrix) -> tuple[list[list[int]], int]:
    """The rows of m times the lcm of its denominators, as Python ints, and
    that lcm."""
    flat, scale = _integers([x for row in m.entries for x in row])
    return [flat[i : i + m.ncols] for i in range(0, len(flat), m.ncols)], scale


def ldl(s: RationalMatrix) -> tuple[list[Fraction], list[list[Fraction]], bool]:
    """Symmetric LDL^T with diagonal pivots, exactly.

    Each step eliminates on the first nonzero diagonal entry that remains, in
    index order.  Returns ``(d, lower, blocked)``: ``d[i]`` is the pivot taken
    at index i (0 where none was), ``lower[i][p]`` the multiplier of pivot p in
    row i, with a unit diagonal.  ``blocked`` is True when elimination stopped
    on a remainder whose diagonal is zero but which has a nonzero entry;
    otherwise s = L diag(d) L^T.  When every d[i] is positive the pivots
    were taken in index order (a positive definite s keeps a positive
    diagonal), so ``lower`` is lower triangular.

    The elimination runs on Python ints: s times the lcm of its
    denominators, reduced with Bareiss' exact (p*x - f*y) // p_prev, so each
    pivot p is the principal minor on the indices pivoted so far.  The
    Fractions are built once at the end: d at a pivot index is
    p / (p_prev * lcm), and a multiplier is the entry of its row in the
    pivot column at that step, over p.
    """
    if not s.is_symmetric:
        raise ValueError("LDL^T requires a symmetric matrix")
    n = s.nrows
    a, scale = _integer_rows(s)
    # integer numerators of lower over piv[j], the pivot taken at index j;
    # d[j] = piv[j] / den[j] (den[j] = 0 where no pivot was taken)
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    piv, den = [1] * n, [0] * n
    active = list(range(n))
    prev, blocked = 1, False
    while active:
        pivot = next((i for i in active if a[i][i]), None)
        if pivot is None:
            blocked = any(a[i][j] for i in active for j in active)
            break
        p = piv[pivot] = lower[pivot][pivot] = a[pivot][pivot]
        den[pivot] = prev * scale
        active.remove(pivot)
        pivot_row = a[pivot]
        for i in active:
            # pivot columns are zero in every active row once taken, so the
            # whole row can be combined
            row = a[i]
            f = lower[i][pivot] = row[pivot]
            a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    d = [Fraction(p, q) if q else Fraction(0) for p, q in zip(piv, den)]
    lower = [[Fraction(x, piv[j]) for j, x in enumerate(row)] for row in lower]
    return d, lower, blocked


def definiteness(s: RationalMatrix) -> str:
    """Exact definiteness class of a symmetric matrix, read off the signs of
    the LDL^T pivots (congruence preserves inertia)."""
    d, _, blocked = ldl(s)
    if blocked:
        # the remainder has a zero diagonal and some entry a != 0: its 2x2
        # principal block [[0, a], [a, 0]] has det -a^2 < 0, so the remainder,
        # and with it s, takes both signs
        return INDEFINITE
    pos = sum(1 for x in d if x > 0)
    neg = sum(1 for x in d if x < 0)
    zero = s.nrows - pos - neg
    if pos and neg:
        return INDEFINITE
    if neg == 0:
        return POSITIVE_DEFINITE if zero == 0 else POSITIVE_SEMIDEFINITE_SINGULAR
    return NEGATIVE_DEFINITE if zero == 0 else NEGATIVE_SEMIDEFINITE_SINGULAR


class MatrixOrder(Record):
    """Multiplicative order of a rational matrix with determinant +-1."""

    kind: str  # "finite" | "certified_infinite"
    order: int | None = None
    reason: str = ""


def matrix_order(m: RationalMatrix) -> MatrixOrder:
    """Exact order of a rational matrix with det +-1, read off its spectrum.

    M^k = E makes every eigenvalue a root of unity and the minimal
    polynomial a divisor of x^k - 1.  So the characteristic polynomial has
    rational algebraic-integer, that is integral, coefficients and is a
    product of cyclotomics, and the minimal polynomial is squarefree.
    Conversely these make M diagonalizable with eigenvalues of exact orders
    the cyclotomic indices, so its order is their lcm.  The characteristic
    polynomial and its radical read the memoised powers; no power of M
    beyond M^n is formed.
    """
    if not m.is_square:
        raise ValueError("order of a non-square matrix")
    d = m.det()
    if d not in (1, -1):
        raise ValueError(f"matrix order requires det = +-1, got {d}")
    p = char_poly(m)
    if not p.is_integral:
        return MatrixOrder(
            "certified_infinite", reason="characteristic polynomial is not integral"
        )
    ok, indices = is_cyclotomic_product(p)
    if not ok:
        # Kronecker: a monic integral polynomial with all roots on the unit
        # circle is a product of cyclotomics, so some eigenvalue lies off it.
        return MatrixOrder(
            "certified_infinite",
            reason="characteristic polynomial has a root off the unit circle",
        )
    if not is_diagonalizable(m, p):
        return MatrixOrder(
            "certified_infinite",
            reason="eigenvalues are roots of unity but the matrix is not semisimple",
        )
    return MatrixOrder("finite", order=lcm(*indices))


def coxeter_matrix(c: RationalMatrix) -> RationalMatrix:
    """Coxeter matrix -C^T C^{-1} of an invertible Cartan matrix, as the int
    product -(A^T B) / (a b) for C = A / a and C^{-1} = B / b."""
    if not c.is_square:
        raise ValueError("Coxeter matrix of a non-square matrix")
    try:
        inv = c.inverse()
    except SingularMatrixError:
        raise SingularCartanError(
            "Cartan matrix is singular (det = 0); no Coxeter matrix"
        ) from None
    (a, sa), (b, sb) = _integer_rows(c), _integer_rows(inv)
    return RationalMatrix([[Fraction(sum(x * y for x, y in zip(col_a, col_b)), -sa * sb)
                            for col_b in zip(*b)] for col_a in zip(*a)])


class SingularCartanError(ValueError):
    """Coxeter-matrix or Euler-form request on a singular Cartan matrix."""


def euler_form(
    c: RationalMatrix, x: Sequence, y: Sequence
) -> Fraction:
    """Homological bilinear form x^T C^{-T} y for invertible C."""
    if not c.is_square:
        raise ValueError("Euler form requires a square matrix")
    if len(x) != c.nrows or len(y) != c.nrows:
        raise ValueError("vector dimension mismatch")
    try:
        cinv_t = c.inverse().T
    except SingularMatrixError:
        raise SingularCartanError("Euler form undefined: singular matrix") from None
    w = cinv_t.vec_mul(y)
    return sum(_frac(a) * b for a, b in zip(x, w))


def trivial_extension_cartan(c: RationalMatrix) -> RationalMatrix:
    """Cartan matrix C + C^T of the trivial extension."""
    if not c.is_square:
        raise ValueError("trivial extension of a non-square Cartan matrix")
    return c + c.T
