"""Exact rational matrices.

Every verdict-bearing computation in the package runs through this module.
Entries are ``fractions.Fraction`` and all operations are exact; no floating
point ever enters a result returned from here.  Elimination (``row_reduce``)
runs fraction-free on Python ints and builds a Fraction only for an entry it
hands back.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm, prod

from ._record import Record


class SingularMatrixError(ValueError):
    """Raised when an inverse (or Coxeter matrix) of a singular matrix is requested."""


def _frac(x) -> Fraction:
    # exact types first: isinstance(x, Fraction) runs ABCMeta's check
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot convert {x!r} to an exact rational")


def _integers(xs: Sequence) -> tuple[list[int], int]:
    """xs times the lcm of their denominators, as Python ints, and that lcm."""
    scale = lcm(*(x.denominator for x in xs))
    return [x.numerator * (scale // x.denominator) for x in xs], scale


class RationalMatrix(Record):
    """Immutable matrix over the rationals, built from its rows.

    Hashable, so matrices can be deduplicated exactly during group searches.
    The shape and the memoised powers and inverse sit beside ``entries``,
    outside eq/hash/repr.
    """

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(_frac(x) for x in row) for row in self.entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("all rows must have the same length")
        vars(self).update(entries=entries, nrows=len(entries), ncols=width)

    # -- basics ------------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(str(x) for x in row) for row in self.entries
        )
        return f"RationalMatrix[{rows}]"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-x for x in row] for row in self.entries])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"dimension mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        cols = list(zip(*other.entries))
        return RationalMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.entries
            ]
        )

    def vec_mul(self, v: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector, exactly."""
        if len(v) != self.ncols:
            raise ValueError("vector length does not match column count")
        w = [_frac(x) for x in v]
        return tuple(sum(a * b for a, b in zip(row, w)) for row in self.entries)

    def powers(self) -> tuple["RationalMatrix", ...]:
        """(E, M, M^2, ..., M^n), memoised: n - 1 products the first time."""
        if not self.is_square:
            raise ValueError("powers of a non-square matrix")
        if not hasattr(self, "_powers"):
            seq = [RationalMatrix.identity(self.nrows), self]
            for _ in range(self.nrows - 1):
                seq.append(self @ seq[-1])
            vars(self)["_powers"] = tuple(seq)
        return self._powers

    @property
    def T(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.entries)))

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.nrows))

    def column_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(col) for col in zip(*self.entries))

    def _same_shape(self, other: "RationalMatrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    # -- elimination-based operations ---------------------------------------

    def det(self) -> Fraction:
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        return row_reduce(list(self.entries), self.ncols)[1]

    def inverse(self) -> "RationalMatrix":
        """Exact inverse, memoised (a singular matrix raises on every call)."""
        if hasattr(self, "_inverse"):
            return self._inverse
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        rows = [row + tuple(int(i == j) for j in range(n))
                for i, row in enumerate(self.entries)]
        pivots, _, p = row_reduce(rows, n)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular (det = 0)")
        inv = RationalMatrix([[Fraction(x, p) for x in row[n:]] for row in rows])
        vars(self)["_inverse"] = inv
        return inv


def row_reduce(rows: list[Sequence], ncols: int) -> tuple[list[int], Fraction, int]:
    """Fraction-free Gauss-Jordan reduction of ``rows`` in place on its first
    ``ncols`` columns.

    Each row of rationals is replaced by a list of Python ints: the row times
    the lcm of its denominators (row scaling leaves the reduced row echelon
    form as it is).  Every other row is then combined with the pivot row as
    (p*x - f*y) // p_prev, where p is the new pivot and p_prev the one
    before: every entry stays a minor of the scaled matrix, so the division
    is exact (Bareiss 1968).  Whole rows are combined, so any columns past
    ``ncols`` (a right-hand side, an identity block) are carried along.

    Returns the pivot columns in order, the determinant of the leading
    ``ncols`` x ``ncols`` block (0 when a column has no pivot) and the
    common pivot p.  Pivot rows end up first, each with p at its pivot and
    zeros above and below every pivot, so pivot row i divided by p is row i
    of the reduced row echelon form.  The rows below are zero in the first
    ``ncols`` columns.
    """
    scales = []
    for i, row in enumerate(rows):
        rows[i], s = _integers(row)
        scales.append(s)
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            scales[r], scales[k] = scales[k], scales[r]
            sign = -sign
        pivot_row = rows[r]
        p = pivot_row[col]
        for i, row in enumerate(rows):
            if i == r:
                continue
            # rows below are zero left of col; a pivot row above is nonzero from
            # its own pivot on, and (p*x - f*0) // prev rescales that prefix
            start = pivots[i] if i < r else col
            f = row[col]
            row[start:] = [(p * x - f * y) // prev
                           for x, y in zip(row[start:], pivot_row[start:])]
        pivots.append(col)
        prev = p
    if len(pivots) < ncols:
        return pivots, Fraction(0), prev
    return pivots, Fraction(sign * prev, prod(scales[:ncols])), prev


def solve(a: RationalMatrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """Solve ``a x = b`` exactly; None when inconsistent.

    For underdetermined consistent systems one solution is returned (free
    variables set to zero).
    """
    m, n = a.nrows, a.ncols
    if len(b) != m:
        raise ValueError("right-hand side length mismatch")
    rows = [a.entries[i] + (_frac(b[i]),) for i in range(m)]
    pivots, _, p = row_reduce(rows, n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(rows, pivots):
        x[col] = Fraction(row[n], p)
    return tuple(x)
