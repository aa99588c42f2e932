"""Integer solution sets of rational quadratic forms.

For positive definite forms the full (finite) solution set of v^T C v = z is
enumerated with exact arithmetic (Fincke-Pohst): branch bounds come from an
LDL^T decomposition, the integer range at each level is exact (``math.isqrt``
of the rational bound, tightened by one exact comparison at each end), and
the innermost level solves d_0 y^2 = budget in closed form.  A bounded-box
brute force is provided for arbitrary symmetric forms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .explore import _form_value, delta
from .linalg import _integer_rows, ldl
from .matrix import RationalMatrix, _frac


def _int_range(center: Fraction, radius2: Fraction) -> range:
    """Integers x with (x - center)^2 <= radius2, exactly."""
    if radius2 < 0:
        return range(0)
    s = math.isqrt(math.floor(radius2))  # floor(sqrt(radius2))
    # the exact ends are ceil(center - sqrt) in {lo, lo + 1} and
    # floor(center + sqrt) in {hi - 1, hi}
    lo = math.ceil(center) - s - 1
    hi = math.floor(center) + s + 1
    if (lo - center) ** 2 > radius2:
        lo += 1
    if (hi - center) ** 2 > radius2:
        hi -= 1
    return range(lo, hi + 1)


def _int_roots(center: Fraction, radius2: Fraction) -> tuple[int, ...]:
    """Integers x with (x - center)^2 == radius2: at most two."""
    num, den = radius2.numerator, radius2.denominator
    a, b = math.isqrt(num), math.isqrt(den)
    if a * a != num or b * b != den:
        return ()  # radius2 is not the square of a rational
    r = Fraction(a, b)
    return tuple(
        int(x) for x in {center - r, center + r} if x.denominator == 1
    )


def solutions(c: RationalMatrix, z) -> tuple[tuple[int, ...], ...]:
    """All integer vectors v with v^T C v = z, for positive definite C.

    The set is finite; it is empty for z < 0 and {0} for z = 0.
    """
    # n positive pivots make C positive definite and lower lower triangular
    d, lower, _ = ldl(c)
    if not all(x > 0 for x in d):
        raise ValueError("exact enumeration requires a positive definite form")
    z = _frac(z)
    if z < 0:
        return ()
    n = c.nrows
    if z == 0:
        return ((0,) * n,)

    out: list[tuple[int, ...]] = []
    x = [0] * n

    def descend(i: int, budget: Fraction) -> None:
        # y_i = x_i + sum_{j > i} L[j][i] x_j must satisfy d_i y_i^2 <= budget,
        # with equality at the innermost level
        shift = sum(lower[j][i] * x[j] for j in range(i + 1, n))
        if i == 0:
            for x0 in _int_roots(-shift, budget / d[0]):
                x[0] = x0
                out.append(tuple(x))
        else:
            for xi in _int_range(-shift, budget / d[i]):
                x[i] = xi
                y = xi + shift
                descend(i - 1, budget - d[i] * y * y)
        x[i] = 0

    descend(n - 1, z)
    # exact final check: the enumeration above is already exact, so every
    # vector collected satisfies the equation; raise rather than filter
    if not all(delta(c, v) == z for v in out):
        raise AssertionError("lattice enumeration returned a non-solution")
    return tuple(sorted(out))


def bounded_box(
    c: RationalMatrix, z, radius: int
) -> tuple[tuple[int, ...], ...]:
    """All integer vectors with coordinates in [-radius, radius] solving
    v^T C v = z, for any symmetric C; exact brute force."""
    if not c.is_symmetric:
        raise ValueError("bounded_box requires a symmetric matrix")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    z = _frac(z)
    rows, scale = _integer_rows(c)  # cleared once for every point
    out = [
        v
        for v in itertools.product(range(-radius, radius + 1), repeat=c.nrows)
        if _form_value(rows, scale, v) == z
    ]
    return tuple(sorted(out))
