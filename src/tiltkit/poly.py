"""Exact univariate polynomials and cyclotomic factor recognition.

``Polynomial``, with Fraction coefficients constant term first, stays the public
type.  The verdicts run on Python int lists: gcd and squarefreeness, cyclotomic
trial division, the radical of ``linalg.is_diagonalizable`` and the Sturm count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from ._record import Record
from .matrix import _frac, _integers


class Polynomial(Record):
    """Immutable polynomial over the rationals, constant coefficient first;
    trailing zero coefficients are dropped."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = [_frac(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        vars(self)["coeffs"] = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{k}" if c != 1 else f"x^{k}")
        return "Polynomial(" + " + ".join(terms) + ")"

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(
            [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # self = a / s, other = b / t, lc(b)^e a = q b + r: divide q t, r by s lc(b)^e
        (a, s), (b, t) = _integers(self.coeffs), _integers(other.coeffs)
        q, r = _pseudo_divmod(a, b)
        d = s * b[-1] ** len(q)
        return (Polynomial([Fraction(x * t, d) for x in q]),
                Polynomial([Fraction(x, d) for x in r]))

    def divides(self, other: "Polynomial") -> bool:
        return other.divmod(self)[1].is_zero

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        g = _gcd(_integers(self.coeffs)[0], _integers(other.coeffs)[0])
        return Polynomial(g).monic()

    @property
    def is_squarefree(self) -> bool:
        return not self.is_zero and self.gcd(self.derivative()).degree <= 0


def euler_phi(d: int) -> int:
    if d < 1:
        raise ValueError("phi is defined for positive integers")
    result, n, p = d, d, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _primitive(a: list[int]) -> list[int]:
    c = gcd(*a)  # the content, positive
    return a if c < 2 else [x // c for x in a]


def _pseudo_divmod(a, b) -> tuple[list[int], list[int]]:
    """(q, r) with lc(b)^e a = q b + r, deg r < deg b and e = deg a - deg b + 1
    (q = 0, r = a when e <= 0): exact division when b is monic."""
    lead, low = b[-1], b[:-1]
    r, q = list(a), [0] * max(len(a) - len(low), 0)
    for k in reversed(range(len(q))):
        f = r.pop()
        if lead != 1:
            q, r = [x * lead for x in q], [x * lead for x in r]
        q[k] = f
        for i, y in enumerate(low):
            r[k + i] -= f * y
    while r and not r[-1]:
        r.pop()
    return q, r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd of a and b up to a nonzero constant: the primitive PRS."""
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return a


def _radical(a: list[int]) -> list[int]:
    """A primitive polynomial with the roots of a, each once: a / gcd(a, a')."""
    return _primitive(_pseudo_divmod(a, _gcd(a, [k * c for k, c in enumerate(a)][1:]))[0])


def _sturm_next(a: list[int], b: list[int]) -> list[int]:
    """-rem(a, b) up to a positive factor, primitive: -sign(lc(b)^e) lc(b)^e rem(a, b)."""
    q, r = _pseudo_divmod(a, b)
    sign = 1 if b[-1] < 0 and len(q) % 2 else -1  # e = len(q) steps
    return _primitive([sign * x for x in r])


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> Polynomial:
    """d-th cyclotomic polynomial, computed by exact division of x^d - 1."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num, r = _pseudo_divmod(num, [c.numerator for c in cyclotomic(e).coeffs])
            if r:
                raise AssertionError(f"cyclotomic({e}) does not divide x^{d} - 1")
    return Polynomial(num)


def is_cyclotomic_product(p: Polynomial) -> tuple[bool, tuple[int, ...]]:
    """Whether a monic integral polynomial is a product of cyclotomics.

    Trial division over all indices d with phi(d) <= remaining degree; since
    phi(d) >= sqrt(d/2), indices beyond 2*deg^2 cannot contribute, so the
    candidate set is finite and no factorization machinery is needed.
    Returns the multiset of indices (sorted) on success.
    """
    if p.is_zero or not p.is_monic:
        raise ValueError("expected a monic polynomial")
    if not p.is_integral:
        raise ValueError("expected integer coefficients")
    indices: list[int] = []
    rem = [c.numerator for c in p.coeffs]
    for d in range(1, 2 * p.degree * p.degree + 1):
        if len(rem) == 1:
            break
        if euler_phi(d) >= len(rem):
            continue
        phi_d = [c.numerator for c in cyclotomic(d).coeffs]
        while len(phi_d) <= len(rem):
            q, r = _pseudo_divmod(rem, phi_d)
            if r:
                break
            rem = q
            indices.append(d)
    if len(rem) == 1:
        return True, tuple(sorted(indices))
    return False, ()


def all_roots_on_unit_circle(p: Polynomial) -> bool:
    """Whether every root of a nonzero rational polynomial has modulus 1,
    decided exactly (a constant has none: True).  The squarefree part without
    the factors x - 1, x + 1 must be self-reciprocal of even degree 2m, that
    is x^m r(x + 1/x); y = z + 1/z maps each pair e^{+-it} to 2 cos t in
    (-2, 2), so the answer is whether r has m distinct roots there, counted
    by a Sturm chain (Basu, Pollack and Roy, Algorithms in Real Algebraic
    Geometry, ch. 2).  Every step runs on Python ints."""
    if p.is_zero:
        raise ValueError("expected a nonzero polynomial")
    a = _radical(_integers(p.coeffs)[0])
    for root in (1, -1):
        if sum(c * root**k for k, c in enumerate(a)) == 0:
            a = _pseudo_divmod(a, [-root, 1])[0]
    if len(a) % 2 == 0 or a != a[::-1]:
        return False
    m = len(a) // 2
    # x^k + x^-k = D_k(y): D_0 = 2, D_1 = y, D_k = y D_{k-1} - D_{k-2}
    r, d_prev, d = [a[m]], [2], [0, 1]
    for k in range(1, m + 1):
        r = [a[m + k] * x + y for x, y in zip(d, r + [0])]
        d_prev, d = d, [x - y for x, y in zip([0] + d, d_prev + [0, 0])]
    chain = [r, [k * c for k, c in enumerate(r)][1:]]
    while chain[-1]:
        chain.append(_sturm_next(chain[-2], chain[-1]))
    changes = []
    for y in (-2, 2):  # r(+-2) = (+-1)^m a(+-1) is nonzero
        signs = [v > 0 for v in (sum(c * y**k for k, c in enumerate(f)) for f in chain) if v]
        changes.append(sum(s != t for s, t in zip(signs, signs[1:])))
    return changes[0] - changes[1] == m
