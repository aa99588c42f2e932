"""Exact univariate polynomials and cyclotomic factor recognition.

Coefficients are rationals, stored constant term first.  Integral monic
polynomials (characteristic and Coxeter polynomials) are the main clients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable


class Polynomial:
    """Immutable polynomial over the rationals, constant coefficient first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

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
        rem = list(self.coeffs)
        div = other.coeffs
        q = [Fraction(0)] * max(len(rem) - len(div) + 1, 0)
        lead = div[-1]
        while len(rem) >= len(div):
            f = rem[-1] / lead
            shift = len(rem) - len(div)
            q[shift] = f
            for i, d in enumerate(div):
                rem[shift + i] -= f * d
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial(q), Polynomial(rem)

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
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        return a.monic()

    @property
    def is_squarefree(self) -> bool:
        if self.is_zero:
            return False
        return self.gcd(self.derivative()).degree <= 0


X = Polynomial([0, 1])


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


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> Polynomial:
    """d-th cyclotomic polynomial, computed by exact division of x^d - 1."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    num = Polynomial([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            q, r = num.divmod(cyclotomic(e))
            if not r.is_zero:
                raise AssertionError(f"cyclotomic({e}) does not divide x^{d} - 1")
            num = q
    return num


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
    rem = p
    # phi(d) >= sqrt(d/2), so phi(d) <= deg forces d <= 2*deg^2.
    for d in range(1, 2 * p.degree * p.degree + 1):
        if rem.degree == 0:
            break
        if euler_phi(d) > rem.degree:
            continue
        phi_d = cyclotomic(d)
        while phi_d.degree <= rem.degree:
            q, r = rem.divmod(phi_d)
            if not r.is_zero:
                break
            rem = q
            indices.append(d)
    if rem.degree == 0:
        return True, tuple(sorted(indices))
    return False, ()


def all_roots_on_unit_circle(p: Polynomial) -> bool:
    """Whether every root of a nonzero rational polynomial has modulus 1,
    decided exactly (a constant has none: True).  The squarefree part without
    the factors x - 1, x + 1 must be self-reciprocal of even degree 2m, that
    is x^m r(x + 1/x); y = z + 1/z maps each pair e^{+-it} to 2 cos t in
    (-2, 2), so the answer is whether r has m distinct roots there, counted
    by a Sturm chain (Basu, Pollack and Roy, Algorithms in Real Algebraic
    Geometry, ch. 2)."""
    if p.is_zero:
        raise ValueError("expected a nonzero polynomial")
    q = p.divmod(p.gcd(p.derivative()))[0]
    for root in (1, -1):
        if q(root) == 0:
            q = q.divmod(Polynomial([-root, 1]))[0]
    a = q.coeffs
    if q.degree % 2 or a != a[::-1]:
        return False
    m = q.degree // 2
    # x^k + x^-k = D_k(y): D_0 = 2, D_1 = y, D_k = y D_{k-1} - D_{k-2}
    r, d_prev, d = Polynomial([a[m]]), Polynomial([2]), X
    for k in range(1, m + 1):
        r = r + Polynomial([a[m + k]]) * d
        d_prev, d = d, X * d - d_prev
    chain = [r, r.derivative()]
    while not chain[-1].is_zero:
        chain.append(-chain[-2].divmod(chain[-1])[1])
    changes = []
    for y in (-2, 2):  # r(+-2) = (+-1)^m q(+-1) is nonzero
        signs = [v > 0 for v in (f(y) for f in chain) if v]
        changes.append(sum(s != t for s, t in zip(signs, signs[1:])))
    return changes[0] - changes[1] == m

