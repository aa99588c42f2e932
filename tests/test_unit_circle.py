"""The exact unit-circle predicate against an independent oracle: sympy's
squarefree part and mpmath's polyroots at 50 digits, as in
perfbench/oracle.py."""

from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltkit.poly import (
    Polynomial,
    all_roots_on_unit_circle,
    cyclotomic,
    is_cyclotomic_product,
)

DIGITS = 50
X = Polynomial([0, 1])


def _oracle(p: Polynomial) -> bool:
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    sqf = sympy.Poly(coeffs, x, domain=sympy.QQ).sqf_part().all_coeffs()
    if len(sqf) < 2:
        return True
    with mpmath.workdps(DIGITS):
        roots = mpmath.polyroots(
            [mpmath.mpf(int(c.p)) / int(c.q) for c in sqf],
            maxsteps=500, extraprec=4 * DIGITS,
        )
        return all(abs(abs(r) - 1) < mpmath.mpf(10) ** (-DIGITS // 2) for r in roots)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonzero_rationals = rationals.filter(bool)


def _quadratic(c: Fraction) -> Polynomial:
    # x^2 - 2c x + 1: roots on the circle for |c| <= 1, a double root at
    # c for c = +-1, two reals of product 1 for |c| > 1
    return Polynomial([1, -2 * c, 1])


inside = st.fractions(min_value=-1, max_value=1, max_denominator=12).filter(
    lambda c: abs(c) < 1
)
outside = st.one_of(
    st.fractions(min_value=1, max_value=4, max_denominator=12),
    st.fractions(min_value=-4, max_value=-1, max_denominator=12),
).filter(lambda c: abs(c) > 1)
quadratics = st.one_of(
    inside.map(_quadratic),
    outside.map(_quadratic),
    st.sampled_from((Fraction(1), Fraction(-1))).map(_quadratic),
)
cyclotomics = st.integers(1, 15).map(cyclotomic)
random_polys = st.lists(rationals, min_size=1, max_size=7).map(Polynomial).filter(
    lambda p: not p.is_zero
)


@st.composite
def palindromes(draw):
    # self-reciprocal polynomials reach the Sturm count whatever their roots
    half = draw(st.lists(rationals, min_size=1, max_size=4))
    middle = draw(st.lists(rationals, max_size=1))
    return Polynomial(half + middle + half[::-1])


@st.composite
def products(draw):
    factors = draw(
        st.lists(
            st.one_of(
                quadratics, cyclotomics, random_polys,
                palindromes().filter(lambda p: not p.is_zero),
            ),
            min_size=1, max_size=3,
        )
    )
    p = Polynomial([draw(nonzero_rationals)])
    for f in factors:
        p = p * f
    # repeated factors and a zero constant term
    if draw(st.booleans()):
        p = p * factors[0]
    if draw(st.integers(0, 4)) == 0:
        p = p * X
    return p


polynomials = st.one_of(
    nonzero_rationals.map(lambda c: Polynomial([c])),
    st.tuples(rationals, nonzero_rationals).map(Polynomial),
    random_polys,
    palindromes().filter(lambda p: not p.is_zero),
    products(),
)


@settings(max_examples=300, deadline=None)
@given(polynomials)
@example(Polynomial([5]))
@example(Polynomial([1, 1]))
@example(Polynomial(["1/2", 1]))
@example(Polynomial([0, 1]))
@example(Polynomial([0, 0, 1, 1]))
@example(Polynomial([1, "-6/5", 1]))
@example(Polynomial([1, "-6/5", 1]) * Polynomial([1, "-6/5", 1]))
@example(Polynomial([1, -2, 1]) * Polynomial([1, "1/3", 1]))
@example(Polynomial([1, 2, 1]) * Polynomial([1, "-5/2", 1]))
@example(Polynomial([1, 3, 1]))
@example(Polynomial([1, 0, 3, 0, 1]))
@example(Polynomial(["-3/7"]) * cyclotomic(1) * cyclotomic(2) * cyclotomic(2) * cyclotomic(12))
@example(cyclotomic(5) * Polynomial([1, "-5/2", 1]))
@example(cyclotomic(5) * Polynomial([1, "-10/7", 1]))
def test_matches_oracle(p):
    assert all_roots_on_unit_circle(p) == _oracle(p)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=8))
def test_monic_integral_agrees_with_kronecker(lower):
    # a monic integral polynomial has all roots on the circle exactly when
    # it is a product of cyclotomic polynomials
    p = Polynomial(lower + [1])
    assert all_roots_on_unit_circle(p) == is_cyclotomic_product(p)[0]


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        all_roots_on_unit_circle(Polynomial([]))
