from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltkit.poly import (
    Polynomial,
    cyclotomic,
    euler_phi,
    is_cyclotomic_product,
)

ONE = Polynomial([1])
X = Polynomial([0, 1])

coeff_lists = st.lists(st.integers(min_value=-5, max_value=5), max_size=6)


def test_immutable_and_exact():
    p = Polynomial([1, 2])
    for name in ("coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())
        with pytest.raises(AttributeError):
            delattr(p, name)
    with pytest.raises(TypeError):
        Polynomial([0.1, 1])
    assert p == Polynomial(["1", Fraction(2), 0]) and hash(p) == hash(Polynomial([1, 2, 0]))


def test_trailing_zeros_stripped():
    assert Polynomial([1, 2, 0, 0]).degree == 1
    assert Polynomial([0]).is_zero
    assert Polynomial([]).degree == -1


def test_basic_arithmetic():
    p = Polynomial([1, 1])  # 1 + x
    q = Polynomial([-1, 1])  # -1 + x
    assert p * q == Polynomial([-1, 0, 1])
    assert p + q == Polynomial([0, 2])
    assert p - p == Polynomial([])
    assert (p * q)(2) == 3


def test_divmod_and_divides():
    p = Polynomial([-1, 0, 1])
    q, r = p.divmod(Polynomial([1, 1]))
    assert q == Polynomial([-1, 1]) and r.is_zero
    assert Polynomial([1, 1]).divides(p)
    assert not Polynomial([2, 1]).divides(p)
    with pytest.raises(ZeroDivisionError):
        p.divmod(Polynomial([]))


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_divmod_identity(a, b):
    p, d = Polynomial(a), Polynomial(b)
    if d.is_zero:
        return
    q, r = p.divmod(d)
    assert q * d + r == p
    assert r.degree < d.degree


def test_derivative_and_gcd():
    p = Polynomial([1, 2, 1])  # (x+1)^2
    assert p.derivative() == Polynomial([2, 2])
    assert p.gcd(p.derivative()) == Polynomial([1, 1])
    assert not p.is_squarefree
    assert Polynomial([-1, 0, 1]).is_squarefree


def test_monic_flags():
    assert (X * X + ONE).is_monic
    assert Polynomial([1, 2]).monic() == Polynomial([Fraction(1, 2), 1])
    assert Polynomial([1, Fraction(1, 2)]).is_integral is False


def test_euler_phi():
    values = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4, 30: 8, 97: 96}
    for n, expected in values.items():
        assert euler_phi(n) == expected
    # oracle: brute-force gcd count
    from math import gcd

    for n in range(1, 60):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == Polynomial([-1, 1])
    assert cyclotomic(2) == Polynomial([1, 1])
    assert cyclotomic(4) == Polynomial([1, 0, 1])
    assert cyclotomic(6) == Polynomial([1, -1, 1])
    assert cyclotomic(12) == Polynomial([1, 0, -1, 0, 1])
    # product over divisors reconstructs x^n - 1
    for n in (6, 8, 12, 15):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == Polynomial([-1] + [0] * (n - 1) + [1])
    for d in range(1, 40):
        assert cyclotomic(d).degree == euler_phi(d)


def test_is_cyclotomic_product():
    p = Polynomial([1, 2, 1]) * Polynomial([1, -1, 1])  # (x+1)^2 (x^2-x+1)
    ok, indices = is_cyclotomic_product(p)
    assert ok and indices == (2, 2, 6)
    ok, indices = is_cyclotomic_product(Polynomial([-1, 1]))
    assert ok and indices == (1,)
    ok, _ = is_cyclotomic_product(Polynomial([-1, -1, 1]))  # x^2 - x - 1
    assert not ok
    with pytest.raises(ValueError):
        is_cyclotomic_product(Polynomial([1, 2]))  # not monic
    with pytest.raises(ValueError):
        is_cyclotomic_product(Polynomial([Fraction(1, 2), 1]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3))
def test_cyclotomic_product_roundtrip(ds):
    p = ONE
    for d in ds:
        p = p * cyclotomic(d)
    ok, indices = is_cyclotomic_product(p)
    assert ok
    recon = ONE
    for d in indices:
        recon = recon * cyclotomic(d)
    assert recon == p


def test_cyclotomic_product_roots_on_unit_circle():
    import numpy as np

    for ds in [(2, 2, 6), (1, 3), (4, 5), (12,)]:
        p = ONE
        for d in ds:
            p = p * cyclotomic(d)
        # root-find the squarefree part: repeated roots cost numeric accuracy
        sf = p.divmod(p.gcd(p.derivative()))[0]
        roots = np.roots([float(c) for c in reversed(sf.coeffs)])
        assert np.all(np.abs(np.abs(roots) - 1.0) <= 1e-9)
