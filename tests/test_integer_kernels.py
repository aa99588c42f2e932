"""The int kernels of the polynomial verdicts and of v^T C v against the
Fraction code they replaced, kept here as references, and against sympy as
an independent oracle: the cyclotomic indices from ``factor_list`` and
``Poly.is_cyclotomic``, the gcd from ``Poly.gcd``."""

from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltkit.explore import delta, delta_sequence
from tiltkit.lattice import bounded_box, solutions
from tiltkit.linalg import char_poly, is_diagonalizable, min_poly
from tiltkit.matrix import RationalMatrix
from tiltkit.poly import (
    Polynomial,
    _pseudo_divmod,
    _sturm_next,
    all_roots_on_unit_circle,
    cyclotomic,
    is_cyclotomic_product,
)

X = Polynomial([0, 1])
SYMBOL = sympy.Symbol("x")


# -- the Fraction references ---------------------------------------------------


def ref_divmod(p: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    rem = list(p.coeffs)
    div = d.coeffs
    q = [Fraction(0)] * max(len(rem) - len(div) + 1, 0)
    lead = div[-1]
    while len(rem) >= len(div):
        f = rem[-1] / lead
        shift = len(rem) - len(div)
        q[shift] = f
        for i, c in enumerate(div):
            rem[shift + i] -= f * c
        while rem and rem[-1] == 0:
            rem.pop()
    return Polynomial(q), Polynomial(rem)


def ref_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero:
        a, b = b, ref_divmod(a, b)[1]
    return a.monic()


@lru_cache(maxsize=None)
def ref_cyclotomic(d: int) -> Polynomial:
    num = Polynomial([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            num, r = ref_divmod(num, ref_cyclotomic(e))
            if not r.is_zero:
                raise AssertionError(f"cyclotomic({e}) does not divide x^{d} - 1")
    return num


def ref_is_cyclotomic_product(p: Polynomial) -> tuple[bool, tuple[int, ...]]:
    indices: list[int] = []
    rem = p
    for d in range(1, 2 * p.degree * p.degree + 1):
        if rem.degree == 0:
            break
        if sum(1 for k in range(1, d + 1) if gcd(k, d) == 1) > rem.degree:
            continue
        phi_d = ref_cyclotomic(d)
        while phi_d.degree <= rem.degree:
            q, r = ref_divmod(rem, phi_d)
            if not r.is_zero:
                break
            rem = q
            indices.append(d)
    if rem.degree == 0:
        return True, tuple(sorted(indices))
    return False, ()


def ref_horner(p: Polynomial, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def ref_all_roots_on_unit_circle(p: Polynomial) -> bool:
    q = ref_divmod(p, ref_gcd(p, p.derivative()))[0]
    for root in (1, -1):
        if ref_horner(q, root) == 0:
            q = ref_divmod(q, Polynomial([-root, 1]))[0]
    a = q.coeffs
    if q.degree % 2 or a != a[::-1]:
        return False
    m = q.degree // 2
    r, d_prev, d = Polynomial([a[m]]), Polynomial([2]), X
    for k in range(1, m + 1):
        r = r + Polynomial([a[m + k]]) * d
        d_prev, d = d, X * d - d_prev
    chain = [r, r.derivative()]
    while not chain[-1].is_zero:
        chain.append(-ref_divmod(chain[-2], chain[-1])[1])
    changes = []
    for y in (-2, 2):
        signs = [v > 0 for v in (ref_horner(f, y) for f in chain) if v]
        changes.append(sum(s != t for s, t in zip(signs, signs[1:])))
    return changes[0] - changes[1] == m


def ref_is_diagonalizable(m: RationalMatrix, chi: Polynomial) -> bool:
    g = ref_gcd(chi, chi.derivative())
    if g.degree == 0:
        return True
    s = ref_divmod(chi, g)[0]
    n = m.nrows
    return all(
        sum(c * power[i, j] for c, power in zip(s.coeffs, m.powers())) == 0
        for i in range(n) for j in range(n)
    )


def ref_delta(c: RationalMatrix, v) -> Fraction:
    w = c.vec_mul(v)
    return sum(Fraction(x) * y for x, y in zip(v, w))


# -- inputs --------------------------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
small_ints = st.integers(min_value=-4, max_value=4)
random_polys = st.lists(rationals, max_size=7).map(Polynomial)


@st.composite
def palindromes(draw):
    half = draw(st.lists(rationals, min_size=1, max_size=4))
    middle = draw(st.lists(rationals, max_size=1))
    return Polynomial(half + middle + half[::-1])


@st.composite
def monic_integral(draw):
    """Products of cyclotomics times random monic integral quadratics and
    linear factors, with repeated factors."""
    factors = [cyclotomic(d) for d in draw(st.lists(st.integers(1, 18), max_size=3))]
    factors += [Polynomial([c, b, 1]) for b, c in
                draw(st.lists(st.tuples(small_ints, small_ints), max_size=2))]
    factors += [Polynomial([c, 1]) for c in draw(st.lists(small_ints, max_size=1))]
    p = Polynomial([1])
    for f in factors:
        p = p * f
    if factors and draw(st.booleans()):
        p = p * draw(st.sampled_from(factors))  # not squarefree
    return p


@st.composite
def non_squarefree(draw):
    p = draw(st.one_of(random_polys, palindromes(), monic_integral()))
    f = draw(st.one_of(random_polys, monic_integral()).filter(lambda f: f.degree >= 1))
    return p * f * f


polynomials = st.one_of(random_polys, palindromes(), monic_integral(), non_squarefree(),
                        monic_integral().map(lambda p: p * Polynomial([Fraction(-3, 7)])))


def _sympy_poly(p: Polynomial) -> sympy.Poly:
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], SYMBOL, domain=sympy.QQ)


# -- polynomial verdicts -------------------------------------------------------


@settings(max_examples=250, deadline=None)
@given(polynomials, polynomials)
@example(Polynomial([]), Polynomial([]))
@example(Polynomial([1, 2, 1]), Polynomial([]))
@example(Polynomial([]), Polynomial(["2/3", 2]))
@example(Polynomial(["1/2", "-3/4", 5]), Polynomial(["-2/3"]))
def test_divmod_gcd_squarefree_match_the_fraction_code(p, q):
    assert p.gcd(q) == ref_gcd(p, q)
    if not q.is_zero:
        assert p.divmod(q) == ref_divmod(p, q)
    assert p.is_squarefree == (not p.is_zero and ref_gcd(p, p.derivative()).degree <= 0)
    for x in (0, 1, -2, Fraction(-3, 5)):
        value = p(x)
        assert value == ref_horner(p, x) and isinstance(value, Fraction)


@settings(max_examples=150, deadline=None)
@given(polynomials, polynomials)
def test_gcd_matches_sympy(p, q):
    g = _sympy_poly(p).gcd(_sympy_poly(q))
    expected = Polynomial([Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())])
    assert p.gcd(q) == expected.monic()


@settings(max_examples=300, deadline=None)
@given(polynomials.filter(lambda p: not p.is_zero))
@example(Polynomial([1, "-6/5", 1]) * Polynomial([1, "-6/5", 1]))
@example(Polynomial(["-3/7"]) * cyclotomic(1) * cyclotomic(2) * cyclotomic(2) * cyclotomic(12))
@example(cyclotomic(5) * Polynomial([1, "-10/7", 1]))
@example(Polynomial([1, 3, 1]))
def test_unit_circle_matches_the_fraction_code(p):
    assert all_roots_on_unit_circle(p) == ref_all_roots_on_unit_circle(p)


def test_cyclotomic_matches_the_fraction_code_and_sympy():
    for d in range(1, 61):
        p = cyclotomic(d)
        assert p == ref_cyclotomic(d)
        assert _sympy_poly(p) == sympy.Poly(sympy.cyclotomic_poly(d, SYMBOL), SYMBOL,
                                            domain=sympy.QQ)


def _sympy_cyclotomic_indices(p: Polynomial) -> tuple[bool, tuple[int, ...]]:
    _, factors = sympy.Poly([int(c) for c in reversed(p.coeffs)], SYMBOL).factor_list()
    indices = []
    for f, mult in factors:
        if not f.is_cyclotomic:
            return False, ()
        bound = 2 * f.degree() ** 2 + 2
        d = next(d for d in range(1, bound)
                 if sympy.Poly(sympy.cyclotomic_poly(d, SYMBOL), SYMBOL) == f)
        indices += [d] * mult
    return True, tuple(sorted(indices))


@settings(max_examples=200, deadline=None)
@given(monic_integral())
@example(Polynomial([1]))
@example(cyclotomic(1) * cyclotomic(1) * cyclotomic(30))
@example(Polynomial([-1, -1, 1]))
def test_cyclotomic_indices_match_the_fraction_code_and_sympy(p):
    found = is_cyclotomic_product(p)
    assert found == ref_is_cyclotomic_product(p)
    assert found == _sympy_cyclotomic_indices(p)


# -- the Sturm step ------------------------------------------------------------

int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=7).filter(lambda a: a[-1])


@settings(max_examples=300, deadline=None)
@given(int_polys, int_polys)
@example([1, 0, 1], [1, -2])
@example([3, 1, 0, -2], [1, 0, -3])
@example([0, 5, 0, 4], [2, 0, -6])
def test_sturm_step_is_minus_the_remainder_up_to_a_positive_factor(a, b):
    """The next Sturm term is -rem(a, b) times a positive rational, with
    content 1: the sign of the pseudo-remainder is corrected by lc(b)^e for
    e = deg a - deg b + 1, and the content is divided out."""
    step = _sturm_next(a, b)
    expected = -ref_divmod(Polynomial(a), Polynomial(b))[1]
    assert Polynomial(step).degree == expected.degree
    if expected.is_zero:
        assert step == []
        return
    assert step[-1] != 0 and gcd(*step) == 1
    ratio = Fraction(step[-1]) / expected.coeffs[-1]
    assert ratio > 0
    assert Polynomial(step) == Polynomial([ratio * c for c in expected.coeffs])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=8), int_polys)
def test_pseudo_division_identity(a, b):
    while a and not a[-1]:
        a.pop()
    q, r = _pseudo_divmod(a, b)
    e = max(len(a) - len(b) + 1, 0)
    lhs = Polynomial([b[-1] ** e * x for x in a])
    assert Polynomial(q) * Polynomial(b) + Polynomial(r) == lhs
    assert len(r) < len(b) and (not r or r[-1])


# -- diagonalizability ---------------------------------------------------------


@st.composite
def jordan_forms(draw):
    """A block-diagonal Jordan matrix, or its conjugate by an integral or a
    rational matrix."""
    blocks = draw(st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from([0, 1, -1, Fraction(1, 2), 2])),
        min_size=1, max_size=3))
    n = sum(size for size, _ in blocks)
    j = [[0] * n for _ in range(n)]
    start = 0
    for size, value in blocks:
        for i in range(start, start + size):
            j[i][i] = value
            if i + 1 < start + size:
                j[i][i + 1] = 1
        start += size
    j = RationalMatrix(j)
    entries = draw(st.sampled_from([small_ints, rationals, None]))
    if entries is None:
        return j
    p = RationalMatrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                     min_size=n, max_size=n)))
    return j if p.det() == 0 else p @ j @ p.inverse()


def _squares(entries, max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n).map(RationalMatrix))


@settings(max_examples=200, deadline=None)
@given(st.one_of(jordan_forms(), _squares(small_ints, 4), _squares(rationals, 3)))
@example(RationalMatrix([[1, 1], [0, 1]]))
@example(RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]))
def test_is_diagonalizable_matches_the_fraction_code(m):
    chi = char_poly(m)
    found = is_diagonalizable(m, chi)
    assert found == ref_is_diagonalizable(m, chi)
    assert found == min_poly(m)[1]


# -- v^T C v -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    .map(RationalMatrix),
    st.lists(st.one_of(rationals, small_ints), min_size=n, max_size=n))))
def test_delta_matches_the_fraction_code(case):
    c, v = case
    value = delta(c, v)
    assert value == ref_delta(c, v) and isinstance(value, Fraction)


def test_delta_keeps_its_errors_and_inputs():
    c = RationalMatrix([[1, "1/2"], ["1/2", 3]])
    assert delta(c, ["1/2", 1]) == ref_delta(c, ["1/2", 1])
    with pytest.raises(ValueError, match="square"):
        delta(RationalMatrix([[1, 2]]), [1, 1])
    with pytest.raises(ValueError, match="vector length"):
        delta(c, [1])
    with pytest.raises(TypeError):
        delta(c, [1, 0.5])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 25))
def test_delta_sequence_values_match_the_fraction_code(m, l, terms):
    seq = delta_sequence(m, l, terms)
    c = RationalMatrix([[2 * m, l], [l, 2]])
    assert seq.values == tuple(ref_delta(c, v) for v in seq.vectors)


symmetric_2x2 = st.tuples(rationals, rationals, rationals).map(
    lambda t: RationalMatrix([[t[0], t[1]], [t[1], t[2]]]))


@settings(max_examples=80, deadline=None)
@given(symmetric_2x2, st.sampled_from([0, 1, -2, Fraction(5, 2), Fraction(-1, 3)]),
       st.integers(0, 3))
def test_bounded_box_matches_a_fraction_brute_force(c, z, radius):
    box = range(-radius, radius + 1)
    expected = tuple(sorted((x, y) for x in box for y in box if ref_delta(c, (x, y)) == z))
    assert bounded_box(c, z, radius) == expected


def test_solutions_check_their_vectors_on_ints():
    c = RationalMatrix([[2, "1/2"], ["1/2", 3]])
    for z in (0, 2, 3, Fraction(9, 2), 12):
        vectors = solutions(c, z)
        assert all(ref_delta(c, v) == z for v in vectors)
        assert vectors == bounded_box(c, z, 4)
