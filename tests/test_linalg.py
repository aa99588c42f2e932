import itertools
import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
import tiltkit.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltkit.linalg import (
    INDEFINITE,
    NEGATIVE_DEFINITE,
    NEGATIVE_SEMIDEFINITE_SINGULAR,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE_SINGULAR,
    SingularCartanError,
    char_poly,
    coxeter_matrix,
    definiteness,
    euler_form,
    is_diagonalizable,
    MatrixOrder,
    matrix_order,
    min_poly,
    trivial_extension_cartan,
)
from tiltkit.analysis import analyze
from tiltkit.families import family, list_families
from tiltkit.matrix import RationalMatrix
from tiltkit.explore import alternating_shift_search
from tiltkit.poly import Polynomial, cyclotomic, is_cyclotomic_product

small_ints = st.integers(min_value=-4, max_value=4)


def square(n):
    return st.lists(
        st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RationalMatrix)


def _scalar(n: int, c=0) -> RationalMatrix:
    """c times the n x n identity (the zero matrix by default)."""
    return RationalMatrix([[c if i == j else 0 for j in range(n)] for i in range(n)])


def _evaluate_at_matrix(p: Polynomial, m: RationalMatrix) -> RationalMatrix:
    """p(M) by Horner's rule."""
    acc = _scalar(m.nrows)
    for c in reversed(p.coeffs):
        acc = acc @ m + _scalar(m.nrows, c)
    return acc


def _power(m: RationalMatrix, k: int) -> RationalMatrix:
    """M^k (k >= 0) by k products."""
    out = RationalMatrix.identity(m.nrows)
    for _ in range(k):
        out = out @ m
    return out


FOUR_VERTEX_C = RationalMatrix([[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]])


def test_char_poly_examples():
    phi = coxeter_matrix(FOUR_VERTEX_C)
    expected = Polynomial([1, 2, 1]) * Polynomial([1, -1, 1])
    assert char_poly(phi) == expected
    assert char_poly(RationalMatrix.identity(2)) == Polynomial([1, -2, 1])
    g = RationalMatrix([[2, 1], [-3, -1]])
    assert char_poly(g) == Polynomial([1, -1, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5).flatmap(square))
def test_cayley_hamilton(m):
    p = char_poly(m)
    assert p.is_monic and p.degree == m.nrows
    assert _evaluate_at_matrix(p, m) == _scalar(m.nrows)


def test_min_poly_examples():
    phi = coxeter_matrix(FOUR_VERTEX_C)
    p, diag = min_poly(phi)
    assert p == Polynomial([1, 1]) * Polynomial([1, -1, 1])
    assert diag
    p, diag = min_poly(RationalMatrix.identity(3))
    assert p == Polynomial([-1, 1]) and diag
    p, diag = min_poly(RationalMatrix([[0, 1], [0, 0]]))
    assert p == Polynomial([0, 0, 1]) and not diag


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4).flatmap(square))
def test_min_poly_divides_char_poly(m):
    p, _ = min_poly(m)
    c = char_poly(m)
    assert p.divides(c)
    # same irreducible factors: min_poly power kills char_poly degree
    power = p
    for _ in range(m.nrows):
        power = power * p
    assert c.divides(power)


def _grid_signs(s: RationalMatrix, radius: int = 3) -> set[int]:
    n = s.nrows
    signs = set()
    for v in itertools.product(range(-radius, radius + 1), repeat=n):
        if all(x == 0 for x in v):
            continue
        value = sum(
            Fraction(v[i]) * s.entries[i][j] * v[j]
            for i in range(n)
            for j in range(n)
        )
        signs.add(1 if value > 0 else (-1 if value < 0 else 0))
    return signs


def _principal_minor_classification(s: RationalMatrix) -> str:
    """Classify a symmetric matrix by exhaustive principal minors (n <= ~12)."""
    n = s.nrows
    dets: dict[tuple[int, ...], Fraction] = {}
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sub = RationalMatrix(
                [[s.entries[i][j] for j in subset] for i in subset]
            )
            dets[subset] = sub.det()
    psd = all(d >= 0 for d in dets.values())
    nsd = all(
        (d >= 0 if len(k) % 2 == 0 else d <= 0) for k, d in dets.items()
    )
    full = dets[tuple(range(n))]
    if psd:
        return POSITIVE_DEFINITE if full != 0 else POSITIVE_SEMIDEFINITE_SINGULAR
    if nsd:
        return NEGATIVE_DEFINITE if full != 0 else NEGATIVE_SEMIDEFINITE_SINGULAR
    return INDEFINITE


def _check_against_grid(s: RationalMatrix) -> None:
    """One-sided grid oracle: the grid can refute classes, not certify them
    (an indefinite cone can be too narrow for small integer vectors)."""
    verdict = definiteness(s)
    signs = _grid_signs(s)
    if {1, -1} <= signs:
        assert verdict == INDEFINITE
    if verdict == POSITIVE_DEFINITE:
        assert signs <= {1}
    if verdict == NEGATIVE_DEFINITE:
        assert signs <= {-1}
    if verdict == POSITIVE_SEMIDEFINITE_SINGULAR:
        assert signs <= {0, 1} and s.det() == 0
    if verdict == NEGATIVE_SEMIDEFINITE_SINGULAR:
        assert signs <= {0, -1} and s.det() == 0
    # exact independent oracle: principal-minor classification
    assert verdict == _principal_minor_classification(s)


def test_definiteness_examples():
    assert definiteness(RationalMatrix([[2, 2], [2, 2]])) == POSITIVE_SEMIDEFINITE_SINGULAR
    assert definiteness(RationalMatrix([[2, 3], [3, 2]])) == INDEFINITE
    assert definiteness(RationalMatrix([[8, 4], [4, 2]])) == POSITIVE_SEMIDEFINITE_SINGULAR
    assert definiteness(RationalMatrix([[2, 1], [1, 2]])) == POSITIVE_DEFINITE
    assert definiteness(RationalMatrix([[-1, 0], [0, -2]])) == NEGATIVE_DEFINITE
    assert definiteness(RationalMatrix([[0, 0], [0, 0]])) == POSITIVE_SEMIDEFINITE_SINGULAR
    assert definiteness(RationalMatrix([[0, 1], [1, 0]])) == INDEFINITE
    with pytest.raises(ValueError):
        definiteness(RationalMatrix([[1, 2], [3, 4]]))


def _block_diagonal(*blocks: list[list[int]]) -> RationalMatrix:
    n = sum(len(b) for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        for row in b:
            rows.append([0] * offset + row + [0] * (n - offset - len(row)))
        offset += len(b)
    return RationalMatrix(rows)


HYPERBOLIC_PLANE = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "s",
    [
        RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]]),
        _block_diagonal(HYPERBOLIC_PLANE, [[2, 1], [1, 2]]),
        _block_diagonal([[2, 1], [1, 2]], HYPERBOLIC_PLANE),
        # the zero diagonal only appears in the Schur complement
        RationalMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 0]]),
    ],
)
def test_definiteness_blocked_diagonal(s):
    assert definiteness(s) == INDEFINITE == _principal_minor_classification(s)


def test_definiteness_blocked_diagonal_needs_no_minors(monkeypatch):
    # 2^16 principal minors would be needed by an exhaustive classification
    s = _block_diagonal(*[HYPERBOLIC_PLANE] * 8)

    def no_det(self):
        raise AssertionError("definiteness must not compute determinants")

    monkeypatch.setattr(RationalMatrix, "det", no_det)
    assert definiteness(s) == INDEFINITE


@settings(max_examples=80, deadline=None)
@given(square(2))
def test_definiteness_vs_oracles_2x2(m):
    _check_against_grid(m + m.T)


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_definiteness_vs_oracles_3x3(m):
    _check_against_grid(m + m.T)


def test_matrix_order_examples():
    assert matrix_order(RationalMatrix([[1, 1], [-2, -1]])).order == 4
    assert matrix_order(RationalMatrix.identity(3)) == MatrixOrder("finite", order=1)
    r = matrix_order(RationalMatrix([[4, 1], [-5, -1]]))
    assert r.kind == "certified_infinite"
    assert matrix_order(RationalMatrix([[2, 1], [-3, -1]])).order == 6
    assert matrix_order(-RationalMatrix.identity(2)).order == 2
    # parabolic: eigenvalues 1, 1 but not the identity
    r = matrix_order(RationalMatrix([[1, 1], [0, 1]]))
    assert r.kind == "certified_infinite" and "not semisimple" in r.reason
    r = matrix_order(RationalMatrix([[-1, 1, 0], [0, -1, 0], [0, 0, 1]]))
    assert r.kind == "certified_infinite" and "not semisimple" in r.reason
    with pytest.raises(ValueError):
        matrix_order(RationalMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        matrix_order(RationalMatrix([[1, 0]]))


def test_matrix_order_minimality():
    for m, k in [
        (RationalMatrix([[0, -1], [1, 0]]), 4),
        (RationalMatrix([[0, -1], [1, -1]]), 3),
        (RationalMatrix([[0, 1], [1, 0]]), 2),
    ]:
        assert matrix_order(m).order == k
        eye = RationalMatrix.identity(2)
        assert _power(m, k) == eye
        assert all(_power(m, j) != eye for j in range(1, k))


ROTATION = RationalMatrix([["3/5", "-4/5"], ["4/5", "3/5"]])


def test_matrix_order_non_integral():
    half = RationalMatrix([["1/2", 0], [0, 2]])
    r = matrix_order(half)
    assert r.kind == "certified_infinite"  # eigenvalue 2 off the unit circle
    # eigenvalues (3 +- 4i)/5 lie on the unit circle but are not roots of unity
    assert matrix_order(ROTATION) == MatrixOrder(
        "certified_infinite", reason="characteristic polynomial is not integral"
    )


def test_matrix_order_forms_no_power_beyond_the_memoised_ones(monkeypatch):
    products = []
    matmul = RationalMatrix.__matmul__

    def counting(a, b):
        products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(RationalMatrix, "__matmul__", counting)
    for m in (ROTATION, RationalMatrix([[1, 1], [0, 1]]),
              RationalMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])):
        products.clear()
        matrix_order(RationalMatrix(m.entries))
        assert len(products) <= m.nrows - 1


def test_alternating_search_decides_a_rational_rotation():
    mu2 = RationalMatrix([[1, 1], [0, -1]])
    r = alternating_shift_search(mu2 @ ROTATION, mu2)
    assert r.status == "certified_never"
    assert "infinite order" in r.reason


def _reference_matrix_order(m: RationalMatrix, cap: int = 10_000) -> tuple:
    """The order routine as it stood, as (kind, order): for integral input the
    Kronecker test and a search over the divisors of the lcm of the cyclotomic
    indices; otherwise two 2x2 trace rules, then products up to ``cap``."""
    n = m.nrows
    eye = RationalMatrix.identity(n)
    if m == eye:
        return "finite", 1
    p = char_poly(m)
    if m.is_integral:
        ok, indices = is_cyclotomic_product(p)
        if not ok:
            return "certified_infinite", None
        bound = lcm(*indices)
        for k in range(1, bound + 1):
            if bound % k == 0 and _power(m, k) == eye:
                return "finite", k
        return "certified_infinite", None
    if n == 2 and m.det() == 1:
        t = m.trace()
        if abs(t) > 2 or (abs(t) == 2 and m != eye and m != -eye):
            return "certified_infinite", None
    power = m
    for k in range(1, cap + 1):
        if power == eye:
            return "finite", k
        power = power @ m
    return "unknown", None


def _elementary(n: int, i: int, j: int, c: int) -> RationalMatrix:
    return RationalMatrix([[int(r == s) + (c if (r, s) == (i, j) else 0)
                            for s in range(n)] for r in range(n)])


def _unimodular(rng: random.Random, n: int) -> RationalMatrix:
    u = RationalMatrix.identity(n)
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        u = u @ _elementary(n, i, j, rng.choice([-2, -1, 1, 2]))
    return u


def _signed_permutation(rng: random.Random, n: int) -> RationalMatrix:
    perm = rng.sample(range(n), n)
    return RationalMatrix([[rng.choice([-1, 1]) if s == perm[r] else 0
                            for s in range(n)] for r in range(n)])


def _companion(p: Polynomial) -> RationalMatrix:
    n = p.degree
    return RationalMatrix([[int(r == s + 1) if s < n - 1 else -p.coeffs[r]
                            for s in range(n)] for r in range(n)])


def _cyclotomic_product(rng: random.Random, n: int) -> Polynomial:
    """A product of cyclotomics of degree n, repeated factors allowed."""
    small = [d for d in range(1, 13) if cyclotomic(d).degree <= n]
    p = Polynomial([1])
    while p.degree < n:
        phi = cyclotomic(rng.choice(small))
        if p.degree + phi.degree <= n:
            p = p * phi
    return p


def _integral_draws(seed: int, n: int, count: int) -> list[RationalMatrix]:
    """Seeded integral matrices with det +-1: unimodular products (mostly of
    infinite order), conjugates of signed permutations (finite), of a Jordan
    block times a signed permutation (not semisimple) and of companion
    matrices of cyclotomic products (finite or not semisimple)."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        u = _unimodular(rng, n)
        core = [
            None,
            _signed_permutation(rng, n),
            _elementary(n, 0, 1, 1) @ _signed_permutation(rng, n),
            _companion(_cyclotomic_product(rng, n)),
        ][k % 4]
        out.append(u if core is None else u @ core @ u.inverse())
    return out


UNIMODULAR_2X2 = [
    m for m in (RationalMatrix([[a, b], [c, d]])
                for a, b, c, d in itertools.product(range(-3, 4), repeat=4))
    if m.det() in (1, -1)
]

INTEGRAL_DRAWS = (
    UNIMODULAR_2X2
    + _integral_draws(3, 3, 60)
    + _integral_draws(4, 4, 40)
    + [RationalMatrix([[1, 1], [0, -1]]) @ RationalMatrix([[-1, 0], [m, 1]])
       for m in range(1, 51)]
)


def test_matrix_order_matches_reference_on_integral_matrices():
    kinds = set()
    for m in INTEGRAL_DRAWS:
        r = matrix_order(m)
        assert (r.kind, r.order) == _reference_matrix_order(m), m
        kinds.add((r.kind, r.reason))
    # every verdict occurs among the draws
    assert {reason for _, reason in kinds} == {
        "",
        "characteristic polynomial has a root off the unit circle",
        "eigenvalues are roots of unity but the matrix is not semisimple",
    }


def _rational_invertible(rng: random.Random, n: int) -> RationalMatrix:
    while True:
        s = RationalMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                             for _ in range(n)] for _ in range(n)])
        if s.det() != 0:
            return s


def _rational_det_one(rng: random.Random, n: int) -> RationalMatrix:
    """A seeded rational matrix with det 1: the first row over the det."""
    s = _rational_invertible(rng, n)
    d = s.det()
    return RationalMatrix([[x / d for x in s.entries[0]]] + list(s.entries[1:]))


def test_matrix_order_exact_on_rational_matrices():
    """S M S^-1 has the order of M.  Every finite order is confirmed by
    products; where the old power loop gave up, the verdict is infinite."""
    rng = random.Random(11)
    gave_up = 0
    for n, count in ((2, 60), (3, 60), (4, 20)):
        cases = [
            (s @ m @ s.inverse(), matrix_order(m))
            for m, s in (
                (m, _rational_invertible(rng, n))
                for m in rng.sample([x for x in INTEGRAL_DRAWS if x.nrows == n], count)
            )
        ]
        cases += [(_rational_det_one(rng, n), None) for _ in range(10)]
        for m, expected in cases:
            r = matrix_order(m)
            if expected is not None:
                assert r == expected
            if r.kind == "finite":
                eye = RationalMatrix.identity(n)
                assert _power(m, r.order) == eye
                assert all(_power(m, j) != eye for j in range(1, r.order))
            ref = _reference_matrix_order(m, cap=200)
            if ref[0] == "unknown":
                gave_up += 1
                assert r.kind == "certified_infinite"
            else:
                assert (r.kind, r.order) == ref
    assert gave_up > 0


def test_coxeter_matrix_four_vertex_instance():
    phi = coxeter_matrix(FOUR_VERTEX_C)
    expected = RationalMatrix(
        [[0, 0, 0, -1], [0, 0, 1, -1], [0, 1, 0, -1], [-1, 1, 1, -1]]
    )
    assert phi == expected
    with pytest.raises(SingularCartanError):
        coxeter_matrix(RationalMatrix([[1, 1], [1, 1]]))


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_coxeter_det_sign(c):
    if c.det() == 0:
        return
    assert coxeter_matrix(c).det() == (-1) ** 3 * Fraction(1)


def test_euler_form_examples():
    eye = RationalMatrix.identity(2)
    assert euler_form(eye, [1, 0], [1, 0]) == 1
    value = euler_form(FOUR_VERTEX_C, [1, 1, 1, 1], [1, 1, 1, 1])
    assert value > 0
    with pytest.raises(SingularCartanError):
        euler_form(RationalMatrix([[1, 1], [1, 1]]), [1, 0], [0, 1])


@settings(max_examples=40, deadline=None)
@given(
    square(3),
    st.lists(small_ints, min_size=3, max_size=3),
    st.lists(small_ints, min_size=3, max_size=3),
)
def test_euler_form_antisymmetry(c, x, y):
    if c.det() == 0:
        return
    phi = coxeter_matrix(c)
    assert euler_form(c, x, phi.vec_mul(y)) == -euler_form(c, y, x)


def test_trivial_extension_cartan():
    c = RationalMatrix([[1, 0], [1, 1]])
    te = trivial_extension_cartan(c)
    assert te == RationalMatrix([[2, 1], [1, 2]])
    assert te.is_symmetric


# -- diagonalizability from the radical of chi ------------------------------------

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _square_of(entries, max_n):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n).map(RationalMatrix))


@st.composite
def jordan_forms(draw):
    """A block-diagonal Jordan matrix with few distinct eigenvalues (so chi
    has repeated roots), or its conjugate P J P^-1 by an integral or a
    rational P."""
    blocks = draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=3),
                  st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)])),
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
    entries = draw(st.sampled_from([small_ints, RATIONALS, None]))
    if entries is None:
        return j
    p = RationalMatrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                     min_size=n, max_size=n)))
    return j if p.det() == 0 else p @ j @ p.inverse()


SCALARS = [_scalar(n, c) for n in (1, 2, 3, 5)
           for c in (0, 1, -1, 2, Fraction(-2, 3))]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_square_of(small_ints, 5), _square_of(RATIONALS, 4), jordan_forms(),
                 st.sampled_from(SCALARS)))
@example(RationalMatrix.identity(3))
@example(RationalMatrix([[1, 1], [0, 1]]))
def test_is_diagonalizable_matches_min_poly(m):
    assert is_diagonalizable(m, char_poly(m)) == min_poly(m)[1]


def test_scalar_matrices_are_diagonalizable():
    # chi = (x - c)^n is not squarefree for n > 1, yet (x - c)(cE) = 0
    for m in SCALARS:
        chi = char_poly(m)
        assert chi.is_squarefree == (m.nrows == 1)
        assert is_diagonalizable(m, chi)
    jordan = RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert not is_diagonalizable(jordan, char_poly(jordan))


def _analyze_inputs():
    cases = [(FOUR_VERTEX_C, None), (RationalMatrix([[1, 1], [1, 1]]),
                                     RationalMatrix([[0, -1], [-1, 0]]))]
    cases += [(e.cartan, e.coxeter_override) for e in list_families()]
    cases += [(family("bgs", n=n, r=r, m=m).cartan, None)
              for n in range(3, 9) for r in (1, n // 2) for m in (0, 1, 2)]
    return cases


def test_spectral_verdicts_need_no_min_poly(monkeypatch):
    cases = _analyze_inputs()
    reports = [analyze(RationalMatrix(c.entries), coxeter_override=o) for c, o in cases]
    for r in reports:
        if r.coxeter is not None:
            assert r.diagonalizable == min_poly(r.coxeter)[1]
    assert {r.diagonalizable for r in reports} == {True, False, None}
    orders = [matrix_order(RationalMatrix(m.entries)) for m in INTEGRAL_DRAWS + [ROTATION]]

    def refuse(m):
        raise AssertionError("min_poly called")

    monkeypatch.setattr(tiltkit.linalg, "min_poly", refuse)
    assert [analyze(RationalMatrix(c.entries), coxeter_override=o)
            for c, o in cases] == reports
    assert [matrix_order(RationalMatrix(m.entries))
            for m in INTEGRAL_DRAWS + [ROTATION]] == orders


# -- the Coxeter matrix on ints ------------------------------------------------------


def _seeded_cartan(rng: random.Random, n: int, rational: bool, rank: int | None = None):
    """A seeded n x n matrix with entries in 0..3 (over 1..4 when rational);
    of rank at most ``rank`` when given, as an (n x rank)(rank x n) product."""
    def entry():
        return Fraction(rng.randint(0, 3), rng.randint(1, 4) if rational else 1)

    if rank is not None:
        a = RationalMatrix([[entry() for _ in range(rank)] for _ in range(n)])
        b = RationalMatrix([[entry() for _ in range(n)] for _ in range(rank)])
        return a @ b
    while True:
        c = RationalMatrix([[entry() + (i == j) for j in range(n)] for i in range(n)])
        if c.det() != 0:
            return c


@pytest.mark.parametrize("rational", [False, True], ids=["integral", "rational"])
def test_coxeter_matrix_matches_the_fraction_product(rational):
    rng = random.Random(1603 + rational)
    for n in range(2, 13):
        for _ in range(3):
            c = _seeded_cartan(rng, n, rational)
            ref = RationalMatrix(c.entries)
            assert coxeter_matrix(c) == -(ref.T @ ref.inverse())
            with pytest.raises(SingularCartanError):
                coxeter_matrix(_seeded_cartan(rng, n, rational, rank=n - 1))
