import itertools
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
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
    evaluate_at_matrix,
    matrix_order,
    min_poly,
    trivial_extension_cartan,
)
from tiltkit.matrix import RationalMatrix
from tiltkit.poly import Polynomial

small_ints = st.integers(min_value=-4, max_value=4)


def square(n):
    return st.lists(
        st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RationalMatrix)


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
    assert evaluate_at_matrix(p, m) == RationalMatrix.zero(m.nrows)


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
    assert matrix_order(RationalMatrix.identity(3)).order == 1
    r = matrix_order(RationalMatrix([[4, 1], [-5, -1]]))
    assert r.kind == "certified_infinite"
    assert matrix_order(RationalMatrix([[2, 1], [-3, -1]])).order == 6
    assert matrix_order(-RationalMatrix.identity(2)).order == 2
    # parabolic: trace 2 but not the identity
    r = matrix_order(RationalMatrix([[1, 1], [0, 1]]))
    assert r.kind == "certified_infinite"
    with pytest.raises(ValueError):
        matrix_order(RationalMatrix([[2, 0], [0, 1]]))


def test_matrix_order_minimality():
    for m, k in [
        (RationalMatrix([[0, -1], [1, 0]]), 4),
        (RationalMatrix([[0, -1], [1, -1]]), 3),
        (RationalMatrix([[0, 1], [1, 0]]), 2),
    ]:
        assert matrix_order(m).order == k
        eye = RationalMatrix.identity(2)
        assert m.power(k) == eye
        assert all(m.power(j) != eye for j in range(1, k))


def test_matrix_order_non_integral():
    half = RationalMatrix([["1/2", 0], [0, 2]])
    r = matrix_order(half)
    assert r.kind == "certified_infinite"  # 2x2 det 1, |trace| > 2
    rot = RationalMatrix([["3/5", "-4/5"], ["4/5", "3/5"]])
    r = matrix_order(rot, cap=50)
    assert r.kind == "unknown" and r.bound == 50


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
