import itertools
import math
import random
from fractions import Fraction

import pytest

from tiltkit.lattice import bounded_box, solutions
from tiltkit.matrix import RationalMatrix


def _form(c, v):
    return sum(
        Fraction(v[i]) * c.entries[i][j] * v[j]
        for i in range(c.nrows)
        for j in range(c.nrows)
    )


def _brute(c, z, radius):
    return tuple(
        sorted(
            v
            for v in itertools.product(range(-radius, radius + 1), repeat=c.nrows)
            if _form(c, v) == z
        )
    )


def _safe_radius(c, z):
    # v^T C v >= lambda_min |v|^2; widen the numeric estimate by one
    import numpy as np

    lam = min(np.linalg.eigvalsh([[float(x) for x in row] for row in c.entries]))
    return int(math.isqrt(int(float(z) / lam)) + 2)


def test_examples():
    c = RationalMatrix([[2, 1], [1, 2]])
    assert solutions(c, 2) == (
        (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0),
    )
    c = RationalMatrix([[5, 4], [4, 5]])
    assert solutions(c, 5) == ((-1, 0), (0, -1), (0, 1), (1, 0))


def test_trivial_cases():
    c = RationalMatrix([[2, 1], [1, 2]])
    assert solutions(c, -1) == ()
    assert solutions(c, Fraction(-3, 7)) == ()
    assert solutions(c, 0) == ((0, 0),)
    assert solutions(c, 1) == ()  # the form only takes even values


def test_rejects_non_positive_definite():
    with pytest.raises(ValueError):
        solutions(RationalMatrix([[2, 2], [2, 2]]), 2)
    with pytest.raises(ValueError):
        solutions(RationalMatrix([[2, 3], [3, 2]]), 2)
    with pytest.raises(ValueError):
        solutions(RationalMatrix([[1, 2], [3, 4]]), 2)  # not symmetric


def test_negation_closure_and_exactness():
    c = RationalMatrix([[3, 1, 0], [1, 2, 1], [0, 1, 4]])
    for z in (1, 2, 3, 4, 6, 12):
        sols = solutions(c, z)
        assert set(sols) == {tuple(-x for x in v) for v in sols}
        assert all(_form(c, v) == z for v in sols)


def test_against_brute_force_random():
    rng = random.Random(42)
    cases = 0
    while cases < 50:
        n = rng.choice((2, 3))
        m = RationalMatrix(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        )
        c = m @ m.T + RationalMatrix.identity(n)  # positive definite
        z = rng.randint(0, 20)
        expected = _brute(c, z, _safe_radius(c, z))
        assert solutions(c, z) == expected
        cases += 1


def test_rational_form_and_target():
    c = RationalMatrix([["3/2", "1/2"], ["1/2", "1"]])
    sols = solutions(c, Fraction(3, 2))
    assert sols == ((-1, 0), (-1, 1), (1, -1), (1, 0))
    assert all(_form(c, v) == Fraction(3, 2) for v in sols)


def test_bounded_box_digon():
    c = RationalMatrix([[2, 2], [2, 2]])
    sols = bounded_box(c, 2, 5)
    # the form is 2(v1+v2)^2: solutions are exactly v1+v2 = +-1
    expected = tuple(
        sorted(
            v
            for v in itertools.product(range(-5, 6), repeat=2)
            if abs(v[0] + v[1]) == 1
        )
    )
    assert sols == expected
    assert len(sols) == 20
    assert sols == _brute(c, 2, 5)


def test_bounded_box_misc():
    c = RationalMatrix([[2, 3], [3, 2]])
    sols = bounded_box(c, 2, 3)
    for v in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert v in sols
    assert bounded_box(c, 5, 0) == ()
    assert bounded_box(c, 0, 0) == ((0, 0),)


def test_bounded_box_matches_solutions_when_pd():
    c = RationalMatrix([[2, 1], [1, 2]])
    for z in range(0, 9):
        full = solutions(c, z)
        assert bounded_box(c, z, 6) == full


# -- exactness beyond float range ----------------------------------------------


def test_huge_target_needs_no_float():
    assert solutions(RationalMatrix([[1]]), 10**400) == ((-10**200,), (10**200,))


def test_center_beyond_two_to_the_53():
    b = 2**60 + 100
    c = RationalMatrix([[1, b], [b, b * b + 1]])
    assert solutions(c, 1) == ((-b, 1), (-1, 0), (1, 0), (b, -1))


def test_large_z_without_solutions():
    # 5x^2 + 8xy + 5y^2 = 10^7 has no integer solution; the innermost level
    # is solved in closed form, so this enumerates O(sqrt(z)) branches
    assert solutions(RationalMatrix([[5, 4], [4, 5]]), 10**7) == ()

