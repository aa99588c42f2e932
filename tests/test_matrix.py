from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltkit.linalg import char_poly, min_poly
from tiltkit.matrix import RationalMatrix, SingularMatrixError, solve


def square(entries_strategy, n):
    return st.lists(
        st.lists(entries_strategy, min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(RationalMatrix)


small_ints = st.integers(min_value=-6, max_value=6)


def test_construction_and_access():
    m = RationalMatrix([[1, "1/2"], [Fraction(3, 4), 0]])
    assert m[0, 1] == Fraction(1, 2)
    assert m.entries[1] == (Fraction(3, 4), Fraction(0))
    assert tuple(row[0] for row in m.entries) == (Fraction(1), Fraction(3, 4))
    assert m.nrows == m.ncols == 2


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix([])


def test_immutability_and_hash():
    m = RationalMatrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.entries = ()
    # the memo slots, filled or not, refuse assignment too
    m.inverse()
    m.powers()
    for name in ("_powers", "_inverse", "anything"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)
    for name in ("entries", "nrows", "_powers", "_inverse"):
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert hash(m) == hash(RationalMatrix([["1", "2"], ["3", "4"]]))
    assert m == RationalMatrix([[1, 2], [3, 4]])
    assert m != RationalMatrix([[1, 2], [3, 5]])


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        RationalMatrix([[0.5]])


def test_arithmetic():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, 1], [1, 0]])
    assert a + b == RationalMatrix([[1, 3], [4, 4]])
    assert a - b == RationalMatrix([[1, 1], [2, 4]])
    assert -a == RationalMatrix([[-1, -2], [-3, -4]])
    assert a @ b == RationalMatrix([[2, 1], [4, 3]])
    assert a.T == RationalMatrix([[1, 3], [2, 4]])
    assert a.trace() == 5
    assert a.column_sums() == (4, 6)


def test_vec_mul():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert a.vec_mul([1, -1]) == (-1, -1)
    with pytest.raises(ValueError):
        a.vec_mul([1])


def test_identity_zero():
    eye = RationalMatrix.identity(3)
    assert eye.trace() == 3
    assert eye - eye == RationalMatrix([[0] * 3] * 3)
    m = RationalMatrix([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    assert eye @ m == m @ eye == m


def test_power():
    m = RationalMatrix([[1, 1], [0, 1]])
    assert m @ m @ m @ m @ m == RationalMatrix([[1, 5], [0, 1]])
    assert m.inverse() @ m.inverse() == RationalMatrix([[1, -2], [0, 1]])
    assert m.powers() == (RationalMatrix.identity(2), m, RationalMatrix([[1, 2], [0, 1]]))


def test_det_and_inverse():
    m = RationalMatrix([[2, 1], [1, 2]])
    assert m.det() == 3
    assert m.inverse() @ m == RationalMatrix.identity(2)
    singular = RationalMatrix([[1, 2], [2, 4]])
    assert singular.det() == 0
    with pytest.raises(SingularMatrixError):
        singular.inverse()


def test_memos_leave_equality_hash_and_repr_alone():
    m = RationalMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    before = (hash(m), repr(m))
    char_poly(m)
    min_poly(m)
    m.inverse()
    assert (hash(m), repr(m)) == before
    fresh = RationalMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert m == fresh and fresh == m and hash(m) == hash(fresh)
    assert len({m, fresh}) == 1


def test_inverse_is_memoised_and_singular_raises_every_time():
    m = RationalMatrix([[2, 1], [1, 1]])
    assert m.inverse() is m.inverse()
    singular = RationalMatrix([[1, 2], [2, 4]])
    for _ in range(3):
        with pytest.raises(SingularMatrixError):
            singular.inverse()


def test_powers_are_an_immutable_memoised_tuple():
    m = RationalMatrix([[1, 1], [0, 1]])
    powers = m.powers()
    assert powers == (RationalMatrix.identity(2), m, m @ m)
    assert isinstance(powers, tuple) and m.powers() is powers
    with pytest.raises(TypeError):
        powers[0] = m
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2, 3]]).powers()


@settings(max_examples=60, deadline=None)
@given(square(small_ints, 3), square(small_ints, 3))
def test_det_is_multiplicative(a, b):
    assert (a @ b).det() == a.det() * b.det()


@settings(max_examples=60, deadline=None)
@given(square(small_ints, 3))
def test_inverse_roundtrip(m):
    if m.det() == 0:
        return
    assert m @ m.inverse() == RationalMatrix.identity(3)
    assert m.inverse().det() * m.det() == 1


def test_solve_consistent_and_inconsistent():
    a = RationalMatrix([[1, 2], [2, 4]])
    assert solve(a, [1, 2]) is not None
    assert solve(a, [1, 3]) is None
    b = RationalMatrix([[2, 0], [0, 3]])
    assert solve(b, [4, 9]) == (2, 3)


@settings(max_examples=40, deadline=None)
@given(square(small_ints, 3), st.lists(small_ints, min_size=3, max_size=3))
def test_solve_verifies(a, x):
    b = a.vec_mul(x)
    sol = solve(a, b)
    assert sol is not None
    assert a.vec_mul(sol) == tuple(b)
