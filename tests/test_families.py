import itertools

import pytest

from tiltkit.families import (
    FAMILY_NAMES,
    FAMILY_PARAMETERS,
    UnknownFamilyError,
    UnknownParameterError,
    family,
    list_families,
)
from tiltkit.linalg import trivial_extension_cartan
from tiltkit.matrix import RationalMatrix
from tiltkit.quiver import cartan_from_monomial


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        family("nope")


def test_unknown_parameter():
    with pytest.raises(UnknownParameterError, match="'m'"):
        family("kronecker", m=-1, r=5)
    with pytest.raises(UnknownParameterError, match="'l'"):
        family("c3c3_c2", l=1)
    with pytest.raises(UnknownParameterError, match="'r'"):
        family("am", m=2, r=1)
    # every family takes exactly the parameters of its default entry
    for e in list_families():
        assert family(e.name, **e.params) == e


def test_omitted_parameters_take_the_listed_defaults():
    for name in FAMILY_NAMES:
        assert family(name) == family(name, **family(name).params)
    assert family("am").params == {"m": 2, "l": 1}
    assert family("bgs", r=2).params == {"n": 3, "r": 2, "m": 0}


def test_registry_covers_all_names():
    entries = list_families()
    assert [e.name for e in entries] == list(FAMILY_NAMES)
    for e in entries:
        assert e.cartan.is_square
        if e.presentation is not None:
            assert cartan_from_monomial(e.presentation) == e.cartan


def test_kronecker():
    assert family("kronecker", l=1).cartan == RationalMatrix([[1, 0], [1, 1]])
    assert family("kronecker", l=3).cartan == RationalMatrix([[1, 0], [3, 1]])
    for l in range(1, 5):
        te = family("kronecker_te", l=l).cartan
        assert te == RationalMatrix([[2, l], [l, 2]])
        assert te == trivial_extension_cartan(family("kronecker", l=l).cartan)


def test_am_families():
    # loop x (x^m = 0) with l parallel arrows; xy = 0 kills composites
    c = family("am", m=2, l=1).cartan
    assert c == RationalMatrix([[2, 0], [1, 1]])
    # am_circ keeps the composites x^k y
    c = family("am_circ", m=2, l=1).cartan
    assert c == RationalMatrix([[2, 0], [2, 1]])
    c = family("am_circ", m=3, l=2).cartan
    assert c == RationalMatrix([[3, 0], [6, 1]])
    # m = 1 collapses both to the Kronecker algebra
    assert family("am", m=1, l=2).cartan == family("kronecker", l=2).cartan
    # trivial extension of am_circ at l=1: the [[2m, m], [m, 2]] shape needs
    # Cartan [[m, 0], [m, 1]]... am_circ(m,1) has column 1 = (m, m)
    te = family("am_circ_te", m=3, l=1).cartan
    assert te == RationalMatrix([[6, 3], [3, 2]])


def test_am_te_match_trivial_extension():
    for m, l in itertools.product(range(1, 4), range(1, 4)):
        assert family("am_te", m=m, l=l).cartan == trivial_extension_cartan(
            family("am", m=m, l=l).cartan
        )
        assert family("am_circ_te", m=m, l=l).cartan == trivial_extension_cartan(
            family("am_circ", m=m, l=l).cartan
        )


def _bm_oracle(m: int) -> RationalMatrix:
    """Nonzero monomials of the two-vertex algebra with (zy)^{m-1} z = 0."""
    dead = ("z", "y") * (m - 1) + ("z",)

    def alive(word):
        return all(
            word[i : i + len(dead)] != dead
            for i in range(len(word) - len(dead) + 1)
        )

    arrows = {"z": (1, 2), "y": (2, 1)}
    counts = [[0, 0], [0, 0]]
    for start in (1, 2):
        frontier = [((), start)]
        counts[start - 1][start - 1] += 1
        for _ in range(4 * m):
            nxt = []
            for word, end in frontier:
                for name, (s, t) in arrows.items():
                    if s != end:
                        continue
                    new = word + (name,)
                    if alive(new):
                        counts[t - 1][start - 1] += 1
                        nxt.append((new, t))
            frontier = nxt
        assert not frontier
    return RationalMatrix(counts)


def test_bm_against_monomial_oracle():
    for m in range(2, 6):
        assert family("b_m", m=m, l=1).cartan == _bm_oracle(m)
    assert family("b_m", m=2, l=1).cartan == RationalMatrix([[2, 2], [1, 2]])
    with pytest.raises(ValueError):
        family("b_m", m=2, l=2)
    with pytest.raises(ValueError):
        family("b_m", m=1, l=1)


def _lambda_oracle(m: int, l: int) -> RationalMatrix:
    """Monomial basis x^a y^b (a < 2m, b < l) on two vertices; each letter
    swaps the vertex, so the endpoint is determined by the parity of a+b."""
    counts = [[0, 0], [0, 0]]
    for start in (0, 1):
        for a in range(2 * m):
            for b in range(l):
                end = (start + a + b) % 2
                counts[end][start] += 1
    return RationalMatrix(counts)


def test_lambda_m_against_monomial_oracle():
    for m, l in itertools.product(range(1, 4), range(2, 5)):
        assert family("lambda_m", m=m, l=l).cartan == _lambda_oracle(m, l)
    assert family("lambda_m", m=1, l=2).cartan == RationalMatrix([[2, 2], [2, 2]])
    with pytest.raises(ValueError):
        family("lambda_m", m=1, l=1)


def test_group_algebra_cartans():
    assert family("c3c3_c2").cartan == RationalMatrix([[5, 4], [4, 5]])
    assert family("s3_c3").cartan == RationalMatrix([[6, 3], [3, 6]])


def test_singular_cartan_families():
    assert family("two_cycle_rad_square_zero").cartan == RationalMatrix(
        [[1, 1], [1, 1]]
    )
    assert family("two_cycle_rad_square_zero").coxeter_override == RationalMatrix(
        [[0, -1], [-1, 0]]
    )
    assert family("tau_infinite_pdc").cartan == RationalMatrix([[1, 1], [2, 3]])


def test_bgs_family():
    e = family("bgs", n=3, r=3, m=0)
    assert e.cartan.det() == 2
    e = family("bgs", n=4, r=4, m=0)
    assert e.cartan.det() == 0


def test_parameter_validation():
    with pytest.raises(ValueError):
        family("kronecker", l=0)
    with pytest.raises(ValueError):
        family("am", m=0, l=1)


def test_checks_run_in_order():
    # unknown family, unknown parameter, lower bounds in table order, then
    # the l check of b_m
    with pytest.raises(UnknownFamilyError):
        family("nope", r=0)
    with pytest.raises(UnknownParameterError):
        family("am", m=0, r=1)
    with pytest.raises(ValueError, match="parameter m must be >= 1, got 0"):
        family("am", m=0, l=0)
    with pytest.raises(ValueError, match="parameter l must be >= 2, got 1"):
        family("lambda_m", m=1, l=1)
    with pytest.raises(ValueError, match="parameter m must be >= 2, got 1"):
        family("b_m", m=1, l=2)
    with pytest.raises(ValueError, match="l = 1 only"):
        family("b_m", m=2, l=2)


def test_parameters_are_the_union_over_the_registry():
    taken = {key for e in list_families() for key in e.params}
    assert set(FAMILY_PARAMETERS) == taken
    assert len(FAMILY_PARAMETERS) == len(taken)
