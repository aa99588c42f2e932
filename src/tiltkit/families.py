"""Registry of the algebra families the toolkit ships with.

Monomial families carry a presentation and their Cartan matrix is recomputed
from it; families with non-monomial relations (commutativity or sum
relations) are registered with hand-derived Cartan matrices instead, each
cross-checked by a brute-force monomial-basis oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import trivial_extension_cartan
from .matrix import RationalMatrix
from .quiver import (
    Arrow,
    MonomialPresentation,
    Quiver,
    bgs_normal_form,
    cartan_from_monomial,
)


class UnknownFamilyError(ValueError):
    pass


class UnknownParameterError(ValueError):
    """A parameter the named family does not take."""


@dataclass(frozen=True)
class AlgebraFamilyEntry:
    name: str
    params: dict
    presentation: MonomialPresentation | None
    cartan: RationalMatrix
    coxeter_override: RationalMatrix | None
    note: str

    def __post_init__(self):
        if self.presentation is not None:
            recomputed = cartan_from_monomial(self.presentation)
            if recomputed != self.cartan:
                raise AssertionError(
                    f"registry entry {self.name}: stored Cartan disagrees "
                    f"with its presentation"
                )


def _require(params: dict, **lower) -> None:
    for key, lo in lower.items():
        if params[key] < lo:
            raise ValueError(f"parameter {key} must be >= {lo}, got {params[key]}")


def _kronecker_presentation(l: int) -> MonomialPresentation:
    arrows = tuple(Arrow(f"y{i}", 1, 2) for i in range(1, l + 1))
    return MonomialPresentation(Quiver(2, arrows), ())


def _am_presentation(m: int, l: int) -> MonomialPresentation:
    # loop x at 1, l parallel arrows 1 -> 2; x^m = 0 and x*y_i = 0
    if m == 1:
        # x = 0 collapses to the l-Kronecker algebra
        return _kronecker_presentation(l)
    arrows = (Arrow("x", 1, 1),) + tuple(
        Arrow(f"y{i}", 1, 2) for i in range(1, l + 1)
    )
    relations = [tuple(["x"] * m)] + [("x", f"y{i}") for i in range(1, l + 1)]
    return MonomialPresentation(Quiver(2, arrows), tuple(relations))


def _am_circ_presentation(m: int, l: int) -> MonomialPresentation:
    # same quiver, only x^m = 0
    if m == 1:
        return _kronecker_presentation(l)
    arrows = (Arrow("x", 1, 1),) + tuple(
        Arrow(f"y{i}", 1, 2) for i in range(1, l + 1)
    )
    return MonomialPresentation(Quiver(2, arrows), (tuple(["x"] * m),))


def _bm_presentation(m: int) -> MonomialPresentation:
    # two-vertex Nakayama-type algebra: z: 1->2, y: 2->1, (zy)^{m-1} z = 0
    arrows = (Arrow("z", 1, 2), Arrow("y", 2, 1))
    word = (("z", "y") * (m - 1)) + ("z",)
    return MonomialPresentation(Quiver(2, arrows), (word,))


def _rad_square_zero_square() -> MonomialPresentation:
    # commutative-square shape with an extra diagonal, radical square zero
    arrows = (
        Arrow("a", 1, 2),
        Arrow("b", 1, 3),
        Arrow("d", 1, 4),
        Arrow("c", 2, 4),
        Arrow("e", 3, 4),
    )
    relations = (("a", "c"), ("b", "e"))
    return MonomialPresentation(Quiver(4, arrows), relations)


def _two_cycle_rad_square_zero() -> MonomialPresentation:
    arrows = (Arrow("a", 1, 2), Arrow("b", 2, 1))
    relations = (("a", "b"), ("b", "a"))
    return MonomialPresentation(Quiver(2, arrows), relations)


def _tau_infinite_pdc() -> MonomialPresentation:
    # x, y: 1 -> 2 and z: 2 -> 1 with xz = yz = 0
    arrows = (Arrow("x", 1, 2), Arrow("y", 1, 2), Arrow("z", 2, 1))
    relations = (("x", "z"), ("y", "z"))
    return MonomialPresentation(Quiver(2, arrows), relations)


def family(name: str, **params) -> AlgebraFamilyEntry:
    """Look up a named algebra family at concrete parameters; the parameters
    it takes are the keys of its ``_DEFAULT_PARAMS`` entry."""
    if name not in _DEFAULT_PARAMS:
        raise UnknownFamilyError(f"unknown family {name!r}")
    for key in params:
        if key not in _DEFAULT_PARAMS[name]:
            raise UnknownParameterError(
                f"family {name!r} takes no parameter {key!r}"
            )
    params = {key: int(v) for key, v in {**_DEFAULT_PARAMS[name], **params}.items()}
    m, l = params.get("m"), params.get("l")
    if name in ("kronecker", "kronecker_te"):
        _require(params, l=1)
    if name in ("am", "am_te", "am_circ", "am_circ_te"):
        _require(params, m=1, l=1)
    if name == "kronecker":
        pres = _kronecker_presentation(l)
        return AlgebraFamilyEntry(
            name, params, pres, cartan_from_monomial(pres), None,
            f"path algebra of the {l}-Kronecker quiver",
        )
    if name == "kronecker_te":
        base = cartan_from_monomial(_kronecker_presentation(l))
        return AlgebraFamilyEntry(
            name, params, None, trivial_extension_cartan(base), None,
            f"trivial extension of the {l}-Kronecker algebra; symmetric, "
            "non-monomial relations, Cartan C + C^T",
        )
    if name == "am":
        pres = _am_presentation(m, l)
        return AlgebraFamilyEntry(
            name, params, pres, cartan_from_monomial(pres), None,
            "loop x with x^m = 0 killing the parallel arrows (xy = 0)",
        )
    if name == "am_te":
        base = cartan_from_monomial(_am_presentation(m, l))
        return AlgebraFamilyEntry(
            name, params, None, trivial_extension_cartan(base), None,
            "trivial extension of the loop-plus-parallel-arrows algebra",
        )
    if name == "am_circ":
        pres = _am_circ_presentation(m, l)
        return AlgebraFamilyEntry(
            name, params, pres, cartan_from_monomial(pres), None,
            "loop x with x^m = 0 only (the composite xy survives)",
        )
    if name == "am_circ_te":
        base = cartan_from_monomial(_am_circ_presentation(m, l))
        return AlgebraFamilyEntry(
            name, params, None, trivial_extension_cartan(base), None,
            "trivial extension of the x^m = 0 loop algebra",
        )
    if name == "b_m":
        _require(params, m=2)
        if l != 1:
            raise ValueError(
                "b_m is registered for l = 1 only; for l >= 2 its relations "
                "are not monomial and no Cartan matrix is stored"
            )
        pres = _bm_presentation(m)
        return AlgebraFamilyEntry(
            name, params, pres, cartan_from_monomial(pres), None,
            "two-vertex algebra with (zy)^{m-1} z = 0; for m = 2 this is the "
            "zyz = 0 algebra",
        )
    if name == "lambda_m":
        _require(params, m=1, l=2)
        # commutative relations x^{2m} = 0 = y^l, yx = xy: monomial basis
        # x^a y^b with a < 2m, b < l; parity of a + b selects the endpoint,
        # so each column counts m*l paths at either vertex
        v = m * l
        return AlgebraFamilyEntry(
            name, params, None,
            RationalMatrix([[v, v], [v, v]]), None,
            "selfinjective two-vertex algebra with commuting x, y; singular "
            "Cartan matrix; for m = 1, l = 2 this is the Brauer graph "
            "algebra of the digon",
        )
    if name == "c3c3_c2":
        return AlgebraFamilyEntry(
            name, {}, None, RationalMatrix([[5, 4], [4, 5]]), None,
            "group algebra of (C3 x C3) : C2 in characteristic 3, the C2 "
            "action inverting both generators",
        )
    if name == "s3_c3":
        return AlgebraFamilyEntry(
            name, {}, None, RationalMatrix([[6, 3], [3, 6]]), None,
            "group algebra of (C3 x C3) : C2 in characteristic 3, the C2 "
            "action swapping the generators (S3 x C3); Brauer tree algebra "
            "tensored with K[x]/(x^3)",
        )
    if name == "rad_square_zero_square":
        pres = _rad_square_zero_square()
        return AlgebraFamilyEntry(
            name, {}, pres, cartan_from_monomial(pres), None,
            "radical-square-zero algebra on the square quiver with a "
            "diagonal; representation-infinite with positive definite "
            "symmetrized Cartan matrix",
        )
    if name == "two_cycle_rad_square_zero":
        pres = _two_cycle_rad_square_zero()
        return AlgebraFamilyEntry(
            name, {}, pres, cartan_from_monomial(pres),
            RationalMatrix([[0, -1], [-1, 0]]),
            "radical-square-zero two-cycle; singular Cartan matrix, Coxeter "
            "matrix supplied from the derived-functor definition",
        )
    if name == "tau_infinite_pdc":
        pres = _tau_infinite_pdc()
        return AlgebraFamilyEntry(
            name, {}, pres, cartan_from_monomial(pres), None,
            "three-arrow two-vertex algebra with xz = yz = 0; positive "
            "definite symmetrized Cartan matrix but tau-tilting infinite",
        )
    if name == "bgs":
        pres = bgs_normal_form(**params)
        return AlgebraFamilyEntry(
            name, params, pres, cartan_from_monomial(pres), None,
            "one-cycle-with-tail gentle normal form with r consecutive "
            "zero relations on the cycle",
        )


_DEFAULT_PARAMS = {
    "kronecker": {"l": 1},
    "kronecker_te": {"l": 1},
    "am": {"m": 2, "l": 1},
    "am_te": {"m": 2, "l": 1},
    "am_circ": {"m": 2, "l": 1},
    "am_circ_te": {"m": 2, "l": 1},
    "b_m": {"m": 2, "l": 1},
    "lambda_m": {"m": 1, "l": 2},
    "c3c3_c2": {},
    "s3_c3": {},
    "rad_square_zero_square": {},
    "two_cycle_rad_square_zero": {},
    "tau_infinite_pdc": {},
    "bgs": {"n": 3, "r": 1, "m": 0},
}
FAMILY_NAMES: tuple[str, ...] = tuple(_DEFAULT_PARAMS)


def list_families() -> list[AlgebraFamilyEntry]:
    """Every registered family at its default parameters."""
    return [family(name, **_DEFAULT_PARAMS[name]) for name in FAMILY_NAMES]
