"""Registry of the algebra families the toolkit ships with.

One table, ``_FAMILIES``, gives each family its default parameters, their
lower bounds and one build function.  Monomial families build a
presentation and their Cartan matrix is recomputed from it; families with
non-monomial relations (commutativity or sum relations) build hand-derived
Cartan matrices instead, each cross-checked by a brute-force
monomial-basis oracle in the test suite.  Entries are plain immutable
records.
"""

from __future__ import annotations

from collections.abc import Callable

from ._record import Record
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


class ParameterBoundError(ValueError):
    """A parameter below the least value the named family takes."""


class AlgebraFamilyEntry(Record):
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


def _bm_presentation(m: int, l: int) -> MonomialPresentation:
    # two-vertex Nakayama-type algebra: z: 1->2, y: 2->1, (zy)^{m-1} z = 0
    if l != 1:
        raise ValueError(
            "b_m is registered for l = 1 only; for l >= 2 its relations "
            "are not monomial and no Cartan matrix is stored"
        )
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


def _lambda_cartan(m: int, l: int) -> RationalMatrix:
    # commutative relations x^{2m} = 0 = y^l, yx = xy: monomial basis
    # x^a y^b with a < 2m, b < l; parity of a + b selects the endpoint,
    # so each column counts m*l paths at either vertex
    v = m * l
    return RationalMatrix([[v, v], [v, v]])


def _trivial_extension(presentation):
    """Build function of the trivial extension of a monomial family: its
    relations are not monomial, so only its Cartan matrix C + C^T is stored."""

    def build(**params) -> RationalMatrix:
        return trivial_extension_cartan(cartan_from_monomial(presentation(**params)))

    return build


class _Family(Record):
    """One registry row.  ``build(**params)`` returns the monomial
    presentation, or the Cartan matrix of a family with non-monomial
    relations; ``note`` is a format string over the parameters."""

    defaults: dict
    lower: dict  # least value of each bounded parameter, checked in order
    build: Callable[..., MonomialPresentation | RationalMatrix]
    note: str
    coxeter_override: RationalMatrix | None = None


# name -> _Family(defaults, lower bounds, build function, note[, Coxeter matrix])
_FAMILIES = {
    "kronecker": _Family(
        {"l": 1}, {"l": 1}, _kronecker_presentation,
        "path algebra of the {l}-Kronecker quiver",
    ),
    "kronecker_te": _Family(
        {"l": 1}, {"l": 1}, _trivial_extension(_kronecker_presentation),
        "trivial extension of the {l}-Kronecker algebra; symmetric, "
        "non-monomial relations, Cartan C + C^T",
    ),
    "am": _Family(
        {"m": 2, "l": 1}, {"m": 1, "l": 1}, _am_presentation,
        "loop x with x^m = 0 killing the parallel arrows (xy = 0)",
    ),
    "am_te": _Family(
        {"m": 2, "l": 1}, {"m": 1, "l": 1}, _trivial_extension(_am_presentation),
        "trivial extension of the loop-plus-parallel-arrows algebra",
    ),
    "am_circ": _Family(
        {"m": 2, "l": 1}, {"m": 1, "l": 1}, _am_circ_presentation,
        "loop x with x^m = 0 only (the composite xy survives)",
    ),
    "am_circ_te": _Family(
        {"m": 2, "l": 1}, {"m": 1, "l": 1}, _trivial_extension(_am_circ_presentation),
        "trivial extension of the x^m = 0 loop algebra",
    ),
    "b_m": _Family(
        {"m": 2, "l": 1}, {"m": 2}, _bm_presentation,
        "two-vertex algebra with (zy)^{{m-1}} z = 0; for m = 2 this is the "
        "zyz = 0 algebra",
    ),
    "lambda_m": _Family(
        {"m": 1, "l": 2}, {"m": 1, "l": 2}, _lambda_cartan,
        "selfinjective two-vertex algebra with commuting x, y; singular "
        "Cartan matrix; for m = 1, l = 2 this is the Brauer graph "
        "algebra of the digon",
    ),
    "c3c3_c2": _Family(
        {}, {}, lambda: RationalMatrix([[5, 4], [4, 5]]),
        "group algebra of (C3 x C3) : C2 in characteristic 3, the C2 "
        "action inverting both generators",
    ),
    "s3_c3": _Family(
        {}, {}, lambda: RationalMatrix([[6, 3], [3, 6]]),
        "group algebra of (C3 x C3) : C2 in characteristic 3, the C2 "
        "action swapping the generators (S3 x C3); Brauer tree algebra "
        "tensored with K[x]/(x^3)",
    ),
    "rad_square_zero_square": _Family(
        {}, {}, _rad_square_zero_square,
        "radical-square-zero algebra on the square quiver with a "
        "diagonal; representation-infinite with positive definite "
        "symmetrized Cartan matrix",
    ),
    "two_cycle_rad_square_zero": _Family(
        {}, {}, _two_cycle_rad_square_zero,
        "radical-square-zero two-cycle; singular Cartan matrix, Coxeter "
        "matrix supplied from the derived-functor definition",
        coxeter_override=RationalMatrix([[0, -1], [-1, 0]]),
    ),
    "tau_infinite_pdc": _Family(
        {}, {}, _tau_infinite_pdc,
        "three-arrow two-vertex algebra with xz = yz = 0; positive "
        "definite symmetrized Cartan matrix but tau-tilting infinite",
    ),
    "bgs": _Family(
        {"n": 3, "r": 1, "m": 0}, {"n": 1, "r": 1, "m": 0}, bgs_normal_form,
        "one-cycle-with-tail gentle normal form with r consecutive "
        "zero relations on the cycle",
    ),
}
FAMILY_NAMES: tuple[str, ...] = tuple(_FAMILIES)
# every parameter some family takes, in order of first appearance
FAMILY_PARAMETERS: tuple[str, ...] = tuple(
    dict.fromkeys(key for f in _FAMILIES.values() for key in f.defaults)
)


def family(name: str, **params) -> AlgebraFamilyEntry:
    """Look up a named algebra family at concrete parameters; the parameters
    it takes are the keys of its registry defaults."""
    if name not in _FAMILIES:
        raise UnknownFamilyError(f"unknown family {name!r}")
    spec = _FAMILIES[name]
    for key in params:
        if key not in spec.defaults:
            raise UnknownParameterError(
                f"family {name!r} takes no parameter {key!r}"
            )
    params = {**spec.defaults, **params}
    for key, v in params.items():
        if type(v) is not int:  # int() would truncate 3.7 to 3
            raise TypeError(f"parameter {key} must be an integer, got {v!r}")
    for key, lo in spec.lower.items():
        if params[key] < lo:
            raise ParameterBoundError(f"parameter {key} must be >= {lo}, got {params[key]}")
    built = spec.build(**params)
    if isinstance(built, MonomialPresentation):
        presentation, cartan = built, cartan_from_monomial(built)
    else:
        presentation, cartan = None, built
    return AlgebraFamilyEntry(
        name, params, presentation, cartan, spec.coxeter_override,
        spec.note.format(**params),
    )


def list_families() -> list[AlgebraFamilyEntry]:
    """Every registered family at its default parameters."""
    return [family(name) for name in FAMILY_NAMES]
