"""Bundled Cartan/Coxeter verdicts.

`analyze` collects, for one Cartan matrix: regularity, exact definiteness of
the symmetrization, positivity of the Euler form, cyclotomic type of the
Coxeter matrix, the eigenvalue-one test, diagonalizability, and the Coxeter
trace.  Every verdict is exact.  An integral Coxeter polynomial is
cyclotomic exactly when it is a product of cyclotomic polynomials (Kronecker);
a non-integral one is generalized cyclotomic when a Sturm count over the
rationals puts all its roots on the unit circle.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .linalg import (
    POSITIVE_DEFINITE,
    SingularCartanError,
    char_poly,
    coxeter_matrix,
    definiteness,
    is_diagonalizable,
    trivial_extension_cartan,
)
from .matrix import RationalMatrix
from .poly import Polynomial, all_roots_on_unit_circle, is_cyclotomic_product

CYCLOTOMIC = "cyclotomic"
# an exact verdict; the wire value keeps the name it had as a numeric check
GENERALIZED_CYCLOTOMIC_NUMERIC = "generalized_cyclotomic_numeric"
NOT_CYCLOTOMIC = "no"


class AnalysisReport(Record):
    regular: bool
    symmetrized_definiteness: str
    # the Coxeter-derived fields, None for a singular C without a Coxeter matrix
    euler_form_positive: bool | None = None
    cyclotomic_type: str | None = None
    cyclotomic_indices: tuple[int, ...] | None = None
    has_eigenvalue_one: bool | None = None
    diagonalizable: bool | None = None
    coxeter_trace: Fraction | None = None
    coxeter: RationalMatrix | None = None
    coxeter_char_poly: Polynomial | None = None


def classify_coxeter_poly(p: Polynomial) -> tuple[str, tuple[int, ...] | None]:
    if p.is_integral:
        ok, indices = is_cyclotomic_product(p)
        # a monic integral polynomial with all roots on the unit circle is a
        # product of cyclotomics, so failure is an exact negative verdict
        return (CYCLOTOMIC, indices) if ok else (NOT_CYCLOTOMIC, None)
    if all_roots_on_unit_circle(p):
        return GENERALIZED_CYCLOTOMIC_NUMERIC, None
    return NOT_CYCLOTOMIC, None


def analyze(
    c: RationalMatrix, coxeter_override: RationalMatrix | None = None
) -> AnalysisReport:
    """Full report for a square Cartan matrix.

    For a singular Cartan matrix the Coxeter-derived fields are omitted
    unless an externally computed Coxeter matrix of the same shape is
    supplied; that matrix is used for reporting only and is never derived
    from C.  A regular C has its own Coxeter matrix and takes none.
    """
    if not c.is_square:
        raise ValueError("analyze requires a square matrix")
    if coxeter_override is not None and (
            (coxeter_override.nrows, coxeter_override.ncols) != (c.nrows, c.ncols)):
        raise ValueError("the Coxeter matrix and the Cartan matrix differ in shape")
    symmetrized = definiteness(trivial_extension_cartan(c))
    regular = c.det() != 0
    if regular and coxeter_override is not None:
        raise ValueError("a Coxeter matrix is supplied only for a singular Cartan "
                         "matrix; this one is regular and determines its own")
    phi = coxeter_matrix(c) if regular else coxeter_override
    if phi is None:
        return AnalysisReport(False, symmetrized)

    p = char_poly(phi)
    ctype, indices = classify_coxeter_poly(p)
    has_one = p(1) == 0
    diagonalizable = is_diagonalizable(phi, p)

    euler_positive = None
    if regular:
        inv = c.inverse()
        euler_positive = (
            definiteness(inv.T + inv) == POSITIVE_DEFINITE
        )
        # the Euler form is positive definite exactly when the symmetrized
        # Cartan matrix is; both are exact, so disagreement is a bug
        if euler_positive != (symmetrized == POSITIVE_DEFINITE):
            raise AssertionError("Euler form and symmetrized Cartan disagree")

    if symmetrized == POSITIVE_DEFINITE and regular:
        # positive definiteness forces all three spectral conclusions
        if ctype == NOT_CYCLOTOMIC:
            raise AssertionError("positive definite but Coxeter roots off the unit circle")
        if has_one:
            raise AssertionError("positive definite but Coxeter eigenvalue 1")
        if not diagonalizable:
            raise AssertionError("positive definite but Coxeter matrix not diagonalizable")

    return AnalysisReport(
        regular=regular,
        symmetrized_definiteness=symmetrized,
        euler_form_positive=euler_positive,
        cyclotomic_type=ctype,
        cyclotomic_indices=indices,
        has_eigenvalue_one=has_one,
        diagonalizable=diagonalizable,
        coxeter_trace=phi.trace(),
        coxeter=phi,
        coxeter_char_poly=p,
    )


def coxeter_trace_is_minus_one(c: RationalMatrix) -> bool:
    """Exact test trace(-C^T C^{-1}) = -1."""
    if c.det() == 0:
        raise SingularCartanError("trace test requires a regular Cartan matrix")
    return coxeter_matrix(c).trace() == -1


class NakayamaPermutation(Record):
    """Permutation of 1..n in cycle notation (fixed points included)."""

    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(len(cyc) == 0 for cyc in self.cycles):
            raise ValueError("a cycle is empty")
        points = [p for cyc in self.cycles for p in cyc]
        if any(type(p) is not int for p in points):
            raise TypeError("cycle points must be integers")
        if len(points) != len(set(points)):
            raise ValueError("cycles are not disjoint")
        if sorted(points) != list(range(1, len(points) + 1)):
            raise ValueError("cycles must cover 1..n exactly")

    @property
    def is_odd(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles) % 2 == 1


def selfinjective_coxeter_poly(
    sigma: NakayamaPermutation,
) -> tuple[Polynomial, bool]:
    """Coxeter polynomial of a selfinjective algebra from its Nakayama
    permutation: product over cycles of x^len + 1 (len odd) or x^len - 1
    (len even), plus the exact eigenvalue-one flag.
    """
    poly = Polynomial([1])
    for cyc in sigma.cycles:
        length = len(cyc)
        sign = 1 if length % 2 == 1 else -1
        poly = poly * Polynomial([sign] + [0] * (length - 1) + [1])
    return poly, poly(1) == 0
