"""Exact toolkit for tilting-mutation invariants of symmetric algebras.

Cartan/Coxeter matrix analysis over the rationals, Brauer graph decision
procedures and mutation, g-matrix group exploration with unreachability
certificates, and lattice enumeration of quadratic-form solution sets.
"""

from .analysis import (
    AnalysisReport,
    NakayamaPermutation,
    analyze,
    classify_coxeter_poly,
    coxeter_trace_is_minus_one,
    selfinjective_coxeter_poly,
)
from .brauer import (
    Certificate,
    GraphVerdict,
    LeafEdgeError,
    RibbonEdge,
    RibbonGraph,
    RibbonVertex,
    decide,
    disconnectedness_certificate,
    enumerate_connected_multigraphs,
    enumerate_ribbon_structures,
    is_isomorphic,
    kauer_move,
    mutation_g_matrix,
)
from .explore import (
    DeltaSequence,
    Frontier,
    SearchResult,
    alternating_shift_search,
    delta,
    delta_sequence,
    generate,
    reach_shift,
)
from .families import (
    AlgebraFamilyEntry,
    FAMILY_NAMES,
    FAMILY_PARAMETERS,
    ParameterBoundError,
    UnknownFamilyError,
    UnknownParameterError,
    family,
    list_families,
)
from .lattice import bounded_box, solutions
from .linalg import (
    MatrixOrder,
    SingularCartanError,
    char_poly,
    coxeter_matrix,
    definiteness,
    euler_form,
    is_diagonalizable,
    matrix_order,
    min_poly,
    trivial_extension_cartan,
)
from .matrix import RationalMatrix, SingularMatrixError, solve
from .poly import Polynomial, all_roots_on_unit_circle, cyclotomic, is_cyclotomic_product
from .quiver import (
    Arrow,
    GentlePresentation,
    InfiniteDimensionalError,
    MonomialPresentation,
    Quiver,
    bgs_normal_form,
    cartan_from_monomial,
    clock_condition,
    count_oriented_3cycles_with_full_relations,
    validate_gentle,
)
from .serialize import presentation_from_json

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
