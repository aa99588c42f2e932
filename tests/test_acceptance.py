"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; under plain ``pytest`` the lines appear in the captured output of
each test.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

from tiltkit.analysis import (
    CYCLOTOMIC,
    NOT_CYCLOTOMIC,
    NakayamaPermutation,
    analyze,
    selfinjective_coxeter_poly,
)
from tiltkit.brauer import (
    RibbonGraph,
    RibbonVertex,
    cycle_criterion,
    enumerate_connected_multigraphs,
    enumerate_ribbon_structures,
    k0_criterion,
    mutation_g_matrix,
)
from tiltkit.explore import (
    alternating_shift_search,
    delta,
    delta_sequence,
    reach_shift,
)
from tiltkit.families import list_families
from tiltkit.lattice import bounded_box, solutions
from tiltkit.linalg import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE_SINGULAR,
    char_poly,
    coxeter_matrix,
    definiteness,
)
from tiltkit.matrix import RationalMatrix
from tiltkit.poly import Polynomial
from tiltkit.quiver import (
    ONE_CYCLE_NONCLOCK,
    Arrow,
    MonomialPresentation,
    Quiver,
    bgs_normal_form,
    cartan_from_monomial,
    clock_condition,
    validate_gentle,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {title}")


def test_criterion_1_four_vertex_example():
    with criterion(1, "4-vertex radical-square-zero example reproduced exactly"):
        start = time.monotonic()
        arrows = (
            Arrow("a", 1, 2),
            Arrow("b", 1, 3),
            Arrow("d", 1, 4),
            Arrow("c", 2, 4),
            Arrow("e", 3, 4),
        )
        pres = MonomialPresentation(Quiver(4, arrows), (("a", "c"), ("b", "e")))
        c = cartan_from_monomial(pres)
        assert c == RationalMatrix(
            [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
        )
        phi = coxeter_matrix(c)
        assert phi == RationalMatrix(
            [[0, 0, 0, -1], [0, 0, 1, -1], [0, 1, 0, -1], [-1, 1, 1, -1]]
        )
        assert char_poly(phi) == Polynomial([1, 2, 1]) * Polynomial([1, -1, 1])
        report = analyze(c)
        assert report.symmetrized_definiteness == POSITIVE_DEFINITE
        assert report.cyclotomic_type == CYCLOTOMIC
        assert not report.has_eigenvalue_one
        assert report.diagonalizable
        assert time.monotonic() - start < 1.0


def test_criterion_2_two_vertex_shift_reachability():
    with criterion(2, "shift reachability for the two-vertex family (l = 1, 2, 3)"):
        start = time.monotonic()

        def gens(l):
            return {
                "T": RationalMatrix([[-1, 0], [l, 1]]),
                "U": RationalMatrix([[1, l], [0, -1]]),
            }

        r1 = reach_shift(gens(1), 12)
        assert r1.status == "found" and len(r1.word) == 3
        assert r1.target == RationalMatrix([[0, -1], [-1, 0]])

        r2 = reach_shift(gens(2), 12)
        assert r2.status == "certified_unreachable"
        assert "column sums" in r2.reason

        r3 = reach_shift(gens(3), 12)
        assert r3.status == "not_found_within_depth" and r3.depth_searched == 12

        expected = {
            1: POSITIVE_DEFINITE,
            2: POSITIVE_SEMIDEFINITE_SINGULAR,
            3: INDEFINITE,
        }
        for l, cls in expected.items():
            assert definiteness(RationalMatrix([[2, l], [l, 2]])) == cls
        assert time.monotonic() - start < 5.0


def test_criterion_3_cycle_vs_k0_criteria():
    with criterion(3, "cycle and K0 criteria agree on all connected graphs with <= 6 edges"):
        disagreements = 0
        total = 0
        for n in range(1, 7):
            for g in enumerate_connected_multigraphs(n):
                total += 1
                if cycle_criterion(g) != k0_criterion(g):
                    disagreements += 1
        assert total > 48000
        # and on every ribbon structure up to isomorphism
        classes = 0
        for n in range(1, 7):
            for g in enumerate_ribbon_structures(n):
                classes += 1
                if cycle_criterion(g) != k0_criterion(g):
                    disagreements += 1
        assert classes == 10440
        assert disagreements == 0


def _reversed_orders(g: RibbonGraph) -> RibbonGraph:
    return RibbonGraph(
        tuple(
            RibbonVertex(v.id, v.multiplicity, tuple(reversed(v.order)))
            for v in g.vertices
        ),
        g.edges,
    )


def test_criterion_4_mutation_g_matrix_properties():
    with criterion(4, "mutation g-matrices: column sums 1 and eigenvalue 1, all graphs <= 5 edges"):
        x_minus_1 = Polynomial([-1, 1])
        # every non-leaf g-matrix met; the properties depend on the matrix
        # alone, so each distinct one is checked once at the end
        g_matrices: set[RationalMatrix] = set()

        def check(g: RibbonGraph) -> int:
            if len(g.edges) < 2:
                return 0
            checked = 0
            for e in g.edges:
                if g.is_leaf_edge(e.id):
                    continue
                g_matrices.add(mutation_g_matrix(g, e.id))
                checked += 1
            return checked

        # exhaustive over all cyclic-order structures up to 5 edges
        for n in range(1, 5):
            for g in enumerate_ribbon_structures(n):
                check(g)
        assert sum(check(g) for g in enumerate_ribbon_structures(5)) == 3614
        # 5 edges: all connected multigraphs, two systematic cyclic orders each
        for g in enumerate_connected_multigraphs(5):
            check(g)
            check(_reversed_orders(g))
        for m in g_matrices:
            assert all(s == 1 for s in m.column_sums())
            assert x_minus_1.divides(char_poly(m))

        # digon instance
        digon = next(
            g
            for g in enumerate_connected_multigraphs(2)
            if len(g.vertices) == 2 and len(g.edges) == 2
            and all(len(v.order) == 2 for v in g.vertices)
        )
        cols = {
            tuple(row[i] for row in mutation_g_matrix(digon, e.id).entries)
            for e in digon.edges
            for i in range(2)
        }
        assert (-1, 2) in cols or (2, -1) in cols  # the mutated column
        assert mutation_g_matrix(digon, digon.edges[0].id) == RationalMatrix(
            [[-1, 0], [2, 1]]
        )


def test_criterion_5_two_block_group_algebra_delta():
    with criterion(5, "delta on [[5,4],[4,5]] matches 2a^2+2a+5 for a = 0..20"):
        c = RationalMatrix([[5, 4], [4, 5]])
        for a in range(0, 21):
            assert delta(c, (-a, a + 1)) == 2 * a * a + 2 * a + 5


def test_criterion_6_delta_sequences():
    with criterion(6, "delta growth sequences: quadratic, exponential closed form, constant"):
        seq = delta_sequence(3, 2, 20)
        for t, value in enumerate(seq.values, start=1):
            assert value == 2 * ((3 - 1) * t * t + 1)

        l, m = 3, 2
        s_vals = [2, l]
        for _ in range(60):
            s_vals.append(l * s_vals[-1] - s_vals[-2])
        seq = delta_sequence(m, l, 20)
        for t, value in enumerate(seq.values, start=1):
            assert value * (l * l - 4) == 2 * (
                (m - 1) * (s_vals[2 * t] - 2) + l * l - 4
            )

        for l in (1, 2, 3, 4):
            seq = delta_sequence(1, l, 20)
            assert seq.constant and set(seq.values) == {Fraction(2)}


def test_criterion_7_alternating_search_and_te_definiteness():
    with criterion(7, "alternating mutation words: lengths 3/4/6 then certified never; TE definiteness"):
        mu2 = RationalMatrix([[1, 1], [0, -1]])
        expected = {1: 3, 2: 4, 3: 6}
        for m, length in expected.items():
            r = alternating_shift_search(RationalMatrix([[-1, 0], [m, 1]]), mu2)
            assert r.status == "reached" and len(r.word) == length
        for m in (4, 5):
            r = alternating_shift_search(RationalMatrix([[-1, 0], [m, 1]]), mu2)
            assert r.status == "certified_never"

        for m in range(1, 8):
            cls = definiteness(RationalMatrix([[2 * m, m], [m, 2]]))
            if m <= 3:
                assert cls == POSITIVE_DEFINITE
            elif m == 4:
                assert cls == POSITIVE_SEMIDEFINITE_SINGULAR
            else:
                assert cls == INDEFINITE


def test_criterion_8_one_cycle_normal_forms():
    with criterion(8, "one-cycle normal form determinants and clock condition"):
        for n in (3, 5, 7):
            assert cartan_from_monomial(bgs_normal_form(n, n, 0)).det() == 2
        for n in (4, 6, 8):
            assert cartan_from_monomial(bgs_normal_form(n, n, 0)).det() == 0
        for n, r, m in [(3, 1, 0), (3, 2, 1), (4, 2, 0), (5, 3, 2), (6, 1, 1)]:
            assert r < n
            g = validate_gentle(bgs_normal_form(n, r, m))
            assert clock_condition(g) == ONE_CYCLE_NONCLOCK


def test_criterion_9_selfinjective_polys_and_registry_assertions():
    with criterion(9, "selfinjective Coxeter polynomials and unit-circle conclusions"):
        cases = [
            (((1,), (2,)), Polynomial([1, 2, 1]), False),
            (((1, 2),), Polynomial([-1, 0, 1]), True),
            (((1, 2, 3),), Polynomial([1, 0, 0, 1]), False),
        ]
        for cycles, expected, has_one in cases:
            sigma = NakayamaPermutation(cycles)
            p, flag = selfinjective_coxeter_poly(sigma)
            assert p == expected
            assert flag == has_one
            assert flag == sigma.is_odd

        failures = 0
        for entry in list_families():
            r = analyze(entry.cartan, coxeter_override=entry.coxeter_override)
            if not r.regular:
                continue
            if r.symmetrized_definiteness == POSITIVE_DEFINITE:
                if r.cyclotomic_type == NOT_CYCLOTOMIC:
                    failures += 1
                if r.has_eigenvalue_one:
                    failures += 1
                if not r.diagonalizable:
                    failures += 1
        assert failures == 0


def test_criterion_10_lattice_oracle_equivalence():
    with criterion(10, "lattice solutions match brute force; z < 0 empty; digon box"):
        import math
        import random

        import numpy as np

        def brute(c, z, radius):
            out = []
            n = c.nrows
            for v in itertools.product(range(-radius, radius + 1), repeat=n):
                val = sum(
                    Fraction(v[i]) * c.entries[i][j] * v[j]
                    for i in range(n)
                    for j in range(n)
                )
                if val == z:
                    out.append(v)
            return tuple(sorted(out))

        rng = random.Random(2024)
        for _ in range(50):
            n = rng.choice((2, 3))
            m = RationalMatrix(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            )
            c = m @ m.T + RationalMatrix.identity(n)
            z = rng.randint(0, 20)
            lam = min(
                np.linalg.eigvalsh([[float(x) for x in row] for row in c.entries])
            )
            radius = int(math.isqrt(int(z / lam)) + 2)
            assert solutions(c, z) == brute(c, z, radius)
            assert solutions(c, -1 - rng.randint(0, 5)) == ()

        digon_form = RationalMatrix([[2, 2], [2, 2]])
        box = bounded_box(digon_form, 2, 5)
        # the form is 2(v1+v2)^2, so the box solutions are exactly the
        # vectors with v1+v2 = +-1 and |v_i| <= 5: twenty of them
        expected = tuple(
            sorted(
                v
                for v in itertools.product(range(-5, 6), repeat=2)
                if abs(v[0] + v[1]) == 1
            )
        )
        assert box == expected
        assert len(box) == 20
