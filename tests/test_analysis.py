import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tiltkit.analysis import (
    CYCLOTOMIC,
    GENERALIZED_CYCLOTOMIC_NUMERIC,
    NOT_CYCLOTOMIC,
    NakayamaPermutation,
    analyze,
    classify_coxeter_poly,
    coxeter_trace_is_minus_one,
    selfinjective_coxeter_poly,
)
from tiltkit.cli import run
from tiltkit.families import list_families
from tiltkit.linalg import (
    POSITIVE_DEFINITE,
    SingularCartanError,
    trivial_extension_cartan,
)
from tiltkit.matrix import RationalMatrix
from tiltkit.poly import Polynomial

FOUR_VERTEX_C = RationalMatrix([[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]])


def test_analyze_four_vertex_example():
    r = analyze(FOUR_VERTEX_C)
    assert r.regular
    assert r.symmetrized_definiteness == POSITIVE_DEFINITE
    assert r.euler_form_positive
    assert r.cyclotomic_type == CYCLOTOMIC
    assert r.cyclotomic_indices == (2, 2, 6)
    assert not r.has_eigenvalue_one
    assert r.diagonalizable
    assert r.coxeter_char_poly == Polynomial([1, 1, 0, 1, 1])


def test_analyze_small_cases():
    r = analyze(RationalMatrix([[1, 1], [2, 3]]))
    assert r.regular and r.symmetrized_definiteness == POSITIVE_DEFINITE
    r = analyze(RationalMatrix([[2, 3], [3, 2]]))
    assert r.regular and r.symmetrized_definiteness == "indefinite"
    r = analyze(RationalMatrix.identity(2))
    assert r.coxeter == -RationalMatrix.identity(2)
    assert r.cyclotomic_type == CYCLOTOMIC and r.cyclotomic_indices == (2, 2)


def test_analyze_singular_without_override():
    r = analyze(RationalMatrix([[1, 1], [1, 1]]))
    assert not r.regular
    assert r.coxeter is None and r.cyclotomic_type is None
    assert r.symmetrized_definiteness == "positive_semidefinite_singular"


def test_analyze_singular_with_override():
    override = RationalMatrix([[0, -1], [-1, 0]])
    r = analyze(RationalMatrix([[1, 1], [1, 1]]), coxeter_override=override)
    assert not r.regular
    assert r.coxeter == override
    assert r.cyclotomic_type == CYCLOTOMIC
    assert r.cyclotomic_indices == (1, 2)  # x^2 - 1 = (x-1)(x+1)
    assert r.has_eigenvalue_one
    assert r.euler_form_positive is None


def test_analyze_refuses_a_coxeter_matrix_it_cannot_use():
    singular, regular = RationalMatrix([[1, 1], [1, 1]]), RationalMatrix([[2, 1], [1, 1]])
    for c, phi in ((singular, RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
                   (singular, RationalMatrix([[1, 0]])),
                   (regular, RationalMatrix([[0, -1], [-1, 0]]))):
        with pytest.raises(ValueError):
            analyze(c, coxeter_override=phi)


def test_analyze_permutation_invariance():
    p = RationalMatrix([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    conj = p @ FOUR_VERTEX_C @ p.inverse()
    a, b = analyze(FOUR_VERTEX_C), analyze(conj)
    for field in (
        "regular",
        "symmetrized_definiteness",
        "euler_form_positive",
        "cyclotomic_type",
        "cyclotomic_indices",
        "has_eigenvalue_one",
        "diagonalizable",
        "coxeter_trace",
    ):
        assert getattr(a, field) == getattr(b, field)


def test_classify_non_integral():
    # rational non-integral polynomial with roots on the unit circle:
    # (x - 1)(x + 1/1) scaled... use (x^2 - 1) shifted to non-integral monic
    p = Polynomial(["-1/2", 0, 1])  # roots +-sqrt(1/2), off the circle
    assert classify_coxeter_poly(p)[0] == NOT_CYCLOTOMIC
    # x^2 + x/1 + 1 is integral; make a truly non-integral unit-circle case:
    # (x^2 - (6/5)x + 1) has complex roots of modulus exactly 1
    q = Polynomial([1, "-6/5", 1])
    assert classify_coxeter_poly(q)[0] == GENERALIZED_CYCLOTOMIC_NUMERIC
    # the verdict is exact on products, repeated factors and x + 1 included
    on = q * q * Polynomial([1, "2/7", 1]) * Polynomial([1, 1])
    assert classify_coxeter_poly(on) == (GENERALIZED_CYCLOTOMIC_NUMERIC, None)
    off = q * Polynomial([1, "-16/7", 1])
    assert classify_coxeter_poly(off) == (NOT_CYCLOTOMIC, None)


def test_registry_positive_definite_implications():
    for e in list_families():
        r = analyze(e.cartan, coxeter_override=e.coxeter_override)
        if r.regular and r.symmetrized_definiteness == POSITIVE_DEFINITE:
            assert r.cyclotomic_type != NOT_CYCLOTOMIC
            assert not r.has_eigenvalue_one
            assert r.diagonalizable


def test_coxeter_trace_is_minus_one():
    assert coxeter_trace_is_minus_one(RationalMatrix([[1, 0], [1, 1]]))
    assert coxeter_trace_is_minus_one(FOUR_VERTEX_C)
    assert not coxeter_trace_is_minus_one(RationalMatrix.identity(2))
    assert coxeter_trace_is_minus_one(RationalMatrix.identity(1))
    with pytest.raises(SingularCartanError):
        coxeter_trace_is_minus_one(RationalMatrix([[1, 1], [1, 1]]))


def test_nakayama_permutation_validation():
    NakayamaPermutation(((1, 2), (3,)))
    with pytest.raises(ValueError):
        NakayamaPermutation(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        NakayamaPermutation(((1, 3),))  # misses 2


def test_nakayama_parity():
    assert not NakayamaPermutation(((1,), (2,))).is_odd
    assert NakayamaPermutation(((1, 2),)).is_odd
    assert not NakayamaPermutation(((1, 2, 3),)).is_odd
    assert not NakayamaPermutation(((1, 2), (3, 4))).is_odd


def test_selfinjective_coxeter_poly():
    p, has_one = selfinjective_coxeter_poly(NakayamaPermutation(((1,), (2,))))
    assert p == Polynomial([1, 2, 1]) and not has_one
    p, has_one = selfinjective_coxeter_poly(NakayamaPermutation(((1, 2),)))
    assert p == Polynomial([-1, 0, 1]) and has_one
    p, has_one = selfinjective_coxeter_poly(NakayamaPermutation(((1, 2, 3),)))
    assert p == Polynomial([1, 0, 0, 1]) and not has_one


def test_selfinjective_eigenvalue_flag_is_exact():
    # the flag reports (x - 1) | poly exactly; for a double transposition the
    # permutation is even yet the polynomial (x^2-1)^2 does have root 1, so
    # the parity heuristic and the exact flag diverge here by design
    sigma = NakayamaPermutation(((1, 2), (3, 4)))
    p, has_one = selfinjective_coxeter_poly(sigma)
    assert p == Polynomial([1, 0, -2, 0, 1])
    assert has_one and not sigma.is_odd


def test_te_cartan_of_hereditary_a2_is_brauer_like():
    c = RationalMatrix([[1, 0], [1, 1]])
    te = trivial_extension_cartan(c)
    r = analyze(te)
    assert r.symmetrized_definiteness == POSITIVE_DEFINITE


# a 9x9 rational Cartan matrix with a positive-definite symmetrization whose
# Coxeter roots all lie on the unit circle; a floating-point root finder with
# tolerance 1e-9 misses one of them by 1.7e-9
KNOWN_DEFECT_CARTAN = [
    ["53/12", "-1", "0", "0", "0", "-2", "0", "0", "-1/3"],
    ["-1/3", "19/6", "0", "0", "0", "0", "1", "0", "0"],
    ["0", "-1/3", "4/3", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "21/4", "0", "0", "2", "0", "-1"],
    ["-1/2", "-2/3", "0", "0", "35/12", "0", "-1", "0", "-2/3"],
    ["2/3", "0", "0", "1", "0", "13/4", "0", "1/2", "0"],
    ["0", "0", "0", "0", "0", "0", "11/3", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "1/3", "41/12", "0"],
    ["0", "1", "1/3", "-1/2", "0", "1/3", "-1", "0", "43/12"],
]


def test_known_defect_input_is_generalized_cyclotomic(capsys, tmp_path):
    r = analyze(RationalMatrix(KNOWN_DEFECT_CARTAN))
    assert r.regular
    assert r.symmetrized_definiteness == POSITIVE_DEFINITE
    assert r.cyclotomic_type == GENERALIZED_CYCLOTOMIC_NUMERIC
    f = tmp_path / "cartan.json"
    f.write_text(json.dumps({"entries": KNOWN_DEFECT_CARTAN}))
    assert run(["analyze", "--cartan", str(f)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["symmetrized_definiteness"] == POSITIVE_DEFINITE
    assert out["cyclotomic_type"] == "generalized_cyclotomic_numeric"


def test_cross_checks_survive_python_optimize():
    # under -O assert statements vanish; the verdict cross-checks must not.
    # A wrong "off the circle" verdict on a positive definite input must raise.
    script = textwrap.dedent(
        f"""
        import sys
        import tiltkit.analysis as analysis
        from tiltkit.analysis import analyze
        from tiltkit.matrix import RationalMatrix
        assert False, "not running under -O"  # stripped by -O
        analysis.classify_coxeter_poly = lambda p: (analysis.NOT_CYCLOTOMIC, None)
        try:
            report = analyze(RationalMatrix({KNOWN_DEFECT_CARTAN!r}))
        except AssertionError:
            print("raised: AssertionError")
        else:
            print("cyclotomic_type:", report.cyclotomic_type)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised: AssertionError"
