from fractions import Fraction

import pytest

from tiltkit.analysis import AnalysisReport
from tiltkit.brauer import Certificate, GraphVerdict, RibbonEdge, RibbonGraph, RibbonVertex
from tiltkit.explore import DeltaSequence, SearchResult, generate
from tiltkit.matrix import RationalMatrix
from tiltkit.poly import Polynomial
from tiltkit.quiver import Arrow, MonomialPresentation, Quiver
from tiltkit.serialize import (
    MalformedInputError,
    frontier_to_dot,
    matrix_from_json,
    matrix_to_json,
    poly_to_json,
    presentation_from_json,
    presentation_to_json,
    quiver_to_dot,
    ribbon_from_json,
    ribbon_to_dot,
    ribbon_to_json,
    to_json,
)


def test_matrix_roundtrip():
    m = RationalMatrix([["1/2", 3], [-2, "7/5"]])
    data = matrix_to_json(m)
    assert data["rows"] == 2 and data["cols"] == 2
    assert matrix_from_json(data) == m


def test_matrix_integer_shorthand():
    assert matrix_from_json({"entries": [["5", 3], ["-2", "1/2"]]}) == RationalMatrix(
        [[5, 3], [-2, "1/2"]]
    )


def test_matrix_malformed():
    for bad in (
        [],
        {},
        {"entries": []},
        {"entries": [["x"]]},
        {"entries": [[1.5]]},
        {"entries": [[True, False], [False, True]]},
        {"entries": [["1/0"]]},
        {"rows": 3, "entries": [["1"]]},
    ):
        with pytest.raises(MalformedInputError):
            matrix_from_json(bad)


def test_poly_to_json():
    assert poly_to_json(Polynomial([1, "1/2", -3])) == ["1", "1/2", "-3"]


def test_to_json_analysis_report():
    report = AnalysisReport(
        regular=True,
        symmetrized_definiteness="indefinite",
        euler_form_positive=False,
        cyclotomic_type="no",
        cyclotomic_indices=(1, 6),
        has_eigenvalue_one=None,
        diagonalizable=True,
        coxeter_trace=Fraction(-7, 3),
        coxeter=RationalMatrix([["1/2", 0], [-1, "5/3"]]),
        coxeter_char_poly=Polynomial(["2/3", -1, 1]),
    )
    assert to_json(report) == {
        "regular": True,
        "symmetrized_definiteness": "indefinite",
        "euler_form_positive": False,
        "cyclotomic_type": "no",
        "cyclotomic_indices": [1, 6],
        "has_eigenvalue_one": None,
        "diagonalizable": True,
        "coxeter_trace": "-7/3",
        "coxeter": [["1/2", "0"], ["-1", "5/3"]],
        "coxeter_char_poly": ["2/3", "-1", "1"],
    }
    unknown = AnalysisReport(False, "positive_semidefinite_singular", *[None] * 8)
    assert to_json(unknown) == {
        "regular": False,
        "symmetrized_definiteness": "positive_semidefinite_singular",
        **dict.fromkeys(
            ["euler_form_positive", "cyclotomic_type", "cyclotomic_indices",
             "has_eigenvalue_one", "diagonalizable", "coxeter_trace", "coxeter",
             "coxeter_char_poly"]
        ),
    }


def test_to_json_search_result():
    found = SearchResult("found", ("T", "U"), RationalMatrix([[0, -1], [-1, 0]]), 2)
    assert to_json(found) == {
        "status": "found",
        "word": ["T", "U"],
        "target": [["0", "-1"], ["-1", "0"]],
        "depth_searched": 2,
        "reason": "",
    }
    assert to_json(SearchResult("certified_never", reason="why")) == {
        "status": "certified_never",
        "word": None,
        "target": None,
        "depth_searched": None,
        "reason": "why",
    }


def test_to_json_delta_sequence():
    seq = DeltaSequence(((1, 0), (2, -1)), (Fraction(6), Fraction(1, 2)), False)
    assert to_json(seq) == {
        "vectors": [[1, 0], [2, -1]],
        "values": ["6", "1/2"],
        "constant": False,
    }


def test_to_json_graph_verdict_and_certificate():
    verdict = GraphVerdict(1, False, True, True, False)
    assert to_json(verdict) == {
        "betti": 1,
        "bipartite": False,
        "odd_cycle_unique": True,
        "tilting_discrete": True,
        "k0_has_free_part": False,
    }
    assert to_json(Certificate(True, "one_vertex", "a statement", True)) == {
        "applicable": True,
        "graph_class": "one_vertex",
        "statement": "a statement",
        "generator_column_sums_verified": True,
    }
    assert to_json(Certificate(False)) == {
        "applicable": False,
        "graph_class": None,
        "statement": None,
        "generator_column_sums_verified": False,
    }


def _pres():
    return MonomialPresentation(
        Quiver(2, (Arrow("x", 1, 1), Arrow("y", 1, 2))),
        (("x", "x"), ("x", "y")),
    )


def test_presentation_roundtrip():
    pres = _pres()
    data = presentation_to_json(pres)
    back = presentation_from_json(data)
    assert back == pres


def test_presentation_malformed():
    with pytest.raises(MalformedInputError):
        presentation_from_json({"vertices": 2})
    with pytest.raises(MalformedInputError):
        presentation_from_json(
            {"vertices": 1, "arrows": [{"id": "a", "from": 1, "to": 5}]}
        )
    with pytest.raises(MalformedInputError):
        presentation_from_json(
            {
                "vertices": 2,
                "arrows": [{"id": "a", "from": 1, "to": 2}],
                "zero_relations": [["a"]],
            }
        )
    # a relation naming an arrow the quiver lacks raised a bare KeyError
    with pytest.raises(MalformedInputError) as exc:
        presentation_from_json({"vertices": 1, "arrows": [], "zero_relations": [["a", "b"]]})
    assert str(exc.value) == "relation ('a', 'b') names an unknown arrow 'a'"
    # strings where lists belong, which were read one character at a time;
    # booleans and non-integral numbers, which int() read as 1 or truncated
    for bad in (
        {"vertices": 2, "arrows": [{"id": "x", "from": 1, "to": 2}], "zero_relations": ["xy"]},
        {"vertices": 2, "arrows": [{"id": "x", "from": 1, "to": 2}], "zero_relations": "xy"},
        {"vertices": 2, "arrows": "xy"},
        {"vertices": 2, "arrows": 5},
        {"vertices": True, "arrows": []},
        {"vertices": 2, "arrows": [{"id": "a", "from": 1.9, "to": 2}]},
        {"vertices": 2, "arrows": [{"id": "a", "from": 1, "to": 2.5}]},
        {"vertices": 2, "arrows": [{"id": "a", "from": True, "to": 2}]},
        # ids that str() turned into "1", "None" or "['x']"
        {"vertices": 2, "arrows": [{"id": 1, "from": 1, "to": 2}]},
        {"vertices": 2, "arrows": [{"id": None, "from": 1, "to": 2}]},
        {"vertices": 2, "zero_relations": [[1, 2]],
         "arrows": [{"id": "1", "from": 1, "to": 2}, {"id": "2", "from": 2, "to": 1}]},
        {"vertices": 2, "arrows": [{"id": ["x"], "from": 1, "to": 2}]},
    ):
        with pytest.raises(MalformedInputError):
            presentation_from_json(bad)


def _digon():
    return RibbonGraph(
        (
            RibbonVertex("u", 1, ("h1a", "h2a")),
            RibbonVertex("w", 2, ("h1b", "h2b")),
        ),
        (RibbonEdge("1", ("h1a", "h1b")), RibbonEdge("2", ("h2a", "h2b"))),
    )


def test_ribbon_roundtrip():
    g = _digon()
    assert ribbon_from_json(ribbon_to_json(g)) == g


def test_ribbon_malformed():
    with pytest.raises(MalformedInputError):
        ribbon_from_json({"vertices": []})
    with pytest.raises(MalformedInputError):
        ribbon_from_json(
            {
                "vertices": [{"id": "u", "order": ["h1"]}],
                "edges": [{"id": "1", "halves": ["h1"]}],
            }
        )
    # strings where lists belong, which were read one character at a time
    for order, halves in (("ab", "ab"), ("ab", ["a", "b"]), (["a", "b"], "ab")):
        with pytest.raises(MalformedInputError):
            ribbon_from_json(
                {
                    "vertices": [{"id": "u", "order": order}],
                    "edges": [{"id": "1", "halves": halves}],
                }
            )
    # ids and half-edge names that str() turned into "1", "None" or "[1]"
    for vertex, edge in (({"id": 1}, {}), ({"id": None}, {}), ({}, {"id": 1}),
                         ({}, {"id": [1]}), ({"order": [1, "b"]}, {"halves": [1, "b"]})):
        with pytest.raises(MalformedInputError):
            ribbon_from_json(
                {
                    "vertices": [{"id": "u", "order": ["a", "b"], **vertex}],
                    "edges": [{"id": "1", "halves": ["a", "b"], **edge}],
                }
            )
    # disconnected graph is structurally invalid, flagged as malformed
    with pytest.raises(MalformedInputError):
        ribbon_from_json(
            {
                "vertices": [
                    {"id": "u", "order": ["a1", "a2"]},
                    {"id": "w", "order": ["b1", "b2"]},
                ],
                "edges": [
                    {"id": "1", "halves": ["a1", "a2"]},
                    {"id": "2", "halves": ["b1", "b2"]},
                ],
            }
        )


def test_quiver_dot_deterministic():
    dot = quiver_to_dot(_pres())
    assert dot == quiver_to_dot(_pres())
    assert "1 -> 1" in dot and "1 -> 2" in dot
    assert dot.startswith("digraph quiver {")


def test_ribbon_dot_ports():
    dot = ribbon_to_dot(_digon())
    assert '"u" -- "w"' in dot
    assert "(m=2)" in dot  # multiplicity annotated
    # cyclic-order port indices appear in the edge labels
    assert "1: 0-0" in dot and "2: 1-1" in dot


def test_frontier_dot():
    gens = {
        "T": RationalMatrix([[-1, 0], [1, 1]]),
        "U": RationalMatrix([[1, 1], [0, -1]]),
    }
    dot = frontier_to_dot(generate(gens, 2))
    assert dot.count("label=\"T\"") >= 2
    assert dot.startswith("digraph frontier {")
    assert '[label="e"]' in dot  # identity node
