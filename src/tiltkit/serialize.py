"""JSON and DOT serialization.

Matrix JSON: ``{"rows": n, "cols": m, "entries": [["p/q", ...], ...]}`` with
integer shorthand ``"5"`` permitted on input.  Polynomials are coefficient
arrays, constant term first.  Quivers and ribbon graphs use the documented
object schemas.  Result objects (analysis reports, search results, verdicts,
certificates) reach JSON through :func:`to_json` alone.  DOT output is
deterministic; ribbon graphs annotate the cyclic order through port numbers
on the half-edges.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .brauer import RibbonEdge, RibbonGraph, RibbonVertex
from .explore import Frontier
from .families import AlgebraFamilyEntry
from .matrix import RationalMatrix
from .poly import Polynomial
from .quiver import Arrow, MonomialPresentation, Quiver


class MalformedInputError(ValueError):
    """Input JSON does not match the expected schema."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedInputError(message)


def _integer(x, what: str) -> int:
    # bool is an int subclass, and int() would truncate 2.7 to 2
    _expect(type(x) is int, f"{what} must be an integer, got {x!r}")
    return x


def _string(x, what: str) -> str:
    # str() would turn null into "None" and a list into its repr
    _expect(type(x) is str, f"{what} must be a string, got {x!r}")
    return x


# -- matrices -----------------------------------------------------------------


def matrix_to_json(m: RationalMatrix) -> dict:
    return {
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [[str(x) for x in row] for row in m.entries],
    }


def matrix_from_json(data) -> RationalMatrix:
    _expect(isinstance(data, dict), "matrix JSON must be an object")
    _expect("entries" in data, "matrix JSON needs an 'entries' field")
    entries = data["entries"]
    _expect(
        isinstance(entries, list) and entries and all(isinstance(r, list) for r in entries),
        "'entries' must be a non-empty list of rows",
    )
    rows = []
    for row in entries:
        out = []
        for x in row:
            # exact types: a JSON boolean is an int subclass
            _expect(type(x) in (str, int), f"entry {x!r} must be a string or integer")
            try:
                out.append(Fraction(x))
            except (ValueError, ZeroDivisionError) as exc:
                raise MalformedInputError(f"bad rational {x!r}: {exc}") from None
        rows.append(out)
    try:
        m = RationalMatrix(rows)
    except ValueError as exc:  # ragged or empty rows
        raise MalformedInputError(str(exc)) from None
    if "rows" in data:
        _expect(data["rows"] == m.nrows, "'rows' disagrees with the entry grid")
    if "cols" in data:
        _expect(data["cols"] == m.ncols, "'cols' disagrees with the entry grid")
    return m


def poly_to_json(p: Polynomial) -> list[str]:
    return [str(c) for c in p.coeffs]


def to_json(x):
    """The JSON value of a result: a record becomes the object of its
    fields, a matrix its rows of rational strings (a top-level matrix takes
    :func:`matrix_to_json` instead), a polynomial :func:`poly_to_json`, a
    rational its string and a tuple a list; anything else stays as it is."""
    if isinstance(x, RationalMatrix):
        return [[str(v) for v in row] for row in x.entries]
    if isinstance(x, Polynomial):
        return poly_to_json(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, tuple):
        return [to_json(v) for v in x]
    if isinstance(x, Record):
        return {f: to_json(getattr(x, f)) for f in x._fields}
    return x


def family_to_json(entry: AlgebraFamilyEntry) -> dict:
    """A registry entry without its presentation; its Cartan matrix is a
    top-level matrix object."""
    return {
        "name": entry.name,
        "params": entry.params,
        "cartan": matrix_to_json(entry.cartan),
        "note": entry.note,
    }


# -- quivers ------------------------------------------------------------------


def presentation_to_json(pres: MonomialPresentation) -> dict:
    return {
        "vertices": pres.quiver.vertices,
        "arrows": [
            {"id": a.id, "from": a.source, "to": a.target}
            for a in pres.quiver.arrows
        ],
        "zero_relations": [list(rel) for rel in pres.zero_relations],
    }


def presentation_from_json(data) -> MonomialPresentation:
    _expect(isinstance(data, dict), "quiver JSON must be an object")
    for key in ("vertices", "arrows"):
        _expect(key in data, f"quiver JSON needs a {key!r} field")
    _expect(
        _integer(data["vertices"], "'vertices'") >= 1,
        "'vertices' must be a positive integer",
    )
    _expect(isinstance(data["arrows"], list), "'arrows' must be a list")
    arrows = []
    for a in data["arrows"]:
        _expect(
            isinstance(a, dict) and {"id", "from", "to"} <= set(a),
            "each arrow needs 'id', 'from', 'to'",
        )
        arrows.append(
            Arrow(_string(a["id"], "an arrow 'id'"), _integer(a["from"], "'from'"),
                  _integer(a["to"], "'to'"))
        )
    relations = data.get("zero_relations", [])
    # a string would otherwise be read one character per arrow
    _expect(
        isinstance(relations, list) and all(isinstance(rel, list) for rel in relations),
        "'zero_relations' must be a list of arrow-id lists",
    )
    relations = tuple(tuple(_string(x, "a relation entry") for x in rel) for rel in relations)
    try:
        return MonomialPresentation(Quiver(data["vertices"], tuple(arrows)), relations)
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from None


# -- ribbon graphs ------------------------------------------------------------


def ribbon_to_json(g: RibbonGraph) -> dict:
    return {
        "vertices": [
            {"id": v.id, "mult": v.multiplicity, "order": list(v.order)}
            for v in g.vertices
        ],
        "edges": [{"id": e.id, "halves": list(e.halves)} for e in g.edges],
    }


def ribbon_from_json(data) -> RibbonGraph:
    _expect(isinstance(data, dict), "ribbon graph JSON must be an object")
    for key in ("vertices", "edges"):
        _expect(
            isinstance(data.get(key), list),
            f"ribbon graph JSON needs a {key!r} list",
        )
    # fields of the wrong type are rejected below; a multiplicity below 1 and
    # the graph's own checks (a half-edge placed twice, a disconnected graph)
    # surface as ValueError
    try:
        vertices = []
        for v in data["vertices"]:
            _expect(
                isinstance(v, dict) and isinstance(v.get("order"), list) and "id" in v,
                "each vertex needs 'id' and an 'order' list",
            )
            vertices.append(
                RibbonVertex(
                    _string(v["id"], "a vertex 'id'"),
                    _integer(v.get("mult", 1), "'mult'"),
                    tuple(_string(h, "a half-edge") for h in v["order"]),
                )
            )
        edges = []
        for e in data["edges"]:
            _expect(
                isinstance(e, dict) and isinstance(e.get("halves"), list) and "id" in e,
                "each edge needs 'id' and a 'halves' list",
            )
            halves = [_string(h, "a half-edge") for h in e["halves"]]
            _expect(len(halves) == 2, "each edge has exactly two halves")
            edges.append(RibbonEdge(_string(e["id"], "an edge 'id'"), (halves[0], halves[1])))
        return RibbonGraph(tuple(vertices), tuple(edges))
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(str(exc)) from None


# -- DOT ------------------------------------------------------------------------


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def quiver_to_dot(pres: MonomialPresentation) -> str:
    lines = ["digraph quiver {"]
    for v in range(1, pres.quiver.vertices + 1):
        lines.append(f"  {v};")
    for a in pres.quiver.arrows:
        lines.append(f"  {a.source} -> {a.target} [label={_quote(a.id)}];")
    for rel in pres.zero_relations:
        lines.append(f"  // zero relation: {' '.join(rel)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ribbon_to_dot(g: RibbonGraph) -> str:
    # port numbers record the cyclic order of half-edges at each vertex
    port = {
        h: (v.id, k) for v in g.vertices for k, h in enumerate(v.order)
    }
    lines = ["graph ribbon {"]
    for v in g.vertices:
        label = f"{v.id} (m={v.multiplicity})"
        lines.append(f"  {_quote(v.id)} [label={_quote(label)}];")
    for e in g.edges:
        (va, ka), (vb, kb) = port[e.halves[0]], port[e.halves[1]]
        label = f"{e.id}: {ka}-{kb}"
        lines.append(f"  {_quote(va)} -- {_quote(vb)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def frontier_to_dot(frontier: Frontier) -> str:
    lines = ["digraph frontier {"]
    for i, node in enumerate(frontier.nodes):
        word = " ".join(node.word) if node.word else "e"
        lines.append(f"  n{i} [label={_quote(word)}];")
    for src, gen, dst in frontier.edges:
        lines.append(f"  n{src} -> n{dst} [label={_quote(gen)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
