"""Seeded request streams for the three workloads.

Every input is drawn from ``random.Random`` seeded by the workload name and
the ``--seed`` argument, so one seed always gives the same stream.  tiltkit
sees only the generated inputs.  Each stream is a sequence of cycles with
one fixed composition of request types and sizes; the seed draws only the
contents (entries, cyclic orders, generators, forms, targets), which keeps
the cost mix of a run nearly independent of the seed.  A run ends on a cycle
boundary, so every run serves whole cycles.

A request carries plain-data input (``params``), a ``call`` that runs tiltkit
(timed), a ``summarize`` that turns the raw result into plain data (untimed,
also the input of the digest) and ``expect``: facts the generator worked out
without tiltkit, which the oracle compares against.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator

import tiltkit.brauer as brauer
import tiltkit.cli as cli
import tiltkit.explore as explore
import tiltkit.lattice as lattice
import tiltkit.linalg as linalg
import tiltkit.matrix as matrix
import tiltkit.poly as poly
from groups import node_digest, plain_ball


@dataclass
class Request:
    kind: str
    params: dict
    call: Callable[[], Any]
    summarize: Callable[[Any], Any]
    expect: dict = field(default_factory=dict)


def cycles(workload: str, seed: int, workdir: Path, golden: Path) -> Iterator[list[Request]]:
    """The workload's request stream, one cycle (list of requests) at a time."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return census_cycles(rng)
    if workload == "spectral":
        return spectral_cycles(rng, workdir, golden)
    if workload == "search":
        return search_cycles(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _rm(rows) -> matrix.RationalMatrix:
    return matrix.RationalMatrix(rows)


def _frac_str(x) -> str:
    return str(Fraction(x))


def matrix_plain(m) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.entries]


# -- census: Brauer graph mutations ----------------------------------------------

CENSUS_ENUMERATE_MAX = 4
CENSUS_EDGE_SIZES = (4, 5, 6)


def random_ribbon_graph(rng: random.Random, n_edges: int, v: int) -> dict:
    """Connected ribbon graph on v vertices with loops, multi-edges and random
    cyclic orders (v = n_edges + 1 gives a tree).

    Plain data: ``vertices`` is a list of [id, multiplicity, order] and
    ``edges`` a list of [id, [half, half]], in the order tiltkit receives them.
    """
    pairs = [(rng.randrange(k), k) for k in range(1, v)]  # random spanning tree
    while len(pairs) < n_edges:
        a, b = rng.randrange(v), rng.randrange(v)  # a == b gives a loop
        pairs.append((a, b))
    rng.shuffle(pairs)
    orders: list[list[str]] = [[] for _ in range(v)]
    edges = []
    for k, (a, b) in enumerate(pairs, start=1):
        ha, hb = f"h{k}a", f"h{k}b"
        orders[a].append(ha)
        orders[b].append(hb)
        edges.append([str(k), [ha, hb]])
    for order in orders:
        rng.shuffle(order)
    vertices = [[f"v{u}", rng.choice((1, 1, 2)), orders[u]] for u in range(v)]
    return {"vertices": vertices, "edges": edges}


def _build_graph(spec: dict):
    return brauer.RibbonGraph(
        tuple(brauer.RibbonVertex(vid, mult, tuple(order))
              for vid, mult, order in spec["vertices"]),
        tuple(brauer.RibbonEdge(eid, tuple(halves)) for eid, halves in spec["edges"]),
    )


def graph_plain(g) -> dict:
    return {
        "vertices": [[v.id, v.multiplicity, list(v.order)] for v in g.vertices],
        "edges": [[e.id, list(e.halves)] for e in g.edges],
    }


def _census_graph_call(spec: dict):
    def call():
        g = _build_graph(spec)
        verdict = brauer.decide(g)
        certificate = brauer.disconnectedness_certificate(g)
        x_minus_1 = poly.Polynomial([-1, 1])
        per_edge = []
        for e in g.edges:
            if g.is_leaf_edge(e.id):
                continue
            m = brauer.mutation_g_matrix(g, e.id)
            p = linalg.char_poly(m)
            divisible = x_minus_1.divides(p)
            column_sums_one = all(s == 1 for s in m.column_sums())
            moved = brauer.kauer_move(g, e.id)
            key = brauer.canonical_key(moved)
            per_edge.append((e.id, m, p, divisible, column_sums_one, moved, key))
        return verdict, certificate, per_edge

    return call


def _census_graph_summary(raw) -> dict:
    verdict, certificate, per_edge = raw
    return {
        "verdict": [verdict.betti, verdict.bipartite, verdict.odd_cycle_unique,
                    verdict.tilting_discrete, verdict.k0_has_free_part],
        "certificate": [certificate.applicable, certificate.graph_class,
                        certificate.generator_column_sums_verified],
        "edges": [
            {
                "edge": eid,
                "g_matrix": matrix_plain(m),
                "char_poly": [str(c) for c in p.coeffs],
                "divisible": divisible,
                "column_sums_one": column_sums_one,
                "kauer": graph_plain(moved),
                "key": key,
            }
            for eid, m, p, divisible, column_sums_one, moved, key in per_edge
        ],
    }


def _census_enumerate_request(n_max: int) -> Request:
    def call():
        return [list(brauer.enumerate_ribbon_structures(n)) for n in range(1, n_max + 1)]

    def summarize(raw):
        return {"classes": [[graph_plain(g) for g in graphs] for graphs in raw]}

    return Request("enumerate", {"n_max": n_max}, call, summarize)


def census_cycles(rng: random.Random) -> Iterator[list[Request]]:
    """The exhaustive enumeration, then cycles of one random graph for every
    edge count and vertex count."""
    yield [_census_enumerate_request(CENSUS_ENUMERATE_MAX)]
    while True:
        cycle = []
        for n_edges in CENSUS_EDGE_SIZES:
            for v in range(1, n_edges + 2):
                spec = random_ribbon_graph(rng, n_edges, v)
                cycle.append(Request("graph", {"graph": spec}, _census_graph_call(spec),
                                     _census_graph_summary))
        yield cycle


# -- spectral: analyze and the other CLI subcommands ------------------------------

BGS_SIZES = tuple(range(4, 15))
BGS_SINGULAR_SIZES = (6, 10)
CARTAN_KINDS = (
    ("integral", "pd"),
    ("integral", "indefinite"),
    ("integral", "singular"),
    ("rational", "pd"),
    ("rational", "indefinite"),
    ("rational", "singular"),
)
# construction kind (index into CARTAN_KINDS) of the one Cartan matrix of
# each size per cycle.  Rational positive-definite matrices stay at 6 x 6 or
# smaller: from 7 x 7 on, np.roots can miss their unit-circle Coxeter roots
# by more than analyze's 1e-9 tolerance, and analyze then raises
# AssertionError (perfbench/NOTES.md has the rates).  That defect is probed
# on its own, outside the timed loop: see KNOWN_DEFECT_CARTAN.
CARTAN_SIZE_KIND = {4: 4, 5: 5, 6: 3, 7: 1, 8: 2, 9: 0, 10: 4, 11: 5, 12: 0}
# a 9x9 rational Cartan matrix with a positive-definite symmetrization whose
# Coxeter roots all lie on the unit circle; np.roots misses one by 1.7e-9,
# so analyze raises AssertionError on it
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
# small analyze requests per cycle (size 4, each construction kind in turn):
# with the other subcommands they are over half of a cycle, so the median
# latency is the fixed cost of a small CLI request
SMALL_CARTANS = 18


def _entry(rng: random.Random, integral: bool) -> Fraction:
    value = rng.choice((-2, -1, -1, 1, 1, 2))
    if integral:
        return Fraction(value)
    return Fraction(value, rng.choice((1, 2, 3)))


def random_cartan(rng: random.Random, n: int, integral: bool, kind: str) -> list[list[Fraction]]:
    """Cartan matrix whose class is fixed by construction.

    ``pd``: C + C^T strictly diagonally dominant, hence positive definite and
    C regular; integral ones are unipotent, so the Coxeter matrix is
    integral.  ``indefinite``: triangular with nonzero diagonal (regular) and
    a planted 2x2 block of C + C^T with negative determinant.  ``singular``:
    one row is the sum of two others.  A random simultaneous permutation of
    rows and columns hides the construction.
    """
    c = [[Fraction(0)] * n for _ in range(n)]
    if kind == "pd" and integral:
        # entries on a random matching: every row and column of C + C^T holds
        # at most one off-diagonal 1 against a diagonal 2
        idx = list(range(n))
        rng.shuffle(idx)
        for k in range(0, n - 1, 2):
            i, j = sorted((idx[k], idx[k + 1]))
            if rng.random() < 0.8:
                c[j][i] = Fraction(rng.choice((-1, 1)))
        for i in range(n):
            c[i][i] = Fraction(1)
    elif kind == "pd":
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3:
                    c[i][j] = _entry(rng, integral)
        for i in range(n):
            weight = sum(abs(c[i][j]) + abs(c[j][i]) for j in range(n) if j != i)
            c[i][i] = weight / 2 + Fraction(rng.randint(1, 3), rng.choice((1, 2)))
    elif kind == "indefinite":
        for i in range(n):
            c[i][i] = Fraction(1) if integral else Fraction(rng.choice((1, 2)), rng.choice((1, 3)))
            for j in range(i):
                if rng.random() < 0.35:
                    c[i][j] = _entry(rng, integral)
        c[1][0] = Fraction(3) + 4 * max(c[0][0], c[1][1])
    else:
        for i in range(n):
            for j in range(n):
                if i == j or rng.random() < 0.35:
                    c[i][j] = abs(_entry(rng, integral)) if i == j else _entry(rng, integral)
        a, b, t = rng.sample(range(n), 3)
        c[t] = [x + y for x, y in zip(c[a], c[b])]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[c[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def matrix_json(rows) -> dict:
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [[_frac_str(x) for x in row] for row in rows]}


def _cli_request(kind: str, argv: list[str], expect: dict | None = None) -> Request:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        return code, buf.getvalue()

    def summarize(raw):
        code, out = raw
        return {"code": code, "stdout": out}

    return Request(kind, {"argv": argv}, call, summarize, expect or {})


def random_generators(rng: random.Random, n: int) -> dict[str, list[list[int]]]:
    """Involutive integer generators g_i: the identity except column i,
    which is -e_i + v_i with (v_i)_i = 0, so g_i^2 = E.

    Two generators for n = 2, three otherwise.  Each pair couples through
    entries 3 (product 9 > 4), so every pair generates an infinite dihedral
    group and the ball of radius d has the free-product size (2d + 1, or
    3 * 2^d - 2): the cost of a search is set by n and the depth, not by the
    seed, which draws the generator columns and the other entries.  Draws
    where every column sums to 1 are redrawn, so the column-sum certificate
    never applies and the search really runs.
    """
    while True:
        columns = rng.sample(range(n), 2 if n == 2 else 3)
        gens = {}
        for name_index, i in enumerate(columns):
            v = [0 if r == i else 3 if r in columns else rng.choice((-1, 0, 0, 1))
                 for r in range(n)]
            gens[f"g{name_index}"] = [[(-1 if r == i else v[r]) if col == i else int(r == col)
                                       for col in range(n)] for r in range(n)]
        if any(sum(row[col] for row in g) != 1 for g in gens.values() for col in range(n)):
            return gens


def shift_found_generators(rng: random.Random, n: int) -> dict[str, list[list[int]]]:
    """Involutive generators that do reach a negated permutation: the l = 1
    two-vertex pair of the shift-reachability criterion, padded with -1 on
    the remaining coordinates and conjugated by a random permutation."""
    base = {"T": [[-1, 0], [1, 1]], "U": [[1, 1], [0, -1]]}
    perm = list(range(n))
    rng.shuffle(perm)
    gens = {}
    for name, b in base.items():
        full = [[0] * n for _ in range(n)]
        for r in range(n):
            for col in range(n):
                full[r][col] = b[r][col] if r < 2 and col < 2 else -int(r == col)
        gens[name] = [[full[perm[r]][perm[col]] for col in range(n)] for r in range(n)]
    return gens


def _other_requests(rng: random.Random, workdir: Path, golden: Path, counter: Iterator[int]):
    """One request for each non-analyze subcommand form."""
    digon = str(golden / "digon_input.json")
    n = rng.randint(3, 8)
    r = rng.randint(1, n)
    m = rng.randint(0, 3)
    bgs = ["--family", "bgs", "--n", str(n), "--r", str(r), "--m", str(m)]
    bgs_params = {"n": n, "r": r, "m": m}
    k = rng.randint(1, 6)
    points = list(range(1, k + 1))
    rng.shuffle(points)
    cycles, pos = [], 0
    while pos < k:
        size = rng.randint(1, k - pos)
        cycles.append(points[pos:pos + size])
        pos += size
    gens = random_generators(rng, rng.randint(2, 3))
    gens_file = workdir / f"gens-{next(counter)}.json"
    gens_file.write_text(json.dumps({name: matrix_json(g) for name, g in gens.items()}))
    depth = rng.randint(2, 5)
    form = banded_form(rng, 2)
    form_file = workdir / f"form-{next(counter)}.json"
    form_file.write_text(json.dumps(matrix_json(form)))
    edge = rng.choice(("1", "2"))
    return [
        ("golden", ["analyze", "--cartan", str(golden / "four_vertex_cartan_input.json")],
         {"golden": "analyze_four_vertex.json"}),
        ("golden", ["brauer", "decide", "--graph", digon], {"golden": "brauer_decide_digon.json"}),
        ("golden", ["brauer", "certify", "--graph", digon], {"golden": "brauer_certify_digon.json"}),
        ("golden", ["brauer", "dot", "--graph", digon], {"golden": "digon.dot"}),
        ("golden", ["family", "--name", "kronecker_te", "--l", "2"],
         {"golden": "family_kronecker_te_l2.json"}),
        ("golden", ["explore", "alternating", "--m", "4"], {"golden": "alternating_m4.json"}),
        ("golden", ["lattice", "--family", "c3c3_c2", "--z", "5"], {"golden": "lattice_c3c3_z5.json"}),
        ("brauer-mutate", ["brauer", "mutate", "--graph", digon, "--edge", edge], {"edge": edge}),
        ("brauer-kauer", ["brauer", "kauer", "--graph", digon, "--edge", edge], {"edge": edge}),
        ("family-list", ["family", "--list"], {}),
        ("family-full", ["family", "--name", "bgs", "--n", str(n), "--r", str(r),
                         "--m", str(m), "--full"], {"bgs": bgs_params}),
        ("family-dot", ["family", "--name", "bgs", "--n", str(n), "--r", str(r),
                        "--m", str(m), "--dot"], {"bgs": bgs_params}),
        ("te", ["te"] + bgs, {"bgs": bgs_params}),
        ("selfinjective", ["selfinjective", "--cycles", json.dumps(cycles)], {"cycles": cycles}),
        ("alternating", ["explore", "alternating", "--m", str(rng.randint(1, 8))], {}),
        ("delta", ["explore", "delta", "--m", str(rng.randint(1, 6)), "--l",
                   str(rng.randint(1, 6)), "--t", str(rng.randint(3, 30))], {}),
        ("reach-shift", ["explore", "reach-shift", "--gens", str(gens_file), "--depth", str(depth)],
         {"gens": gens, "depth": depth}),
        ("frontier", ["explore", "frontier", "--gens", str(gens_file), "--depth", str(depth)],
         {"gens": gens, "depth": depth}),
        ("lattice", ["lattice", "--cartan", str(form_file), "--z", str(rng.randint(1, 60))],
         {"form": matrix_json(form)}),
        ("lattice-box", ["lattice", "--cartan", str(form_file), "--z", str(rng.randint(0, 30)),
                         "--radius", str(rng.randint(1, 4))], {"form": matrix_json(form)}),
    ]


def spectral_cycles(rng: random.Random, workdir: Path, golden: Path) -> Iterator[list[Request]]:
    """Every cycle analyzes one bgs algebra of each size, one Cartan matrix
    of each size (the construction kind follows the size) and SMALL_CARTANS
    4x4 Cartan matrices, and runs every other subcommand once; the seed
    draws the parameters and entries, and the order."""
    counter = itertools.count()

    def cartan_request(size, kind_index):
        integral, kind = CARTAN_KINDS[kind_index % len(CARTAN_KINDS)]
        rows = random_cartan(rng, size, integral == "integral", kind)
        path = workdir / f"cartan-{next(counter)}.json"
        path.write_text(json.dumps(matrix_json(rows)))
        return _cli_request("analyze-cartan", ["analyze", "--cartan", str(path)],
                            {"cartan": matrix_json(rows), "construction": kind})

    while True:
        cycle = []
        for size in BGS_SIZES:
            if size in BGS_SINGULAR_SIZES:
                n, m, r = size, 0, size  # even cycle, all relations: det 0
            else:
                m = size % 4
                n = size - m
                r = rng.randint(1, n - 1)
            argv = ["analyze", "--family", "bgs", "--n", str(n), "--r", str(r), "--m", str(m)]
            cycle.append(_cli_request("analyze-bgs", argv, {"bgs": {"n": n, "r": r, "m": m}}))
        cycle += [cartan_request(size, kind) for size, kind in CARTAN_SIZE_KIND.items()]
        cycle += [cartan_request(4, k) for k in range(SMALL_CARTANS)]
        cycle += [_cli_request(kind, argv, expect)
                  for kind, argv, expect in _other_requests(rng, workdir, golden, counter)]
        rng.shuffle(cycle)
        yield cycle


def known_defect_request(workdir: Path) -> Request:
    """``analyze`` on KNOWN_DEFECT_CARTAN, checked like a spectral request."""
    rows = [[Fraction(x) for x in row] for row in KNOWN_DEFECT_CARTAN]
    path = workdir / "known-defect-cartan.json"
    path.write_text(json.dumps(matrix_json(rows)))
    return _cli_request("analyze-cartan", ["analyze", "--cartan", str(path)],
                        {"cartan": matrix_json(rows), "construction": "pd"})


# -- search: mutation groups and quadratic-form lattices --------------------------

# search depth per matrix size; with free growth the frontiers hold 101
# (n = 2), 3070, 766, 382, 190 and 94 nodes
REACH_DEPTHS = {2: 50, 3: 10, 4: 8, 5: 7, 6: 6, 7: 5}
GENERATE_SIZE, GENERATE_DEPTH = 4, 7
FOUND_DEPTH = 8
# 2x2 forms: one target z per decade d = 1..5, z <= 10^d; lattice cost grows
# with z / sqrt(det), so det stays in a band per dimension
Z_DECADES_2X2 = (1, 2, 3, 4, 5)
Z_RANGE = {3: (150, 200), 4: (40, 50)}
DET_BAND = {2: (5, 9), 3: (10, 30), 4: (20, 60)}
ALTERNATING_M = tuple(range(1, 9))
DELTAS, BOXES = 4, 4  # small requests per cycle; with the alternating
BOX_DIM, BOX_RADIUS = 2, 3  # searches they are over half of a cycle


def _gens_rm(gens):
    return {name: _rm(g) for name, g in gens.items()}


def _reach_request(gens, depth, expect) -> Request:
    def call():
        return explore.reach_shift(_gens_rm(gens), depth)

    def summarize(res):
        return {"status": res.status, "word": list(res.word) if res.word else None,
                "target": matrix_plain(res.target) if res.target is not None else None,
                "depth_searched": res.depth_searched}

    return Request("reach-shift", {"gens": gens, "depth": depth}, call, summarize, expect)


def _generate_request(gens, depth, expect) -> Request:
    def call():
        return explore.generate(_gens_rm(gens), depth)

    def summarize(frontier):
        nodes = [tuple(int(x) for row in node.matrix.entries for x in row)
                 for node in frontier.nodes]
        return {"nodes": len(nodes), "products": len(frontier.edges),
                "digest": node_digest(nodes),
                "max_word": max(len(node.word) for node in frontier.nodes)}

    return Request("generate", {"gens": gens, "depth": depth}, call, summarize, expect)


def _alternating_request(m: int) -> Request:
    def call():
        mu1 = _rm([[-1, 0], [m, 1]])
        mu2 = _rm([[1, 1], [0, -1]])
        return explore.alternating_shift_search(mu1, mu2)

    def summarize(res):
        return {"status": res.status, "word": list(res.word) if res.word else None,
                "target": matrix_plain(res.target) if res.target is not None else None}

    return Request("alternating", {"m": m}, call, summarize)


def _delta_request(m: int, l: int, terms: int) -> Request:
    def call():
        return explore.delta_sequence(m, l, terms)

    def summarize(seq):
        return {"vectors": [list(v) for v in seq.vectors],
                "values": [str(x) for x in seq.values], "constant": seq.constant}

    return Request("delta", {"m": m, "l": l, "terms": terms}, call, summarize)


def _solutions_request(form, z) -> Request:
    def call():
        return lattice.solutions(_rm(form), z)

    def summarize(vectors):
        return {"vectors": [list(v) for v in vectors]}

    return Request("solutions", {"form": form, "z": z}, call, summarize)


def _box_request(form, z, radius) -> Request:
    def call():
        return lattice.bounded_box(_rm(form), z, radius)

    def summarize(vectors):
        return {"vectors": [list(v) for v in vectors]}

    return Request("bounded-box", {"form": form, "z": z, "radius": radius}, call, summarize)


def banded_form(rng: random.Random, n: int) -> list[list[int]]:
    """Positive definite integer form U^T D U: U unit upper triangular with
    entries in {-1, 0, 1}, D diagonal with det D = prod(D) in DET_BAND[n]."""
    lo, hi = DET_BAND[n]
    d = [0] * n
    while not lo <= math.prod(d) <= hi:
        d = [rng.randint(1, 4) for _ in range(n)]
    u = [[int(i == j) if j <= i else rng.choice((-1, 0, 1)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * d[k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def search_cycles(rng: random.Random) -> Iterator[list[Request]]:
    """Every cycle has the same request types and sizes; the seed draws the
    generators, forms and targets."""
    while True:
        cycle = []
        for n, depth in REACH_DEPTHS.items():
            gens = random_generators(rng, n)
            cycle.append(_reach_request(gens, depth, plain_ball(gens, depth)))
        gens = shift_found_generators(rng, rng.randint(2, 5))
        cycle.append(_reach_request(gens, FOUND_DEPTH, plain_ball(gens, FOUND_DEPTH)))
        gens = random_generators(rng, GENERATE_SIZE)
        cycle.append(_generate_request(gens, GENERATE_DEPTH, plain_ball(gens, GENERATE_DEPTH)))

        cycle += [_alternating_request(m) for m in ALTERNATING_M]
        cycle += [_delta_request(rng.randint(1, 6), rng.randint(1, 6), rng.randint(20, 40))
                  for _ in range(DELTAS)]

        for decade in Z_DECADES_2X2:
            form = banded_form(rng, 2)
            # the enumeration visits about z / sqrt(det) points: scale z to it
            det = form[0][0] * form[1][1] - form[0][1] ** 2
            top = int(10 ** decade * math.sqrt(det / DET_BAND[2][1]))
            cycle.append(_solutions_request(form, rng.randint(top * 9 // 10, top)))
        for n, (lo, hi) in Z_RANGE.items():
            cycle.append(_solutions_request(banded_form(rng, n), rng.randint(lo, hi)))

        for _ in range(BOXES):
            form = [[0] * BOX_DIM for _ in range(BOX_DIM)]
            for i in range(BOX_DIM):
                for j in range(i, BOX_DIM):
                    form[i][j] = form[j][i] = rng.randint(-3, 3)
            cycle.append(_box_request(form, rng.randint(-10, 10), BOX_RADIUS))
        rng.shuffle(cycle)
        yield cycle
