"""Independent checks of every request's output, run after the timed loop.

Nothing here imports tiltkit.  Exact linear algebra and factorisation come
from sympy; lattice, group and delta checks use plain Python integers; graph
checks re-derive each verdict from the ribbon graph's definition.  ``check``
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from pathlib import Path

import mpmath
import sympy
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from groups import is_negated_permutation, plain_ball

# rooted maps with n edges on orientable surfaces of any genus (OEIS A000698,
# shifted); sum over isomorphism classes of 2n / |Aut| must match
ROOTED_MAPS = {1: 2, 2: 10, 3: 74, 4: 706}
ALTERNATING_REACHED = {1: 3, 2: 4, 3: 6}  # word lengths of the criterion-7 cases
NUMERIC_ROOT_DIGITS = 50


# -- shared helpers ---------------------------------------------------------------


def _fracs(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _dm(rows) -> DomainMatrix:
    rows = _fracs(rows)
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows],
                        (len(rows), len(rows[0])), QQ)


def _dm_fracs(m: DomainMatrix) -> list[list[Fraction]]:
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
            for row in m.to_list()]


def _poly_desc(coeffs_ascending) -> list[Fraction]:
    return [Fraction(c) for c in reversed(coeffs_ascending)]


@lru_cache(maxsize=4096)
def _charpoly(rows: tuple) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial, descending coefficients."""
    cp = _dm([list(r) for r in rows]).charpoly()
    return tuple(Fraction(int(c.numerator), int(c.denominator)) for c in cp)


def charpoly(rows) -> tuple[Fraction, ...]:
    return _charpoly(tuple(tuple(Fraction(x) for x in row) for row in rows))


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def definiteness_class(sym_rows) -> str:
    """Inertia of a symmetric rational matrix by Descartes' rule, which is
    exact for the real-rooted characteristic polynomial."""
    cp = list(charpoly(sym_rows))
    n = len(cp) - 1
    zero = 0
    while zero < n and cp[n - zero] == 0:
        zero += 1
    pos = _sign_changes(cp)
    neg = _sign_changes([c * (-1) ** (n - k) for k, c in enumerate(cp)])
    if pos and neg:
        return "indefinite"
    if neg == 0:
        return "positive_definite" if zero == 0 else "positive_semidefinite_singular"
    return "negative_definite" if zero == 0 else "negative_semidefinite_singular"


def _transpose(rows):
    return [list(r) for r in zip(*rows)]


def _add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def _mat_eq(out_rows, expected_rows) -> bool:
    try:
        return _fracs(out_rows) == _fracs(expected_rows)
    except (TypeError, ValueError, ZeroDivisionError):
        return False


# -- census -----------------------------------------------------------------------


class _Graph:
    """Plain ribbon graph from the generator's spec (or an output's)."""

    def __init__(self, spec: dict):
        self.vertices = [(vid, mult, list(order)) for vid, mult, order in spec["vertices"]]
        self.edges = [(eid, tuple(halves)) for eid, halves in spec["edges"]]
        self.vertex_of = {h: vid for vid, _, order in self.vertices for h in order}
        self.edge_of = {h: eid for eid, halves in self.edges for h in halves}
        self.partner = {}
        for _, (a, b) in self.edges:
            self.partner[a], self.partner[b] = b, a
        self.valency = {vid: len(order) for vid, _, order in self.vertices}

    def ends(self, halves):
        return self.vertex_of[halves[0]], self.vertex_of[halves[1]]

    def is_leaf(self, eid) -> bool:
        halves = dict(self.edges)[eid]
        return any(self.valency[v] == 1 for v in self.ends(halves))

    def connected(self) -> bool:
        comp = {vid: vid for vid, _, _ in self.vertices}

        def find(x):
            while comp[x] != x:
                x = comp[x]
            return x

        for _, halves in self.edges:
            a, b = self.ends(halves)
            comp[find(a)] = find(b)
        return len({find(v) for v in comp}) == 1

    def bipartite(self) -> bool:
        adj = {vid: [] for vid, _, _ in self.vertices}
        for _, halves in self.edges:
            a, b = self.ends(halves)
            if a == b:
                return False
            adj[a].append(b)
            adj[b].append(a)
        color = {}
        for s in adj:
            if s in color:
                continue
            color[s] = 0
            todo = [s]
            while todo:
                u = todo.pop()
                for w in adj[u]:
                    if w not in color:
                        color[w] = 1 - color[u]
                        todo.append(w)
                    elif color[w] == color[u]:
                        return False
        return True

    def cycle_length(self) -> int:
        """Edges left after repeatedly removing pendant edges (betti one)."""
        degree = dict(self.valency)
        alive = dict(self.edges)
        pruned = True
        while pruned:
            pruned = False
            for eid, halves in list(alive.items()):
                a, b = self.ends(halves)
                if a != b and (degree[a] == 1 or degree[b] == 1):
                    del alive[eid]
                    degree[a] -= 1
                    degree[b] -= 1
                    pruned = True
        return len(alive)

    def predecessor(self, half, skip_edge):
        order = next(o for vid, _, o in self.vertices if vid == self.vertex_of[half])
        pos = order.index(half)
        for step in range(1, len(order) + 1):
            cand = order[(pos - step) % len(order)]
            if self.edge_of[cand] != skip_edge:
                return cand
        return None

    def g_matrix(self, eid) -> list[list[int]]:
        """Identity except column i = -e_i + e_j + e_k (j, k own the halves
        cyclically preceding the two halves of i)."""
        index = {e: k for k, (e, _) in enumerate(self.edges)}
        n, i = len(self.edges), index[eid]
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i][i] = -1
        for half in dict(self.edges)[eid]:
            rows[index[self.edge_of[self.predecessor(half, eid)]]][i] += 1
        return rows

    def kauer(self, eid) -> dict:
        """Each half of the edge moves to just after the far half of its
        predecessor's edge, halves taken in edge order."""
        moves = []
        for half in dict(self.edges)[eid]:
            pred = self.predecessor(half, eid)
            moves.append((half, self.partner[pred]))
        orders = {vid: list(order) for vid, _, order in self.vertices}
        for half, _ in moves:
            orders[self.vertex_of[half]].remove(half)
        for half, far in moves:
            for order in orders.values():
                if far in order:
                    order.insert(order.index(far) + 1, half)
                    break
        return {"vertices": [[vid, mult, orders[vid]] for vid, mult, _ in self.vertices],
                "edges": [[e, list(h)] for e, h in self.edges]}

    def dart_map(self):
        sigma, mult = {}, {}
        for _, m, order in self.vertices:
            for k, h in enumerate(order):
                sigma[h] = order[(k + 1) % len(order)]
                mult[h] = m
        return sigma, dict(self.partner), mult


def map_canon(sigma: dict, alpha: dict, mult: dict) -> tuple[tuple, int]:
    """Canonical encoding of a connected map and its automorphism count.

    Labels darts by depth-first search from each root, stepping along alpha
    and sigma^-1; automorphisms of a connected map act freely on darts, so
    the number of roots reaching the minimum is |Aut|.
    """
    back = {v: k for k, v in sigma.items()}
    best, count = None, 0
    for root in sigma:
        label, order, todo = {root: 0}, [root], [root]
        while todo:
            d = todo.pop()
            for nb in (alpha[d], back[d]):
                if nb not in label:
                    label[nb] = len(order)
                    order.append(nb)
                    todo.append(nb)
        if len(order) != len(sigma):
            return None, 0  # not connected
        enc = tuple((label[sigma[d]], label[alpha[d]], mult[d]) for d in order)
        if best is None or enc < best:
            best, count = enc, 1
        elif enc == best:
            count += 1
    return best, count


def _same_cyclic(a, b) -> bool:
    return len(a) == len(b) and (not a or any(list(a[k:]) + list(a[:k]) == list(b)
                                              for k in range(len(a))))


def _same_ribbon(out: dict, expected: dict) -> bool:
    if out["edges"] != expected["edges"]:
        return False
    if len(out["vertices"]) != len(expected["vertices"]):
        return False
    return all(vo[0] == ve[0] and vo[1] == ve[1] and _same_cyclic(vo[2], ve[2])
               for vo, ve in zip(out["vertices"], expected["vertices"]))


def check_census_graph(params: dict, out: dict) -> list[str]:
    g = _Graph(params["graph"])
    problems = []
    betti = len(g.edges) - len(g.vertices) + 1
    bip = g.bipartite()
    odd = g.cycle_length() % 2 == 1 if betti == 1 else None
    discrete = betti == 0 or (betti == 1 and odd)
    if list(out["verdict"]) != [betti, bip, odd, discrete, not discrete]:
        problems.append(f"decide {out['verdict']} != {[betti, bip, odd, discrete, not discrete]}")
    leafy = any(g.is_leaf(e) for e, _ in g.edges)
    v, n = len(g.vertices), len(g.edges)
    cls = None
    if not leafy and v == 1 and n >= 2:
        cls = "one_vertex"
    elif not leafy and v == 2 and n >= 2 and bip:
        cls = "two_vertex_bipartite"
    expected_cert = [cls is not None, cls, cls is not None]
    if list(out["certificate"]) != expected_cert:
        problems.append(f"certificate {out['certificate']} != {expected_cert}")
    inner = [e for e, _ in g.edges if not g.is_leaf(e)]
    if [row["edge"] for row in out["edges"]] != inner:
        problems.append("mutated edges differ from the non-leaf edges")
        return problems
    for row in out["edges"]:
        e = row["edge"]
        gm = g.g_matrix(e)
        if not _mat_eq(row["g_matrix"], gm):
            problems.append(f"edge {e}: g-matrix {row['g_matrix']} != {gm}")
        cp = charpoly(gm)
        if _poly_desc(row["char_poly"]) != list(cp):
            problems.append(f"edge {e}: char_poly {row['char_poly']} != {list(cp)[::-1]}")
        if row["divisible"] != (sum(cp) == 0):
            problems.append(f"edge {e}: (x-1)-divisibility {row['divisible']}")
        colsums = all(sum(r[c] for r in gm) == 1 for c in range(n))
        if row["column_sums_one"] != colsums:
            problems.append(f"edge {e}: column-sum check {row['column_sums_one']}")
        moved = g.kauer(e)
        if not _same_ribbon(row["kauer"], moved):
            problems.append(f"edge {e}: kauer move {row['kauer']} != {moved}")
        nxt, partner, mult = (list(x) for x in row["key"])
        key_canon, _ = map_canon(dict(enumerate(nxt)), dict(enumerate(partner)),
                                 dict(enumerate(mult)))
        if key_canon is None or key_canon != map_canon(*_Graph(moved).dart_map())[0]:
            problems.append(f"edge {e}: canonical key does not encode the moved graph")
    return problems


def check_census_enumerate(params: dict, out: dict) -> list[str]:
    problems = []
    classes = out["classes"]
    if len(classes) != params["n_max"]:
        return [f"{len(classes)} edge counts enumerated, expected {params['n_max']}"]
    for n, graphs in enumerate(classes, start=1):
        canons, rooted = set(), Fraction(0)
        for spec in graphs:
            g = _Graph(spec)
            if len(g.edges) != n or not g.connected() or any(m != 1 for _, m, _ in g.vertices):
                problems.append(f"n={n}: invalid graph {spec}")
                continue
            canon, aut = map_canon(*g.dart_map())
            canons.add(canon)
            rooted += Fraction(2 * n, aut)
        if len(canons) != len(graphs):
            problems.append(f"n={n}: {len(graphs) - len(canons)} isomorphic duplicates")
        if rooted != ROOTED_MAPS[n]:
            problems.append(f"n={n}: classes cover {rooted} rooted maps, expected {ROOTED_MAPS[n]}")
    return problems


# -- spectral ---------------------------------------------------------------------


def bgs_cartan(n: int, r: int, m: int) -> list[list[int]]:
    """Cartan matrix C[i][j] = #paths j -> i of the one-cycle-with-tail
    gentle algebra: cycle c_k: k -> k+1 (c_n: n -> 1), tail n+t -> n+t-1
    (n+1 -> 1), zero relations c_j c_{j+1} for j = n-r+1..n."""
    arrows = [(f"c{k}", k, k % n + 1) for k in range(1, n + 1)]
    arrows += [(f"t{t}", n + t, n + t - 1 if t > 1 else 1) for t in range(1, m + 1)]
    dead = {(f"c{j}", f"c{j % n + 1}") for j in range(n - r + 1, n + 1)}
    size = n + m
    c = [[0] * size for _ in range(size)]
    for start in range(1, size + 1):
        c[start - 1][start - 1] += 1
        todo = [(start, None)]
        while todo:
            vertex, last = todo.pop()
            for name, src, dst in arrows:
                if src == vertex and (last, name) not in dead:
                    c[dst - 1][start - 1] += 1
                    todo.append((dst, name))
    return c


def _cyclotomic_indices(p_desc) -> tuple[bool, list[int]]:
    x = sympy.Symbol("x")
    poly = sympy.Poly([int(c) for c in p_desc], x, domain=ZZ)
    _, factors = poly.factor_list()
    indices = []
    for f, e in factors:
        f = f if f.LC() > 0 else -f
        k = f.degree()
        d = next((d for d in range(1, 2 * k * k + 2)
                  if sympy.totient(d) == k and sympy.Poly(sympy.cyclotomic_poly(d, x), x) == f),
                 None)
        if d is None:
            return False, []
        indices += [d] * e
    return True, sorted(indices)


def _all_roots_on_unit_circle(p_desc) -> bool:
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in p_desc], x, domain=QQ)
    sqf = poly.sqf_part().all_coeffs()
    if len(sqf) < 2:
        return True
    with mpmath.workdps(NUMERIC_ROOT_DIGITS):
        roots = mpmath.polyroots([mpmath.mpf(int(c.numerator)) / int(c.denominator) for c in sqf],
                                 maxsteps=500, extraprec=4 * NUMERIC_ROOT_DIGITS)
        return all(abs(abs(r) - 1) < mpmath.mpf(10) ** (-NUMERIC_ROOT_DIGITS // 2) for r in roots)


def _matrix_poly_is_zero(p_desc, rows) -> bool:
    m = _dm(rows)
    n = len(rows)
    acc = DomainMatrix.zeros((n, n), QQ)
    eye = DomainMatrix.eye(n, QQ)
    for c in p_desc:
        acc = acc * m + eye * QQ(c.numerator, c.denominator)
    return acc.is_zero_matrix


def check_analyze(cartan: list[list[Fraction]], out: dict) -> list[str]:
    problems = []
    n = len(cartan)
    if not _mat_eq(out.get("cartan", {}).get("entries", []), cartan):
        return [f"echoed cartan {out.get('cartan')} differs from the input"]
    c = _dm(cartan)
    regular = c.det() != 0
    sym = definiteness_class(_add(cartan, _transpose(cartan)))
    if out["regular"] != regular:
        problems.append(f"regular {out['regular']} != {regular}")
    if out["symmetrized_definiteness"] != sym:
        problems.append(f"symmetrized_definiteness {out['symmetrized_definiteness']} != {sym}")
    fields = ("euler_form_positive", "cyclotomic_type", "cyclotomic_indices",
              "has_eigenvalue_one", "diagonalizable", "coxeter_trace", "coxeter",
              "coxeter_char_poly")
    if not regular:
        extra = [f for f in fields if out.get(f) is not None]
        if extra:
            problems.append(f"singular Cartan matrix but {extra} reported")
        return problems
    inv = _dm_fracs(c.inv())
    phi = [[-x for x in row] for row in _dm_fracs(c.transpose() * c.inv())]
    if not _mat_eq(out["coxeter"], phi):
        problems.append("coxeter matrix differs from -C^T C^-1")
        return problems
    p = list(charpoly(phi))
    if _poly_desc(out["coxeter_char_poly"]) != p:
        problems.append(f"coxeter_char_poly {out['coxeter_char_poly']} != {p[::-1]}")
    euler = definiteness_class(_add(inv, _transpose(inv))) == "positive_definite"
    if out["euler_form_positive"] != euler:
        problems.append(f"euler_form_positive {out['euler_form_positive']} != {euler}")
    has_one = sum(p) == 0
    if out["has_eigenvalue_one"] != has_one:
        problems.append(f"has_eigenvalue_one {out['has_eigenvalue_one']} != {has_one}")
    trace = sum(phi[i][i] for i in range(n))
    if Fraction(out["coxeter_trace"]) != trace:
        problems.append(f"coxeter_trace {out['coxeter_trace']} != {trace}")
    x = sympy.Symbol("x")
    sqf = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in p], x, domain=QQ).sqf_part()
    sqf_desc = [Fraction(int(a.numerator), int(a.denominator)) for a in sqf.all_coeffs()]
    diag = _matrix_poly_is_zero(sqf_desc, phi)
    if out["diagonalizable"] != diag:
        problems.append(f"diagonalizable {out['diagonalizable']} != {diag}")
    if all(c.denominator == 1 for c in p):
        ok, indices = _cyclotomic_indices(p)
        expected = ("cyclotomic", indices) if ok else ("no", None)
    else:
        on_circle = _all_roots_on_unit_circle(p)
        expected = ("generalized_cyclotomic_numeric" if on_circle else "no", None)
    if (out["cyclotomic_type"], out["cyclotomic_indices"]) != expected:
        problems.append(f"cyclotomic {(out['cyclotomic_type'], out['cyclotomic_indices'])} != {expected}")
    return problems


def _digon(golden: Path) -> _Graph:
    return _Graph(_ribbon_from_file(golden / "digon_input.json"))


def _ribbon_from_file(path: Path) -> dict:
    data = json.loads(path.read_text())
    return {"vertices": [[v["id"], v.get("mult", 1), v["order"]] for v in data["vertices"]],
            "edges": [[e["id"], e["halves"]] for e in data["edges"]]}


def _lattice_ok(out, form, z, radius=None) -> list[str]:
    expected = (box_vectors(form, z, radius) if radius is not None
                else lattice_vectors(form, z))
    got = [tuple(v) for v in out["vectors"]]
    problems = []
    if got != expected:
        problems.append(f"{len(got)} vectors, expected {len(expected)}: "
                        f"missing {sorted(set(expected) - set(got))[:5]}, "
                        f"extra {sorted(set(got) - set(expected))[:5]}")
    if out.get("count", len(got)) != len(got):
        problems.append("count disagrees with the vector list")
    return problems


def check_cli(kind: str, argv: list[str], expect: dict, out: dict, golden: Path) -> list[str]:
    code, text = out["code"], out["stdout"]
    if code != 0:
        return [f"exit code {code}: {text[:200]}"]
    if "golden" in expect:
        want = (golden / expect["golden"]).read_text()
        return [] if text == want else [f"output differs from golden {expect['golden']}"]
    if kind == "family-dot":
        p = expect["bgs"]
        arrows = sum(1 for line in text.splitlines() if "->" in line)
        ok = text.startswith("digraph quiver {") and text.endswith("}\n") and arrows == p["n"] + p["m"]
        return [] if ok else ["quiver DOT malformed"]
    if kind == "frontier":
        ball = plain_ball(expect["gens"], expect["depth"])
        nodes = sum(1 for line in text.splitlines() if "[label=" in line and "->" not in line)
        edges = sum(1 for line in text.splitlines() if "->" in line)
        ok = text.startswith("digraph frontier {") and (nodes, edges) == (ball["nodes"], ball["products"])
        return [] if ok else [f"frontier DOT has {nodes} nodes/{edges} edges, expected "
                              f"{ball['nodes']}/{ball['products']}"]
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if kind == "analyze-bgs":
        return check_analyze(bgs_cartan(**expect["bgs"]), data)
    if kind == "analyze-cartan":
        return check_analyze(_fracs(expect["cartan"]["entries"]), data)
    if kind == "brauer-mutate":
        ok = _mat_eq(data["entries"], _digon(golden).g_matrix(expect["edge"]))
        return [] if ok else ["digon g-matrix differs"]
    if kind == "brauer-kauer":
        got = {"vertices": [[v["id"], v["mult"], v["order"]] for v in data["vertices"]],
               "edges": [[e["id"], e["halves"]] for e in data["edges"]]}
        return [] if _same_ribbon(got, _digon(golden).kauer(expect["edge"])) else ["digon kauer move differs"]
    if kind == "family-list":
        names = [e["name"] for e in data]
        problems = [] if len(set(names)) == len(names) else ["duplicate family names"]
        for e in data:
            if e["name"] == "bgs" and not _mat_eq(e["cartan"]["entries"], bgs_cartan(**e["params"])):
                problems.append("bgs registry Cartan matrix differs")
        return problems
    if kind == "family-full":
        p = expect["bgs"]
        pres = data["presentation"]
        ok = (_mat_eq(data["cartan"]["entries"], bgs_cartan(**p))
              and pres["vertices"] == p["n"] + p["m"] and len(pres["arrows"]) == p["n"] + p["m"]
              and len(pres["zero_relations"]) == p["r"])
        return [] if ok else ["bgs family entry differs"]
    if kind == "te":
        c = bgs_cartan(**expect["bgs"])
        return [] if _mat_eq(data["entries"], _add(c, _transpose(c))) else ["C + C^T differs"]
    if kind == "selfinjective":
        return check_selfinjective(expect["cycles"], data)
    if kind == "alternating":
        return check_alternating(int(argv[argv.index("--m") + 1]), data)
    if kind == "delta":
        m, l, t = (int(argv[argv.index(f) + 1]) for f in ("--m", "--l", "--t"))
        return check_delta(m, l, t, data)
    if kind == "reach-shift":
        ball = plain_ball(expect["gens"], expect["depth"])
        return check_reach(expect["gens"], expect["depth"], ball, data)
    if kind == "lattice":
        form = _fracs(expect["form"]["entries"])
        return _lattice_ok(data, [[int(x) for x in r] for r in form],
                           int(argv[argv.index("--z") + 1]))
    if kind == "lattice-box":
        form = [[int(Fraction(x)) for x in r] for r in expect["form"]["entries"]]
        return _lattice_ok(data, form, int(argv[argv.index("--z") + 1]),
                           int(argv[argv.index("--radius") + 1]))
    return [f"no oracle for CLI request kind {kind!r}"]


def check_selfinjective(cycles, data) -> list[str]:
    x = sympy.Symbol("x")
    p = sympy.Integer(1)
    for cyc in cycles:
        p *= x ** len(cyc) + (1 if len(cyc) % 2 else -1)
    coeffs = sympy.Poly(sympy.expand(p), x).all_coeffs()[::-1]
    odd = sum(len(c) - 1 for c in cycles) % 2 == 1
    expected = {"coxeter_poly": [str(c) for c in coeffs],
                "has_eigenvalue_one": sum(coeffs) == 0, "permutation_odd": odd}
    return [] if data == expected else [f"selfinjective {data} != {expected}"]


# -- search -----------------------------------------------------------------------


def _replay(gens: dict, word) -> list[list[int]]:
    n = len(next(iter(gens.values())))
    acc = [[int(r == c) for c in range(n)] for r in range(n)]
    for name in word:
        g = gens[name]
        acc = [[sum(acc[r][k] * g[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
    return acc


def _flat(rows) -> tuple[int, ...]:
    return tuple(int(Fraction(x)) for row in rows for x in row)


def check_reach(gens: dict, depth: int, ball: dict, out: dict) -> list[str]:
    n = len(next(iter(gens.values())))
    if all(sum(row[c] for row in g) == 1 for g in gens.values() for c in range(n)):
        # column sums 1 are closed under products; a negated permutation has -1
        ok = out["status"] == "certified_unreachable"
        return [] if ok else [f"reach_shift {out['status']}, expected certified_unreachable"]
    hit = ball["first_hit"]
    if hit is None:
        expected = ("not_found_within_depth", depth)
        got = (out["status"], out["depth_searched"])
        return [] if got == expected else [f"reach_shift {got} != {expected}"]
    if out["status"] != "found" or out["word"] is None:
        return [f"reach_shift status {out['status']}, but depth {hit} holds a negated permutation"]
    product = _replay(gens, out["word"])
    problems = []
    if len(out["word"]) != hit or out["depth_searched"] != hit:
        problems.append(f"word length {len(out['word'])} != shortest {hit}")
    if not is_negated_permutation(_flat(product), n) or _flat(product) != _flat(out["target"]):
        problems.append("replayed word is not the reported negated permutation")
    return problems


def check_generate(ball: dict, out: dict) -> list[str]:
    expected = {"nodes": ball["nodes"], "products": ball["products"],
                "digest": ball["digest"], "max_word": ball["radius"]}
    return [] if out == expected else [f"generate {out} != {expected}"]


def check_alternating(m: int, out: dict) -> list[str]:
    mu = {"mu1": [[-1, 0], [m, 1]], "mu2": [[1, 1], [0, -1]]}
    if m in ALTERNATING_REACHED:
        word = out.get("word") or []
        product = _replay(mu, word)
        ok = (out["status"] == "reached" and len(word) == ALTERNATING_REACHED[m]
              and all(w == ("mu2" if k % 2 == 0 else "mu1") for k, w in enumerate(word))
              and is_negated_permutation(_flat(product), 2)
              and _flat(product) == _flat(out["target"]))
        return [] if ok else [f"alternating m={m}: {out['status']} {word}"]
    # |trace(mu2 mu1)| = m - 2 >= 2: infinite order, never a shift
    if out["status"] != "certified_never":
        return [f"alternating m={m}: status {out['status']}, expected certified_never"]
    word = []
    for length in range(1, 130):
        word.append("mu2" if length % 2 == 1 else "mu1")
        if is_negated_permutation(_flat(_replay(mu, word)), 2):
            return [f"alternating m={m}: word of length {length} reaches a shift"]
    return []


def check_delta(m: int, l: int, terms: int, out: dict) -> list[str]:
    a = [0, 0, 1]
    while len(a) < terms + 2:
        a.append(l * a[-1] - a[-2])
    vectors = [[a[t + 1], -a[t]] for t in range(1, terms + 1)]
    s = [2, l]
    while len(s) <= 2 * terms:
        s.append(l * s[-1] - s[-2])
    values = []
    for t, (x, y) in enumerate(vectors, start=1):
        value = 2 * m * x * x + 2 * l * x * y + 2 * y * y
        if m == 1:
            closed = 2
        elif l == 2:
            closed = 2 * ((m - 1) * t * t + 1)
        else:
            closed = Fraction(2 * ((m - 1) * (s[2 * t] - 2) + l * l - 4), l * l - 4)
        if value != closed:
            return [f"delta m={m} l={l}: closed form {closed} != v^T C v {value} at t={t}"]
        values.append(str(value))
    expected = {"vectors": vectors, "values": values, "constant": len(set(values)) == 1}
    return [] if out == expected else [f"delta m={m} l={l} t={terms}: {out} != {expected}"]


def lattice_vectors(form: list[list[int]], z: int) -> list[tuple[int, ...]]:
    """All integer v with v^T F v = z for positive definite F, by brute force
    over the box |v_i|^2 <= z (F^-1)_ii, solving the last coordinate exactly."""
    n = len(form)
    if z < 0:
        return []
    inverse = _dm_fracs(_dm(form).inv())
    bounds = [isqrt(int(z * inverse[i][i])) for i in range(n)]
    a = form[-1][-1]
    out = []
    for prefix in itertools.product(*(range(-b, b + 1) for b in bounds[:-1])):
        b = sum(form[i][-1] * prefix[i] for i in range(n - 1))
        c = sum(prefix[i] * form[i][j] * prefix[j]
                for i in range(n - 1) for j in range(n - 1)) - z
        disc = b * b - a * c
        if disc < 0:
            continue
        root = isqrt(disc)
        if root * root != disc:
            continue
        for num in {-b + root, -b - root}:
            if num % a == 0:
                out.append(prefix + (num // a,))
    return sorted(out)


def box_vectors(form: list[list[int]], z: int, radius: int) -> list[tuple[int, ...]]:
    n = len(form)
    return sorted(v for v in itertools.product(range(-radius, radius + 1), repeat=n)
                  if sum(v[i] * form[i][j] * v[j] for i in range(n) for j in range(n)) == z)


# -- dispatch ---------------------------------------------------------------------


def check(kind: str, params: dict, expect: dict, out, golden: Path) -> list[str]:
    """Problems with one request's summarized output; empty when correct."""
    if "argv" in params:
        return check_cli(kind, params["argv"], expect, out, golden)
    if kind == "graph":
        return check_census_graph(params, out)
    if kind == "enumerate":
        return check_census_enumerate(params, out)
    if kind == "reach-shift":
        return check_reach(params["gens"], params["depth"], expect, out)
    if kind == "generate":
        return check_generate(expect, out)
    if kind == "alternating":
        return check_alternating(params["m"], out)
    if kind == "delta":
        return check_delta(params["m"], params["l"], params["terms"], out)
    if kind == "solutions":
        return _lattice_ok(out, params["form"], params["z"])
    if kind == "bounded-box":
        return _lattice_ok(out, params["form"], params["z"], params["radius"])
    return [f"no oracle for request kind {kind!r}"]
