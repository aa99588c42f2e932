import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltkit.explore import (
    Frontier,
    FrontierNode,
    SearchResult,
    alternating_shift_search,
    delta,
    delta_sequence,
    generate,
    is_negated_permutation,
    reach_shift,
    shift_targets,
)
from tiltkit.linalg import matrix_order
from tiltkit.matrix import RationalMatrix


def kronecker_gens(l: int) -> dict[str, RationalMatrix]:
    return {
        "T": RationalMatrix([[-1, 0], [l, 1]]),
        "U": RationalMatrix([[1, l], [0, -1]]),
    }


def test_negative_depth_raises_before_the_column_sum_certificate():
    # the identity has column sums 1, so the certificate would apply
    with pytest.raises(ValueError, match="depth must be >= 0"):
        reach_shift({"E": RationalMatrix.identity(2)}, -1)


def test_generate_identity_only():
    f = generate({"E": RationalMatrix.identity(2)}, 5)
    assert len(f.nodes) == 1
    assert f.nodes[0].word == ()


def test_generate_word_replay():
    f = generate(kronecker_gens(1), 3)
    gens = kronecker_gens(1)
    for node in f.nodes:
        replay = RationalMatrix.identity(2)
        for name in node.word:
            replay = replay @ gens[name]
        assert replay == node.matrix
        assert node.matrix.det() in (1, -1)
        assert len(node.word) == node.depth


def test_generate_shortest_word_tiebreak():
    # two names for the same matrix: lexicographically first name wins
    m = RationalMatrix([[0, 1], [1, 0]])
    f = generate({"b": m, "a": m}, 2)
    swap = next(n for n in f.nodes if n.matrix == m)
    assert swap.word == ("a",)


def test_generate_involutive_frontier_count():
    # both l=1 generators are involutions: depth 2 gives E, T, U, TU, UT
    f = generate(kronecker_gens(1), 2)
    assert len(f.nodes) == 5


def test_shift_targets():
    targets = shift_targets(2)
    assert -RationalMatrix.identity(2) in targets
    assert RationalMatrix([[0, -1], [-1, 0]]) in targets
    assert len(targets) == 2


def test_reach_shift_l1_found_at_length_3():
    r = reach_shift(kronecker_gens(1), 12)
    assert r.status == "found"
    assert len(r.word) == 3
    assert r.target == RationalMatrix([[0, -1], [-1, 0]])


def test_reach_shift_l2_certificate():
    r = reach_shift(kronecker_gens(2), 12)
    assert r.status == "certified_unreachable"
    assert "column sums" in r.reason


def test_reach_shift_l3_not_found():
    r = reach_shift(kronecker_gens(3), 12)
    assert r.status == "not_found_within_depth"
    assert r.depth_searched == 12


def test_alternating_reached_small_m():
    mu2 = RationalMatrix([[1, 1], [0, -1]])
    expected = {1: 3, 2: 4, 3: 6}
    for m, length in expected.items():
        mu1 = RationalMatrix([[-1, 0], [m, 1]])
        r = alternating_shift_search(mu1, mu2)
        assert r.status == "reached"
        assert len(r.word) == length
        # replay the word
        gens = {"mu1": mu1, "mu2": mu2}
        replay = RationalMatrix.identity(2)
        for name in r.word:
            replay = replay @ gens[name]
        assert replay == r.target
        assert replay in set(shift_targets(2))


def test_alternating_certified_never_large_m():
    mu2 = RationalMatrix([[1, 1], [0, -1]])
    for m in (4, 5, 7):
        mu1 = RationalMatrix([[-1, 0], [m, 1]])
        r = alternating_shift_search(mu1, mu2)
        assert r.status == "certified_never"
        assert "infinite order" in r.reason


def test_alternating_kronecker_rays_never_reach_the_bounded_loop():
    # G = mu2 mu1 has det 1 and an exact order verdict for every m >= 1, so
    # the search ends before its bounded loop even with bound = 0
    mu2 = RationalMatrix([[1, 1], [0, -1]])
    for m in range(1, 101):
        r = alternating_shift_search(RationalMatrix([[-1, 0], [m, 1]]), mu2, bound=0)
        assert r.status == ("reached" if m <= 3 else "certified_never"), m


def test_alternating_rejects_a_negative_bound():
    mu2 = RationalMatrix([[1, 1], [0, -1]])
    for bound in (-1, -3):
        with pytest.raises(ValueError, match="bound must be >= 0"):
            alternating_shift_search(RationalMatrix([[2, 0], [0, 1]]), mu2, bound=bound)


def test_alternating_requires_2x2():
    with pytest.raises(ValueError):
        alternating_shift_search(
            RationalMatrix.identity(3), RationalMatrix.identity(3)
        )


def test_delta_examples():
    c = RationalMatrix([[5, 4], [4, 5]])
    assert delta(c, (0, 1)) == 5
    for a in range(0, 21):
        assert delta(c, (-a, a + 1)) == 2 * a * a + 2 * a + 5
    assert delta(RationalMatrix([[6, 1], [1, 2]]), (1, 0)) == 6


def test_delta_sequence_quadratic_growth():
    s = delta_sequence(3, 2, 20)
    for t, value in enumerate(s.values, start=1):
        assert value == 2 * ((3 - 1) * t * t + 1)
    assert not s.constant


def test_delta_sequence_constant_for_m1():
    for l in (1, 2, 3, 5):
        s = delta_sequence(1, l, 25)
        assert s.constant and set(s.values) == {Fraction(2)}


def test_delta_sequence_closed_form_l3():
    # closed form verified over the integers after clearing l^2 - 4:
    # delta(t) * (l^2-4) = 2((m-1)(s_{2t} - 2) + l^2 - 4) where
    # s_k = alpha_+^k + alpha_-^k satisfies s_0 = 2, s_1 = l, the same
    # two-term recurrence as a_t
    for l in (3, 4):
        for m in (1, 2, 3):
            s_vals = [2, l]
            for _ in range(60):
                s_vals.append(l * s_vals[-1] - s_vals[-2])
            seq = delta_sequence(m, l, 25)
            for t, value in enumerate(seq.values, start=1):
                lhs = value * (l * l - 4)
                rhs = 2 * ((m - 1) * (s_vals[2 * t] - 2) + l * l - 4)
                assert lhs == rhs


def test_delta_sequence_vectors_satisfy_recurrence():
    s = delta_sequence(2, 3, 10)
    a = [0, 1] + [0] * 10
    for t in range(2, 11):
        a[t] = 3 * a[t - 1] - a[t - 2]
    for t, (x, y) in enumerate(s.vectors, start=1):
        assert (x, y) == (a[t], -a[t - 1])


def test_delta_sequence_monotone_growth():
    for m in (2, 3):
        for l in (2, 3):
            values = delta_sequence(m, l, 50).values
            assert all(b > a for a, b in zip(values, values[1:]))
            assert all(v >= 1 for v in values)


# -- reference: the plain breadth-first search, one product per edge ----------


def _reference_generate(generators, depth):
    n = next(iter(generators.values())).nrows
    names = sorted(generators)
    start = RationalMatrix.identity(n)
    nodes = [FrontierNode(start, (), 0)]
    index = {start: 0}
    edges = []
    layer = [0]
    for d in range(1, depth + 1):
        nxt = []
        for i in layer:
            node = nodes[i]
            for name in names:
                m = node.matrix @ generators[name]
                j = index.get(m)
                if j is None:
                    j = len(nodes)
                    index[m] = j
                    nodes.append(FrontierNode(m, node.word + (name,), d))
                    nxt.append(j)
                edges.append((i, name, j))
        layer = nxt
        if not layer:
            break
    return Frontier(tuple(nodes), depth, tuple(edges))


def _reference_reach_shift(generators, max_depth):
    n = next(iter(generators.values())).nrows
    if all(
        all(s == 1 for s in g.column_sums()) for g in generators.values()
    ):
        return SearchResult(
            status="certified_unreachable",
            reason=(
                "all generators have column sums 1, a property closed under "
                "products; every negated permutation has column sums -1"
            ),
        )
    targets = set(shift_targets(n))
    frontier = _reference_generate(generators, max_depth)
    for node in frontier.nodes:
        if node.matrix in targets:
            return SearchResult(
                status="found",
                word=node.word,
                target=node.matrix,
                depth_searched=node.depth,
            )
    return SearchResult(status="not_found_within_depth", depth_searched=max_depth)


@st.composite
def _involution(draw, n):
    # the identity except column i = -e_i + v with v_i = 0, so g g = E
    i = draw(st.integers(0, n - 1))
    v = [0 if r == i else draw(st.integers(-2, 2)) for r in range(n)]
    return RationalMatrix(
        [
            [(-1 if r == i else v[r]) if col == i else int(r == col)
             for col in range(n)]
            for r in range(n)
        ]
    )


def _square(n):
    return st.lists(
        st.lists(st.integers(-1, 1), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(RationalMatrix)


@st.composite
def _generator_sets(draw):
    n = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(("involutive", "general", "mixed")))
    pick = {
        "involutive": _involution(n),
        "general": _square(n),
        "mixed": st.one_of(_involution(n), _square(n)),
    }[kind]
    pool = draw(st.lists(pick, min_size=1, max_size=4))
    size = draw(st.integers(2, 4))
    # drawing names from a small pool repeats matrices under two names
    return {
        f"g{k}": pool[draw(st.integers(0, len(pool) - 1))] for k in range(size)
    }


@settings(max_examples=80, deadline=None)
@given(_generator_sets(), st.integers(0, 4))
def test_generate_matches_reference_bfs(gens, depth):
    assert generate(gens, depth) == _reference_generate(gens, depth)


@settings(max_examples=80, deadline=None)
@given(_generator_sets(), st.integers(0, 4))
def test_reach_shift_matches_reference(gens, depth):
    assert reach_shift(gens, depth) == _reference_reach_shift(gens, depth)


def test_reach_shift_matches_reference_on_kronecker_pairs():
    for l in (1, 2, 3):
        gens = kronecker_gens(l)
        assert reach_shift(gens, 12) == _reference_reach_shift(gens, 12)
        assert generate(gens, 8) == _reference_generate(gens, 8)


def _coupled_involutions(rng, n):
    # involutions g_i = E except column i = -e_i + v_i, each pair coupled
    # through entries 3, so every pair generates an infinite dihedral group
    columns = rng.sample(range(n), 2 if n == 2 else 3)
    gens = {}
    for k, i in enumerate(columns):
        v = [0 if r == i else 3 if r in columns else rng.choice((-1, 0, 1))
             for r in range(n)]
        gens[f"g{k}"] = RationalMatrix(
            [[(-1 if r == i else v[r]) if col == i else int(r == col)
              for col in range(n)] for r in range(n)]
        )
    return gens


def _padded_kronecker_pair(rng, n):
    # the l = 1 pair T, U padded with -1 and conjugated by a permutation
    perm = rng.sample(range(n), n)
    gens = {}
    for name, base in kronecker_gens(1).items():
        full = [
            [base[r, col] if r < 2 and col < 2 else -int(r == col)
             for col in range(n)]
            for r in range(n)
        ]
        gens[name] = RationalMatrix(
            [[full[perm[r]][perm[col]] for col in range(n)] for r in range(n)]
        )
    return gens


@pytest.mark.parametrize("n", range(4, 8))
def test_walk_matches_reference_on_coupled_involutions(n):
    rng = random.Random(n)
    for depth in (3, 4, 5):
        gens = _coupled_involutions(rng, n)
        assert generate(gens, depth) == _reference_generate(gens, depth)
        assert reach_shift(gens, depth) == _reference_reach_shift(gens, depth)


@pytest.mark.parametrize("n", range(2, 6))
def test_reach_shift_matches_reference_on_padded_pairs(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        gens = _padded_kronecker_pair(rng, n)
        result = reach_shift(gens, 8)
        assert result == _reference_reach_shift(gens, 8)
        assert result.status == "found" and result.depth_searched == 3
        assert generate(gens, 4) == _reference_generate(gens, 4)


def test_reach_shift_deep_in_a_finite_group():
    # signed permutations of the first two coordinates, the third fixed: a
    # group of order 8 without a negated permutation; R has order 4, so
    # without deduplication the frontier would double at every layer
    d = RationalMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    p = RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    gens = {"D": d, "P": p, "R": p @ d}
    result = reach_shift(gens, 60)
    assert result.status == "not_found_within_depth"
    assert result == _reference_reach_shift(gens, 60)
    assert len(generate(gens, 60).nodes) == 8


def test_non_integral_generators_are_refused():
    gens = dict(kronecker_gens(1), V=RationalMatrix([["1/2", 0], [0, 1]]))
    for search in (generate, reach_shift):
        with pytest.raises(ValueError, match="generator 'V' is not an integer"):
            search(gens, 3)


def test_is_negated_permutation_all_3x3_sign_matrices():
    targets = set(shift_targets(3))
    hits = 0
    for flat in itertools.product((-1, 0, 1), repeat=9):
        m = RationalMatrix([flat[0:3], flat[3:6], flat[6:9]])
        assert is_negated_permutation(m) == (m in targets)
        hits += m in targets
    assert hits == 6


def test_is_negated_permutation_signed_permutations():
    for n in range(1, 5):
        targets = set(shift_targets(n))
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((-1, 1), repeat=n):
                m = RationalMatrix(
                    [[signs[i] if perm[i] == j else 0 for j in range(n)]
                     for i in range(n)]
                )
                assert is_negated_permutation(m) == (m in targets)
                assert is_negated_permutation(m) == all(s == -1 for s in signs)


def test_is_negated_permutation_non_square():
    assert not is_negated_permutation(RationalMatrix([[-1, 0]]))
    assert not is_negated_permutation(RationalMatrix([[-1], [0]]))
    assert not is_negated_permutation(RationalMatrix([[0, -1, 0], [-1, 0, 0]]))


FINITE_ORDER_REASON = (
    "the alternating product has finite order {}; all distinct alternating "
    "words were checked exactly"
)
INFINITE_ORDER_REASON = (
    "the alternating product of the two generators has infinite order "
    "(certified exactly) while every target and target residual has finite "
    "order, so no alternating word beyond the lengths already checked can match"
)


def _reference_alternating_shift_search(mu1, mu2, bound=64):
    # the search as it stood with the n! target set, set membership for
    # every word, the residual certificate over that set and a second pass
    targets = set(shift_targets(2))
    g = mu2 @ mu1

    def word(length):
        return tuple("mu2" if k % 2 == 0 else "mu1" for k in range(length))

    def check_up_to(s_max):
        power = RationalMatrix.identity(2)
        for s in range(s_max + 1):
            if s > 0 and power in targets:
                return SearchResult(
                    status="reached", word=word(2 * s), target=power,
                    depth_searched=2 * s,
                )
            odd = power @ mu2
            if odd in targets:
                return SearchResult(
                    status="reached", word=word(2 * s + 1), target=odd,
                    depth_searched=2 * s + 1,
                )
            power = power @ g
        return None

    order = matrix_order(g) if g.det() in (1, -1) else None
    if order is not None and order.kind == "finite":
        hit = check_up_to(order.order)
        if hit is not None:
            return hit
        return SearchResult(
            status="certified_never", reason=FINITE_ORDER_REASON.format(order.order)
        )
    if order is not None and order.kind == "certified_infinite":
        hit = check_up_to(1)
        if hit is not None:
            return hit
        if mu2.det() == 0 or all(
            (t @ mu2.inverse()).det() not in (1, -1)
            or matrix_order(t @ mu2.inverse()).kind == "finite"
            for t in targets
        ):
            return SearchResult(status="certified_never", reason=INFINITE_ORDER_REASON)
    hit = check_up_to(bound)
    if hit is not None:
        return hit
    return SearchResult(status="not_found", depth_searched=2 * bound + 1)


_entries_2x2 = st.lists(
    st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2
).map(RationalMatrix)

_rational_2x2 = st.lists(
    st.lists(st.fractions(-3, 3, max_denominator=3), min_size=2, max_size=2),
    min_size=2, max_size=2,
).map(RationalMatrix)

# words in elementary and signed permutation matrices: det +-1, so G has an
# exact order and both certificates come into play
_ELEMENTARY_2X2 = [
    RationalMatrix(rows)
    for rows in ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, -1], [0, 1]],
                 [[0, 1], [1, 0]], [[-1, 0], [0, 1]], [[0, -1], [1, 0]])
]
_unimodular_2x2 = st.lists(st.sampled_from(_ELEMENTARY_2X2), min_size=1, max_size=4).map(
    lambda ms: functools.reduce(operator.matmul, ms)
)
_any_2x2 = st.one_of(_entries_2x2, _rational_2x2, _unimodular_2x2, _involution(2))


@settings(max_examples=300, deadline=None)
@given(_any_2x2, _any_2x2, st.integers(0, 8))
def test_alternating_matches_reference_target_set(mu1, mu2, bound):
    result = alternating_shift_search(mu1, mu2, bound)
    assert result == _reference_alternating_shift_search(mu1, mu2, bound)


def test_alternating_matches_reference_on_kronecker_rays():
    mu2 = RationalMatrix([[1, 1], [0, -1]])
    for m in range(0, 9):
        mu1 = RationalMatrix([[-1, 0], [m, 1]])
        result = alternating_shift_search(mu1, mu2)
        assert result == _reference_alternating_shift_search(mu1, mu2)


_HYPERBOLIC = RationalMatrix([[2, 1], [1, 1]])
_E2 = RationalMatrix.identity(2)


def _kronecker_pair(m):
    return RationalMatrix([[-1, 0], [m, 1]]), RationalMatrix([[1, 1], [0, -1]])


# (mu1, mu2, bound, status, word length or depth_searched, reason)
ALTERNATING_TABLE = {
    "reached-m1": (*_kronecker_pair(1), 64, "reached", 3, ""),
    "reached-m3-bound-0": (*_kronecker_pair(3), 0, "reached", 6, ""),
    "reached-mu2-is-a-target": (_HYPERBOLIC, -_E2, 0, "reached", 1, ""),
    # G = -mu2^{-1} is its own residual for T = -E, so no miss is certified:
    # the limit stays at least 1 and finds G mu2 = -E even with bound 0
    "reached-past-an-uncertified-residual": (
        -(_HYPERBOLIC.inverse() @ _HYPERBOLIC.inverse()), _HYPERBOLIC, 0, "reached", 3, ""),
    "finite-order-3": (RationalMatrix([[0, -1], [1, -1]]), _E2, 64, "certified_never",
                       None, FINITE_ORDER_REASON.format(3)),
    "finite-order-1-rational": (RationalMatrix([[Fraction(1, 2), 0], [0, 1]]),
                                RationalMatrix([[2, 0], [0, 1]]), 0, "certified_never",
                                None, FINITE_ORDER_REASON.format(1)),
    "infinite-order-m4": (*_kronecker_pair(4), 64, "certified_never", None,
                          INFINITE_ORDER_REASON),
    "infinite-order-m5-bound-0": (*_kronecker_pair(5), 0, "certified_never", None,
                                  INFINITE_ORDER_REASON),
    # the residuals -mu2^{-1} and [[0, -1], [-1, 0]] mu2^{-1} are hyperbolic
    "not-found-hyperbolic-residual": (_E2, _HYPERBOLIC, 3, "not_found", 7, ""),
    "not-found-det-2": (RationalMatrix([[2, 0], [0, 1]]), _E2, 5, "not_found", 11, ""),
    "not-found-rational-det": (RationalMatrix([[Fraction(1, 3), 1], [0, 1]]), _HYPERBOLIC, 2,
                               "not_found", 5, ""),
}


@pytest.mark.parametrize("case", sorted(ALTERNATING_TABLE))
def test_alternating_outcome_table(case):
    mu1, mu2, bound, status, length, reason = ALTERNATING_TABLE[case]
    result = alternating_shift_search(mu1, mu2, bound)
    assert result == _reference_alternating_shift_search(mu1, mu2, bound)
    assert (result.status, result.reason) == (status, reason)
    if status == "reached":
        assert len(result.word) == result.depth_searched == length
        assert is_negated_permutation(result.target)
    elif status == "not_found":
        assert result.depth_searched == length


def test_searches_build_no_target_set(monkeypatch):
    import tiltkit.explore as explore

    def refuse(n):
        raise AssertionError("the n! target set was built")

    monkeypatch.setattr(explore, "shift_targets", refuse)
    mu2 = RationalMatrix([[1, 1], [0, -1]])
    for m in (1, 3, 4):
        alternating_shift_search(RationalMatrix([[-1, 0], [m, 1]]), mu2)
    reach_shift(kronecker_gens(1), 6)
