"""Self-tests of the benchmark: tracer arithmetic, seeded generators, and an
oracle that catches wrong answers.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

# the oracle checks with sympy and mpmath, which tiltkit itself does not need
pytest.importorskip("sympy")
pytest.importorskip("mpmath")

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # a second request's root [20, 21] has no children
    t = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10, 20, 21]))
    root, a, b, c = (t.name_id(n) for n in ("root", "a", "b", "c"))
    r = t.open(root)
    sa = t.open(a)
    sb = t.open(b)
    t.close(sb)
    t.close(sa)
    sc = t.open(c)
    t.close(sc)
    t.close(r)
    r2 = t.open(root)
    t.close(r2)
    assert list(t.parent) == [-1, 0, 1, 0, -1]
    selfs = t.self_times()
    assert selfs == {"root": (2, 3.0 + 1.0), "a": (1, 2.0), "b": (1, 1.0), "c": (1, 4.0)}
    total = sum(s for _, s in selfs.values())
    assert total == pytest.approx((10 - 0) + (21 - 20))


def _first_cycles(workload, seed, tmp_path, k=2):
    work = tmp_path / f"{workload}-{seed}"
    work.mkdir(exist_ok=True)
    cycles = workloads.cycles(workload, seed, work, run.GOLDEN)
    requests = [r for cycle in itertools.islice(cycles, k) for r in cycle]
    # file names in argv hold the work directory; compare what they contain
    return json.dumps([(r.kind, r.params, r.expect) for r in requests],
                      sort_keys=True, default=str).replace(str(work), "WORK")


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_generators_are_deterministic_in_the_seed(workload, tmp_path):
    first = _first_cycles(workload, 7, tmp_path)
    assert first == _first_cycles(workload, 7, tmp_path)
    assert first != _first_cycles(workload, 8, tmp_path)


def _census_graph_cycles(seed, tmp_path, k):
    # skip the first cycle, the exhaustive enumeration
    cycles = workloads.cycles("census", seed, tmp_path, run.GOLDEN)
    return itertools.islice(cycles, 1, 1 + k)


def test_census_oracle_passes_and_catches_a_wrong_char_poly(tmp_path, monkeypatch):
    records = run.run_loop(_census_graph_cycles(3, tmp_path, 1))
    assert run.check_outputs(records) == []

    original = workloads.linalg.char_poly
    monkeypatch.setattr(workloads.linalg, "char_poly",
                        lambda m: original(m) + workloads.poly.Polynomial([1]))
    records = run.run_loop(_census_graph_cycles(3, tmp_path, 1))
    failures = run.check_outputs(records)
    assert len(failures) / len(records) > 0
    assert any("char_poly" in p for f in failures for p in f["problems"])


def test_lattice_oracle_catches_a_dropped_vector(monkeypatch):
    form, z = [[5, 4], [4, 5]], 5
    request = workloads._solutions_request(form, z)
    assert run.check_outputs(run.run_loop([[request]])) == []

    original = workloads.lattice.solutions
    monkeypatch.setattr(workloads.lattice, "solutions", lambda c, z: original(c, z)[1:])
    failures = run.check_outputs(run.run_loop([[request]]))
    assert len(failures) == 1 and "missing" in failures[0]["problems"][0]


def test_digest_repeats_for_the_same_code_and_seed(tmp_path):
    a = run.digests(run.run_loop(_census_graph_cycles(5, tmp_path, 1)))
    b = run.digests(run.run_loop(_census_graph_cycles(5, tmp_path, 1)))
    assert a == b


def test_instrumentation_wraps_rebound_names_and_restores_them(monkeypatch):
    import tiltkit.analysis
    import tiltkit.linalg

    original = tiltkit.linalg.char_poly
    monkeypatch.setitem(tracing.ENTRY_POINTS, "explore",
                        tracing.ENTRY_POINTS["explore"] + [("gone", "no_such_entry")])
    t = tracing.Tracer()
    inst = tracing.Instrumentation(t)
    inst.install()
    try:
        assert tiltkit.analysis.char_poly is tiltkit.linalg.char_poly is not original
        report = tiltkit.analysis.analyze(workloads._rm([[2, -1], [-1, 2]]))
    finally:
        inst.remove()
    assert tiltkit.linalg.char_poly is original and tiltkit.analysis.char_poly is original
    assert inst.absent == ["explore.gone"]
    assert report.regular
    calls = {name: c for name, (c, _) in t.self_times().items()}
    assert calls["analysis.analyze"] == 1
    assert calls["linalg.char_poly"] == 1
    assert calls["matrix.inverse"] == 2  # the Coxeter matrix and the Euler form
    assert calls["matrix.matmul"] > 0


def test_paired_run_traces_only_the_traced_pass(tmp_path):
    import tiltkit.linalg

    original = tiltkit.linalg.char_poly
    t = tracing.Tracer()
    plain, traced = run.run_paired(_census_graph_cycles(5, tmp_path, 1), 1e9, t,
                                   tracing.Instrumentation(t))
    assert len(plain) == len(traced) == 18
    assert run.digests(plain) == run.digests(traced)
    calls = {name: c for name, (c, _) in t.self_times().items()}
    assert calls["bench.request"] == 18
    assert calls["brauer.decide"] == 18
    assert list(t.request) == sorted(t.request) and t.request[-1] == 17
    assert tiltkit.linalg.char_poly is original


def test_timings_are_scaled_to_the_reference_speed():
    # a machine at half the reference speed: the reference work took twice as long
    slow = 2 * run.REFERENCE_S
    records = [run.Record("k", {}, {}, {}, 0.02, None, slow)] * 199
    records.append(run.Record("k", {}, {}, None, 0.02, "Traceback: boom", slow))
    e2e, extra = run.end_to_end("search", [(0.1, slow)] * 3, records, 30.0)
    assert e2e["latency_p50_ms"][0] == pytest.approx(10.0)
    assert extra["raw"]["latency_p50_ms"] == pytest.approx(20.0)
    assert e2e["setup_s"][0] == pytest.approx(0.05)
    assert e2e["requests_per_s"][0] == pytest.approx(199 / (200 * 0.01))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [run.Record("k", {}, {}, {}, 0.01, None)] * 200
    e2e, extra = run.end_to_end("search", [(0.1, 2e-3), (0.2, 2e-3)], records, 30.0)
    assert extra["tail_beyond"] >= 10
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    layer = run.per_layer(tracing.Tracer(), [], [], 1.0, 1.5)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_rooted_map_counts_by_brute_force():
    # labelled connected maps L(n): rooted maps = 2n L(n) / (2^n n!)
    for n in (1, 2, 3):
        darts = range(2 * n)
        connected = 0
        for perm in itertools.permutations(darts):
            seen, todo = {0}, [0]
            while todo:
                d = todo.pop()
                for nb in (perm[d], d ^ 1):
                    if nb not in seen:
                        seen.add(nb)
                        todo.append(nb)
            connected += len(seen) == 2 * n
        assert 2 * n * connected == oracle.ROOTED_MAPS[n] * 2 ** n * math.factorial(n)


def test_delta_closed_forms_hold_for_every_small_m_and_l():
    for m, l in itertools.product(range(1, 7), range(1, 7)):
        a = [0, 0, 1]
        while len(a) < 12:
            a.append(l * a[-1] - a[-2])
        vectors = [[a[t + 1], -a[t]] for t in range(1, 11)]
        values = [str(2 * m * x * x + 2 * l * x * y + 2 * y * y) for x, y in vectors]
        out = {"vectors": vectors, "values": values, "constant": len(set(values)) == 1}
        assert oracle.check_delta(m, l, 10, out) == [], (m, l)
