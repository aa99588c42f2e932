#!/usr/bin/env python3
"""tiltkit benchmark: one workload, one seed, a closed loop of one client.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a tiltkit checkout; the package is imported from
``src/``.  The client sends its next request only after the previous one
returns, until the requests' own run time reaches ``--seconds`` and the
cycle in progress is done; input generation and output capture between
requests are client time and are not counted.  Every output is then
checked by an oracle that does not use tiltkit.  ``--trace 0`` reports the
end-to-end metrics, with every timing scaled to a fixed machine speed,
which a reference computation timed between requests tracks (see
``scaled``).  ``--trace 1`` runs every request twice back to back, once
plain and once with every layer entry point wrapped in a span, and reports
per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import zlib
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = HERE / ".work"
OUT = HERE / ".out"

WORKLOAD_NAMES = ("census", "spectral", "search")
SETUP_RUNS = 25
# fixed per workload, so the metric means the same thing in every run; at
# 15 s each leaves at least ten samples beyond it, and none sits on the
# step between two request types of the cycle
TAIL_PERCENTILE = {"census": 98.0, "spectral": 94.0, "search": 94.0}
# seconds that reference_work takes on a calm 2-vCPU Xeon VM (2.1 GHz,
# Python 3.11); timings are scaled to this speed, see scaled()
REFERENCE_S = 2.1e-3
DIGEST_PREFIX = 20
MODULES = ("matrix", "poly", "linalg", "analysis", "quiver", "families",
           "brauer", "explore", "lattice", "serialize", "cli")


# -- set-up ---------------------------------------------------------------------


def import_time() -> float:
    """Seconds to import tiltkit and all its submodules in a fresh interpreter."""
    code = ("import time\nt = time.perf_counter()\nimport tiltkit\n"
            + "".join(f"import tiltkit.{m}\n" for m in MODULES)
            + "print(repr(time.perf_counter() - t))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class SetupSampler:
    """SETUP_RUNS import-time samples spread evenly over the timed loop, each
    between two timings of the reference work.  One discarded import first
    writes the bytecode cache, as an installed package has it."""

    def __init__(self, seconds: float):
        import_time()
        self.samples: list[tuple[float, float]] = []  # (seconds, reference seconds)
        self.step = seconds / (SETUP_RUNS - 1)
        self.take()

    def take(self) -> None:
        before = reference_time()
        sample = import_time()
        self.samples.append((sample, (before + reference_time()) / 2))

    def __call__(self, busy: float) -> None:
        if len(self.samples) < SETUP_RUNS and busy >= self.step * len(self.samples):
            self.take()


# -- the closed loop ---------------------------------------------------------------


class Record:
    """One served request.  The output summary is kept as compressed JSON, so
    the benchmark's own memory stays small next to tiltkit's peak RSS."""

    __slots__ = ("kind", "params", "expect", "output", "latency", "error", "reference")

    def __init__(self, kind, params, expect, summary, latency, error, reference=REFERENCE_S):
        self.kind, self.params, self.expect = kind, params, expect
        self.output = zlib.compress(json.dumps(summary, sort_keys=True).encode())
        self.latency, self.error = latency, error
        # reference_work's time around the request, for scaled()
        self.reference = reference

    @property
    def summary(self):
        return json.loads(zlib.decompress(self.output))


def serve(req, tracer=None) -> Record:
    """Run one request; an exception it raises makes it a failed request.
    With a tracer, the request is one ``bench.request`` span."""
    if tracer is not None:
        sid = tracer.open(tracer.name_id("bench.request"))
    error = raw = None
    t0 = time.perf_counter()
    try:
        raw = req.call()
    except Exception:  # an escaped exception is a failed request, not a crash
        error = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.close(sid)
    summary = None
    if error is None:
        try:
            summary = req.summarize(raw)
        except Exception:  # an output of the wrong shape fails the request
            error = traceback.format_exc(limit=3)
    return Record(req.kind, req.params, req.expect, summary, t1 - t0, error)


def run_loop(cycles, seconds: float | None = None, on_request=None) -> list[Record]:
    """Serve requests one after another until the first cycle boundary after
    ``seconds`` of scaled request time, or to the end of ``cycles``.  The
    reference work is timed between requests, as client time, and so is
    ``on_request(busy_seconds)``.  Counting scaled time keeps the number of
    cycles, and so the weight of a one-off request, the same on a slow
    machine."""
    records: list[Record] = []
    busy = 0.0
    before = reference_time()
    for req in _requests(cycles, lambda: seconds is not None and busy >= seconds):
        rec = serve(req)
        after = reference_time()
        rec.reference = (before + after) / 2
        records.append(rec)
        busy += scaled(rec.latency, rec.reference)
        before = after
        if on_request is not None:
            on_request(busy)
    return records


def reference_work() -> Fraction:
    """A fixed piece of pure-Python exact arithmetic, like tiltkit's own work."""
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, 400):
        acc += x * Fraction(i, i + 7) - Fraction(1, i)
    return acc


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scaled(seconds: float, reference: float) -> float:
    """A timing scaled to the machine speed at which reference_work takes
    REFERENCE_S, given the reference's time measured around it.

    Shared virtual machines run the same code at speeds that differ by up
    to 2x, in spells of seconds to minutes: on a 2-vCPU Xeon VM one search
    request took 206-430 ms over a minute, while its time over the
    reference's time moved by a tenth of that.  A change to tiltkit does not
    change the reference's time, so it shows in full in the scaled figure.
    """
    return seconds * REFERENCE_S / reference


def run_paired(cycles, seconds: float, tracer, inst) -> tuple[list[Record], list[Record]]:
    """Like :func:`run_loop`, but every request runs twice back to back:
    plain, and traced with ``inst`` installed, the order alternating from one
    request to the next.  The two runs of a request see the same state of
    the machine, so the summed traced over plain time is the tracing cost.
    Returns (plain records, traced records)."""
    plain: list[Record] = []
    traced: list[Record] = []
    busy = 0.0
    for req in _requests(cycles, lambda: busy >= seconds):
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if with_trace:
                tracer.request_id = len(traced)
                inst.install()
                try:
                    traced.append(serve(req, tracer))
                finally:
                    inst.remove()
            else:
                plain.append(serve(req))
                busy += plain[-1].latency
    return plain, traced


def _requests(cycles, done):
    for cycle in cycles:
        if done():
            return
        yield from cycle


def digests(records: list[Record]) -> tuple[str, str]:
    """Chained SHA-256 over every output, after the first DIGEST_PREFIX
    requests and after all of them."""
    h = hashlib.sha256()
    prefix = None
    for k, rec in enumerate(records):
        if k == DIGEST_PREFIX:
            prefix = h.hexdigest()
        h.update(zlib.decompress(rec.output))
        h.update(b"\n")
    full = h.hexdigest()
    return (prefix or full), full


def tail(latencies: list[float], workload: str) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the workload's fixed
    percentile, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    p = TAIL_PERCENTILE[workload]
    rank = max(1, -(-int(p * n) // 100))  # ceil(p n / 100)
    return p, ordered[rank - 1], n - rank


def check_outputs(records: list[Record]) -> list[dict]:
    import oracle  # sympy loads here, after peak RSS was read

    failures = []
    for k, rec in enumerate(records):
        if rec.error is not None:
            problems = [f"raised: {rec.error.strip().splitlines()[-1]}"]
        else:
            try:
                problems = oracle.check(rec.kind, rec.params, rec.expect, rec.summary, GOLDEN)
            except Exception:  # a malformed output can break the oracle's parsing
                problems = ["oracle could not check the output: "
                            + traceback.format_exc(limit=2).strip().splitlines()[-1]]
        if problems:
            failures.append({"request": k, "kind": rec.kind, "params": rec.params,
                             "input": rec.expect, "problems": problems})
    return failures


def probe_known_defect(workdir: Path) -> list[str]:
    """The oracle's problems with ``analyze`` on workloads.KNOWN_DEFECT_CARTAN,
    served after the timed loop and not counted in ``failed``; [] once the
    defect is gone."""
    import workloads

    failures = check_outputs([serve(workloads.known_defect_request(workdir))])
    return failures[0]["problems"] if failures else []


# -- metrics ------------------------------------------------------------------------


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 \
        else values[0]


def latency_metrics(workload, records, lat: list[float]) -> dict:
    pct, tail_s, beyond = tail(lat, workload)
    completed = sum(r.error is None for r in records)
    return {"requests_per_s": completed / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "tail_percentile": pct, "tail_beyond": beyond}


def end_to_end(workload, setup, records, peak_rss_mb) -> dict:
    """The end-to-end metrics, timings scaled to the reference speed, and
    the same figures unscaled."""
    lat = latency_metrics(workload, records, [scaled(r.latency, r.reference) for r in records])
    if lat["tail_beyond"] < 10:
        print(f"warning: only {lat['tail_beyond']} of {len(records)} samples lie beyond "
              f"p{lat['tail_percentile']:g}; run longer for a steady tail", file=sys.stderr)
    raw = latency_metrics(workload, records, [r.latency for r in records])
    raw["setup_s"] = lower_quartile([s for s, _ in setup])
    return {
        "setup_s": (lower_quartile([scaled(s, ref) for s, ref in setup]), "s"),
        "requests_per_s": (lat["requests_per_s"], "1/s"),
        "latency_p50_ms": (lat["latency_p50_ms"], "ms"),
        "latency_tail_ms": (lat["latency_tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {"tail_percentile": lat["tail_percentile"], "tail_beyond": lat["tail_beyond"],
        "raw": raw}


def _ratio(a, b) -> float:
    """a / b, or 0 where the workload never does b."""
    return a / b if b else 0.0


def per_layer(tracer, absent, records, untraced_s, traced_s) -> dict:
    from tracer import ENTRY_POINTS

    selfs = tracer.self_times()
    metrics = {}
    layer_self = 0.0
    for layer, entries in ENTRY_POINTS.items():
        for entry, _ in entries:
            key = f"{layer}.{entry}"
            calls, self_s = selfs.get(key, (0, 0.0))
            layer_self += self_s
            metrics[f"{key}.calls"] = (calls, "count")
            metrics[f"{key}.self_s"] = (self_s, "s")
        metrics[f"{layer}.errors"] = (tracer.errors.get(layer, 0), "count")
    calls = {k: v[0] for k, v in selfs.items()}
    analyzes = calls.get("analysis.analyze", 0)
    c = tracer.counters
    g_matrices = [json.dumps(e["g_matrix"]) for r in records
                  if r.kind == "graph" and r.error is None for e in r.summary["edges"]]
    metrics.update({
        "matrix.inverse.per_analyze": (_ratio(calls.get("matrix.inverse", 0), analyzes), "ratio"),
        "linalg.definiteness.per_analyze": (
            _ratio(calls.get("linalg.definiteness", 0), analyzes), "ratio"),
        "brauer.enumerate_ribbon_structures.yield_ratio": (
            _ratio(c["brauer.enumerate_ribbon_structures.classes"],
                   c["brauer.enumerate_ribbon_structures.permutations"]), "ratio"),
        "census.g_matrix_distinct_share": (_ratio(len(set(g_matrices)), len(g_matrices)), "ratio"),
        "explore.generate.nodes": (c["explore.generate.nodes"], "count"),
        "explore.generate.products": (c["explore.generate.products"], "count"),
        "explore.generate.dedup_ratio": (
            _ratio(c["explore.generate.new_nodes"], c["explore.generate.products"]), "ratio"),
        "lattice.solutions.vectors": (c["lattice.solutions.vectors"], "count"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "trace.wall_s": (traced_s, "s"),
        # benchmark glue plus tiltkit code outside the traced entry points
        "trace.residual_s": (traced_s - layer_self, "s"),
        "trace.absent_entry_points": (len(absent), "count"),
    })
    return metrics


# -- running a workload --------------------------------------------------------------


def run_workload(args) -> int:
    sampler = None if args.trace else SetupSampler(args.seconds)
    sys.path.insert(0, str(SRC))
    import tiltkit
    if Path(tiltkit.__file__).resolve().parent != (SRC / "tiltkit").resolve():
        print(f"error: imported tiltkit from {tiltkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        def requests():
            return workloads.cycles(args.workload, args.seed, workdir, GOLDEN)

        traced = None
        if args.trace:
            from tracer import Instrumentation, Tracer

            tracer = Tracer()
            inst = Instrumentation(tracer)
            records, traced = run_paired(requests(), args.seconds, tracer, inst)
        else:
            records = run_loop(requests(), seconds=args.seconds, on_request=sampler)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        prefix_digest, full_digest = digests(records)
        oracle_start = time.perf_counter()
        failures = check_outputs(records)
        oracle_s = time.perf_counter() - oracle_start
        known_defect = probe_known_defect(workdir) if args.workload == "spectral" else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "attempted": attempted, "failed": len(failures),
              "failed_frac": len(failures) / attempted,
              "digest_first": prefix_digest, "digest_all": full_digest,
              "oracle_s": oracle_s, "failures": failures, "known_defect": known_defect,
              "latencies_s": [(rec.kind, rec.latency, rec.reference) for rec in records]}
    correct = not failures
    if traced is not None:
        traced_digest = digests(traced)[1]
        report["digest_traced"] = traced_digest
        if traced_digest != full_digest:
            correct = False
            print("error: the traced replay produced different outputs", file=sys.stderr)
        metrics = per_layer(tracer, inst.absent, traced, sum(r.latency for r in records),
                            sum(r.latency for r in traced))
        report["absent_entry_points"] = inst.absent
        tracer.write(OUT / f"spans-{args.workload}")
    else:
        metrics, extra = end_to_end(args.workload, sampler.samples, records, peak_rss_mb)
        report.update(extra)
        report["setup_samples_s"] = sampler.samples
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")

    print_report(args, report, metrics, correct)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": report["metrics"]}))
    return 0


def print_report(args, report, metrics, correct) -> None:
    print(f"workload {args.workload}, seed {args.seed}: {report['attempted']} requests, "
          f"closed loop, 1 client, {args.seconds} s of "
          f"{'request' if args.trace else 'scaled request'} time")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{report['tail_percentile']:g}, {report['tail_beyond']} of "
                    f"{report['attempted']} samples beyond)")
        elif name == "setup_s":
            note = f"  (lower quartile of {len(report['setup_samples_s'])} fresh interpreters)"
        if name in report.get("raw", {}):
            note += f"  [unscaled: {report['raw'][name]:.6g}]"
        print(f"  {name:<52} {value:>14.6g} {unit}{note}")
    print(f"  {'failed_frac':<52} {report['failed_frac']:>14.6g} ratio"
          f"  ({report['failed']} of {report['attempted']})")
    for f in report["failures"][:10]:
        print(f"  FAILED request {f['request']} ({f['kind']}): {f['problems'][0][:300]}")
    if report["known_defect"] is not None:
        print("  known defect, probed outside the timed loop and not counted: "
              + ("; ".join(report["known_defect"]) or "gone, analyze now passes the oracle"))
    if report.get("absent_entry_points"):
        print(f"  absent entry points: {', '.join(report['absent_entry_points'])}")
    print(f"  digest of outputs: first {min(DIGEST_PREFIX, report['attempted'])} "
          f"{report['digest_first'][:16]}, all {report['digest_all'][:16]}")
    print(f"  oracle: {'PASS' if correct else 'FAIL'}")


def run_all(args) -> int:
    """Every workload in its own process, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tiltkit" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"error: {ROOT} is not a tiltkit checkout (need src/tiltkit and tests/golden)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
