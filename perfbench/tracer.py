"""Spans recorded around tiltkit's public entry points, from outside the package.

Nothing under ``src/`` is edited: :class:`Instrumentation` replaces each entry
point listed in :data:`ENTRY_POINTS` by a wrapper, both on its defining module
or class and under every name another tiltkit module bound at import time
(``from .linalg import char_poly`` leaves a second reference in ``analysis``).
:meth:`Instrumentation.remove` puts the originals back.

Spans live in flat arrays in memory (name, start, end, parent span, request
id) and are written out once, when the run ends.  A span's self time is its
duration minus the part covered by its child spans; the tracer is single
threaded, so children never overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# layer (module) -> [(entry name, attribute path in that module)]
ENTRY_POINTS: dict[str, list[tuple[str, str]]] = {
    "matrix": [
        ("matmul", "RationalMatrix.__matmul__"),
        ("det", "RationalMatrix.det"),
        ("inverse", "RationalMatrix.inverse"),
        ("solve", "solve"),
    ],
    "poly": [
        ("divmod", "Polynomial.divmod"),
        ("is_cyclotomic_product", "is_cyclotomic_product"),
    ],
    "linalg": [
        ("char_poly", "char_poly"),
        ("min_poly", "min_poly"),
        ("definiteness", "definiteness"),
        ("matrix_order", "matrix_order"),
        ("coxeter_matrix", "coxeter_matrix"),
    ],
    "analysis": [
        ("analyze", "analyze"),
        ("classify_coxeter_poly", "classify_coxeter_poly"),
    ],
    "brauer": [
        ("enumerate_ribbon_structures", "enumerate_ribbon_structures"),
        ("canonical_key", "canonical_key"),
        ("mutation_g_matrix", "mutation_g_matrix"),
        ("kauer_move", "kauer_move"),
        ("decide", "decide"),
        ("disconnectedness_certificate", "disconnectedness_certificate"),
    ],
    "explore": [
        ("generate", "generate"),
        ("reach_shift", "reach_shift"),
        ("shift_targets", "shift_targets"),
        ("alternating_shift_search", "alternating_shift_search"),
        ("delta_sequence", "delta_sequence"),
    ],
    "lattice": [("solutions", "solutions"), ("bounded_box", "bounded_box")],
    "quiver": [("cartan_from_monomial", "cartan_from_monomial")],
    "families": [("family", "family"), ("list_families", "list_families")],
    "serialize": [
        ("matrix_from_json", "matrix_from_json"),
        ("matrix_to_json", "matrix_to_json"),
    ],
    "cli": [("run", "run")],
}

PACKAGE = "tiltkit"


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("I")
        self.request = array("q")
        self.current = -1
        self.request_id = -1
        self.errors: Counter = Counter()
        # per-entry work counters, e.g. frontier nodes built by generate
        self.counters: defaultdict = defaultdict(int)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self.current)
        self.name.append(nid)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.start.append(self.clock())
        self.current = sid
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self.current = self.parent[sid]

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        child = array("d", bytes(8 * len(self.start)))
        start, end, parent, name = self.start, self.end, self.parent, self.name
        # children close before their parent, so one reverse pass suffices
        for sid in range(len(start) - 1, -1, -1):
            dur = end[sid] - start[sid]
            nid = name[sid]
            calls[nid] += 1
            self_s[nid] += dur - child[sid]
            p = parent[sid]
            if p >= 0:
                child[p] += dur
        return {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Spans as binary columns plus a JSON header naming them."""
        path.mkdir(parents=True, exist_ok=True)
        for column in ("start", "end", "parent", "name", "request"):
            with open(path / f"{column}.{getattr(self, column).typecode}", "wb") as fh:
                getattr(self, column).tofile(fh)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": {c: getattr(self, c).typecode
                        for c in ("start", "end", "parent", "name", "request")},
            "errors": dict(self.errors),
        }
        (path / "header.json").write_text(json.dumps(header, indent=1) + "\n")


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _record_counters(tracer: Tracer, key: str, args, result) -> None:
    if key == "brauer.enumerate_ribbon_structures":
        # result is the number of classes yielded for n = args[0] edges
        tracer.counters[f"{key}.classes"] += result
        tracer.counters[f"{key}.permutations"] += math.factorial(2 * args[0])
    elif key == "explore.generate":
        nodes, products = len(result.nodes), len(result.edges)
        tracer.counters["explore.generate.nodes"] += nodes
        tracer.counters["explore.generate.products"] += products
        tracer.counters["explore.generate.new_nodes"] += nodes - 1
    elif key == "lattice.solutions":
        tracer.counters["lattice.solutions.vectors"] += len(result)


_COUNTED = {"explore.generate", "lattice.solutions"}


class Instrumentation:
    """Wraps every entry point of :data:`ENTRY_POINTS` with a span.

    The wrappers are made once; :meth:`install` and :meth:`remove` only set
    attributes, so a run can switch tracing on and off around each request.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._patches or []):
            setattr(owner, attr, original)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for the defining module or
        class of every entry point and for every tiltkit module that bound
        the same function under its own name."""
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in ENTRY_POINTS}
        modules = [m for name, m in sys.modules.items() if m is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        patches = []
        for layer, entries in ENTRY_POINTS.items():
            module = layers[layer]
            for entry, path in entries:
                key = f"{layer}.{entry}"
                try:
                    owner, attr = _resolve(module, path)
                    original = getattr(owner, attr)
                except AttributeError:
                    # e.g. an entry point a later refactor removed
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, layer, original)
                patches.append((owner, attr, original, wrapper))
                if owner is module:
                    patches += [(other, name, original, wrapper) for other in modules
                                if other is not module
                                for name, value in vars(other).items() if value is original]
        return patches

    def _wrap(self, key: str, layer: str, original):
        tracer = self.tracer
        nid = tracer.name_id(key)
        counted = key in _COUNTED

        if inspect.isgeneratorfunction(original):
            # one span from the first resume to exhaustion; the benchmark
            # drains these generators with list(), so no caller code runs
            # inside the span
            @functools.wraps(original)
            def gen_wrapper(*args, **kwargs):
                sid = tracer.open(nid)
                yielded = 0
                try:
                    for item in original(*args, **kwargs):
                        yielded += 1
                        yield item
                except BaseException:
                    tracer.errors[layer] += 1
                    raise
                finally:
                    tracer.close(sid)
                _record_counters(tracer, key, args, yielded)

            return gen_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer.close(sid)
            if counted:
                _record_counters(tracer, key, args, result)
            return result

        return wrapper
