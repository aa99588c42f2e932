"""Command-line interface.

Deterministic JSON (sorted keys) or DOT on standard output.  Exit codes:
0 success, 1 domain error (singular Cartan matrix where invertibility is
required, a ``--coxeter`` matrix beside a regular one, leaf-edge mutation,
unknown family, infinite-dimensional algebra), 2 malformed input (also a
usage error, a parameter the family does not take or below its registry
bound, a ``--coxeter`` matrix of another shape than C, and a count out of
range: ``--depth`` or ``--radius`` below 0, ``explore``'s ``--m``, ``--l``
or ``--t`` below 1).
Exits 1 and 2 print one JSON object ``{"error": {"kind", "message"}}`` on
standard output.  ``-`` is standard input for any file argument; family
parameter flags are the registry's.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .analysis import NakayamaPermutation, analyze, selfinjective_coxeter_poly
from .brauer import decide, disconnectedness_certificate, kauer_move, mutation_g_matrix
from .explore import (
    alternating_shift_search,
    delta_sequence,
    generate,
    reach_shift,
)
from .families import (
    FAMILY_PARAMETERS,
    ParameterBoundError,
    UnknownParameterError,
    family,
    list_families,
)
from .lattice import bounded_box, solutions
from .linalg import trivial_extension_cartan
from .matrix import RationalMatrix
from .serialize import (
    MalformedInputError,
    _integer,
    family_to_json,
    frontier_to_dot,
    matrix_from_json,
    matrix_to_json,
    poly_to_json,
    presentation_to_json,
    quiver_to_dot,
    ribbon_from_json,
    ribbon_to_dot,
    ribbon_to_json,
    to_json,
)

DEFAULT_DEPTH = 12


class DomainError(ValueError):
    pass


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path!r}: {exc}") from None


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON in {path!r}: {exc}") from None


def _family_params(args) -> dict:
    values = {key: getattr(args, key, None) for key in FAMILY_PARAMETERS}
    return {key: value for key, value in values.items() if value is not None}


def _cartan_from_args(args) -> tuple[RationalMatrix, RationalMatrix | None]:
    """Cartan matrix from --cartan JSON or the --family shortcut; the second
    component is a registry-supplied Coxeter matrix when one exists."""
    if getattr(args, "family", None):
        entry = family(args.family, **_family_params(args))
        return entry.cartan, entry.coxeter_override
    if getattr(args, "cartan", None):
        return matrix_from_json(_load_json(args.cartan)), None
    raise MalformedInputError("need --cartan FILE or --family NAME")


# -- subcommands ----------------------------------------------------------------


def _cmd_analyze(args) -> int:
    cartan, registry_coxeter = _cartan_from_args(args)
    override = registry_coxeter
    if args.coxeter:
        override = matrix_from_json(_load_json(args.coxeter))
        if (override.nrows, override.ncols) != (cartan.nrows, cartan.ncols):
            raise MalformedInputError(f"--coxeter is {override.nrows}x{override.ncols}, "
                                      f"the Cartan matrix {cartan.nrows}x{cartan.ncols}")
    report = analyze(cartan, coxeter_override=override)
    out = to_json(report)
    out["cartan"] = matrix_to_json(cartan)
    out["criteria"] = {
        "symmetrized_definiteness": "sign class of the symmetrized Cartan form",
        "cyclotomic_type": "all Coxeter eigenvalues on the unit circle",
        "has_eigenvalue_one": "(x - 1) divides the Coxeter polynomial",
    }
    _emit(out)
    return 0


def _cmd_family(args) -> int:
    given = [key for key in ("name", *FAMILY_PARAMETERS) if getattr(args, key) is not None]
    if args.list and given:
        raise MalformedInputError(f"argument --list: not allowed with argument --{given[0]}")
    if args.list:
        _emit([family_to_json(e) for e in list_families()])
        return 0
    if not args.name:
        raise MalformedInputError("need --name NAME or --list")
    entry = family(args.name, **_family_params(args))
    if args.dot:
        if entry.presentation is None:
            raise DomainError(
                f"family {entry.name!r} has no quiver presentation to draw"
            )
        sys.stdout.write(quiver_to_dot(entry.presentation))
        return 0
    if args.full:
        out = family_to_json(entry)
        out["presentation"] = (
            presentation_to_json(entry.presentation)
            if entry.presentation is not None
            else None
        )
        _emit(out)
        return 0
    # bare matrix JSON so the output pipes straight into `analyze --cartan -`
    _emit(matrix_to_json(entry.cartan))
    return 0


def _cmd_te(args) -> int:
    cartan, _ = _cartan_from_args(args)
    _emit(matrix_to_json(trivial_extension_cartan(cartan)))
    return 0


def _cmd_selfinjective(args) -> int:
    try:
        data = json.loads(args.cycles)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"--cycles is not valid JSON: {exc}") from None
    if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
        raise MalformedInputError(
            "--cycles must be a JSON list of cycles, e.g. [[1,2],[3]]"
        )
    try:
        sigma = NakayamaPermutation(
            tuple(tuple(_integer(x, "a --cycles point") for x in cyc) for cyc in data)
        )
    except (ValueError, TypeError) as exc:
        raise MalformedInputError(str(exc)) from None
    poly, has_one = selfinjective_coxeter_poly(sigma)
    _emit(
        {
            "coxeter_poly": poly_to_json(poly),
            "has_eigenvalue_one": has_one,
            "permutation_odd": sigma.is_odd,
        }
    )
    return 0


def _cmd_brauer(args) -> int:
    graph = ribbon_from_json(_load_json(args.graph))
    if args.action == "dot":
        sys.stdout.write(ribbon_to_dot(graph))
        return 0
    if args.action == "decide":
        out = to_json(decide(graph))
        out["criteria"] = {
            "tilting_discrete": "no cycle, or a unique cycle of odd length",
            "k0_has_free_part": "edge/vertex count test on the stable "
            "Grothendieck group",
        }
    elif args.action == "certify":
        out = to_json(disconnectedness_certificate(graph))
    elif args.edge not in {e.id for e in graph.edges}:
        raise MalformedInputError(f"unknown edge {args.edge!r}")
    elif args.action == "mutate":
        out = matrix_to_json(mutation_g_matrix(graph, args.edge))
    else:
        out = ribbon_to_json(kauer_move(graph, args.edge))
    _emit(out)
    return 0


def _load_generators(path: str) -> dict[str, RationalMatrix]:
    data = _load_json(path)
    if not isinstance(data, dict) or not data:
        raise MalformedInputError(
            "generators JSON must be a non-empty object name -> matrix"
        )
    return {str(k): matrix_from_json(v) for k, v in data.items()}


def _cmd_explore(args) -> int:
    if args.action == "alternating":
        mu1 = RationalMatrix([[-1, 0], [args.m, 1]])
        mu2 = RationalMatrix([[1, 1], [0, -1]])
        out = to_json(alternating_shift_search(mu1, mu2))
        out["mu1"] = matrix_to_json(mu1)
        out["mu2"] = matrix_to_json(mu2)
        _emit(out)
        return 0
    if args.action == "delta":
        _emit(to_json(delta_sequence(args.m, args.l, args.t)))
        return 0
    gens = _load_generators(args.gens)
    if args.action == "reach-shift":
        _emit(to_json(reach_shift(gens, args.depth)))
    else:
        sys.stdout.write(frontier_to_dot(generate(gens, args.depth)))
    return 0


def _cmd_lattice(args) -> int:
    cartan, _ = _cartan_from_args(args)
    try:
        z = Fraction(args.z)
    except (ValueError, ZeroDivisionError):
        raise MalformedInputError(f"bad --z value {args.z!r}") from None
    if args.radius is not None:
        vectors = bounded_box(cartan, z, args.radius)
        complete = False
    else:
        try:
            vectors = solutions(cartan, z)
        except ValueError as exc:
            # bounded_box answers for a symmetric form only
            hint = "; use --radius for a bounded brute-force search"
            raise DomainError(f"{exc}{hint if cartan.is_symmetric else ''}") from None
        complete = True
    _emit(
        {
            "z": str(z),
            "complete": complete,
            "count": len(vectors),
            "vectors": [list(v) for v in vectors],
        }
    )
    return 0


# -- argument parsing -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise MalformedInputError, so
    they exit 2 with the JSON error object like any other malformed input."""

    def error(self, message):
        raise MalformedInputError(message)


def _at_least(minimum: int):
    """An argparse type for a count: an int >= minimum, else a usage error."""
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return count


def _add_parameter_flags(p: argparse.ArgumentParser) -> None:
    for key in FAMILY_PARAMETERS:
        p.add_argument(f"--{key}", type=int, default=None)


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="registry family name instead of --cartan")
    _add_parameter_flags(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes it."""
    parser = _Parser(
        prog="tiltkit",
        description="Exact Cartan/Coxeter analysis, Brauer graph mutation, "
        "g-matrix exploration, and quadratic-form lattice enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full Cartan/Coxeter report")
    p.add_argument("--cartan", help="matrix JSON file, or - for stdin")
    p.add_argument("--coxeter", help="Coxeter matrix JSON of C's shape, for a singular C only")
    _add_family_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("family", help="algebra family registry")
    p.add_argument("--name", help="family name")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="print the whole registry")
    mode.add_argument("--full", action="store_true", help="full entry, not just the Cartan")
    mode.add_argument("--dot", action="store_true", help="DOT of the quiver presentation")
    _add_parameter_flags(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("te", help="trivial extension Cartan matrix C + C^T")
    p.add_argument("--cartan", help="matrix JSON file, or - for stdin")
    _add_family_flags(p)
    p.set_defaults(func=_cmd_te)

    p = sub.add_parser(
        "selfinjective", help="Coxeter polynomial from a Nakayama permutation"
    )
    p.add_argument("--cycles", required=True, help='JSON cycles, e.g. "[[1,2],[3]]"')
    p.set_defaults(func=_cmd_selfinjective)

    # one parser per action, so an option of another action exits 2
    p = sub.add_parser("brauer", help="Brauer graph operations")
    p.set_defaults(func=_cmd_brauer)
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("decide", "mutate", "kauer", "certify", "dot"):
        a = actions.add_parser(action)
        a.add_argument("--graph", required=True, help="ribbon graph JSON, or -")
        if action in ("mutate", "kauer"):
            a.add_argument("--edge", required=True, help="edge id")

    p = sub.add_parser("explore", help="g-matrix group exploration")
    p.set_defaults(func=_cmd_explore)
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("reach-shift", "frontier"):
        a = actions.add_parser(action)
        a.add_argument("--gens", required=True, help="generators JSON: {name: matrix, ...}")
        a.add_argument("--depth", type=_at_least(0), default=DEFAULT_DEPTH)
    a = actions.add_parser("alternating")
    a.add_argument("--m", type=_at_least(1), required=True)
    a = actions.add_parser("delta")
    a.add_argument("--m", type=_at_least(1), required=True)
    a.add_argument("--l", type=_at_least(1), required=True)
    a.add_argument("--t", type=_at_least(1), default=20, help="number of delta terms")

    p = sub.add_parser("lattice", help="integer solutions of v^T C v = z")
    p.add_argument("--cartan", help="matrix JSON file, or - for stdin")
    p.add_argument("--z", required=True, help="target value (rational)")
    p.add_argument("--radius", type=_at_least(0), default=None, help="bounded box search")
    _add_family_flags(p)
    p.set_defaults(func=_cmd_lattice)

    return parser


def run(argv: list[str]) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        return args.func(args)
    except (MalformedInputError, ParameterBoundError, UnknownParameterError) as exc:
        _emit({"error": {"kind": "malformed_input", "message": str(exc)}})
        return 2
    # every domain error of the package (DomainError, SingularCartanError,
    # LeafEdgeError, UnknownFamilyError, ...) is a ValueError
    except (KeyError, ValueError) as exc:
        _emit({"error": {"kind": "domain", "message": str(exc)}})
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
