import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tiltkit import cli
from tiltkit.cli import DEFAULT_DEPTH, build_parser, run
from tiltkit.families import FAMILY_NAMES, family

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
REACH_GENS = str(GOLDEN / "reach_gens_input.json")
COLUMN_SUMS_ONE_GENS = str(GOLDEN / "reach_gens_column_sums_one_input.json")

# the goldens of test_result_golden, by test id: (argv, golden file)
RESULT_GOLDENS = {
    "delta": (["explore", "delta", "--m", "3", "--l", "2", "--t", "5"], "delta_m3_l2.json"),
    "reach-found": (["explore", "reach-shift", "--gens", REACH_GENS, "--depth", "3"],
                    "reach_shift_found.json"),
    "reach-certified": (["explore", "reach-shift", "--gens", COLUMN_SUMS_ONE_GENS,
                         "--depth", "3"], "reach_shift_certified.json"),
    "reach-not-found": (["explore", "reach-shift", "--gens", REACH_GENS, "--depth", "1"],
                        "reach_shift_not_found.json"),
    "family-list": (["family", "--list"], "family_list.json"),
    "family-full": (["family", "--name", "bgs", "--n", "4", "--r", "2", "--m", "1", "--full"],
                    "family_bgs_full.json"),
    # one per branch of the alternating search: reached at lengths 3, 4 and
    # 6, and certified by infinite order (m = 4 is the single golden below)
    **{f"alternating-m{m}": (["explore", "alternating", "--m", str(m)],
                             f"alternating_m{m}.json") for m in (1, 2, 3, 5)},
}
# every golden run of this module: the single golden tests read their argv here
GOLDEN_RUNS = {
    "analyze": (["analyze", "--cartan", str(GOLDEN / "four_vertex_cartan_input.json")],
                "analyze_four_vertex.json"),
    "brauer-decide": (["brauer", "decide", "--graph", str(GOLDEN / "digon_input.json")],
                      "brauer_decide_digon.json"),
    "brauer-certify": (["brauer", "certify", "--graph", str(GOLDEN / "digon_input.json")],
                       "brauer_certify_digon.json"),
    "brauer-dot": (["brauer", "dot", "--graph", str(GOLDEN / "digon_input.json")], "digon.dot"),
    "family-kronecker-te": (["family", "--name", "kronecker_te", "--l", "2"],
                            "family_kronecker_te_l2.json"),
    "alternating": (["explore", "alternating", "--m", "4"], "alternating_m4.json"),
    "lattice": (["lattice", "--family", "c3c3_c2", "--z", "5"], "lattice_c3c3_z5.json"),
    **RESULT_GOLDENS,
}


def _run(capsys, argv, expect_code=0):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expect_code, out
    return out


def _golden_run(capsys, name):
    argv, golden = GOLDEN_RUNS[name]
    out = _run(capsys, argv)
    assert out == (GOLDEN / golden).read_text()
    return out


def test_analyze_golden(capsys):
    _golden_run(capsys, "analyze")


def test_brauer_decide_golden(capsys):
    out = _golden_run(capsys, "brauer-decide")
    assert json.loads(out)["tilting_discrete"] is False


def test_brauer_certify_golden(capsys):
    _golden_run(capsys, "brauer-certify")


def test_family_golden_and_pipe(capsys, monkeypatch, tmp_path):
    out = _golden_run(capsys, "family-kronecker-te")
    # feed the family output into analyze via a file standing in for the pipe
    f = tmp_path / "c.json"
    f.write_text(out)
    report = json.loads(_run(capsys, ["analyze", "--cartan", str(f)]))
    assert report["symmetrized_definiteness"] == "positive_semidefinite_singular"
    assert report["regular"] is False


def test_alternating_golden(capsys):
    _golden_run(capsys, "alternating")


@pytest.mark.parametrize(
    "argv, golden", list(RESULT_GOLDENS.values()), ids=list(RESULT_GOLDENS)
)
def test_result_golden(capsys, argv, golden):
    assert _run(capsys, argv) == (GOLDEN / golden).read_text()


# the console entry point, in a fresh interpreter; exit 99 if -O is not in force
OPTIMIZED_MAIN = (
    "import sys\n"
    "if sys.flags.optimize != 1:\n"
    "    sys.exit(99)\n"
    "from tiltkit.cli import main\n"
    "main()\n"
)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_under_python_O(name):
    # python -O strips bare asserts: every cross-check that decides an output
    # must survive it, so the bytes and the exit code stay the golden ones
    argv, golden = GOLDEN_RUNS[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_MAIN, *argv], env=env,
        capture_output=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, (GOLDEN / golden).read_bytes()), proc.stderr


def test_alternating_has_no_bound_option(capsys):
    _run(capsys, ["explore", "alternating", "--m", "4", "--bound", "5"], expect_code=2)


GENS_FILE = "<gens>"

# (valid argv, an option of another action)
FOREIGN_OPTIONS = {
    "brauer-decide": (["brauer", "decide", "--graph", str(GOLDEN / "digon_input.json")],
                      ["--edge", "1"]),
    "brauer-mutate": (["brauer", "mutate", "--graph", str(GOLDEN / "digon_input.json"),
                       "--edge", "1"], ["--depth", "3"]),
    "brauer-kauer": (["brauer", "kauer", "--graph", str(GOLDEN / "digon_input.json"),
                      "--edge", "2"], ["--m", "4"]),
    "brauer-certify": (["brauer", "certify", "--graph", str(GOLDEN / "digon_input.json")],
                       ["--edge", "1"]),
    "brauer-dot": (["brauer", "dot", "--graph", str(GOLDEN / "digon_input.json")],
                   ["--gens", GENS_FILE]),
    "explore-reach-shift": (["explore", "reach-shift", "--gens", GENS_FILE, "--depth", "2"],
                            ["--m", "4"]),
    "explore-alternating": (["explore", "alternating", "--m", "4"],
                            ["--depth", "3", "--t", "7", "--gens", "nothing.json"]),
    "explore-delta": (["explore", "delta", "--m", "3", "--l", "2", "--t", "5"],
                      ["--depth", "9"]),
    "explore-frontier": (["explore", "frontier", "--gens", GENS_FILE, "--depth", "2"],
                         ["--graph", str(GOLDEN / "digon_input.json")]),
}


@pytest.mark.parametrize("action", sorted(FOREIGN_OPTIONS))
def test_option_of_another_action_exits_2(capsys, tmp_path, action):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({
        "T": {"entries": [["-1", "0"], ["1", "1"]]},
        "U": {"entries": [["1", "1"], ["0", "-1"]]},
    }))
    argv, foreign = (
        [str(gens) if x == GENS_FILE else x for x in args] for args in FOREIGN_OPTIONS[action]
    )
    _run(capsys, argv)
    out = _run(capsys, argv + foreign, expect_code=2)
    assert json.loads(out)["error"]["kind"] == "malformed_input"


def test_lattice_golden(capsys):
    _golden_run(capsys, "lattice")


def test_brauer_dot_golden(capsys):
    _golden_run(capsys, "brauer-dot")


def test_analyze_identity_trivial(capsys, tmp_path):
    f = tmp_path / "id2.json"
    f.write_text('{"entries": [["1", "0"], ["0", "1"]]}')
    report = json.loads(_run(capsys, ["analyze", "--cartan", str(f)]))
    assert report["symmetrized_definiteness"] == "positive_definite"
    assert report["coxeter"] == [["-1", "0"], ["0", "-1"]]


@pytest.mark.parametrize(
    "cartan, coxeter, code, kind",
    [
        ([[1, 1], [1, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]], 2, "malformed_input"),
        ([[1, 1], [1, 1]], [[1, 0, 0]], 2, "malformed_input"),
        ([[2, 1], [1, 1]], [[0, -1], [-1, 0]], 1, "domain"),
    ],
    ids=["square-of-another-size", "not-square", "regular-cartan"],
)
def test_coxeter_option_needs_a_singular_cartan_of_its_shape(
        capsys, tmp_path, cartan, coxeter, code, kind):
    argv = ["analyze"]
    for option, rows in (("--cartan", cartan), ("--coxeter", coxeter)):
        f = tmp_path / f"{option[2:]}.json"
        f.write_text(json.dumps({"entries": rows}))
        argv += [option, str(f)]
    out = _run(capsys, argv, expect_code=code)
    assert json.loads(out)["error"]["kind"] == kind


def test_json_outputs_reparse(capsys):
    # round-trip: every emitted JSON re-parses to an equal value
    for argv in (
        ["family", "--list"],
        ["family", "--name", "bgs", "--n", "4", "--r", "2", "--m", "1", "--full"],
        ["explore", "delta", "--m", "3", "--l", "2", "--t", "5"],
        ["selfinjective", "--cycles", "[[1,2,3]]"],
    ):
        out = _run(capsys, argv)
        data = json.loads(out)
        assert json.loads(json.dumps(data, sort_keys=True)) == data


def test_te_subcommand(capsys, tmp_path):
    f = tmp_path / "c.json"
    f.write_text('{"entries": [["1", "0"], ["1", "1"]]}')
    out = json.loads(_run(capsys, ["te", "--cartan", str(f)]))
    assert out["entries"] == [["2", "1"], ["1", "2"]]


def test_kauer_roundtrip_through_json(capsys, tmp_path):
    out = _run(
        capsys,
        ["brauer", "kauer", "--graph", str(GOLDEN / "digon_input.json"), "--edge", "1"],
    )
    f = tmp_path / "moved.json"
    f.write_text(out)
    verdict = json.loads(_run(capsys, ["brauer", "decide", "--graph", str(f)]))
    assert verdict["tilting_discrete"] is False


def test_exit_code_malformed(capsys, tmp_path):
    out = _run(capsys, ["analyze", "--cartan", "/nonexistent.json"], expect_code=2)
    assert json.loads(out)["error"]["kind"] == "malformed_input"
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    out = _run(capsys, ["analyze", "--cartan", str(f)], expect_code=2)
    assert json.loads(out)["error"]["kind"] == "malformed_input"


DIGON_MULT_X = {
    "vertices": [
        {"id": "u", "mult": "x", "order": ["h1a", "h2a"]},
        {"id": "w", "mult": 1, "order": ["h1b", "h2b"]},
    ],
    "edges": [
        {"id": "1", "halves": ["h1a", "h1b"]},
        {"id": "2", "halves": ["h2a", "h2b"]},
    ],
}


def _digon_with_mult(mult):
    vertices = [dict(v) for v in DIGON_MULT_X["vertices"]]
    vertices[0]["mult"] = mult
    return {**DIGON_MULT_X, "vertices": vertices}


LOOP_AS_STRINGS = {
    "vertices": [{"id": "u", "order": "ab"}],
    "edges": [{"id": "1", "halves": "ab"}],
}


def _loop_as(vertex, edge):
    return {
        "vertices": [{**LOOP_AS_STRINGS["vertices"][0], **vertex}],
        "edges": [{**LOOP_AS_STRINGS["edges"][0], **edge}],
    }


@pytest.mark.parametrize(
    "command, payload",
    [
        (["selfinjective", "--cycles", "[[1,2"], None),
        (["brauer", "decide", "--graph"], {"vertices": 5, "edges": []}),
        (["brauer", "decide", "--graph"], DIGON_MULT_X),
        (["analyze", "--cartan"], {"entries": [["1", "0"], ["1"]]}),
        (["te", "--cartan"], {"entries": [[True, False], [False, True]]}),
        (["brauer", "dot", "--graph"], _digon_with_mult(2.7)),
        (["brauer", "decide", "--graph"], _digon_with_mult(True)),
        (["selfinjective", "--cycles", "[[1.5]]"], None),
        (["selfinjective", "--cycles", "[[true]]"], None),
        (["selfinjective", "--cycles", '[["2"]]'], None),
        (["selfinjective", "--cycles", "[[]]"], None),
        (["selfinjective", "--cycles", "[[],[1]]"], None),
        (["brauer", "decide", "--graph"], LOOP_AS_STRINGS),
        (["brauer", "decide", "--graph"], _loop_as({"order": ["a", "b"]}, {"halves": "ab"})),
        (["brauer", "decide", "--graph"], _loop_as({"order": "ab"}, {"halves": ["a", "b"]})),
        (["brauer", "decide", "--graph"],
         {"vertices": [{"id": None, "order": [None, {"a": 1}]}],
          "edges": [{"id": [1], "halves": [None, {"a": 1}]}]}),
        (["brauer", "decide", "--graph"],
         _loop_as({"id": 1, "order": ["a", "b"]}, {"halves": ["a", "b"]})),
        (["brauer", "decide", "--graph"],
         _loop_as({"order": ["a", "b"]}, {"id": 1, "halves": ["a", "b"]})),
        (["brauer", "decide", "--graph"], _loop_as({"order": [1, 2]}, {"halves": [1, 2]})),
    ],
    ids=[
        "cycles-not-json",
        "vertices-not-a-list",
        "mult-not-an-integer",
        "ragged-entries",
        "boolean-entries",
        "mult-not-integral",
        "mult-boolean",
        "cycles-point-not-integral",
        "cycles-point-boolean",
        "cycles-point-string",
        "cycles-empty",
        "cycles-empty-beside-fixed-point",
        "order-and-halves-strings",
        "halves-string",
        "order-string",
        "ids-and-halves-null-list-object",
        "vertex-id-integer",
        "edge-id-integer",
        "halves-integers",
    ],
)
def test_exit_code_malformed_fields(capsys, tmp_path, command, payload):
    argv = list(command)
    if payload is not None:
        f = tmp_path / "input.json"
        f.write_text(json.dumps(payload))
        argv.append(str(f))
    out = _run(capsys, argv, expect_code=2)
    assert json.loads(out)["error"]["kind"] == "malformed_input"


@pytest.mark.parametrize(
    "argv, parameter",
    [
        (["family", "--name", "kronecker", "--m", "-1", "--r", "5"], "m"),
        (["family", "--name", "kronecker_te", "--n", "3"], "n"),
        (["family", "--name", "c3c3_c2", "--l", "2", "--full"], "l"),
        (["analyze", "--family", "am", "--m", "2", "--r", "1"], "r"),
        (["te", "--family", "bgs", "--n", "3", "--l", "1"], "l"),
        (["lattice", "--family", "s3_c3", "--m", "1", "--z", "5"], "m"),
    ],
    ids=["family", "family-te", "family-full", "analyze", "te", "lattice"],
)
def test_unknown_family_parameter_is_malformed_input(capsys, argv, parameter):
    out = _run(capsys, argv, expect_code=2)
    error = json.loads(out)["error"]
    assert error["kind"] == "malformed_input"
    assert f"no parameter '{parameter}'" in error["message"]


@pytest.mark.parametrize("action", ["mutate", "kauer"])
def test_unknown_edge_is_malformed_input(capsys, action):
    graph = str(GOLDEN / "digon_input.json")
    argv = ["brauer", action, "--graph", graph, "--edge", "9"]
    out = _run(capsys, argv, expect_code=2)
    assert json.loads(out)["error"] == {
        "kind": "malformed_input",
        "message": "unknown edge '9'",
    }


def test_exit_code_domain(capsys):
    # leaf-edge mutation is a domain error
    line = {
        "vertices": [
            {"id": "u", "order": ["a1"]},
            {"id": "v", "order": ["a2", "b1"]},
            {"id": "w", "order": ["b2"]},
        ],
        "edges": [
            {"id": "1", "halves": ["a1", "a2"]},
            {"id": "2", "halves": ["b1", "b2"]},
        ],
    }
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(line, fh)
        path = fh.name
    out = _run(capsys, ["brauer", "mutate", "--graph", path, "--edge", "1"], expect_code=1)
    assert json.loads(out)["error"]["kind"] == "domain"
    os.unlink(path)
    out = _run(capsys, ["family", "--name", "nope"], expect_code=1)
    assert json.loads(out)["error"]["kind"] == "domain"


def test_depth_option_and_default(capsys, tmp_path):
    f = tmp_path / "gens.json"
    f.write_text(json.dumps({"T": {"entries": [["1", "1"], ["0", "1"]]}}))
    argv = ["explore", "reach-shift", "--gens", str(f)]
    out = json.loads(_run(capsys, argv))
    assert out["status"] == "not_found_within_depth"
    assert out["depth_searched"] == DEFAULT_DEPTH
    out = json.loads(_run(capsys, argv + ["--depth", "3"]))
    assert out["depth_searched"] == 3
    out = json.loads(_run(capsys, argv + ["--depth", "oops"], expect_code=2))
    assert out["error"] == {
        "kind": "malformed_input",
        "message": "argument --depth: invalid int value: 'oops'",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--no-such-flag"],
        ["nonsense"],
        [],
        ["brauer", "mutate", "--graph", str(GOLDEN / "digon_input.json")],
        ["family", "--name", "bgs", "--full", "--dot"],
        ["family", "--list", "--full"],
        ["family", "--list", "--dot"],
        ["family", "--list", "--name", "nope"],
        ["family", "--name", "kronecker", "--l", "x"],
    ],
    ids=["unknown-option", "unknown-command", "no-command", "missing-option",
         "full-and-dot", "list-and-full", "list-and-dot", "list-and-name", "bad-int"],
)
def test_usage_error_prints_the_json_error(capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed_input"
    assert err == ""


def test_help_exits_0(capsys):
    assert run(["family", "--help"]) == 0
    assert "--list" in capsys.readouterr().out


def _subparser(name: str) -> argparse.ArgumentParser:
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices[name]


def test_family_flags_are_the_registry_parameters():
    taken = {key for name in FAMILY_NAMES for key in family(name).params}
    for command in ("analyze", "te", "family", "lattice"):
        flags = {a.dest for a in _subparser(command)._actions if a.type is int}
        assert flags == taken, command


@pytest.mark.parametrize("action", ["reach-shift", "frontier"])
def test_explore_refuses_non_integral_generators(capsys, tmp_path, action):
    f = tmp_path / "gens.json"
    f.write_text(json.dumps({
        "T": {"entries": [["-1", "0"], ["1", "1"]]},
        "U": {"entries": [["1/2", "1"], ["0", "-1"]]},
    }))
    out = _run(capsys, ["explore", action, "--gens", str(f)], expect_code=1)
    error = json.loads(out)["error"]
    assert error["kind"] == "domain"
    assert "'U' is not an integer matrix" in error["message"]


def test_determinism(capsys):
    a = _run(capsys, ["family", "--list"])
    b = _run(capsys, ["family", "--list"])
    assert a == b


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cached_parser_runs_like_a_fresh_one(capsys, monkeypatch):
    gens = str(GOLDEN / "reach_gens_input.json")
    cartan = str(GOLDEN / "four_vertex_cartan_input.json")
    # parse errors between good runs, and runs with and without --depth
    calls = [
        ["analyze", "--cartan", cartan],
        ["analyze", "--no-such-flag"],
        ["explore", "reach-shift", "--gens", gens, "--depth", "x"],
        ["explore", "reach-shift", "--gens", gens, "--depth", "1"],
        ["nonsense"],
        ["explore", "reach-shift", "--gens", gens],
        ["family", "--list", "--name", "bgs"],
        ["analyze", "--cartan", cartan],
    ]

    def run_all():
        results = []
        for argv in calls:
            code = run(argv)
            results.append((code, *capsys.readouterr()))
        return results

    cached = run_all()
    assert [r[0] for r in cached] == [0, 2, 2, 0, 2, 0, 2, 0]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert run_all() == cached


@pytest.mark.parametrize("action", ["reach-shift", "frontier"])
@pytest.mark.parametrize("gens", [REACH_GENS, COLUMN_SUMS_ONE_GENS],
                         ids=["found-gens", "column-sums-one-gens"])
def test_negative_depth_is_malformed_input(capsys, action, gens):
    # the column-sum certificate does not answer before the depth is checked
    out = _run(capsys, ["explore", action, "--gens", gens, "--depth", "-1"], expect_code=2)
    assert json.loads(out)["error"] == {
        "kind": "malformed_input",
        "message": "argument --depth: must be >= 0, got -1",
    }


# (argv with the count flag last, its bound): the bound is accepted and one
# below it is malformed input
COUNT_FLAGS = {
    "reach-shift-depth": (["explore", "reach-shift", "--gens", REACH_GENS, "--depth"], 0),
    "frontier-depth": (["explore", "frontier", "--gens", REACH_GENS, "--depth"], 0),
    "lattice-radius": (["lattice", "--family", "c3c3_c2", "--z", "5", "--radius"], 0),
    "alternating-m": (["explore", "alternating", "--m"], 1),
    "delta-m": (["explore", "delta", "--l", "2", "--m"], 1),
    "delta-l": (["explore", "delta", "--m", "3", "--l"], 1),
    "delta-t": (["explore", "delta", "--m", "3", "--l", "2", "--t"], 1),
}


@pytest.mark.parametrize("case", sorted(COUNT_FLAGS))
def test_count_below_its_bound_is_malformed_input(capsys, case):
    argv, bound = COUNT_FLAGS[case]
    _run(capsys, argv + [str(bound)])
    out = _run(capsys, argv + [str(bound - 1)], expect_code=2)
    assert json.loads(out)["error"] == {
        "kind": "malformed_input",
        "message": f"argument {argv[-1]}: must be >= {bound}, got {bound - 1}",
    }


# a parameter below its registry bound is malformed input; r > n is a domain
# error, since the bound on r depends on n
@pytest.mark.parametrize(
    "params, code, error",
    [
        (["--n", "-3"], 2, ("malformed_input", "parameter n must be >= 1, got -3")),
        (["--m", "-1"], 2, ("malformed_input", "parameter m must be >= 0, got -1")),
        (["--r", "0"], 2, ("malformed_input", "parameter r must be >= 1, got 0")),
        (["--n", "2", "--r", "3"], 1, ("domain", "need 1 <= r <= n")),
    ],
    ids=["n", "m", "r", "r-above-n"],
)
def test_bgs_parameter_bounds(capsys, params, code, error):
    out = _run(capsys, ["analyze", "--family", "bgs", *params], expect_code=code)
    assert json.loads(out)["error"] == dict(zip(("kind", "message"), error))


@pytest.mark.parametrize(
    "argv, message",
    [
        # kronecker is not symmetric: no search of the CLI answers, so no hint
        (["lattice", "--family", "kronecker", "--z", "1"], "LDL^T requires a symmetric matrix"),
        (["lattice", "--family", "kronecker", "--z", "1", "--radius", "2"],
         "bounded_box requires a symmetric matrix"),
        (["lattice", "--family", "kronecker_te", "--l", "2", "--z", "1"],
         "exact enumeration requires a positive definite form; "
         "use --radius for a bounded brute-force search"),
    ],
    ids=["not-symmetric", "not-symmetric-radius", "not-positive-definite"],
)
def test_lattice_hints_radius_only_where_it_answers(capsys, argv, message):
    out = _run(capsys, argv, expect_code=1)
    assert json.loads(out)["error"] == {"kind": "domain", "message": message}


def test_radius_answers_where_exact_enumeration_cannot(capsys):
    argv = ["lattice", "--family", "kronecker_te", "--l", "2", "--z", "1", "--radius", "1"]
    assert json.loads(_run(capsys, argv))["complete"] is False


def test_depth_zero_is_accepted(capsys):
    out = json.loads(_run(capsys, ["explore", "reach-shift", "--gens", REACH_GENS,
                                   "--depth", "0"]))
    assert out["status"] == "not_found_within_depth" and out["depth_searched"] == 0


@pytest.mark.parametrize("flag", ["--l", "--m", "--n", "--r"])
def test_family_list_refuses_a_parameter_flag(capsys, flag):
    out = _run(capsys, ["family", "--list", flag, "7"], expect_code=2)
    assert json.loads(out)["error"] == {
        "kind": "malformed_input",
        "message": f"argument --list: not allowed with argument {flag}",
    }
