import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from permdec import cli
from permdec.atlas import DEFAULT_DATA_DIR
from permdec.cli import build_parser, run

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

KLEIN = {"degree": 4, "generators": [[1, 0, 3, 2], [2, 3, 0, 1]], "name": "V4"}
S4 = {"degree": 4, "generators": [[1, 2, 3, 0], [1, 0, 2, 3]], "name": "S4"}
S3 = {"degree": 4, "generators": [[1, 2, 0, 3], [1, 0, 2, 3]], "name": "S3"}
C4 = {"degree": 4, "generators": [[1, 2, 3, 0]], "name": "C4"}
A3 = {"degree": 4, "generators": [[1, 2, 0, 3]], "name": "A3"}
V4 = {"degree": 4, "generators": KLEIN["generators"]}  # no name: a system prints "name": null
C2A = {"degree": 4, "generators": [[1, 0, 3, 2]]}
C2B = {"degree": 4, "generators": [[2, 3, 0, 1]]}
GRID = [[[0, 1], [2, 3]], [[0, 2], [1, 3]]]
BAD = [[[0, 1], [2, 3]], [[0, 1, 2], [3]]]  # points 0 and 1 share their blocks
REPEATED = [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 1, 2, 3]], [[0, 1, 2, 3]]]
SYSTEM = {
    "group": KLEIN,
    "base_point": 0,
    "subgroups": [[[1, 0, 3, 2]], [[2, 3, 0, 1]]],
}
BAD_SYSTEM = {
    "group": KLEIN,
    "base_point": 0,
    "subgroups": [[[1, 0, 3, 2]], [[1, 0, 3, 2]]],
}


@pytest.fixture
def files(tmp_path):
    def write(name, data):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    return {
        "klein": write("klein", KLEIN),
        "s4": write("s4", S4),
        "s3": write("s3", S3),
        "c4": write("c4", C4),
        "a3": write("a3", A3),
        "v4": write("v4", V4),
        "c2a": write("c2a", C2A),
        "c2b": write("c2b", C2B),
        "grid": write("grid", GRID),
        "bad": write("bad", BAD),
        "repeated": write("repeated", REPEATED),
        "system": write("system", SYSTEM),
        "bad_system": write("bad_system", BAD_SYSTEM),
    }


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_decomp_ok(capsys, files):
    code, data = invoke(capsys, ["verify-decomp", "--decomp", files["grid"]])
    assert code == 0 and data["valid"] and data["index"] == 2


def test_verify_decomp_with_group(capsys, files):
    code, data = invoke(
        capsys, ["verify-decomp", "--decomp", files["grid"], "--group", files["klein"]]
    )
    assert code == 0 and data["invariance"]["invariant"]
    code, data = invoke(
        capsys, ["verify-decomp", "--decomp", files["grid"], "--group", files["s4"]]
    )
    assert code == 1 and not data["invariance"]["invariant"]


def test_verify_decomp_invalid(capsys, files):
    code, data = invoke(capsys, ["verify-decomp", "--decomp", files["bad"]])
    assert code == 1 and not data["valid"]


def test_verify_decomp_refuses_a_repeated_partition(capsys, files):
    code, data = invoke(capsys, ["verify-decomp", "--decomp", files["repeated"]])
    assert code == 1 and data == {
        "error": "InvalidDecomposition", "message": "repeated partition Partition([[0, 1, 2, 3]])"}


def test_verify_system(capsys, files):
    code, data = invoke(capsys, ["verify-system", "--system", files["system"]])
    assert code == 0 and data["valid"]
    code, data = invoke(capsys, ["verify-system", "--system", files["bad_system"]])
    assert code == 1 and not data["valid"]


def test_verify_system_one_and_no_subgroups(capsys, tmp_path):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({**SYSTEM, "subgroups": [[[0, 1, 2, 3]]]}))
    code, data = invoke(capsys, ["verify-system", "--system", str(one)])
    assert code == 0 and data["valid"] and data["eq2"] == [True]
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({**SYSTEM, "subgroups": []}))
    code, data = invoke(capsys, ["verify-system", "--system", str(empty)])
    assert code == 1 and data["error"] == "InvalidSystem"


def test_to_system_and_back(capsys, files, tmp_path):
    out = str(tmp_path / "sys_out.json")
    code, data = invoke(
        capsys,
        ["to-system", "--group", files["klein"], "--decomp", files["grid"], "--out", out],
    )
    assert code == 0 and len(data["subgroups"]) == 2
    code, back = invoke(capsys, ["to-decomp", "--system", out])
    assert code == 0
    assert back["decomposition"] == GRID and back["index"] == 2


def test_to_system_not_invariant(capsys, files):
    code, data = invoke(
        capsys, ["to-system", "--group", files["s4"], "--decomp", files["grid"]]
    )
    assert code == 1
    assert data["error"] == "NotInvariant"


def test_enumerate_with_oracle(capsys, files):
    code, data = invoke(
        capsys,
        ["enumerate", "--group", files["klein"], "--plinth", files["klein"], "--oracle"],
    )
    assert code == 0
    assert data["count"] == 3 and data["oracle_match"]


def test_enumerate_s4_empty(capsys, files):
    code, data = invoke(capsys, ["enumerate", "--group", files["s4"]])
    assert code == 0 and data["count"] == 0


def test_wreath(capsys):
    code, data = invoke(capsys, ["wreath", "wr:3^2"])
    assert code == 0
    assert data["degree"] == 9 and data["order"] == 72
    assert len(data["natural_decomposition"]) == 2


def test_wreath_bad_spec(capsys):
    code, data = invoke(capsys, ["wreath", "3x2"])
    assert code == 1 and "error" in data


def test_factcheck_pair(capsys, files):
    code, data = invoke(
        capsys, ["factcheck", "--group", files["s4"], files["s3"], files["c4"]]
    )
    # S4 = S3 C4 holds but the primes differ, so the full check fails
    assert code == 1 and not data["holds"]


def test_factcheck_triple(capsys, files):
    code, data = invoke(
        capsys,
        ["factcheck", "--group", files["klein"],
         files["klein"], files["klein"], files["klein"]],
    )
    assert code == 1 and data["trivial"]


def test_factcheck_not_subgroup(capsys, files):
    code, data = invoke(
        capsys, ["factcheck", "--group", files["a3"], files["s3"], files["c4"]]
    )
    assert code == 1 and data["error"] == "NotSubgroup"


def test_atlas_list(capsys):
    code, data = invoke(capsys, ["atlas", "list"])
    assert code == 0
    names = {row["name"] for row in data["cases"]}
    assert "A6_36" in names and "POMEGA8_3" in names


def test_atlas_verify(capsys):
    code, data = invoke(capsys, ["atlas", "verify", "KLEIN_GRID"])
    assert code == 0 and data["ok"]


def test_atlas_verify_budget(capsys):
    code, data = invoke(capsys, ["atlas", "verify", "A6_36", "--budget", "10"])
    assert code == 1 and data["error"] == "BudgetExceeded"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-decomp", "--decomp", "grid"],
        ["verify-system", "--system", "system"],
        ["to-system", "--group", "klein", "--decomp", "grid"],
        ["to-decomp", "--system", "system"],
        ["factcheck", "--group", "s4", "s3", "c4"],
    ],
)
def test_budget_is_usage_error_where_unread(capsys, files, argv):
    argv = [files.get(a, a) for a in argv]
    assert run(argv) in (0, 1)  # runs without the budget
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--budget", "1"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_budget_parsed_where_read():
    parser = build_parser()
    for argv in (["enumerate", "--group", "g"], ["wreath", "wr:2^2"], ["atlas", "list"], ["corpus"]):
        assert parser.parse_args(argv + ["--budget", "5"]).budget == 5


@pytest.mark.parametrize("argv", [["enumerate", "--group", "s4"], ["wreath", "wr:2^2"],
                                  ["atlas", "verify", "A6_36"], ["corpus"]],
                         ids=["enumerate", "wreath", "atlas", "corpus"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_json_error(capsys, files, argv, budget):
    code, data = invoke(capsys, [files.get(a, a) for a in argv] + ["--budget", budget])
    assert code == 1
    assert data["error"] == "InvalidInput" and "--budget" in data["message"]


def test_atlas_unknown(capsys):
    # a name is a stem that list_cases lists: a path out of cases/ once read
    # KLEIN_GRID as "../cases/KLEIN_GRID", and the corpus file as a case
    for name in ("NOPE", "../cases/KLEIN_GRID", "../corpus"):
        code, data = invoke(capsys, ["atlas", "verify", name])
        assert code == 1 and data["error"] == "UnknownCase"
        assert "KLEIN_GRID" in data["message"]


def test_atlas_verify_requires_name():
    with pytest.raises(SystemExit) as exc:
        run(["atlas", "verify"])
    assert exc.value.code == 2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-verb"])
    assert exc.value.code == 2


def test_output_deterministic(capsys, files):
    run(["verify-decomp", "--decomp", files["grid"]])
    first = capsys.readouterr().out
    run(["verify-decomp", "--decomp", files["grid"]])
    second = capsys.readouterr().out
    assert first == second


def test_pretty_and_out_agree(capsys, files, tmp_path):
    out = str(tmp_path / "report.json")
    run(["verify-decomp", "--decomp", files["grid"], "--pretty", "--out", out])
    printed = capsys.readouterr().out
    with open(out) as fh:
        assert json.loads(fh.read()) == json.loads(printed)


def test_parser_builds():
    parser = build_parser()
    assert parser.prog == "permdec"


# --- bad input reaches the caller as a JSON error, never a traceback ----------


@pytest.mark.parametrize("argv,text", [
    (["enumerate", "--group", "absent.json"], None),
    (["enumerate", "--group", "."], None),
    (["enumerate", "--group", "input.json"], '{"degree": 4,'),
    (["enumerate", "--group", "input.json"], '{"generators": [[1, 0]]}'),
    (["enumerate", "--group", "input.json"], '{"degree": 4}'),
    (["enumerate", "--group", "input.json"], '{"degree": 4, "generators": [5]}'),
    (["enumerate", "--group", "input.json"], '{"degree": "x", "generators": []}'),
    (["enumerate", "--group", "input.json"], '{"degree": -2, "generators": []}'),
    (["enumerate", "--group", "input.json"], '{"degree": null, "generators": []}'),
    (["verify-system", "--system", "input.json"],
     '{"group": {"degree": 2, "generators": []}, "base_point": 0, "subgroups": [5]}'),
    (["verify-system", "--system", "input.json"],
     '{"group": {"degree": 2, "generators": []}, "base_point": "a", "subgroups": [[]]}'),
    (["verify-system", "--system", "input.json"],
     '{"group": {"degree": 2, "generators": []}, "base_point": 0, "subgroups": 5}'),
    (["wreath", "wr:x^2"], None),
    (["wreath", "wr:1^2"], None),
    (["wreath", f"wr:{'9' * 5000}^2"], None),
    (["verify-decomp", "--decomp", "input.json"], "[[[0, 1], [1, 2]]]"),
    (["verify-decomp", "--decomp", "input.json"], '[[[0, "a"], [1, 2]]]'),
    (["verify-decomp", "--decomp", "input.json"], "[[[0, 1], 5]]"),
    (["verify-decomp", "--decomp", "input.json"], "5"),
    (["verify-decomp", "--decomp", "input.json"], "[[[1.0, 3], [0, 2]]]"),
    (["to-system", "--group", "klein.json", "--decomp", "input.json"], "[[[1.0, 3], [0, 2]]]"),
    (["verify-decomp", "--decomp", "input.json"], "[[[true, 1], [0]]]"),
    (["verify-decomp", "--decomp", "input.json"],
     "[[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 1, 2, 3], []]]"),
    (["factcheck", "--group", "s4.json", "s3.json"], None),
], ids=[
    "missing file", "unreadable file", "malformed json", "group without degree",
    "group without generators", "generator not a list", "degree not a number",
    "negative degree", "degree null", "subgroup not a list", "base point not a number",
    "subgroups not a list",
    "wreath base not a number", "wreath base below 2", "wreath base past the digit limit",
    "not a partition", "point not a number", "block not a list",
    "decomposition not a list", "point a float", "point a float, to-system",
    "point a boolean", "empty block", "one subgroup",
])
def test_bad_input_is_a_json_error(capsys, files, tmp_path, monkeypatch, argv, text):
    monkeypatch.chdir(tmp_path)  # where `files` wrote s4.json and s3.json
    if text is not None:
        (tmp_path / "input.json").write_text(text)
    code, data = invoke(capsys, argv)
    assert code == 1
    assert data["error"] == "InvalidInput" and data["message"]


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_unwritable_out_is_a_json_error(capsys, monkeypatch, tmp_path, where):
    # refused before the verb runs: no report lines first, no wait for the computation
    def verb_ran(args):
        raise AssertionError("the verb ran")

    out = tmp_path / "absent" / "x.json" if where == "missing directory" else tmp_path
    for argv, verb in [(["wreath", "wr:30^2"], "cmd_wreath"),
                       (["corpus", "--pretty"], "cmd_corpus")]:
        monkeypatch.setattr(cli, verb, verb_ran)
        code = run(argv + ["--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1
        data = json.loads(lines[0])
        assert data["error"] == "InvalidInput" and str(out) in data["message"]
    assert not (tmp_path / "absent").exists()


def test_wreath_with_a_long_top_is_refused_before_its_degree():
    # 7^30000000 would take minutes to compute and has too many digits to print
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "permdec.cli", "wreath", "wr:7^30000000"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 1, done.stderr
    data = json.loads(done.stdout)
    assert data["error"] == "BudgetExceeded" and "wr:7^30000000" in data["message"]


@pytest.mark.parametrize("argv", [["atlas", "verify", "A6_36"], ["corpus"]], ids=["A6_36", "corpus"])
def test_output_does_not_depend_on_the_hash_seed(argv):
    # a Permutation hashes as an int, not as bytes, whose hash is salted per process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    outputs = {subprocess.run([sys.executable, "-m", "permdec.cli", *argv],
                              env={**env, "PYTHONHASHSEED": seed}, capture_output=True,
                              timeout=120, check=True).stdout
               for seed in ("0", "1")}
    assert len(outputs) == 1


@pytest.mark.parametrize("argv", [["corpus"], ["atlas", "list"], ["atlas", "verify", "KLEIN_GRID"]],
                         ids=["corpus", "atlas list", "atlas verify"])
def test_data_dir_without_cases_is_a_json_error(capsys, tmp_path, argv):
    code, data = invoke(capsys, argv + ["--data-dir", str(tmp_path / "absent")])
    assert code == 1
    assert data["error"] == "InvalidInput" and str(tmp_path / "absent") in data["message"]


def test_case_missing_from_a_data_dir_is_unknown(capsys, tmp_path):
    (tmp_path / "cases").mkdir()
    code, data = invoke(capsys, ["atlas", "verify", "KLEIN_GRID", "--data-dir", str(tmp_path)])
    assert code == 1 and data["error"] == "UnknownCase"


def test_boolean_images_are_not_a_permutation(capsys, tmp_path):
    # JSON true and false equal 1 and 0 in Python, but are not points
    group = tmp_path / "input.json"
    group.write_text('{"degree": 2, "generators": [[true, false]]}')
    code, data = invoke(capsys, ["enumerate", "--group", str(group)])
    assert code == 1
    assert data["error"] == "NonBijection" and data["message"]


@pytest.mark.parametrize("argv", [["atlas", "verify", "KLEIN_GRID"], ["atlas", "list"], ["corpus"]],
                         ids=["atlas verify", "atlas list", "corpus"])
@pytest.mark.parametrize("drop", [None, "desk_scale", "citation"],
                         ids=["malformed json", "no desk_scale", "no citation"])
def test_bad_case_file_is_a_json_error(capsys, tmp_path, argv, drop):
    (tmp_path / "cases").mkdir()
    case = tmp_path / "cases" / "KLEIN_GRID.json"
    record = json.loads((DEFAULT_DATA_DIR / "cases" / case.name).read_text())
    case.write_text(json.dumps(record)[:-1] if drop is None else
                    json.dumps({k: v for k, v in record.items() if k != drop}))
    code, data = invoke(capsys, argv + ["--data-dir", str(tmp_path)])
    assert code == 1
    assert data["error"] == "InvalidInput" and data["message"]


def _relabel(record, old, new):
    for labels in (record["subgroups"], record["expected"]["subgroup_orders"]):
        labels[new] = labels.pop(old)


@pytest.mark.parametrize("case,edit", [
    ("KLEIN_GRID", lambda r: r.pop("group")),
    ("KLEIN_GRID", lambda r: r.pop("subgroups")),
    ("KLEIN_GRID", lambda r: r.pop("expected")),
    ("KLEIN_GRID", lambda r: r.update(expected=5)),
    ("KLEIN_GRID", lambda r: r["expected"].pop("T_order")),
    ("KLEIN_GRID", lambda r: r["expected"]["subgroup_orders"].pop("K2")),
    ("KLEIN_GRID", lambda r: r.update(subgroups=list(r["subgroups"].values()))),
    ("A6_36", lambda r: _relabel(r, "A", "C")),
    ("A6_36", lambda r: _relabel(r, "B", "C")),
], ids=["no group", "no subgroups", "no expected", "expected not an object", "no T_order",
        "no subgroup order", "subgroups not an object", "coset case without A",
        "coset case without B"])
def test_case_file_without_a_field_is_a_json_error(capsys, tmp_path, case, edit):
    (tmp_path / "cases").mkdir()
    record = json.loads((DEFAULT_DATA_DIR / "cases" / f"{case}.json").read_text())
    edit(record)
    (tmp_path / "cases" / f"{case}.json").write_text(json.dumps(record))
    code, data = invoke(capsys, ["atlas", "verify", case, "--data-dir", str(tmp_path)])
    assert code == 1
    assert data["error"] == "InvalidInput" and data["message"]


@pytest.mark.parametrize("edit", [
    lambda r: r["subgroups"].update(C=r["subgroups"].pop("A")),
    lambda r: _relabel(r, "A", "C"),
], ids=["subgroup relabelled", "subgroup and its order relabelled"])
def test_case_file_error_names_the_case_and_its_file(capsys, tmp_path, edit):
    (tmp_path / "cases").mkdir()
    record = json.loads((DEFAULT_DATA_DIR / "cases" / "A6_36.json").read_text())
    edit(record)
    path = tmp_path / "cases" / "A6_36.json"
    path.write_text(json.dumps(record))
    code, data = invoke(capsys, ["atlas", "verify", "A6_36", "--data-dir", str(tmp_path)])
    assert code == 1 and data["error"] == "InvalidInput"
    assert data["message"].startswith(f"case A6_36 ({path}): expected an object with A, B, got ")


@pytest.mark.parametrize("drop", [("outer_automorphism",), (), ("full_factorisation",)],
                         ids=["no outer automorphism", "outer automorphism",
                              "outer automorphism only"])
def test_coset_case_that_is_not_a_factorisation_fails_its_row(capsys, tmp_path, drop):
    # with B = A, T = AB fails; the rows that presume it are left out, so the
    # report keeps its other rows instead of ending in a NotFactorisation error
    (tmp_path / "cases").mkdir()
    record = json.loads((DEFAULT_DATA_DIR / "cases" / "A6_36.json").read_text())
    record["subgroups"]["B"] = record["subgroups"]["A"]
    for key in drop:
        record.pop(key, None)
        record["expected"].pop(key, None)
    (tmp_path / "cases" / "A6_36.json").write_text(json.dumps(record))
    code, data = invoke(capsys, ["atlas", "verify", "A6_36", "--data-dir", str(tmp_path)])
    assert code == 1 and "error" not in data
    assert {"intersection_order", "cd_count", "full_factorisation"} <= set(data["failures"])
    checks = {c["check"] for c in data["checks"]}
    assert {"T_order", "round_trip"} <= checks
    assert not checks & {"conjugation_transitivity", "self_normalising_intersection",
                         "outer_automorphism_swaps_classes", "pair_equivalent_under_theta"}


@pytest.mark.parametrize("argv", [["atlas", "verify", "A6_36"], ["corpus"]],
                         ids=["atlas verify", "corpus"])
def test_coset_case_without_a_decomposition_fails_its_rows(capsys, tmp_path, argv):
    # with B = A the coset space is A6 on 6 points, which has no Cartesian decomposition;
    # A6 = AA fails, so the factorisation rows, which raise on it, are switched off
    (tmp_path / "cases").mkdir()
    record = json.loads((DEFAULT_DATA_DIR / "cases" / "A6_36.json").read_text())
    record["subgroups"]["B"] = record["subgroups"]["A"]
    del record["outer_automorphism"], record["expected"]["full_factorisation"]
    record["expected"].update(intersection_order=60, omega_size=6)
    (tmp_path / "cases" / "A6_36.json").write_text(json.dumps(record))
    code, data = invoke(capsys, argv + ["--data-dir", str(tmp_path)])
    assert code == 1
    [report] = [r for r in data.get("results", [data]) if r["case"] == "A6_36"]
    assert not report["ok"] and "cd_count" in report["failures"]
    assert "index" not in {c["check"] for c in report["checks"]}


# the expected values each construction's verification compares against
READ_EXPECTED = {
    "KLEIN_GRID": {"T_order", "subgroup_orders", "intersection_order", "cd_count", "index",
                   "K_orders", "W_order"},
    "A6_36": {"T_order", "subgroup_orders", "intersection_order", "omega_size", "cd_count",
              "index", "K_orders", "W_order"},
    "SP62_63": {"T_order", "subgroup_orders", "pairwise_intersections", "triple_intersection",
                "strong_multiple_factorisation", "indices", "omega_size"},
}
EXPECTED_DROPS = [
    (case, key)
    for case in READ_EXPECTED
    for key in sorted(json.loads((DEFAULT_DATA_DIR / "cases" / f"{case}.json").read_text())["expected"])
]


@pytest.mark.parametrize("case,key", EXPECTED_DROPS, ids=[f"{c} no {k}" for c, k in EXPECTED_DROPS])
def test_case_file_without_an_expected_value_is_a_json_error(capsys, tmp_path, case, key):
    # a value the verification reads is checked on load; any other may be left out
    (tmp_path / "cases").mkdir()
    record = json.loads((DEFAULT_DATA_DIR / "cases" / f"{case}.json").read_text())
    del record["expected"][key]
    (tmp_path / "cases" / f"{case}.json").write_text(json.dumps(record))
    code, data = invoke(capsys, ["atlas", "verify", case, "--data-dir", str(tmp_path)])
    if key in READ_EXPECTED[case]:
        assert code == 1
        assert data["error"] == "InvalidInput" and key in data["message"]
    else:
        assert code == 0 and data["ok"]


EXPECTED_RETYPES = [
    ("SP62_63", "indices", 5),
    ("SP62_63", "indices", [120, "28", 36]),
    ("SP62_63", "strong_multiple_factorisation", 1),
    ("SP62_63", "pairwise_intersections", [432, 336, 1440]),
    ("A6_36", "K_orders", 7),
    ("A6_36", "omega_size", 36.0),
    ("KLEIN_GRID", "cd_count", "3"),
    ("KLEIN_GRID", "index", True),
]


@pytest.mark.parametrize("case,key,value", EXPECTED_RETYPES,
                         ids=[f"{c} {k} {v!r}" for c, k, v in EXPECTED_RETYPES])
def test_case_file_with_a_wrong_typed_expected_value_is_a_json_error(capsys, tmp_path, case, key,
                                                                    value):
    (tmp_path / "cases").mkdir()
    record = json.loads((DEFAULT_DATA_DIR / "cases" / f"{case}.json").read_text())
    record["expected"][key] = value
    (tmp_path / "cases" / f"{case}.json").write_text(json.dumps(record))
    code, data = invoke(capsys, ["atlas", "verify", case, "--data-dir", str(tmp_path)])
    assert code == 1
    assert data["error"] == "InvalidInput" and key in data["message"]


def test_corpus_pretty_writes_out(capsys, tmp_path):
    # one small desk case keeps the run short; the oracle suite always runs
    (tmp_path / "cases").mkdir()
    shutil.copy(DEFAULT_DATA_DIR / "cases" / "KLEIN_GRID.json", tmp_path / "cases")
    out = tmp_path / "report.json"
    code = run(["corpus", "--data-dir", str(tmp_path), "--pretty", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0 and printed.startswith("KLEIN_GRID")
    report = json.loads(out.read_text())
    assert report["ok"] and report["results"][0]["case"] == "KLEIN_GRID"
    assert [r["case"] for r in report["results"]][1:] == [
        line.split()[0] for line in printed.splitlines()[1:]
    ]


# --- golden output ------------------------------------------------------------


@pytest.mark.parametrize("case", ["A6_36", "KLEIN_GRID", "M12_144", "SP62_63"])
def test_atlas_verify_matches_golden_output(capsys, case):
    # recorded from `permdec atlas verify <case>` before the self-checks moved
    assert run(["atlas", "verify", case]) == 0
    golden = (GOLDEN / f"atlas_verify_{case}.json").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def test_corpus_matches_golden_output(capsys):
    # recorded from `permdec corpus` before the round trip became one pass
    assert run(["corpus"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "corpus.json").read_bytes()


@pytest.mark.parametrize("spec", ["3^2", "2^3", "4^2"])
def test_wreath_matches_golden_output(capsys, spec):
    # recorded from `permdec wreath wr:<spec>` while the wreath product had
    # its own generator construction
    assert run(["wreath", f"wr:{spec}"]) == 0
    golden = (GOLDEN / f"wreath_{spec.replace('^', '_')}.json").read_bytes()
    assert capsys.readouterr().out.encode() == golden


# recorded from the CLI while each report class wrote its own JSON
REPORTS = {
    "verify_decomp": ["verify-decomp", "--decomp", "grid"],
    "verify_decomp_invalid": ["verify-decomp", "--decomp", "bad"],
    "verify_decomp_not_invariant": ["verify-decomp", "--decomp", "grid", "--group", "s4"],
    "verify_system": ["verify-system", "--system", "system"],
    "verify_system_failing": ["verify-system", "--system", "bad_system"],
    "to_system": ["to-system", "--group", "klein", "--decomp", "grid"],
    "to_system_unnamed": ["to-system", "--group", "v4", "--decomp", "grid"],
    "to_decomp": ["to-decomp", "--system", "system"],
    "factcheck_pair": ["factcheck", "--group", "klein", "c2a", "c2b"],
    "factcheck_failing_pair": ["factcheck", "--group", "s4", "s3", "c4"],
    "factcheck_triple": ["factcheck", "--group", "klein", "klein", "klein", "klein"],
    "enumerate_oracle": ["enumerate", "--group", "klein", "--plinth", "klein", "--oracle"],
}


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("case", sorted(REPORTS))
def test_report_matches_golden_output(capsys, files, case, pretty):
    argv = [files.get(a, a) for a in REPORTS[case]] + ["--pretty"] * pretty
    run(argv)
    golden = GOLDEN / "reports" / f"{case}{'.pretty' * pretty}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
