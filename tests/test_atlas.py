import importlib.util
import json
import pathlib
import re
import shutil
import sys
from collections import Counter

import pytest

from permdec import (BudgetExceeded, InvalidInput, OrderMismatch, UnknownCase, cartesian, group,
                     structure)
from permdec.atlas import DEFAULT_DATA_DIR, list_cases, load_case, verify_case
from permdec.cli import run

DESK = {"KLEIN_GRID", "A6_36", "M12_144", "SP62_63"}
METADATA_ONLY = {"POMEGA8_Q", "POMEGA8_3", "SP4Q_EVEN", "SP4A2_MULT"}


def test_list_cases():
    cases = list_cases()
    names = {name for name, _, _ in cases}
    assert DESK | METADATA_ONLY <= names
    for name, citation, desk in cases:
        assert isinstance(citation, str) and citation
        assert desk == (name in DESK) or name not in DESK | METADATA_ONLY


def test_unknown_case():
    with pytest.raises(UnknownCase) as exc:
        load_case("NO_SUCH_CASE")
    assert "A6_36" in str(exc.value)


def test_load_recomputes_orders(m12_case):
    assert m12_case.group.order() == 95040
    assert m12_case.subgroups["A"].order() == 7920
    assert m12_case.subgroups["B"].order() == 7920


def test_corrupted_data_raises(tmp_path):
    dest = tmp_path / "cases"
    dest.mkdir()
    src = DEFAULT_DATA_DIR / "cases" / "A6_36.json"
    data = json.loads(src.read_text())
    data["expected"]["T_order"] = 720
    (dest / "A6_36.json").write_text(json.dumps(data))
    with pytest.raises(OrderMismatch):
        load_case("A6_36", data_dir=tmp_path)


def test_corrupted_subgroup_order_raises(tmp_path):
    dest = tmp_path / "cases"
    dest.mkdir()
    src = DEFAULT_DATA_DIR / "cases" / "KLEIN_GRID.json"
    data = json.loads(src.read_text())
    label = next(iter(data["expected"]["subgroup_orders"]))
    data["expected"]["subgroup_orders"][label] += 1
    (dest / "KLEIN_GRID.json").write_text(json.dumps(data))
    with pytest.raises(OrderMismatch):
        load_case("KLEIN_GRID", data_dir=tmp_path)


@pytest.mark.parametrize("name", sorted(DESK))
def test_verify_desk_cases(name):
    report = verify_case(name)
    assert report["ok"], report.get("failures")
    assert all(c["ok"] for c in report["checks"])


def test_verify_desk_cases_list_no_elements(monkeypatch):
    # every row is decided from stabiliser chains and backtrack searches
    def refuse(chain):
        raise AssertionError("a desk-scale verify listed group elements")

    monkeypatch.setattr(group._Chain, "elements", refuse)
    for name in sorted(DESK):
        assert verify_case(name)["ok"]


def _counted_calls(monkeypatch, functions):
    """A Counter of the calls of each (name, owner) in functions, through every permdec
    module that binds it."""
    calls = Counter()
    for name, owner in functions:
        original = getattr(owner, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("permdec")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_a6_verify_walks_its_one_system_once(monkeypatch):
    # the round trip enumerates once and validates each system once; the
    # atlas reads the decompositions from it and validates its own K once.
    # The decomposition is validated by the enumeration, by to_decomposition
    # and by full_stabiliser, and not again when its system is built.
    # One search for N_T(A∩B) decides both the trivial_centraliser and the
    # self_normalising_intersection rows, and conjugation transitivity needs
    # none. M12_144, the other coset case, walks the same way
    calls = _counted_calls(monkeypatch, [(n, cartesian) for n in (
        "enumerate_cartesian_systems", "validate_system", "validate_decomposition")] + [
        (n, structure) for n in ("setwise_stabiliser", "normaliser_in", "centraliser_in_symmetric")])
    for name in ("A6_36", "M12_144"):
        calls.clear()
        assert verify_case(name)["ok"]
        assert calls == {"enumerate_cartesian_systems": 1, "validate_system": 2,
                         "validate_decomposition": 3, "setwise_stabiliser": 2, "normaliser_in": 1}
        assert calls["centraliser_in_symmetric"] == 0


@pytest.mark.parametrize("name", sorted(METADATA_ONLY))
def test_metadata_cases_skip(name):
    record = load_case(name)
    assert not record.desk_scale
    assert record.group is None
    assert record.expected  # carries the recorded values even when skipped
    report = verify_case(name)
    assert report["ok"] and report.get("skipped")


def test_pomega8_q_metadata():
    record = load_case("POMEGA8_Q")
    assert "exactly 3" in record.expected["cd_count_note"]
    assert record.expected["K"] == "Omega7(q)"


def test_sp4a2_metadata():
    record = load_case("SP4A2_MULT")
    exp = record.expected
    assert exp["index"] == 3
    assert len(exp["subgroups"]) == 3


def test_pomega8_3_metadata():
    record = load_case("POMEGA8_3")
    exp = record.expected
    assert exp["omega_size"] == 34390137600
    # the three symmetric-group degrees in W are the subgroup indices
    assert exp["W"] == "S1080 x S1120 x S28431"
    assert 1080 * 1120 * 28431 == exp["omega_size"]


def test_verify_budget():
    with pytest.raises(BudgetExceeded):
        verify_case("A6_36", budget=10)


def test_unknown_construction(tmp_path):
    dest = tmp_path / "cases"
    dest.mkdir()
    src = DEFAULT_DATA_DIR / "cases" / "KLEIN_GRID.json"
    data = json.loads(src.read_text())
    data["construction"] = "mystery"
    (dest / "KLEIN_GRID.json").write_text(json.dumps(data))
    with pytest.raises(UnknownCase):
        verify_case("KLEIN_GRID", data_dir=tmp_path)


def _case_copy(tmp_path, edit, name="A6_36"):
    """Write the case's record, A6_36's by default, with edit applied under
    tmp_path/cases; return the file's path."""
    (tmp_path / "cases").mkdir()
    record = json.loads((DEFAULT_DATA_DIR / "cases" / f"{name}.json").read_text())
    edit(record)
    path = tmp_path / "cases" / f"{name}.json"
    path.write_text(json.dumps(record))
    return path


# a flag the rows read must be a bool, and the outer automorphism the one named value,
# or the case does not load: a near miss must not switch rows on or off unseen
MISTYPED = {"expected.full_factorisation": "no", "expected.quasiprimitive": "no",
            "outer_automorphism": "coset_action_on_b"}


def _mistyped(tmp_path, path):
    *outer, key = path.split(".")
    return _case_copy(tmp_path, lambda r: (r[outer[0]] if outer else r).update({key: MISTYPED[path]}))


@pytest.mark.parametrize("key", sorted(MISTYPED))
def test_mistyped_case_field_is_invalid_input(tmp_path, key):
    path = _mistyped(tmp_path, key)
    with pytest.raises(InvalidInput) as info:
        load_case("A6_36", data_dir=tmp_path)
    message = str(info.value)
    assert message.startswith(f"case A6_36 ({path}): {key} must be ")
    assert message.endswith(f"got {MISTYPED[key]!r}")


@pytest.mark.parametrize("key", sorted(MISTYPED))
def test_mistyped_case_field_is_a_json_error(capsys, tmp_path, key):
    path = _mistyped(tmp_path, key)
    assert run(["atlas", "verify", "A6_36", "--data-dir", str(tmp_path)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["error"] == "InvalidInput"
    assert data["message"].startswith(f"case A6_36 ({path}): {key} must be ")


def test_case_without_the_optional_flags_verifies(tmp_path, monkeypatch):
    # absent flags switch their rows off, and with them the search for N_T(A∩B);
    # the theta rows still run, and pass
    def drop(record):
        del record["expected"]["quasiprimitive"], record["expected"]["full_factorisation"]

    _case_copy(tmp_path, drop)
    assert load_case("A6_36", data_dir=tmp_path).outer_automorphism is not None
    calls = _counted_calls(monkeypatch, [("normaliser_in", structure)])
    report = verify_case("A6_36", data_dir=tmp_path)
    assert calls["normaliser_in"] == 0
    assert report["ok"], report.get("failures")
    checks = [c["check"] for c in report["checks"]]
    assert "trivial_centraliser" not in checks and "conjugation_transitivity" not in checks
    assert {"full_factorisation", "pair_equivalent_under_theta"} <= set(checks)


def _as_strings(record, key):
    values = record["expected"][key]
    values.update({label: str(value) for label, value in values.items()})


# each record was once accepted: a desk_scale that is no bool made the case metadata only,
# and a string order ended as a failed row or as an OrderMismatch between equal numbers
LOADER_PROBES = {
    "desk_scale 0": ("KLEIN_GRID", "desk_scale", lambda r: r.update(desk_scale=0)),
    "desk_scale null": ("KLEIN_GRID", "desk_scale", lambda r: r.update(desk_scale=None)),
    "pairwise intersections as strings": (
        "SP62_63", "expected.pairwise_intersections",
        lambda r: _as_strings(r, "pairwise_intersections")),
    "subgroup order as a string": (
        "A6_36", "expected.subgroup_orders", lambda r: r["expected"]["subgroup_orders"].update(A="60")),
}


@pytest.mark.parametrize("probe", sorted(LOADER_PROBES))
def test_mistyped_record_field_names_the_field_and_the_file(capsys, tmp_path, probe):
    name, key, edit = LOADER_PROBES[probe]
    path = _case_copy(tmp_path, edit, name)
    prefix = f"case {name} ({path}): {key} must be "
    with pytest.raises(InvalidInput, match="^" + re.escape(prefix)):
        load_case(name, data_dir=tmp_path)
    data_dir = ["--data-dir", str(tmp_path)]
    assert run(["atlas", "verify", name] + data_dir) == 1
    assert json.loads(capsys.readouterr().out)["message"].startswith(prefix)
    assert run(["corpus"] + data_dir) == 1
    report = json.loads(capsys.readouterr().out)
    listed = run(["atlas", "list"] + data_dir)
    listing = json.loads(capsys.readouterr().out)
    if key == "desk_scale":  # which every listing reads
        assert report["error"] == listing["error"] == "InvalidInput" and listed == 1
        assert report["message"].startswith(prefix) and listing["message"].startswith(prefix)
    else:  # the corpus verifies the case; the listing does not read the field
        [row] = [r for r in report["results"] if r["case"] == name]
        assert row["error"] == "InvalidInput" and row["message"].startswith(prefix)
        assert listed == 0 and listing["cases"][0]["name"] == name


def test_outer_automorphism_needs_b_of_the_group_degree_as_index(tmp_path):
    # B = a cyclic group of order 5 has index 72, so A6 on its cosets is no automorphism
    def cyclic_b(record):
        record["subgroups"]["B"] = [[1, 2, 3, 4, 0, 5]]
        record["expected"]["subgroup_orders"]["B"] = 5

    _case_copy(tmp_path, cyclic_b)
    with pytest.raises(OrderMismatch, match="not a faithful action of degree 6"):
        load_case("A6_36", data_dir=tmp_path)


def test_sp62_values(sp62_case):
    exp = sp62_case.expected
    assert exp["omega_size"] == 120960
    assert exp["triple_intersection"] == 12
    assert sorted(exp["indices"]) == [28, 36, 120]


def _generator():
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "gen_case_data.py"
    spec = importlib.util.spec_from_file_location("gen_case_data", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_generator_reproduces_bundled_data(capsys):
    # the regeneration tool rebuilds and checks every file under data/;
    # rendered() returns the texts without writing anything
    files = _generator().rendered()
    bundled = sorted(DEFAULT_DATA_DIR.rglob("*.json"))
    assert sorted(files) == bundled
    for file, text in files.items():
        assert file.read_bytes() == text.encode(), file.name


def test_generator_reads_each_record_back_through_the_loader(capsys, monkeypatch):
    tool = _generator()
    a6_case = tool.a6_case
    monkeypatch.setattr(tool, "a6_case", lambda: {**a6_case(), "outer_automorphism": "theta"})
    with pytest.raises(InvalidInput, match="outer_automorphism must be"):
        tool.rendered()
