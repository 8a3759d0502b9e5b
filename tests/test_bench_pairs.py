"""The summary that tools/bench_pairs.py writes into BENCH_<n>.json."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"wall_s": ("lower", 0.25), "ops_per_s": ("higher", 0.1)}


def _run(wall, ops, failed=0, attempted=10):
    return {"metrics": {"wall_s": wall, "ops_per_s": ops}, "attempted": attempted,
            "failed": failed}


def _pairs(parent, change):
    return [{"parent": _run(*p), "change": _run(*c)} for p, c in zip(parent, change)]


def test_spread_wins_and_failures():
    parent = [(1.0, 10), (2.0, 10), (3.0, 10), (4.0, 10), (5.0, 10)]
    change = [(0.5, 12), (2.0, 9), (2.5, 11), (3.0, 11), (10.0, 8, 1)]
    out = bench_pairs.summarise({"w": _pairs(parent, change)}, METRICS)["w"]
    wall = out["wall_s"]
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                              "runs": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert wall["change"]["median"] == 2.5 and wall["change"]["runs"][-1] == 10.0
    assert wall["change_better_pairs"] == "3/5"  # the tie in pair 2 counts for neither side
    assert wall["bound"] == 0.25 and wall["within_bound"]
    ops = out["ops_per_s"]  # higher is better
    assert ops["change_better_pairs"] == "3/5" and ops["within_bound"]
    assert out["failed"] == {"parent": "0/50", "change": "1/50"}
    assert "claim_met" not in wall
    assert not wall["resolved"] and ops["resolved"]  # parent IQR 2.0 against a bound of 0.75


@pytest.mark.parametrize("change,resolved", [
    ([2.0, 2.5, 2.5, 2.0, 2.9], True),  # every change run beats every parent run
    ([2.0, 2.5, 2.5, 2.0, 3.1], False),  # 3.1 loses to the parent's 3.0
])
def test_a_parent_spread_wider_than_the_bound_leaves_the_row_unresolved(change, resolved):
    parent = [3.0, 4.0, 5.0, 6.0, 7.0]  # IQR 2.0, above the bound's 0.25 * 5.0
    runs = _pairs([(p, 10) for p in parent], [(c, 10) for c in change])
    wall = bench_pairs.summarise({"w": runs}, METRICS)["w"]["wall_s"]
    assert wall["within_bound"] and wall["resolved"] is resolved


def test_bound_is_a_fraction_of_the_parent_median():
    runs = _pairs([(1.0, 10)] * 4, [(1.25, 8.9)] * 4)
    out = bench_pairs.summarise({"w": runs}, METRICS)["w"]
    assert out["wall_s"]["within_bound"] and not out["ops_per_s"]["within_bound"]
    runs = _pairs([(1.0, 10)] * 4, [(1.26, 8.9)] * 4)
    assert not bench_pairs.summarise({"w": runs}, METRICS)["w"]["wall_s"]["within_bound"]


PARENT = [0.95, 1.05] * 5  # q1 0.95, q3 1.05


@pytest.mark.parametrize("change,met", [
    ([0.8] * 9 + [1.2], True),  # 9 of 10 pairs, medians 0.2 apart against an IQR of 0.1
    ([0.8] * 8 + [1.2] * 2, False),  # 8 of 10 pairs
    ([p - 0.01 for p in PARENT], False),  # every pair, but medians closer than the IQR
])
def test_claim_needs_nine_pairs_in_ten_and_the_parent_iqr(change, met):
    runs = _pairs([(p, 10) for p in PARENT], [(c, 10) for c in change])
    out = bench_pairs.summarise({"w": runs}, METRICS, claim=("w", "wall_s"))["w"]
    assert out["wall_s"]["claim_met"] is met
    assert "claim_met" not in out["ops_per_s"]


def test_src_lines_counts_the_package_modules_as_wc_does(tmp_path):
    package = tmp_path / "src" / "permdec"
    (package / "data").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (package / "c.txt").write_text("not\ncounted\n")
    (package / "data" / "d.py").write_text("not counted\n")
    (tmp_path / "tools.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 3
