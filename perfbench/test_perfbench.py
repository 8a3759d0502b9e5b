"""Tests of the benchmark itself, on the reduced workload sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import math
import sys
import time

import pytest

import run

run.load_permdec()

import permdec  # noqa: E402
import workloads  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402

SEED = 3


def _passes(name, traced_passes=1):
    """Answers of an untraced pass, then of traced passes, with their tracers."""
    workload = workloads.build(name, SEED, run.ROOT, small=True)
    tally = run.Tally()
    deadline = time.perf_counter() + 120
    try:
        plain, _ = run.run_pass(workload, tally, deadline)
        traced = []
        for _ in range(traced_passes):
            tracer = Tracer()
            with tracer:
                answers, _ = run.run_pass(workload, tally, deadline)
            traced.append((answers, tracer))
    finally:
        workload.close()
    assert tally.failed == 0, tally.errors
    return plain, traced


def _counts(tracer):
    return {k: v for k, (v, unit) in run.layer_metrics(tracer).items() if unit == "count"}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_and_untraced_answers_agree(name):
    plain, traced = _passes(name)
    assert plain == traced[0][0]
    assert all(answer is not None for answer in plain)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_within_and_across_runs(name):
    _, traced = _passes(name, traced_passes=2)
    _, again = _passes(name)
    first = _counts(traced[0][1])
    assert first == _counts(traced[1][1]) == _counts(again[0][1])
    assert first["perm.mul.calls"] > 0


def _bindings():
    modules = [m for n, m in sys.modules.items() if n == "permdec" or n.startswith("permdec.")]
    return {
        (m.__name__, key): value
        for m in modules
        for key, value in vars(m).items()
        if callable(value)
    }


def _methods():
    return {
        (cls.__name__, key): cls.__dict__[key]
        for cls in (permdec.Permutation, permdec.PermGroup, permdec.CosetAction)
        for key in cls.__dict__
    }


def test_wrappers_gone_after_traced_run():
    before = (_bindings(), _methods())
    _passes("atlas_small")
    after = (_bindings(), _methods())
    assert before[0].keys() == after[0].keys()
    assert all(after[0][k] is v for k, v in before[0].items())
    assert all(after[1][k] is v for k, v in before[1].items())


def test_every_span_target_is_wrapped_where_bound():
    from permdec import atlas, cartesian, factor, structure

    original = structure.intersect
    tracer = Tracer()
    with tracer:
        for module in (permdec, atlas, cartesian, factor, structure):
            assert module.intersect is not original
            assert module.intersect.__wrapped__ is original
    assert atlas.intersect is original
    assert {name for name, *_ in SPANS} >= {"group.chain", "structure.coset_action"}


def test_relabelling_preserves_group_orders():
    for case in ("M12_144", "SP62_63", "A6_36", "KLEIN_GRID"):
        data = json.loads((permdec.atlas.DEFAULT_DATA_DIR / "cases" / f"{case}.json").read_text())
        degree = data["group"]["degree"]
        pi = workloads.random_relabelling(degree, workloads.seeded_rng(SEED, case))
        moved = workloads.relabel_case(data, pi)
        assert moved["group"]["generators"] != data["group"]["generators"]
        for before, after in [(data["group"]["generators"], moved["group"]["generators"])] + [
            (data["subgroups"][k], moved["subgroups"][k]) for k in data["subgroups"]
        ]:
            orders = [workloads.make_group(gens, degree).order() for gens in (before, after)]
            assert orders[0] == orders[1]
    for n in (5, 7):
        pi = workloads.random_relabelling(n, workloads.seeded_rng(SEED, n))
        gens = [workloads.conjugate_images(g, pi) for g in workloads.coxeter_generators(n)]
        assert workloads.make_group(gens, n).order() == math.factorial(n)
    pi = workloads.random_relabelling(10, workloads.seeded_rng(SEED, "ea"))
    gens = [workloads.conjugate_images(g, pi) for g in workloads.pair_swaps(5)]
    assert workloads.make_group(gens, 10).order() == 2**5


def test_direct_sum_counts_match_the_closed_forms():
    assert workloads.direct_sum_decompositions(3, 3) == 234 + 117
    assert workloads.direct_sum_decompositions(2, 4) == 840 + 280 + 120 + 1680
    assert workloads.direct_sum_decompositions(2, 2) == 3


def test_wrong_answer_and_exception_count_as_failures():
    tally = run.Tally()
    ok = workloads.Operation("ok", lambda: (1, True))
    wrong = workloads.Operation("wrong", lambda: (2, False))

    def boom():
        raise RecursionError("deep")

    ops = [ok, wrong, workloads.Operation("boom", boom)]
    workload = workloads.Workload("test", SEED, ops)
    answers, _ = run.run_pass(workload, tally, time.perf_counter() + 10)
    assert answers == [1, 2, None]
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "RecursionError" in tally.errors[1]


def test_best_pass_takes_each_operation_at_its_fastest():
    assert run.best_pass([[1.0, 5.0], [2.0, 3.0], [1.5, 4.0]]) == 4.0


def test_time_cap_stops_a_slow_operation():
    def slow():
        while True:
            pass

    start = time.perf_counter()
    answer, correct, error = run.run_operation(workloads.Operation("slow", slow), 0.2)
    assert (answer, correct) == (None, False) and "OperationTimeout" in error
    assert time.perf_counter() - start < 5


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _, traced = _passes("atlas_small")
    names = set(run.layer_metrics(traced[0][1])) | {"trace.overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
