"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Each criterion prints a [PASS]/[FAIL] line directly to the terminal so the
outcome is visible even under pytest output capture.
"""

import itertools
import random
import sys
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from permdec import (
    CartesianDecomposition,
    Partition,
    Permutation,
    coset_intersection,
    covariance_check,
    enumerate_cartesian_decompositions,
    full_stabiliser,
    intersect,
    is_strong_multiple_factorisation,
    to_decomposition,
    to_system,
    validate_system,
)
from permdec.atlas import list_cases, load_case
from permdec.brute import brute_force_decompositions, product_set
from permdec.structure import CosetAction, centraliser_in_symmetric

from conftest import corpus_group


@pytest.fixture
def emit(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def write(line):
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line, file=sys.__stdout__, flush=True)

    return write


@contextmanager
def criterion(emit, num, label, limit=None):
    start = time.time()
    try:
        yield
    except Exception:
        emit(f"[FAIL] criterion {num}: {label}")
        raise
    elapsed = time.time() - start
    emit(f"[PASS] criterion {num}: {label} ({elapsed:.1f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, limit {limit}s"


@pytest.fixture(scope="module")
def corpus_runs(corpus_entries):
    """Enumerate and brute-force every corpus group once; reused by 1, 5, 6."""
    runs = []
    start = time.time()
    for entry in corpus_entries:
        g, plinth = corpus_group(entry)
        decs = enumerate_cartesian_decompositions(g, plinth=plinth)
        oracle = brute_force_decompositions(g)
        runs.append((entry, g, plinth or g, decs, oracle))
    return runs, time.time() - start


@pytest.fixture(scope="module")
def a6_run(a6_case):
    inter = intersect(a6_case.subgroups["A"], a6_case.subgroups["B"])
    action = CosetAction(a6_case.group, inter)
    g = action.image
    return g, enumerate_cartesian_decompositions(g, plinth=g)


@pytest.fixture(scope="module")
def m12_run(m12_case):
    inter = intersect(m12_case.subgroups["A"], m12_case.subgroups["B"])
    action = CosetAction(m12_case.group, inter)
    g = action.image
    return g, enumerate_cartesian_decompositions(g, plinth=g)


def test_criterion_1_oracle_equivalence(corpus_runs, emit):
    runs, elapsed = corpus_runs
    with criterion(emit, 1, "oracle equivalence on the bundled corpus", limit=60):
        assert len(runs) >= 7
        degrees = {entry["degree"] for entry, *_ in runs}
        assert 8 in degrees  # includes a degree-8 member, where triples occur
        for entry, g, _, decs, oracle in runs:
            assert decs == oracle, entry["name"]
            assert len(decs) == entry["expected_cd_count"], entry["name"]
        # the regular 2^3 group admits index-3 decompositions
        e8 = next(r for r in runs if r[0]["name"] == "E8")
        assert any(e.index == 3 for e in e8[3])
        assert elapsed < 60


def test_criterion_2_a6_row(a6_run, emit):
    with criterion(emit, 2, "A6 on 36 cosets of A5 meet A5'", limit=30):
        g, decs = a6_run
        assert g.degree == 36 and g.is_transitive()
        assert g.order() == 360
        assert g.point_stabiliser(0).order() == 10
        assert len(decs) == 1
        e = decs[0]
        assert e.index == 2 and e.is_homogeneous()
        system = to_system(g, e, 0)
        assert sorted(k.order() for k in system.subgroups) == [60, 60]
        assert full_stabiliser(e).expected_order == 1036800  # (6!)^2 * 2
        assert centraliser_in_symmetric(g).order() == 1  # quasiprimitive


def test_criterion_3_m12_row(m12_run, emit):
    with criterion(emit, 3, "M12 on 144 cosets of M11 meet M11'", limit=300):
        g, decs = m12_run
        assert g.degree == 144 and g.is_transitive()
        assert g.order() == 95040
        assert g.point_stabiliser(0).order() == 660
        assert len(decs) == 1
        e = decs[0]
        assert e.index == 2 and e.is_homogeneous()
        system = to_system(g, e, 0)
        assert sorted(k.order() for k in system.subgroups) == [7920, 7920]


def test_criterion_4_sp62_row(sp62_case, emit):
    with criterion(emit, 4, "Sp6(2) strong multiple factorisation on 63 points", limit=120):
        t = sp62_case.group
        assert t.degree == 63 and t.order() == 1451520
        subs = [sp62_case.subgroups[k] for k in ("K1", "K2", "K3")]
        assert sorted(s.order() for s in subs) == [12096, 40320, 51840]
        report = is_strong_multiple_factorisation(t, subs)
        assert report.holds and all(report.per_index)
        assert report.omega_prediction == 120 * 28 * 36 == 120960
        # the degree-120960 action is deliberately not materialised


def test_criterion_5_bijection_suite(corpus_runs, a6_run, m12_run, emit):
    runs, _ = corpus_runs
    cases = [(plinth, decs) for _, _, plinth, decs, _ in runs]
    cases.append((a6_run[0], a6_run[1]))
    cases.append((m12_run[0], m12_run[1]))
    with criterion(emit, 5, "decomposition/system bijection and covariance"):
        rng = random.Random(20260823)
        for g, decs in cases:
            for e in decs:
                system = to_system(g, e, 0)
                assert to_decomposition(system) == e
                rebuilt = to_system(g, to_decomposition(system), 0)
                assert rebuilt.same_system(system)
                for _ in range(10):
                    m = g.random_element(rng)
                    assert covariance_check(g, e, 0, m)


def test_criterion_6_system_laws(corpus_runs, a6_run, m12_run, emit):
    runs, _ = corpus_runs
    cases = [(plinth, decs) for _, _, plinth, decs, _ in runs]
    cases.append((a6_run[0], a6_run[1]))
    cases.append((m12_run[0], m12_run[1]))
    with criterion(emit, 6, "index multiplicativity, meet law, coset intersections"):
        rng = random.Random(7)
        for g, decs in cases:
            for e in decs:
                system = to_system(g, e, 0)
                assert validate_system(system).valid
                m_order = g.order()
                subsets = {
                    subset: _meet(g, system, subset)
                    for r in range(system.index + 1)
                    for subset in combinations(range(system.index), r)
                }
                for subset, k in subsets.items():
                    prod = 1
                    for i in subset:
                        prod *= m_order // system.subgroups[i].order()
                    assert m_order // k.order() == prod
                for si in subsets:
                    for sj in subsets:
                        union = tuple(sorted(set(si) | set(sj)))
                        meet = tuple(sorted(set(si) & set(sj)))
                        k_i, k_j = subsets[si], subsets[sj]
                        assert (
                            k_i.order() * k_j.order() // subsets[union].order()
                            == subsets[meet].order()
                        )
                        if m_order <= 10**4:
                            assert (
                                product_set(k_i.elements(), k_j.elements())
                                == subsets[meet].element_set()
                            )
                for _ in range(20):
                    terms = [
                        (k, g.random_element(rng)) for k in system.subgroups
                    ]
                    assert coset_intersection(terms) is not None


def _meet(g, system, subset):
    out = g
    for i in subset:
        out = intersect(out, system.subgroups[i])
    return out


def test_criterion_7_full_stabiliser_ground_truth(emit):
    with criterion(emit, 7, "full stabilisers of the 2x2 and 3x3 grids", limit=30):
        for sizes in ((2, 2), (3, 3)):
            n = sizes[0] * sizes[1]
            rows = Partition(
                [tuple(range(i * sizes[1], (i + 1) * sizes[1])) for i in range(sizes[0])]
            )
            cols = Partition(
                [tuple(range(j, n, sizes[1])) for j in range(sizes[1])]
            )
            grid = CartesianDecomposition([rows, cols])
            stab = full_stabiliser(grid).group
            # the 9! oracle runs on raw image tuples; only hits become permutations
            blocks = {frozenset(map(frozenset, p.blocks)) for p in grid.partitions}
            want = [
                Permutation(images)
                for images in itertools.permutations(range(n))
                if {frozenset(frozenset(images[x] for x in b) for b in p) for p in blocks} == blocks
            ]
            assert stab.order() == len(want)
            assert all(stab.contains(x) for x in want)


def test_criterion_8_out_of_scope_rows(emit):
    with criterion(emit, 8, "out-of-scope rows listed as metadata only"):
        cases = {name: desk for name, _, desk in list_cases()}
        for name in ("POMEGA8_Q", "POMEGA8_3", "SP4Q_EVEN", "SP4A2_MULT"):
            assert name in cases
            assert cases[name] is False
            record = load_case(name)
            assert record.expected
            assert record.group is None  # nothing desk-scale is constructed
        assert load_case("POMEGA8_3").expected["omega_size"] == 34390137600
