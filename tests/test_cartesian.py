import math
import random
import sys
from itertools import combinations
from types import SimpleNamespace

import pytest

from permdec import (
    CartesianDecomposition,
    CartesianSystem,
    DegreeMismatch,
    InvalidDecomposition,
    InvalidSystem,
    NotInnatelyTransitive,
    NotInvariant,
    Partition,
    PointOutOfRange,
    PermGroup,
    Permutation,
    covariance_check,
    enumerate_cartesian_decompositions,
    intersect,
    is_invariant,
    plinth_fixes_partitions,
    round_trip_check,
    to_decomposition,
    to_system,
    validate_decomposition,
    validate_system,
)
from permdec import cartesian
from permdec.atlas import load_case
from permdec.brute import brute_force_decompositions, is_cartesian_set, product_set
from permdec.wreath import natural_decomposition, product_action_wreath, WreathSpec

C = Permutation.from_cycles

GRID = CartesianDecomposition(
    [Partition([(0, 1), (2, 3)]), Partition([(0, 2), (1, 3)])]
)


def test_grid_is_valid():
    report = validate_decomposition(GRID)
    assert report.valid and report.index == 2 and report.homogeneous


def test_duplicated_partition_invalid():
    twice = [Partition([(0, 1), (2, 3)]), Partition([(2, 3), (0, 1)])]
    with pytest.raises(InvalidDecomposition, match="repeated partition"):
        CartesianDecomposition(twice)
    assert not is_cartesian_set(twice)  # the choice (B, B) meets in both points of B


def test_repeated_one_block_partition_refused():
    # the block counts multiply to the degree and the block tuples are distinct,
    # so only the repeat makes this set of partitions no decomposition
    whole = Partition([(0, 1, 2, 3)])
    with pytest.raises(InvalidDecomposition, match="repeated partition"):
        CartesianDecomposition([*GRID.partitions, whole, whole])
    assert not is_cartesian_set([*GRID.partitions, whole, whole])
    # a single one-block partition stays valid
    report = validate_decomposition(CartesianDecomposition([*GRID.partitions, whole]))
    assert report.valid and report.block_counts == (2, 1, 2)
    assert is_cartesian_set([*GRID.partitions, whole])


def test_natural_decomposition_valid():
    _, e = product_action_wreath(WreathSpec(3, 2))
    report = validate_decomposition(e)
    assert report.valid and report.homogeneous and e.degree == 9


def test_validation_needs_no_cap():
    # 2^30 block choices on 8 points: the coordinate partitions of the 2x2x2
    # grid give the points distinct index tuples, so the product scan meets an
    # unused tuple within nine steps
    halves = [(0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6)]
    halves += [s for s in combinations(range(8), 4) if s[0] == 0 and s not in halves][:27]
    report = validate_decomposition(CartesianDecomposition(
        [Partition([s, [x for x in range(8) if x not in s]]) for s in halves]))
    assert not report.valid and len(report.witness) == 30
    assert not frozenset.intersection(*map(frozenset, report.witness))
    assert validate_decomposition(natural_decomposition((20, 20, 30))).valid


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        CartesianDecomposition([Partition([(0, 1), (2, 3)]), Partition([(0, 1, 2), (3, 4, 5)])])


# --- invariance -----------------------------------------------------------------


def test_klein_invariance(klein):
    report = is_invariant(klein, GRID)
    assert report.invariant
    # both generators fix both partitions
    assert all(action == (0, 1) for action in report.generator_actions)


def test_s4_moves_grid(s4):
    report = is_invariant(s4, GRID)
    assert not report.invariant
    assert report.witness is not None


def test_wreath_swaps_partitions():
    w, e = product_action_wreath(WreathSpec(3, 2))
    report = is_invariant(w, e)
    assert report.invariant
    assert any(action == (1, 0) for action in report.generator_actions)


# --- to_system ----------------------------------------------------------------


def test_klein_to_system(klein):
    system = to_system(klein, GRID, 0)
    orders = sorted(k.order() for k in system.subgroups)
    assert orders == [2, 2]
    expect = [PermGroup([C(4, [(0, 1), (2, 3)])]), PermGroup([C(4, [(0, 2), (1, 3)])])]
    matched = {i for k in system.subgroups for i, e in enumerate(expect) if k.same_group(e)}
    assert matched == {0, 1}


def test_s3s3_rows_columns(s3s3):
    base = PermGroup(s3s3.generators, degree=9)  # S3 x S3 fixes rows and columns
    e = natural_decomposition((3, 3))
    system = to_system(base, e, 0)
    assert sorted(k.order() for k in system.subgroups) == [12, 12]
    inter = intersect(system.subgroups[0], system.subgroups[1])
    assert inter.same_group(base.point_stabiliser(0))
    assert inter.order() == 4


def test_a6_36_to_system(a6_36):
    decs = enumerate_cartesian_decompositions(a6_36, plinth=a6_36)
    system = to_system(a6_36, decs[0], 0)
    assert sorted(k.order() for k in system.subgroups) == [60, 60]


def test_to_system_requires_invariance(s4):
    with pytest.raises(NotInvariant):
        to_system(s4, GRID, 0)


# --- covariance ------------------------------------------------------------------


def test_covariance_identity(klein):
    assert covariance_check(klein, GRID, 0, klein.identity)


def test_covariance_klein(klein):
    assert covariance_check(klein, GRID, 0, C(4, [(0, 1), (2, 3)]))


def test_covariance_a6(a6_36):
    rng = random.Random(5)
    e = enumerate_cartesian_decompositions(a6_36, plinth=a6_36)[0]
    for _ in range(3):
        m = a6_36.random_element(rng)
        assert covariance_check(a6_36, e, 0, m)


# --- systems ----------------------------------------------------------------------


def test_validate_system_klein(klein):
    k1 = PermGroup([C(4, [(0, 1), (2, 3)])])
    k2 = PermGroup([C(4, [(0, 2), (1, 3)])])
    report = validate_system(CartesianSystem(klein, 0, [k1, k2]))
    assert report.valid and report.eq1 and all(report.eq2)
    assert report.omega_prediction == 4


def test_duplicated_subgroup_fails_eq2(klein):
    k1 = PermGroup([C(4, [(0, 1), (2, 3)])])
    report = validate_system(CartesianSystem(klein, 0, [k1, k1]))
    assert not report.valid
    assert not all(report.eq2)


def test_a6_system_omega_prediction(a6_36):
    e = enumerate_cartesian_decompositions(a6_36, plinth=a6_36)[0]
    report = validate_system(to_system(a6_36, e, 0))
    assert report.valid
    assert report.omega_prediction == 36


# --- to_decomposition and round trips ------------------------------------------------


def test_klein_system_to_decomposition(klein):
    k1 = PermGroup([C(4, [(0, 1), (2, 3)])])
    k2 = PermGroup([C(4, [(0, 2), (1, 3)])])
    e = to_decomposition(CartesianSystem(klein, 0, [k1, k2]))
    assert e == GRID


def test_invalid_system_raises(klein):
    k1 = PermGroup([C(4, [(0, 1), (2, 3)])])
    with pytest.raises(InvalidSystem):
        to_decomposition(CartesianSystem(klein, 0, [k1, k1]))


def test_trivial_decomposition_round_trips(klein):
    # the discrete partition alone is the index-1 decomposition; its system
    # is {M_w}, and the intersection of no other subgroups is M itself
    e = CartesianDecomposition([Partition([(i,) for i in range(4)])])
    assert validate_decomposition(e).valid
    system = to_system(klein, e, 0)
    assert system.index == 1 and system.subgroups[0].is_trivial()
    report = validate_system(system)
    assert report.valid and report.eq2 == (True,) and report.omega_prediction == 4
    assert to_decomposition(system) == e


def test_empty_system_raises(klein):
    with pytest.raises(InvalidSystem):
        CartesianSystem(klein, 0, [])


@pytest.mark.parametrize("base_point", [-1, 4])
def test_system_base_point_outside_the_points(klein, base_point):
    # the same error as to_system and point_stabiliser give for a bad point
    with pytest.raises(PointOutOfRange):
        CartesianSystem(klein, base_point, [klein])


def test_round_trip_klein(klein):
    report = round_trip_check(klein, plinth=klein)
    assert report.ok and report.decomposition_count == 3


def _another(decs, e):
    return next(d for d in decs if d != e)


def test_round_trip_catches_a_wrong_decomposition(monkeypatch):
    g = load_case("KLEIN_GRID").group
    decs = enumerate_cartesian_decompositions(g, plinth=g)
    assert len(decs) == 3
    right = cartesian.to_decomposition
    monkeypatch.setattr(cartesian, "to_decomposition", lambda k: _another(decs, right(k)))
    report = round_trip_check(g, plinth=g)
    assert not report.forward_ok and not report.ok
    assert report.decomposition_count == 3


def test_round_trip_catches_a_wrong_system(monkeypatch):
    g = load_case("KLEIN_GRID").group
    decs = enumerate_cartesian_decompositions(g, plinth=g)
    right = cartesian._system_of
    monkeypatch.setattr(cartesian, "_system_of",
                        lambda m, e, omega: right(m, _another(decs, e), omega))
    report = round_trip_check(g, plinth=g)
    assert report.forward_ok and not report.backward_ok and not report.ok
    assert report.decomposition_count == 3


def test_round_trip_catches_a_wrong_lattice_stabiliser(monkeypatch):
    # the lattice hands each proper block of KLEIN_GRID the next one's
    # stabiliser; the system search disagrees and so does to_decomposition
    g = load_case("KLEIN_GRID").group
    right = cartesian.interval_subgroups

    def rotated(m, omega):
        pairs = right(m, omega)
        proper = [i for i, (b, _) in enumerate(pairs) if 1 < len(b) < m.degree]
        assert len(proper) == 3
        out = list(pairs)
        for i, j in zip(proper, proper[1:] + proper[:1]):
            out[i] = (pairs[i][0], pairs[j][1])
        return out

    monkeypatch.setattr(cartesian, "interval_subgroups", rotated)
    report = round_trip_check(g, plinth=g)
    assert not report.forward_ok and not report.backward_ok
    assert report.decomposition_count == 3


def test_round_trip_catches_two_tuples_with_one_decomposition(monkeypatch):
    g = load_case("KLEIN_GRID").group
    e = enumerate_cartesian_decompositions(g, plinth=g)[0]
    monkeypatch.setattr(cartesian, "_decompositions", lambda g, m, tuples: [e] * len(tuples))
    report = round_trip_check(g, plinth=g)
    assert not report.backward_ok and report.decomposition_count == 1
    assert report.details[-1] == "count mismatch: 3 systems vs 1 decompositions"


def test_round_trip_report_carries_the_sorted_decompositions(a6_36, klein):
    for g in (a6_36, klein):
        report = round_trip_check(g, plinth=g)
        assert list(report.decompositions) == enumerate_cartesian_decompositions(g, plinth=g)


def test_round_trip_report_carries_the_system_of_each_decomposition(a6_36):
    regular = PermGroup([C(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)]),
                         C(9, [(0, 3, 6), (1, 4, 7), (2, 5, 8)])])  # 3^2 on itself
    for g in (load_case("KLEIN_GRID").group, a6_36, regular):
        report = round_trip_check(g, plinth=g)
        assert report.ok and len(report.systems) == report.decomposition_count > 0
        for e, system in zip(report.decompositions, report.systems, strict=True):
            assert system.same_system(to_system(g, e, 0))


def test_round_trip_s4_vacuous(s4):
    report = round_trip_check(s4)
    assert report.ok and report.decomposition_count == 0


def test_round_trip_a6(a6_36):
    report = round_trip_check(a6_36, plinth=a6_36)
    assert report.ok and report.decomposition_count == 1


# --- plinth fixes partitions ---------------------------------------------------------


def test_plinth_fixes_partitions(klein):
    assert plinth_fixes_partitions(klein, GRID)
    moved = PermGroup([C(4, [(0, 1)])])
    assert not plinth_fixes_partitions(moved, GRID)


# --- enumeration -----------------------------------------------------------------------


def test_enumerate_s4_empty(s4):
    assert enumerate_cartesian_decompositions(s4) == []


def test_enumerate_klein(klein):
    decs = enumerate_cartesian_decompositions(klein, plinth=klein)
    assert len(decs) == 3
    assert all(e.index == 2 and e.is_homogeneous() for e in decs)


def test_enumerate_a6(a6_36):
    decs = enumerate_cartesian_decompositions(a6_36, plinth=a6_36)
    assert len(decs) == 1
    assert decs[0].index == 2 and decs[0].is_homogeneous()


def test_enumerate_requires_plinth(s3s3):
    with pytest.raises(NotInnatelyTransitive):
        enumerate_cartesian_decompositions(s3s3)


def test_enumerate_matches_oracle_s3s3(s3s3):
    plinth = PermGroup([s3s3.generators[0], s3s3.generators[2]], degree=9)
    got = enumerate_cartesian_decompositions(s3s3, plinth=plinth)
    want = brute_force_decompositions(s3s3)
    assert got == want and len(got) == 2


def _random_partition_list(rng):
    """A list of partitions at degree <= 12: a grid, a grid with two points
    swapped in one partition, or partitions with random blocks."""
    n = rng.randint(1, 12)
    kind = rng.randrange(3)
    if kind == 2:
        out = []
        for _ in range(rng.randint(1, 3)):
            labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
            out.append(Partition([[p for p in range(n) if labels[p] == b] for b in set(labels)],
                                 degree=n))
        return out
    sides = []
    rest = n
    while rest > 1:
        side = rng.choice([d for d in range(2, rest + 1) if rest % d == 0])
        sides.append(side)
        rest //= side
    sides = sides or [1]
    points = list(range(n))
    rng.shuffle(points)
    coords = []  # coords[i][p]: the block of partition i holding point p
    for i in range(len(sides)):
        stride = math.prod(sides[i + 1:])
        coords.append({p: (k // stride) % sides[i] for k, p in enumerate(points)})
    if kind == 1 and n > 1:
        row = rng.choice(coords)
        p, q = rng.sample(range(n), 2)
        row[p], row[q] = row[q], row[p]
    return [Partition([[p for p in range(n) if row[p] == b] for b in set(row.values())],
                      degree=n) for row in coords]


def test_cartesian_oracle_matches_validation():
    # the oracle intersects blocks; validation compares block-index tuples
    rng = random.Random(1201)
    verdicts = []
    for _ in range(300):
        partitions = _random_partition_list(rng)
        if len(set(partitions)) < len(partitions):
            with pytest.raises(InvalidDecomposition):
                CartesianDecomposition(partitions)
            want = False
        else:
            want = validate_decomposition(CartesianDecomposition(partitions)).valid
        assert is_cartesian_set(partitions) == want, [p.blocks for p in partitions]
        verdicts.append(want)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def test_cartesian_oracle_does_not_use_validation(monkeypatch):
    # two equal partitions: the choice (B, B) meets in both points of B
    original = cartesian.validate_decomposition
    for module in [m for key, m in sys.modules.items() if key.startswith("permdec")]:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, lambda e: SimpleNamespace(valid=True))
    rows = Partition([(0, 1), (2, 3)])
    assert not is_cartesian_set([rows, rows])
    assert is_cartesian_set(GRID.partitions)


# --- lattice laws on validated systems ---------------------------------------------------


def subset_intersection(system, subset):
    inter = system.ambient
    for i in subset:
        inter = intersect(inter, system.subgroups[i])
    return inter


@pytest.mark.parametrize("case", ["klein", "a6"])
def test_index_multiplicativity_and_meet_law(case, klein, a6_36):
    g = klein if case == "klein" else a6_36
    e = enumerate_cartesian_decompositions(g, plinth=g)[0]
    system = to_system(g, e, 0)
    m_order = g.order()
    indices = list(range(system.index))
    for r in range(len(indices) + 1):
        for subset in combinations(indices, r):
            k_i = subset_intersection(system, subset)
            prod = 1
            for i in subset:
                prod *= m_order // system.subgroups[i].order()
            assert m_order // k_i.order() == prod
    # meet law by order count and explicit sets
    for si in [(0,), (1,)]:
        for sj in [(0,), (1,)]:
            k_i = subset_intersection(system, si)
            k_j = subset_intersection(system, sj)
            k_union = subset_intersection(system, tuple(sorted(set(si) | set(sj))))
            k_meet = subset_intersection(system, tuple(sorted(set(si) & set(sj))))
            assert k_i.order() * k_j.order() // k_union.order() == k_meet.order()
            if m_order <= 10**4:
                assert product_set(k_i.elements(), k_j.elements()) == k_meet.element_set()


def test_equivariance_of_bijection(a6_36):
    # conjugating a block stabiliser matches acting on its partition
    e = enumerate_cartesian_decompositions(a6_36, plinth=a6_36)[0]
    system = to_system(a6_36, e, 0)
    stab = a6_36.point_stabiliser(0)
    pairs = list(zip(e.partitions, system.subgroups))
    for x in stab.generators:
        for part, sub in pairs:
            img_part = part.apply(x)
            img_sub = PermGroup([g.conjugate_by(x) for g in sub.generators], degree=sub.degree)
            matches = [
                p2 == img_part and s2.same_group(img_sub) for p2, s2 in pairs
            ]
            assert any(matches)
