import hashlib
import itertools
import random

import pytest

from permdec import (
    BudgetExceeded,
    InvalidDecomposition,
    InvalidInput,
    Partition,
    Permutation,
    PermGroup,
    PointOutOfRange,
    WreathSpec,
    decode,
    encode,
    full_stabiliser,
    is_invariant,
    product_action_wreath,
)
from permdec.cartesian import CartesianDecomposition
from permdec.wreath import natural_decomposition


def test_spec_validation():
    # WreathSpec(3, 2.0) was accepted, and product_action_wreath on it raised TypeError
    for base, ell in [(1, 2), (3, 1), (3, 2.0), (2.0, 3), (True, 2), (3, "2"), (-3, 2)]:
        with pytest.raises(InvalidInput):
            WreathSpec(base, ell)


@pytest.mark.parametrize(
    "base,ell,order",
    [(3, 2, 72), (2, 2, 8), (2, 3, 48), (4, 2, 1152), (6, 2, 1036800)],
)
def test_orders(base, ell, order):
    w, _ = product_action_wreath(WreathSpec(base, ell))
    assert w.degree == base**ell
    assert w.order() == order
    assert w.is_transitive()


def test_encode_decode_examples():
    spec = WreathSpec(3, 2)
    assert encode(spec, (0, 0)) == 0
    assert encode(spec, (1, 2)) == 5
    assert encode(spec, (2, 0)) == 6
    assert decode(spec, 5) == (1, 2)
    for p in range(9):
        assert encode(spec, decode(spec, p)) == p


def test_encode_checks_range():
    spec = WreathSpec(3, 2)
    with pytest.raises(PointOutOfRange):
        encode(spec, (3, 0))
    with pytest.raises(PointOutOfRange):
        decode(spec, 9)
    with pytest.raises(PointOutOfRange):
        encode(spec, (0, 0, 0))
    for coords in [(1.5, 0), (True, False), (1.0, 0)]:  # equal to points, but not points
        with pytest.raises(PointOutOfRange):
            encode(spec, coords)
    for point in [2.5, 2.0, True]:
        with pytest.raises(PointOutOfRange):
            decode(spec, point)


def test_degree_budget():
    with pytest.raises(BudgetExceeded):
        product_action_wreath(WreathSpec(10, 6))


def test_decode_matches_natural_blocks():
    spec = WreathSpec(3, 2)
    _, e = product_action_wreath(spec)
    for p in range(9):
        coords = decode(spec, p)
        for i, part in enumerate(e.partitions):
            block = part.block_containing(p)
            assert all(decode(spec, q)[i] == coords[i] for q in block)


def test_base_group_fixes_partitions():
    w, e = product_action_wreath(WreathSpec(3, 2))
    report = is_invariant(w, e)
    assert report.invariant
    # the subgroup fixing both partitions is the base group of order 36
    fixers = [x for x in w.elements() if all(p.apply(x) == p for p in e.partitions)]
    assert len(fixers) == 36


def test_full_stabiliser_2x2_matches_brute():
    grid = CartesianDecomposition([Partition([(0, 1), (2, 3)]), Partition([(0, 2), (1, 3)])])
    result = full_stabiliser(grid)
    brute = [
        Permutation(images)
        for images in itertools.permutations(range(4))
        if all(
            Partition([[images[x] for x in b] for b in p.blocks]) in grid.partitions
            for p in grid.partitions
        )
    ]
    assert result.group.order() == len(brute) == 8
    assert all(result.group.contains(p) for p in brute)


def test_full_stabiliser_3x3_order():
    e = natural_decomposition((3, 3))
    result = full_stabiliser(e)
    assert result.group.order() == 72
    assert result.structure == "S3 wr S2"


def test_full_stabiliser_inhomogeneous():
    e = natural_decomposition((2, 3))
    result = full_stabiliser(e)
    assert not result.homogeneous
    assert result.group.order() == 12
    assert result.structure == "S2 x S3"


def test_full_stabiliser_mixed_classes():
    e = natural_decomposition((2, 2, 3))
    result = full_stabiliser(e)
    assert result.group.order() == 2 * 2 * 2 * 6
    assert "wr" in result.structure and "S3" in result.structure


def test_containment_bridge(klein):
    # G <= full_stabiliser(E) iff E is G-invariant
    grid = CartesianDecomposition([Partition([(0, 1), (2, 3)]), Partition([(0, 2), (1, 3)])])
    stab = full_stabiliser(grid).group
    assert klein.is_subgroup_of(stab)
    assert is_invariant(klein, grid).invariant
    s4 = PermGroup([Permutation([1, 2, 3, 0]), Permutation([1, 0, 2, 3])])
    assert not s4.is_subgroup_of(stab)
    assert not is_invariant(s4, grid).invariant


def test_full_stabiliser_conjugated_grid():
    # same grid with relabelled points: stabiliser order is unchanged
    e = CartesianDecomposition([Partition([(0, 3), (1, 2)]), Partition([(0, 1), (2, 3)])])
    result = full_stabiliser(e)
    assert result.group.order() == 8
    assert is_invariant(result.group, e).invariant


def _relabelled(radices, seed):
    e = natural_decomposition(radices)
    images = list(range(e.degree))
    random.Random(seed).shuffle(images)
    return CartesianDecomposition([p.apply(Permutation(images)) for p in e.partitions])


def test_full_stabiliser_pinned_on_relabelled_grids():
    # recorded from the construction that conjugated natural generators by the
    # relabelling; acting on block-index tuples gives the same images
    digest = hashlib.sha256()
    for radices in [(2, 2), (3, 3), (2, 3), (2, 2, 3), (2, 3, 2, 3), (12, 12)]:
        for seed in range(3):
            r = full_stabiliser(_relabelled(radices, seed))
            digest.update(repr(([tuple(g.images) for g in r.group.generators], r.structure,
                                r.expected_order, r.homogeneous)).encode())
    assert digest.hexdigest() == "ccb148202069786b0e054d2bc2072b5174464ffd1c5b403dc9ce744fe99f214f"


def test_full_stabiliser_2x3_matches_brute():
    e = _relabelled((2, 3), 7)
    parts = set(e.partitions)
    brute = {
        images
        for images in itertools.permutations(range(6))
        if {p.apply(Permutation(images)) for p in e.partitions} == parts
    }
    result = full_stabiliser(e)
    assert {tuple(x.images) for x in result.group.elements()} == brute
    assert len(brute) == result.expected_order == 12 and not result.homogeneous


def test_full_stabiliser_one_block_partition():
    # a one-block partition is fixed by every permutation: no generator, no factor
    e = CartesianDecomposition([Partition([(0, 1), (2, 3)]), Partition([(0, 2), (1, 3)]),
                                Partition([(0, 1, 2, 3)])])
    result = full_stabiliser(e)
    assert not result.homogeneous
    assert result.group.order() == result.expected_order == 8
    assert is_invariant(result.group, e).invariant


def test_full_stabiliser_refuses_an_invalid_decomposition():
    e = CartesianDecomposition([Partition([(0, 1), (2, 3)]), Partition([(0, 1), (2,), (3,)])])
    with pytest.raises(InvalidDecomposition, match="witness"):
        full_stabiliser(e)
