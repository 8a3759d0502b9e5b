import json
import random

import pytest

from permdec import (
    CartesianDecomposition,
    CartesianSystem,
    DegreeMismatch,
    InvalidInput,
    NonBijection,
    Partition,
    PermGroup,
    Permutation,
    PointOutOfRange,
    setwise_stabiliser,
    to_system,
)

from permdec.io import dump_json, group_from_json, group_to_json
from permdec.perm import pack, product
from permdec.wreath import WreathSpec, decode

C = Permutation.from_cycles


def test_constructor_rejects_non_bijections():
    with pytest.raises(NonBijection):
        Permutation([0, 0, 1])
    with pytest.raises(NonBijection):
        Permutation([0, 3, 1])
    with pytest.raises(NonBijection):
        Permutation([0, 1, "2"])
    with pytest.raises(NonBijection):  # JSON true and false are not points
        Permutation([True, False])
    for images in ([1.0, 0], [0, 0], [-1, 0], [*range(1, 256), 256]):
        with pytest.raises(NonBijection):
            Permutation(images)


@pytest.mark.parametrize("n", [0, 1, 2, 24, 128, 255, 256, 257])
def test_constructor_accepts_exactly_the_permutations(n):
    # up to 256 points bytes() and the round trip through the inverse table
    # decide, above a loop; both refuse with the same message
    rng = random.Random(n)
    perm = rng.sample(range(n), n)
    candidates = [perm, perm[:-1], [*perm, n]]
    for k in rng.sample(range(n), min(n, 4)):
        v = perm[k]
        for bad in (n, 255, 256, -1, float(v), str(v), perm[k - 1], bool(v) if v < 2 else v):
            candidates.append([*perm[:k], bad, *perm[k + 1:]])
    for images in candidates:
        m = len(images)
        if all(type(v) is int for v in images) and sorted(images) == list(range(m)):
            assert tuple(Permutation(images).images) == tuple(images)
        else:
            with pytest.raises(NonBijection) as refused:
                Permutation(images)
            assert str(refused.value) == f"not a permutation of 0..{m - 1}: {tuple(images)!r}"


def test_from_cycles_multiplies_its_cycles_left_to_right():
    assert C(4, [(0, 1), (1, 2)]).images == bytes([2, 0, 1, 3])  # 0 -> 1 -> 2
    assert C(4, [iter((0, 1))]) == C(4, [(0, 1)])  # each cycle is read once
    rng = random.Random(9)
    for _ in range(50):
        cycles = [rng.sample(range(9), rng.randint(1, 5)) for _ in range(rng.randint(0, 4))]
        want = Permutation.identity(9)
        for cycle in cycles:
            images = list(range(9))
            for i, v in enumerate(cycle):
                images[v] = cycle[(i + 1) % len(cycle)]
            want = want * Permutation(images)
        assert C(9, iter(cycles)) == want


def test_composition_is_left_to_right():
    p = C(3, [(0, 1)])
    q = C(3, [(1, 2)])
    # x^(pq) = (x^p)^q
    assert (p * q).images[0] == q.images[p.images[0]] == 2
    assert tuple((p * q).images) == tuple(q.images[v] for v in p.images)


def test_inverse_and_identity():
    p = C(5, [(0, 1, 2, 3, 4)])
    assert (p * p.inverse()).is_identity()
    assert p.inverse().images[p.images[3]] == 3
    assert Permutation.identity(5).is_identity()


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        C(3, [(0, 1)]) * C(4, [(0, 1)])


def test_cycles_and_order():
    p = C(6, [(0, 1, 2), (3, 4)])
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert p.order() == 6
    assert p.first_moved() == 0
    assert Permutation.identity(4).first_moved() is None


def test_pow():
    p = C(7, [(0, 1, 2, 3, 4, 5, 6)])
    assert (p**7).is_identity()
    assert p**3 == p * p * p
    assert p**-1 == p.inverse()
    assert (p**0).is_identity()


def test_call_checks_range():
    p = C(3, [(0, 1)])
    assert p(0) == 1
    with pytest.raises(PointOutOfRange):
        p(3)


KLEIN = PermGroup([C(4, [(0, 1), (2, 3)]), C(4, [(0, 2), (1, 3)])])
GRID = CartesianDecomposition([Partition([[0, 1], [2, 3]]), Partition([[0, 2], [1, 3]])])
POINT_CALLS = {
    "call": lambda x: KLEIN.generators[0](x),
    "from_cycles": lambda x: C(4, [(x, 0)]),
    "orbit": KLEIN.orbit,
    "point_stabiliser": KLEIN.point_stabiliser,
    "block_containing": GRID.partitions[0].block_containing,
    "setwise_stabiliser": lambda x: setwise_stabiliser(KLEIN, [x]),
    "to_system": lambda x: to_system(KLEIN, GRID, x),
    "CartesianSystem": lambda x: CartesianSystem(KLEIN, x, [KLEIN]),
    "decode": lambda x: decode(WreathSpec(2, 2), x),
}


@pytest.mark.parametrize("point", [True, False, 1.5, 0.0, "1", None, 4, -1])
@pytest.mark.parametrize("call", POINT_CALLS.values(), ids=POINT_CALLS)
def test_a_point_is_an_int_in_range(call, point):
    # one check for every point argument; bools and floats are not points
    with pytest.raises(PointOutOfRange) as info:
        call(point)
    assert str(info.value) == f"point {point!r} outside 0..3"


@pytest.mark.parametrize("degree", [-1, -3, -4, -257, 2.0, True, "4", None])
def test_a_degree_is_a_non_negative_int(degree):
    # the identity of degree -1 once had 255 points, from the table's last 255 bytes
    with pytest.raises(InvalidInput):
        Permutation.identity(degree)
    with pytest.raises(InvalidInput):
        PermGroup([], degree=degree)
    # from_cycles(True, []) once had degree 1, and from_cycles(-3, [(0, 1)]) found
    # 0 "outside 0..-4"
    for cycles in ([], [(0, 1)]):
        with pytest.raises(InvalidInput):
            Permutation.from_cycles(degree, cycles)
    if degree is not None:  # without a degree a partition has the one its blocks cover
        # Partition([], degree=-4) once had degree -4, Partition([[0]], degree=True) degree True
        for blocks in ([], [[0]]):
            with pytest.raises(InvalidInput):
                Partition(blocks, degree=degree)


def test_conjugate_moves_stabilised_set():
    p = C(4, [(0, 1)])
    m = C(4, [(0, 2), (1, 3)])
    assert p.conjugate_by(m) == C(4, [(2, 3)])


def test_partition_canonical_form():
    p = Partition([[3, 2], [1, 0]])
    assert p.blocks == ((0, 1), (2, 3))
    assert p == Partition([(0, 1), (2, 3)])
    assert p.block_sizes() == (2, 2)
    assert not p.is_trivial()
    assert Partition.single(4).is_trivial()
    assert Partition([(i,) for i in range(4)]).is_trivial()


def test_partition_validates_cover():
    with pytest.raises(ValueError):
        Partition([[0, 1], [1, 2]], degree=3)
    with pytest.raises(ValueError):
        Partition([[0, 1]], degree=3)
    with pytest.raises(ValueError):  # 1.0 and True equal the point 1, but are not points
        Partition([[1.0, 3], [0, 2]])
    with pytest.raises(ValueError):
        Partition([[True, 1], [0]])
    for blocks in [[[0, 1], []], [[], [0, 1]], [[]]]:  # an empty block is no block
        with pytest.raises(InvalidInput):
            Partition(blocks)


def test_partition_apply():
    p = Partition([[0, 1], [2, 3]])
    g = C(4, [(1, 2)])
    assert p.apply(g) == Partition([[0, 2], [1, 3]])
    assert p.block_containing(2) == (2, 3)
    assert p.block_index_of() == [0, 0, 1, 1]


@pytest.mark.parametrize("n", [0, 1, 2, 24, 255, 256, 257])
def test_packed_product_is_the_tuple_product(n):
    # up to 256 points pack gives a table fixing n..255 and images are n bytes,
    # above it both are the image tuple; a product keeps its left operand's form
    rng = random.Random(n)
    mul = product(n)
    for _ in range(20):
        a, b = Permutation(rng.sample(range(n), n)), Permutation(rng.sample(range(n), n))
        want = tuple(b.images[x] for x in a.images)
        element, table = mul(a.images, pack(b.images)), mul(pack(a.images), pack(b.images))
        assert type(element) is type(table) is (bytes if n <= 256 else tuple)
        assert tuple(element) == want
        assert tuple(table[:n]) == want
        assert tuple(table[n:]) == tuple(range(n, 256))


@pytest.mark.parametrize("n", [255, 256, 257])
def test_arithmetic_at_the_packing_boundary_matches_image_tuples(n):
    # images are n bytes up to 256 points and the image tuple above; every
    # operation agrees with its definition on image tuples
    rng = random.Random(n)
    for _ in range(10):
        a, b = tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))
        p, q = Permutation(a), Permutation(b)
        assert type(p.images) is (bytes if n <= 256 else tuple)
        assert tuple((p * q).images) == tuple(b[x] for x in a)
        assert tuple(p.inverse().images) == tuple(sorted(range(n), key=a.__getitem__))
        assert (p * p.inverse()).is_identity() and not p.is_identity()
        assert p == Permutation(list(a)) and p != q
        assert hash(p) == hash(int.from_bytes(bytes(a), "little") if n <= 256 else a)
    assert Permutation(range(n)).is_identity() and Permutation(range(n)) == Permutation.identity(n)
    assert len({Permutation(x) for x in (a, b, a, list(b))}) == 2


@pytest.mark.parametrize("n", [255, 256, 257])
def test_json_round_trip_at_the_packing_boundary(n):
    rng = random.Random(n)
    g = PermGroup([Permutation(rng.sample(range(n), n)) for _ in range(2)], degree=n)
    data = json.loads(dump_json(group_to_json(g)))
    assert data["generators"] == [list(p.images) for p in g.generators]
    assert group_from_json(data).generators == g.generators
