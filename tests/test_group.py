import random

import pytest

from permdec import (
    DegreeMismatch,
    InvalidInput,
    NotTransitive,
    PermGroup,
    Permutation,
    group_from_generators,
)
from permdec.group import orbit

C = Permutation.from_cycles

KNOWN_ORDERS = [
    ([C(4, [(0, 1, 2, 3)]), C(4, [(0, 1)])], 24),
    ([C(5, [(0, 1, 2, 3, 4)]), C(5, [(0, 1)])], 120),
    ([C(6, [(0, 1, 2, 3, 4)]), C(6, [(1, 2, 3, 4, 5)])], 360),
    ([C(7, [(0, 1, 2, 3, 4, 5, 6)]), C(7, [(0, 1)])], 5040),
    ([C(4, [(0, 1), (2, 3)]), C(4, [(0, 2), (1, 3)])], 4),
    ([C(11, [(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)]),
      C(11, [(2, 6, 10, 7), (3, 9, 4, 5)])], 7920),
]


@pytest.mark.parametrize("gens,order", KNOWN_ORDERS)
def test_known_orders(gens, order):
    assert PermGroup(gens).order() == order


def test_m12_order():
    gens = [
        C(12, [tuple(range(11))]),
        C(12, [(2, 6, 10, 7), (3, 9, 4, 5)]),
        C(12, [(0, 11), (1, 10), (2, 5), (3, 7), (4, 8), (6, 9)]),
    ]
    g = PermGroup(gens, name="M12")
    assert g.order() == 95040
    assert g.is_transitive()


def test_membership_matches_enumeration(s4):
    elements = s4.element_set()
    assert len(elements) == 24
    import itertools

    for images in itertools.permutations(range(4)):
        assert s4.contains(Permutation(images)) == (Permutation(images) in elements)


def test_orbit_and_transversal(a6):
    trans = a6.orbit_transversal(2)
    assert a6.orbit(2) == tuple(range(6))
    for beta, u in trans.items():
        assert u.images[2] == beta


def test_orbit_tree_is_breadth_first(a6):
    gens = a6.generators
    tree = orbit(2, [s.images for s in gens])
    assert tree[2] is None and sorted(tree) == list(range(6))
    order = {x: i for i, x in enumerate(tree)}
    for x, edge in tree.items():
        if edge is not None:
            parent, j = edge
            assert order[parent] < order[x] and gens[j].images[parent] == x


def test_point_stabiliser_matches_enumeration(s4, a6):
    fixing = PermGroup([C(5, [(0, 1), (2, 3)]), C(5, [(0, 2), (1, 3)])])
    for g in (s4, a6, fixing, PermGroup((), degree=3)):
        for point in range(g.degree):
            want = {x for x in g.elements() if x.images[point] == point}
            assert g.point_stabiliser(point).element_set() == want


def test_point_stabiliser(a6):
    stab = a6.point_stabiliser(0)
    assert stab.order() == 60
    assert all(g.images[0] == 0 for g in stab.generators)


def test_elements_deterministic(s4):
    assert s4.elements() == s4.elements()
    assert len(s4.elements()) == s4.order()


def test_chain_with_base_prefix(a6):
    chain = a6.chain_with_base([3, 1, 4])
    assert chain.base[:3] == (3, 1, 4)
    assert chain.order() == 360


def test_random_element_is_member(a6):
    rng = random.Random(11)
    for _ in range(20):
        assert a6.contains(a6.random_element(rng))


def test_group_from_generators_drops_redundant(s4):
    redundant = s4.elements()[:10] + list(s4.generators)
    g = group_from_generators(redundant, 4)
    assert g.order() == 24
    assert len(g.generators) <= 4


def test_same_group_and_subgroup(s4, klein):
    assert klein.is_subgroup_of(s4)
    assert not s4.is_subgroup_of(klein)
    other = PermGroup([C(4, [(0, 2), (1, 3)]), C(4, [(0, 3), (1, 2)])])
    assert klein.same_group(other)


def test_same_group_with_equal_orders_is_not_equality(s4, klein):
    # three subgroups of S4 of order 4: the normal Klein group, another Klein group, C4
    others = [PermGroup([C(4, [(0, 1)]), C(4, [(2, 3)])]), PermGroup([C(4, [(0, 1, 2, 3)])])]
    for other in others:
        assert other.order() == klein.order() == 4
        assert not klein.same_group(other) and not other.same_group(klein)
        assert other.same_group(PermGroup(other.generators[::-1]))
    # one inclusion decides only at equal orders
    assert klein.is_subgroup_of(s4) and not klein.same_group(s4)


def test_trivial_group():
    t = PermGroup((), degree=5)
    assert t.order() == 1
    assert t.is_trivial()
    assert not t.is_transitive()


def test_empty_generators_need_a_degree():
    with pytest.raises(InvalidInput):
        PermGroup(())


def test_require_transitive(klein):
    klein.require_transitive()
    with pytest.raises(NotTransitive):
        PermGroup((), degree=3).require_transitive()


@pytest.mark.parametrize("call", [
    lambda: PermGroup([C(4, [(0, 1)]), C(5, [(0, 1)])]),
    lambda: PermGroup([C(4, [(0, 1)])]).is_subgroup_of(PermGroup([C(5, [(0, 1)])])),
], ids=["generators", "subgroup test"])
def test_degrees_must_agree(call):
    with pytest.raises(DegreeMismatch):
        call()
