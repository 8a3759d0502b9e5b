"""Property-based checks of the core algebraic laws."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from permdec import PermGroup, Permutation, WreathSpec, decode, encode, intersect
from permdec.brute import product_set
from permdec.perm import pack
from permdec.structure import setwise_stabiliser

perm6 = st.permutations(list(range(6))).map(lambda im: Permutation(im))


@given(perm6, perm6)
def test_composition_acts_left_to_right(p, q):
    r = p * q
    for x in range(6):
        assert r.images[x] == q.images[p.images[x]]


@given(perm6)
def test_inverse(p):
    ident = Permutation.identity(6)
    assert p * p.inverse() == ident
    assert p.inverse() * p == ident


@given(perm6, perm6, perm6)
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(perm6, perm6)
def test_conjugation_is_homomorphism(p, q):
    assert (p * q).conjugate_by(q) == p.conjugate_by(q) * q.conjugate_by(q)
    assert p.conjugate_by(q).order() == p.order()


@given(perm6)
def test_order_annihilates(p):
    assert p ** p.order() == Permutation.identity(6)


@given(st.integers(2, 9), st.integers(2, 4), st.data())
def test_encode_decode_round_trip(base, ell, data):
    spec = WreathSpec(base, ell)
    if spec.degree > 10**5:
        return
    point = data.draw(st.integers(0, spec.degree - 1))
    coords = decode(spec, point)
    assert len(coords) == ell
    assert all(0 <= c < base for c in coords)
    assert encode(spec, coords) == point


def random_subgroup(rng, k=2):
    gens = [Permutation(rng.sample(range(6), 6)) for _ in range(k)]
    return PermGroup(gens)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_orbit_stabiliser_theorem(seed):
    rng = random.Random(seed)
    g = random_subgroup(rng)
    for point in range(6):
        orbit = g.orbit(point)
        stab = g.point_stabiliser(point)
        assert len(orbit) * stab.order() == g.order()


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_product_order_law(seed):
    rng = random.Random(seed)
    a = random_subgroup(rng)
    b = random_subgroup(rng)
    # |AB| counted on images: x's images translated by y's table are x * y's
    tables = [pack(y.images) for y in b.elements()]
    ab = {x.images.translate(t) for x in a.elements() for t in tables}
    inter = intersect(a, b)
    assert len(ab) * inter.order() == a.order() * b.order()


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_dedekind_modular_law(seed):
    # K <= L implies (KH) meet L = K(H meet L), as subsets of S6
    rng = random.Random(seed)
    l_grp = random_subgroup(rng)
    h = random_subgroup(rng)
    k = l_grp.point_stabiliser(rng.randrange(6))
    kh = product_set(k.elements(), h.elements())
    left = kh & l_grp.element_set()
    right = product_set(k.elements(), intersect(h, l_grp).elements())
    assert left == right


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_setwise_stabiliser_is_subgroup(seed):
    rng = random.Random(seed)
    g = random_subgroup(rng)
    block = rng.sample(range(6), rng.randrange(1, 6))
    stab = setwise_stabiliser(g, block)
    assert stab.is_subgroup_of(g)
    for x in stab.generators:
        assert x.act_on_set(block) == frozenset(block)
