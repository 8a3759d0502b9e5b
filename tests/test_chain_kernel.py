"""The stabiliser-chain kernel: pinned chains, deep chains, brute-force oracles."""

import hashlib
import math
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permdec import (
    DegreeMismatch,
    PermGroup,
    Permutation,
    coset_intersection,
    group_from_generators,
    intersect,
    normal_closure,
    setwise_stabiliser,
)
from permdec import group as group_module
from permdec.brute import mulclose
from permdec.perm import pack

C = Permutation.from_cycles


# --- pinned chains ----------------------------------------------------------
#
# Printed subgroup generators come from the chain, so the chain itself is
# pinned: base, orbit lengths, and a digest of each level's point,
# generators, orbit order and transversal images.


def _fingerprint(chain):
    payload = repr([
        (
            lv.point,
            [tuple(g.images) for g, _, _ in lv.gens],
            lv.orbit,
            [tuple(lv.u(b).images) for b in lv.orbit],
        )
        for lv in chain.levels
    ])
    return (
        chain.base,
        tuple(len(lv.orbit) for lv in chain.levels),
        hashlib.sha256(payload.encode()).hexdigest(),
    )


def _relabelled_symmetric(n):
    """Sym(n) from the adjacent transpositions of a seeded shuffle of its points."""
    pi = list(range(n))
    random.Random(n).shuffle(pi)
    gens = []
    for i in range(n - 1):
        images = list(range(n))
        a, b = pi[i], pi[i + 1]
        images[a], images[b] = b, a
        gens.append(Permutation(images))
    return PermGroup(gens)


def _m12():
    return PermGroup([
        C(12, [tuple(range(11))]),
        C(12, [(2, 6, 10, 7), (3, 9, 4, 5)]),
        C(12, [(0, 11), (1, 10), (2, 5), (3, 7), (4, 8), (6, 9)]),
    ])


def _a6_on_36():
    from permdec.atlas import load_case
    from permdec.structure import CosetAction, intersect

    case = load_case("A6_36")
    inter = intersect(case.subgroups["A"], case.subgroups["B"])
    return CosetAction(case.group, inter).image


def _pair_swaps(k):
    return PermGroup([C(2 * k, [(2 * i, 2 * i + 1)]) for i in range(k)])


PINNED = [
    (
        "S8",
        lambda: _relabelled_symmetric(8),
        (0, 4, 1, 2, 3, 6, 5),
        (8, 7, 6, 5, 4, 3, 2),
        "c6c7ec5eccecfedb5aa991e1362bad39204878e259ab502a52e6267f12a0eedd",
    ),
    (
        "M12",
        _m12,
        (0, 2, 1, 3, 4),
        (12, 11, 10, 9, 8),
        "0b1f6cab778b073c9ba8e77c8c2c0451c4b49976a987873ae9bc2b1321b33470",
    ),
    (
        "A6_36",
        _a6_on_36,
        (1, 0),
        (36, 10),
        "aad820d3706f6b76cfa801caf8eec7ebb1d41444b2d8bae04e9a3df2191818bf",
    ),
    (
        "2^16",
        lambda: _pair_swaps(16),
        tuple(range(0, 32, 2)),
        (2,) * 16,
        "ccb5bf3170383e188fd82f392ae313643834d48f503aefd149676fccabf5cb70",
    ),
    (
        "S12",
        lambda: _relabelled_symmetric(12),
        (9, 1, 6, 0, 2, 5, 4, 7, 3, 8, 10),
        (12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2),
        "146343f74e33abf18a453497d0ade0a81b9ade99ff520e944f84375c3b808b2c",
    ),
]


@pytest.mark.parametrize("name,make,base,orbits,digest", PINNED, ids=[p[0] for p in PINNED])
def test_chain_is_pinned(name, make, base, orbits, digest):
    assert _fingerprint(make().chain) == (base, orbits, digest)


def _assert_inverse_transversals(chain):
    for lv in chain.levels:
        assert lv.u(lv.point).is_identity()
        # a table at each orbit point of a list indexed by point, None elsewhere
        assert len(lv.inv) == chain.degree
        held = {x for x, table in enumerate(lv.inv) if table is not None}
        assert held == set(lv.transversal) == set(lv.orbit)
        for x in lv.orbit:
            assert type(lv.u(x).images) is type(lv.inv[x])  # bytes up to 256 points, else tuple
            assert lv.inv[x] == pack(lv.u(x).inverse().images)


@pytest.mark.parametrize("make", [p[1] for p in PINNED], ids=[p[0] for p in PINNED])
def test_pinned_chains_hold_inverse_transversals(make):
    # _fingerprint does not read inv, which is built from generator inverses
    _assert_inverse_transversals(make().chain)


# --- deep chains ------------------------------------------------------------


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_chain_depth_does_not_grow_the_call_stack():
    # 48 levels; a recursive completion needs a frame per level
    group = _pair_swaps(48)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        order = group.order()
    finally:
        sys.setrecursionlimit(limit)
    assert order == 2**48
    assert group.base == tuple(range(0, 96, 2))


def _count_products(monkeypatch):
    """Count the packed products of every chain built from now on (Schreier
    generators, sifts and u_x^-1): each chain binds the product
    ``group.product`` gives for its degree."""
    calls = [0]
    original = group_module.product

    def counted_product(degree):
        mul = original(degree)

        def counted(a, b):
            calls[0] += 1
            return mul(a, b)

        return counted

    monkeypatch.setattr(group_module, "product", counted_product)
    return calls


def test_pair_swap_chains_grow_quadratically(monkeypatch):
    # a sift skips each level whose point is fixed, so 2^k takes O(k^2)
    # products to build (4x from k = 32 to 64); with identity steps it is O(k^3)
    calls = _count_products(monkeypatch)
    # every Schreier generator of a pair swap is a generator the next level
    # holds, so no sweep sifts one (a sweep over all pairs sifts 120 at k = 16)
    sifts = _count_sifts(monkeypatch)
    assert _pair_swaps(16).order() == 2**16
    assert sifts[0] == 0
    built = {}
    for k in (32, 64):
        before = calls[0]
        group = _pair_swaps(k)
        assert group.order() == 2**k
        built[k] = calls[0] - before
    assert built[64] <= 4.5 * built[32]
    # sifting a member makes one product per pair it swaps
    swapped = random.Random(64).sample(range(64), 20)
    member = C(128, [(2 * i, 2 * i + 1) for i in swapped])
    before = calls[0]
    assert group.contains(member)
    assert calls[0] - before == len(swapped)


def test_relabelled_s16_sifts_each_schreier_generator_once_per_level(monkeypatch):
    # a sweep that sifts every pair again after each new generator makes 7,750
    calls = _count_products(monkeypatch)
    assert _relabelled_symmetric(16).order() == math.factorial(16)
    assert calls[0] <= 0.6 * 7750


# --- brute-force oracle -------------------------------------------------------


@st.composite
def generator_sets(draw, max_degree=7, max_size=3):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    perm = st.permutations(list(range(n))).map(Permutation)
    return n, draw(st.lists(perm, min_size=1, max_size=max_size))


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.integers(min_value=0, max_value=2**32))
def test_chain_matches_closure(gens_n, seed):
    n, gens = gens_n
    group = PermGroup(gens, degree=n)
    closure = mulclose(gens)
    assert group.order() == len(closure)
    assert group.element_set() == closure
    _assert_inverse_transversals(group.chain)
    rng = random.Random(seed)
    for _ in range(20):
        images = list(range(n))
        rng.shuffle(images)
        x = Permutation(images)
        assert group.contains(x) == (x in closure)
    for g in closure:
        assert group.contains(g)


# --- incremental re-sweeps ------------------------------------------------------


def _unproven(mp):
    """Make every sweep run to its end: no level is proven complete early."""
    mp.setattr(group_module._Chain, "_proven_complete", lambda chain, i: False)


def _every_pair_sifted(mp):
    """Make every sweep build its tree afresh and sift all its pairs:
    recompute_orbit marks no point kept, and no sweep ends early."""
    original = group_module._Level.recompute_orbit

    def keep_none(level, chain):
        level.tree = {}  # no old tree path to reuse
        original(level, chain)
        return set()

    mp.setattr(group_module._Level, "recompute_orbit", keep_none)
    _unproven(mp)


def _grown_fingerprints(gens, n):
    """The chains of the group of gens, grown from a redundant list, and of a normal closure."""
    pool = [*gens, *(a * b for a, b in zip(gens, gens[1:])), gens[0] * gens[0]]
    return [
        _fingerprint(PermGroup(gens, degree=n).chain),
        _fingerprint(group_from_generators(pool, n).chain),
        _fingerprint(normal_closure(PermGroup(gens, degree=n), [gens[-1] * gens[0]]).chain),
    ]


def _full_sweep_fingerprints(gens, n):
    with pytest.MonkeyPatch.context() as mp:
        _every_pair_sifted(mp)
        return _grown_fingerprints(gens, n)


@settings(max_examples=80, deadline=None)
@given(generator_sets(max_degree=10, max_size=4))
def test_incremental_sweeps_build_the_chains_of_full_sweeps(gens_n):
    n, gens = gens_n
    assert _grown_fingerprints(gens, n) == _full_sweep_fingerprints(gens, n)


def test_incremental_sweeps_build_relabelled_s12_as_full_sweeps(monkeypatch):
    calls = _count_products(monkeypatch)
    gens = list(_relabelled_symmetric(12).generators)
    got = _grown_fingerprints(gens, 12)
    incremental = calls[0]
    assert got == _full_sweep_fingerprints(gens, 12)
    assert incremental < calls[0] - incremental  # the reference sifts the skipped pairs


# --- sweeps that end once their level is proven complete -------------------------


def _count_proofs(monkeypatch):
    """Count the levels _proven_complete proves complete from now on."""
    proofs = [0]
    original = group_module._Chain._proven_complete

    def counted(chain, i):
        proven = original(chain, i)
        proofs[0] += proven
        return proven

    monkeypatch.setattr(group_module._Chain, "_proven_complete", counted)
    return proofs


def _unproven_fingerprints(build, *args):
    with pytest.MonkeyPatch.context() as mp:
        _unproven(mp)
        return build(*args)


@settings(max_examples=80, deadline=None)
@given(generator_sets(max_degree=10, max_size=4))
def test_proven_levels_build_the_chains_of_full_sweeps(gens_n):
    n, gens = gens_n
    assert _grown_fingerprints(gens, n) == _unproven_fingerprints(_grown_fingerprints, gens, n)


def test_proven_levels_build_relabelled_s12_as_full_sweeps(monkeypatch):
    proofs = _count_proofs(monkeypatch)
    gens = list(_relabelled_symmetric(12).generators)
    got = _grown_fingerprints(gens, 12)
    assert proofs[0] > 0
    assert got == _unproven_fingerprints(_grown_fingerprints, gens, 12)


def _atlas_fingerprints():
    """The chains of T and each K of the desk-scale atlas cases, and of each K
    rebased on the base of T and of every other K, all built afresh."""
    from permdec.atlas import load_case

    out = []
    for name in ("KLEIN_GRID", "A6_36", "M12_144", "SP62_63"):
        case = load_case(name)
        groups = [PermGroup(g.generators, degree=g.degree)
                  for g in (case.group, *case.subgroups.values())]
        out += [_fingerprint(g.chain) for g in groups]
        out += [_fingerprint(k.chain_with_base(g.base))
                for k in groups[1:] for g in groups if g is not k]
    return out


def test_proven_levels_build_the_atlas_chains_of_full_sweeps(monkeypatch):
    proofs = _count_proofs(monkeypatch)
    got = _atlas_fingerprints()
    assert proofs[0] > 0  # rebases whose laid-out orbits fall short of |K|
    assert got == _unproven_fingerprints(_atlas_fingerprints)


def test_the_stop_rule_reads_current_orbits(monkeypatch):
    # every level is laid out when its sweep is scheduled, so each proof reads
    # the orbit of each level's present generators
    from permdec.atlas import load_case

    reads = [0]
    original = group_module._Chain._proven_complete

    def checked(chain, i):
        reads[0] += 1
        for lv in chain.levels:
            gens = [g.images for g, _, _ in lv.gens]
            assert lv.orbit == list(group_module.orbit(lv.point, gens))
        return original(chain, i)

    monkeypatch.setattr(group_module._Chain, "_proven_complete", checked)
    for n in (8, 12, 16):
        assert _relabelled_symmetric(n).order() == math.factorial(n)
    for name in ("A6_36", "SP62_63", "M12_144"):
        g = load_case(name).group
        g = PermGroup(g.generators, degree=g.degree)
        for point in range(g.degree):
            assert g.point_stabiliser(point).order() * len(g.orbit(point)) == g.order()
    assert reads[0] > 0


def test_a_short_rebase_ends_its_sweep_at_the_known_order(monkeypatch):
    gens = [C(4, [(0, 1, 2, 3)]), C(4, [(0, 1)])]
    proofs = _count_proofs(monkeypatch)
    s4 = PermGroup(gens)
    assert s4.base == (0, 1, 2)
    proofs[0] = 0
    got = _fingerprint(s4.chain_with_base((0, 2)))
    assert proofs[0] > 0  # the sweep ends before its last pair
    assert got[:2] == ((0, 2, 1), (4, 3, 2))
    with pytest.MonkeyPatch.context() as mp:
        _unproven(mp)
        s4 = PermGroup(gens)
        s4.order()
        assert got == _fingerprint(s4.chain_with_base((0, 2)))


@pytest.mark.parametrize("gens,order", [
    # a two-point level 0 is left to its sweep
    ([C(5, [(0, 1), (2, 3, 4)])], 6),
    # the orbits of levels 0 and 1 have 3 and 2 points, 3! in all, but level 0's
    # generators also move 3 and 4, and (3 4) lies in the group
    ([C(5, [(0, 1, 2)]), C(5, [(0, 1)]), C(5, [(1, 2), (3, 4)])], 12),
])
def test_a_level_moving_points_off_its_orbit_is_not_proven_by_its_factorial(gens, order):
    group = PermGroup(gens)
    assert group.order() == order == len(mulclose(gens))
    _assert_inverse_transversals(group.chain)


def _count_sifts(monkeypatch):
    """Count the Schreier generators sifted: the _strip_images calls of a sweep,
    which start below level 0 (a membership query starts at level 0)."""
    calls = [0]
    original = group_module._Chain._strip_images

    def counted(chain, g, start=0):
        calls[0] += start > 0
        return original(chain, g, start)

    monkeypatch.setattr(group_module._Chain, "_strip_images", counted)
    return calls


def test_relabelled_s16_sifts_almost_no_schreier_generator(monkeypatch):
    # sweeps that run to their end sift 1,027 Schreier generators here; each
    # level of Sym(n) is proven complete by |orbit|! once its levels below are
    sifts = _count_sifts(monkeypatch)
    assert _relabelled_symmetric(16).order() == math.factorial(16)
    assert sifts[0] <= 0.05 * 1027


# --- one chain per derived group ------------------------------------------------


def _kept_by_membership(candidates, degree, conjugating=()):
    """Keep each candidate outside the group of those kept before it; each
    kept one queues its conjugates by the conjugating permutations."""
    kept = []
    queue = list(candidates)
    for x in queue:
        if not PermGroup(kept, degree=degree).contains(x):
            kept.append(x)
            queue += [x.conjugate_by(s) for s in conjugating]
    return kept


def _normal_closure_elements(g, seed):
    """The normal closure of seed in g as an element set, from closures alone."""
    gens = [seed]
    elements = mulclose(gens)
    while True:
        outside = [c for x in gens for s in g.generators
                   if (c := x.conjugate_by(s)) not in elements]
        if not outside:
            return elements
        gens.append(outside[0])
        elements = mulclose(gens)


def _random_perm(n, rng):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.integers(min_value=0, max_value=2**32))
def test_grown_chains_match_closure(gens_n, seed):
    n, gens = gens_n
    rng = random.Random(seed)
    group = PermGroup(gens, degree=n)
    closure = mulclose(gens)
    pool = [group.random_element(rng) for _ in range(3)] + [Permutation.identity(n)] + gens
    rng.shuffle(pool)
    grown = group_from_generators(pool, n)
    assert list(grown.generators) == _kept_by_membership(pool, n)
    assert grown.order() == len(closure)
    seed_element = group.random_element(rng)
    closed = normal_closure(group, [seed_element])
    want = _normal_closure_elements(group, seed_element)
    assert list(closed.generators) == _kept_by_membership([seed_element], n, gens)
    assert closed.order() == len(want)
    for _ in range(20):
        x = _random_perm(n, rng)
        assert grown.contains(x) == (x in closure)
        assert closed.contains(x) == (x in want)
    for x in rng.sample(sorted(want, key=lambda p: p.images), min(len(want), 10)):
        assert closed.contains(x)


def _count_completions(monkeypatch):
    calls = []
    original = group_module._Chain._complete

    def counted(chain, touched):
        calls.append(touched)
        return original(chain, touched)

    monkeypatch.setattr(group_module._Chain, "_complete", counted)
    return calls


def test_point_stabiliser_adopts_the_chain_it_reads(monkeypatch):
    m12 = _m12()
    first = m12.base[0]
    m12.order()
    calls = _count_completions(monkeypatch)
    stab = m12.point_stabiliser(first)
    assert stab.order() == 7920
    assert stab.contains(stab.generators[0] * stab.generators[-1])
    assert not stab.contains(m12.generators[0])
    assert calls == []
    assert all(a is b for a, b in zip(stab.chain.levels, m12.chain.levels[1:], strict=True))
    # another point needs one chain with that base, and no more
    other = m12.point_stabiliser(first + 1)
    assert other.order() == 7920 and other.contains(other.generators[0])
    assert len(calls) == 1


def test_point_stabiliser_is_made_once_per_point(monkeypatch):
    m12 = _m12()
    before = _fingerprint(m12.chain)
    points = (m12.base[0], m12.base[0] + 1)  # on the base and off it
    made = [m12.point_stabiliser(p) for p in points]
    for stab in made:
        stab.order()
    calls = _count_completions(monkeypatch)
    for point, stab in zip(points, made):
        again = m12.point_stabiliser(point)
        assert again is stab and again.order() == 7920
    assert calls == []
    assert _fingerprint(m12.chain) == before


@pytest.mark.parametrize("stabiliser_first", [False, True])
def test_orbit_transversal_and_point_stabiliser_share_one_chain(monkeypatch, stabiliser_first):
    m12 = _m12()
    m12.order()
    builds = []
    original = group_module._Chain.__init__

    def counted(chain, *args, **kwargs):
        builds.append(args)
        original(chain, *args, **kwargs)

    products = []
    multiply = Permutation.__mul__
    monkeypatch.setattr(group_module._Chain, "__init__", counted)
    monkeypatch.setattr(Permutation, "__mul__", lambda a, b: products.append(1) or multiply(a, b))
    calls = (m12.orbit_transversal, m12.point_stabiliser)
    assert 11 not in m12.base
    for point, want in ((m12.base[0], 0), (11, 1)):  # on the base and off it
        for call in reversed(calls) if stabiliser_first else calls:
            call(point)
        assert len(builds) == want  # the off-base point needs one rebased chain
        builds.clear()
        products.clear()
        trans = m12.orbit_transversal(point)  # read off that chain again, with no product
        assert products == []
        assert sorted(trans) == list(range(12))
        assert all(u.images[point] == beta for beta, u in trans.items())
        assert m12.point_stabiliser(point).order() == 7920 and builds == []


def test_orbit_transversal_of_the_trivial_group():
    trivial = PermGroup((), degree=4)
    assert trivial.orbit_transversal(2) == {2: Permutation.identity(4)}
    assert trivial.point_stabiliser(2).order() == 1


# --- rebases ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(generator_sets(max_degree=8), st.data())
def test_rebase_keeps_the_prefix_and_the_group(gens_n, data):
    n, gens = gens_n
    prefix = tuple(data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
    group = PermGroup(gens, degree=n)
    chain = group.chain_with_base(prefix)
    closure = mulclose(gens)
    # a chain shorter than the prefix ends where the group fixes the rest
    assert chain.base[:len(prefix)] == prefix[:len(chain.base)]
    assert chain.order() == group.order() == len(closure)
    _assert_inverse_transversals(chain)
    for i, lv in enumerate(chain.levels):
        assert all(g.images[b] == b for g, _, _ in lv.gens for b in chain.base[:i])
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for x in [*(_random_perm(n, rng) for _ in range(20)), *closure]:
        assert chain.contains(x) == (x in closure)


def test_rebase_sweeps_when_the_strong_generators_fall_short(monkeypatch):
    s4 = PermGroup([C(4, [(0, 1, 2, 3)]), C(4, [(0, 1)])])
    assert s4.base == (0, 1, 2)
    calls = _count_completions(monkeypatch)
    chain = s4.chain_with_base((0, 2))
    assert len(calls) == 1
    assert chain.base == (0, 2, 1) and chain.order() == 24
    _assert_inverse_transversals(chain)


def test_rebase_stops_at_the_known_order(monkeypatch):
    # A of the A6_36 case on the base of B: its strong generators lay out
    # orbits of 5, 4 and 3 points there, so no Schreier generator is sifted.
    # Built from the case's generator lists, each group keeps its own base
    # (load_case lays both out on T's base).
    from permdec.atlas import load_case

    case = load_case("A6_36")
    a, b = (PermGroup(case.subgroups[k].generators) for k in "AB")
    assert a.order() == b.order() == 60
    sifts = _count_sifts(monkeypatch)
    chain = a.chain_with_base(b.base)
    assert sifts == [0]
    assert chain.base == b.base == (0, 1, 2)
    assert [len(lv.orbit) for lv in chain.levels] == [5, 4, 3]
    _assert_inverse_transversals(chain)
    assert all(chain.contains(x) for x in a.generators)
    assert not all(chain.contains(x) for x in b.generators)


def test_chain_with_base_is_the_cached_chain_on_its_own_base():
    m12 = _m12()
    for k in (1, len(m12.base)):
        assert m12.chain_with_base(m12.base[:k]) is m12.chain


def test_off_base_point_stabiliser_is_laid_out_at_the_known_order(monkeypatch):
    # 11 is off M12's base; the strong generators rebased there reach |M12|, so no
    # Schreier generator is sifted
    m12 = _m12()
    m12.order()
    assert 11 not in m12.base
    sifts = _count_sifts(monkeypatch)
    stab = m12.point_stabiliser(11)
    assert stab.order() == 7920
    assert sifts == [0]
    assert all(g.images[11] == 11 and m12.contains(g) for g in stab.generators)


@settings(max_examples=60, deadline=None)
@given(generator_sets(max_degree=8), st.integers(min_value=0, max_value=2**32))
def test_point_stabilisers_match_closure(gens_n, seed):
    n, gens = gens_n
    group = PermGroup(gens, degree=n)
    closure = sorted(mulclose(gens), key=lambda x: x.images)
    rng = random.Random(seed)
    for point in range(n):
        want = {x for x in closure if x.images[point] == point}
        stab = group.point_stabiliser(point)
        assert stab.order() == len(want)
        assert all(x in want for x in stab.generators)
        for x in rng.sample(closure, min(len(closure), 10)):
            assert stab.contains(x) == (x in want)


@settings(max_examples=60, deadline=None)
@given(generator_sets(max_degree=8), st.data())
def test_intersection_with_an_overgroup_is_the_subgroup(gens_n, data):
    n, gens = gens_n
    b = PermGroup(gens, degree=n)
    closure = sorted(mulclose(gens), key=lambda x: x.images)
    a_gens = data.draw(st.lists(st.sampled_from(closure), max_size=3))
    a = PermGroup(a_gens, degree=n)
    want = mulclose(a_gens) or {a.identity}
    for got in (intersect(a, b), intersect(b, a)):
        assert got.same_group(a)
        assert got.order() == len(want)
        assert all(x in want for x in got.generators)


def test_derived_groups_leave_the_parent_chain_unchanged():
    m12 = _m12()
    before = _fingerprint(m12.chain)
    stab = m12.point_stabiliser(m12.base[0])
    stab.order()
    stab.point_stabiliser(stab.base[0]).order()
    normal_closure(stab, [stab.generators[0]]).order()
    normal_closure(m12, [m12.generators[1]]).order()
    group_from_generators(list(stab.generators) + list(m12.generators), 12).order()
    assert _fingerprint(m12.chain) == before


# --- one base per ambient group -----------------------------------------------------


@st.composite
def groups_on_one_base(draw):
    """Degree n <= 8, an ordering of the points, and two groups laid out on it, each
    moving at most 5 points; each base is a prefix of the ordering."""
    n = draw(st.integers(min_value=2, max_value=8))
    points = draw(st.permutations(list(range(n))))
    groups = []
    for _ in "ab":
        support = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=2, max_size=5))
        gens = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            images = list(range(n))
            for src, dst in zip(support, draw(st.permutations(support))):
                images[src] = dst
            gens.append(Permutation(images))
        groups.append(group_module.on_base(gens, n, points))
    return n, points, *groups


@settings(max_examples=80, deadline=None)
@given(groups_on_one_base(), st.data())
def test_searches_on_one_base_read_each_others_chains(groups, data):
    # the bases agree as far as both go, so neither chain is rebuilt
    n, points, a, b = groups
    assume(len(a.base) != len(b.base))
    assert points[:len(a.base)] == list(a.base) and points[:len(b.base)] == list(b.base)
    closure_a, closure_b = mulclose(a.generators), mulclose(b.generators)
    x, y = (data.draw(st.permutations(list(range(n))).map(Permutation)) for _ in "xy")
    cosets = {h * x for h in closure_a} & {k * y for k in closure_b}
    for (p, v), (q, w) in [((a, x), (b, y)), ((b, y), (a, x))]:
        assert q.chain_with_base(p.base) is q.chain
        assert intersect(p, q).element_set() == closure_a & closure_b
        got = coset_intersection([(p, v), (q, w)])
        assert (set() if got is None else set(got.elements())) == cosets


def _rebuilds_in_searches(monkeypatch):
    """Count the chains chain_with_base rebuilds inside intersect or _find_in_coset."""
    calls = [0]
    original = group_module._Chain.__init__

    def counted(chain, *args, **kwargs):
        frame, names = sys._getframe(1), []
        while frame is not None:
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        calls[0] += names[0] == "chain_with_base" and bool({"intersect", "_find_in_coset"} & {*names})
        original(chain, *args, **kwargs)

    monkeypatch.setattr(group_module._Chain, "__init__", counted)
    return calls


@pytest.mark.parametrize("case", ["SP62_63", "A6_36", "KLEIN_GRID", "M12_144"])
def test_case_searches_rebuild_no_chain(monkeypatch, case):
    # 2, 6, 0 and 6 rebuilds when each case subgroup chose its own base
    from permdec.atlas import verify_case

    calls = _rebuilds_in_searches(monkeypatch)
    assert verify_case(case)["ok"]
    assert calls == [0]


def test_case_subgroups_are_laid_out_on_the_base_of_t():
    from permdec.atlas import list_cases, load_case

    cases = [load_case(name) for name, _, desk_scale in list_cases() if desk_scale]
    assert len(cases) == 4
    for case in cases:
        for sub in case.subgroups.values():
            assert sub.base == case.group.base[:len(sub.base)]


def test_search_results_are_laid_out_on_the_searched_base(monkeypatch):
    from permdec import structure
    from permdec.atlas import verify_case

    pairs = []
    original = structure._Backtrack.subgroup

    def recorded(search, root):
        result = original(search, root)
        pairs.append((search.chain.base, result.base))
        return result

    monkeypatch.setattr(structure._Backtrack, "subgroup", recorded)
    for case in ("SP62_63", "A6_36", "KLEIN_GRID", "M12_144"):
        assert verify_case(case)["ok"]
    assert len(pairs) > 20
    assert all(got == searched[:len(got)] for searched, got in pairs)


# --- small degrees --------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2])
def test_products_at_small_degree(n):
    ident = Permutation.identity(n)
    assert ident.is_identity()
    assert tuple((ident * ident).images) == tuple(range(n))
    assert (ident * ident).is_identity()
    assert ident.inverse() == ident
    assert PermGroup((), degree=n).order() == 1
    assert PermGroup([ident], degree=n).contains(ident)


def test_degree_two_swap():
    s = Permutation([1, 0])
    assert not s.is_identity()
    assert (s * s).is_identity()
    assert tuple((s * s).images) == (0, 1)
    assert s * Permutation.identity(2) == s
    group = PermGroup([s])
    assert group.order() == 2
    assert group.contains(s)


@pytest.mark.parametrize("m,n", [(0, 1), (1, 2), (2, 3), (3, 2), (255, 256), (256, 257), (257, 256)])
def test_product_degree_mismatch(m, n):
    with pytest.raises(DegreeMismatch):
        Permutation.identity(m) * Permutation.identity(n)
    with pytest.raises(DegreeMismatch):
        PermGroup((), degree=n).contains(Permutation.identity(m))


# --- packed images and image tuples -------------------------------------------------


def _affine_256(pad):
    """<x -> x + 1, x -> 3x> on Z/256, of order 256 * 64, with pad fixed points after 255."""
    return PermGroup([
        Permutation([(x + 1) % 256 for x in range(256)] + list(range(256, 256 + pad))),
        Permutation([3 * x % 256 for x in range(256)] + list(range(256, 256 + pad))),
    ])


def test_chain_above_256_points_is_the_packed_one():
    # up to 256 points a level stores u_x^-1 as a 256-byte table, above 256 as
    # the image tuple; fixed points padded past 255 change neither the chain nor membership
    small, padded = _affine_256(0), _affine_256(4)
    assert small.order() == padded.order() == 256 * 64
    assert small.base == padded.base
    for lv, lw in zip(small.chain.levels, padded.chain.levels, strict=True):
        assert type(lv.inv[lv.point]) is bytes and type(lw.inv[lw.point]) is tuple
        assert lv.orbit == lw.orbit
        for x in lv.orbit:
            assert tuple(lv.u(x).images) == lw.u(x).images[:256]
            assert tuple(lv.u(x).inverse().images) == lw.u(x).inverse().images[:256]
    _assert_inverse_transversals(small.chain)
    _assert_inverse_transversals(padded.chain)

    rng = random.Random(256)
    queries = [small.random_element(rng).images for _ in range(20)]
    queries += [[5 * x % 256 for x in range(256)]]  # 5 is not a power of 3 mod 256
    queries += [rng.sample(range(256), 256) for _ in range(20)]
    answers = [small.contains(Permutation(q)) for q in queries]
    assert answers == [padded.contains(Permutation([*q, 256, 257, 258, 259])) for q in queries]
    assert answers == [True] * 20 + [False] * 21
    assert not padded.contains(C(260, [(255, 256)]))

    # <x -> x + 1, x -> 2x> on Z/255, of order 255 * 8, one point short of 256
    below = PermGroup([Permutation([(x + 1) % 255 for x in range(255)]),
                       Permutation([2 * x % 255 for x in range(255)])])
    assert below.order() == 255 * 8
    assert all(type(lv.inv[lv.point]) is bytes for lv in below.chain.levels)
    _assert_inverse_transversals(below.chain)
    queries = [below.random_element(rng) for _ in range(20)]
    queries += [Permutation([7 * x % 255 for x in range(255)])]  # 7 is not a power of 2 mod 255
    queries += [Permutation(rng.sample(range(255), 255)) for _ in range(20)]
    assert [below.contains(q) for q in queries] == [True] * 20 + [False] * 21


def _on_z256(pad, *maps):
    """The group of the maps of Z/256, each with pad fixed points after 255."""
    fixed = list(range(256, 256 + pad))
    return PermGroup([Permutation([f(x) % 256 for x in range(256)] + fixed) for f in maps],
                     degree=256 + pad)


def _searches(pad):
    """intersect, setwise_stabiliser and the coset search on Z/256 with pad fixed points;
    each answer's images on the first 256 points."""
    affine = _affine_256(pad)
    shifts = _on_z256(pad, lambda x: x + 1)
    b = _on_z256(pad, lambda x: 3 * x, lambda x: x + 2)
    even_shifts = _on_z256(pad, lambda x: x + 2)
    t = _on_z256(pad, lambda x: 3 * x).generators[0]
    found = [intersect(shifts, b), setwise_stabiliser(affine, {0, 128})]
    hit = coset_intersection([(shifts, t), (b, b.identity)])
    miss = coset_intersection([(shifts, t), (even_shifts, even_shifts.identity)])
    assert miss is None  # shifts * t multiplies by 3, even_shifts by 1
    assert b.contains(hit.representative) and shifts.contains(hit.representative * t.inverse())
    for x in (hit.representative, *(g for k in (*found, hit.subgroup) for g in k.generators)):
        assert tuple(x.images[256:]) == tuple(range(256, 256 + pad))
    return ([k.order() for k in (*found, hit.subgroup)],
            [[tuple(g.images[:256]) for g in k.generators] for k in (*found, hit.subgroup)],
            tuple(hit.representative.images[:256]))


def test_backtrack_searches_above_256_points_agree_with_the_packed_ones():
    # above 256 points _in_coset inverts u_x on image tuples, up to 256 on bytes
    small, padded = _searches(0), _searches(4)
    assert small == padded
    # shifts by even numbers; x -> ax + b with b in {0, 128}; the coset of the even shifts
    assert small[0] == [128, 128, 128]
