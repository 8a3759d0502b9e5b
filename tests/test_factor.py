import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permdec import (
    Automorphism,
    BudgetExceeded,
    DegreeMismatch,
    NotFactorisation,
    NotSubgroup,
    PermGroup,
    Permutation,
    conjugation_transitivity_check,
    equivalent_factorisations,
    intersect,
    is_factorisation,
    is_full_factorisation,
    is_strong_multiple_factorisation,
    normaliser_in,
)
from permdec import atlas, cartesian, factor, io, structure
from permdec.brute import product_set
from permdec.factor import _eq2, _find_conjugator, prime_divisors

C = Permutation.from_cycles


def a5_pair(a6):
    """The two natural A5 point stabilisers inside A6 on 6 points."""
    return a6.point_stabiliser(0), a6.point_stabiliser(1)


def test_prime_divisors():
    assert prime_divisors(360) == (2, 3, 5)
    assert prime_divisors(1) == ()
    assert prime_divisors(97) == (97,)


def test_a6_full_factorisation(a6_case):
    t = a6_case.group
    a, b = a6_case.subgroups["A"], a6_case.subgroups["B"]
    report = is_full_factorisation(t, a, b)
    assert report.holds and report.full
    assert report.orders == (60, 60, 10, 360)
    assert report.prime_sets == ((2, 3, 5),) * 3


def test_conjugate_a5_pair_is_not_factorisation(a6):
    a, b = a5_pair(a6)
    report = is_factorisation(a6, a, b)
    assert not report.holds
    assert report.witness is not None
    # 60 * 60 != 360 * |A intersect B| since the intersection has order 12
    assert report.orders[2] == 12


def test_s4_factorisation_not_full(s4):
    s3 = PermGroup([C(4, [(0, 1, 2)]), C(4, [(0, 1)])])
    c4 = PermGroup([C(4, [(0, 1, 2, 3)])])
    report = is_factorisation(s4, s3, c4)
    assert report.holds and not report.full
    assert is_full_factorisation(s4, s3, c4).holds is False
    assert is_full_factorisation(s4, s3, c4).witness == "prime divisor sets differ"


def test_m12_full_factorisation(m12_case):
    t = m12_case.group
    a, b = m12_case.subgroups["A"], m12_case.subgroups["B"]
    report = is_full_factorisation(t, a, b)
    assert report.holds and report.full
    assert report.orders == (7920, 7920, 660, 95040)


def test_equal_factor_orders(a6_case, m12_case):
    for case in (a6_case, m12_case):
        a, b = case.subgroups["A"], case.subgroups["B"]
        assert a.order() == b.order()


def test_intersection_self_normalising(a6_case, m12_case):
    for case in (a6_case, m12_case):
        t = case.group
        inter = intersect(case.subgroups["A"], case.subgroups["B"])
        assert normaliser_in(t, inter).same_group(inter)


def test_not_subgroup_rejected(a6):
    outside = PermGroup([C(6, [(0, 1)])])
    with pytest.raises(NotSubgroup):
        is_factorisation(a6, outside, a6)


def test_order_obstruction(s4, klein):
    # |V4||A3| = 12 < 24, so the product cannot cover S4
    a3 = PermGroup([C(4, [(0, 1, 2)])])
    report = is_factorisation(s4, klein, a3)
    assert not report.holds
    assert not is_factorisation(s4, a3, a3).holds


# --- strong multiple factorisations --------------------------------------------


def test_sp62_strong_multiple(sp62_case):
    t = sp62_case.group
    subs = [sp62_case.subgroups[k] for k in ("K1", "K2", "K3")]
    report = is_strong_multiple_factorisation(t, subs)
    assert report.holds and not report.trivial
    assert sorted(report.orders) == [12096, 40320, 51840]
    assert report.intersection_order == 12
    assert report.omega_prediction == 120960


def test_sp62_others_orders_are_the_pairwise_intersections(sp62_case):
    t = sp62_case.group
    k1, k2, k3 = (sp62_case.subgroups[k] for k in ("K1", "K2", "K3"))
    report = is_strong_multiple_factorisation(t, [k1, k2, k3])
    assert report.others_orders == (1440, 336, 432)
    assert report.others_orders[0] == intersect(k2, k3).order()
    assert json.loads(io.dump_json(report))["others_orders"] == [1440, 336, 432]


def _small_subgroup(n, rng):
    """A subgroup of Sym(n) of order at most 720 on one or two random generators."""
    while True:
        gens = []
        for _ in range(rng.randint(1, 2)):
            support = rng.sample(range(n), rng.randint(2, n))
            images = list(range(n))
            for src, dst in zip(support, rng.sample(support, len(support))):
                images[src] = dst
            gens.append(Permutation(images) ** rng.randint(1, 3))
        group = PermGroup(gens, degree=n)
        if group.order() <= 720:
            return group


@pytest.mark.parametrize("n", [6, 7])
def test_eq2_intersections_match_enumeration(n):
    # lists of 1-4 members, drawn with repeats from random subgroups plus the
    # trivial and the whole group; every intersection the routine returns must
    # be the intersection of the members' element sets
    rng = random.Random(600 + n)
    t = PermGroup([C(n, [tuple(range(n))]), C(n, [(0, 1)])])
    pool = [PermGroup((), degree=n), t] + [_small_subgroup(n, rng) for _ in range(6)]
    sets = {id(k): k.element_set() for k in pool}
    t_set = sets[id(t)]
    for _ in range(30):
        subs = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        inter_all, others, eq2 = _eq2(t, subs)
        assert inter_all.element_set() == t_set.intersection(*(sets[id(k)] for k in subs))
        assert len(others) == len(eq2) == len(subs)
        for i, k in enumerate(subs):
            rest = t_set.intersection(*(sets[id(j)] for j in subs[:i] + subs[i + 1:]))
            assert others[i].element_set() == rest
            if len(sets[id(k)]) * len(rest) <= 40000:
                assert eq2[i] == (product_set(k.elements(), others[i].elements()) == t_set)


def _count_intersect(monkeypatch):
    calls = []
    original = structure.intersect

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (atlas, cartesian, factor, structure):
        monkeypatch.setattr(module, "intersect", counted)
    return calls


def test_eq2_makes_each_intersection_once(monkeypatch, s4):
    # prefix and suffix folds: 3l - 5 intersect calls for l >= 2 members
    members = [
        PermGroup([C(4, [(0, 1)])]),
        PermGroup([C(4, [(1, 2)])]),
        PermGroup([C(4, [(2, 3)])]),
        PermGroup([C(4, [(0, 1, 2)])]),
    ]
    for count, want in ((0, 0), (1, 0), (2, 1), (3, 4), (4, 7)):
        calls = _count_intersect(monkeypatch)
        inter_all, others, _ = _eq2(s4, members[:count])
        assert len(calls) == want
    assert inter_all.is_trivial() and len(others) == 4
    assert _eq2(s4, [])[0] is s4 and _eq2(s4, members[:1])[1] == [s4]


def test_sp62_verify_intersects_four_times(monkeypatch):
    calls = _count_intersect(monkeypatch)
    assert atlas.verify_case("SP62_63")["ok"]
    assert len(calls) == 4


def test_smf_needs_three(a6):
    a, b = a5_pair(a6)
    with pytest.raises(ValueError):
        is_strong_multiple_factorisation(a6, [a, b])


def test_klein_triple_fails(klein):
    k1 = PermGroup([C(4, [(0, 1), (2, 3)])])
    k2 = PermGroup([C(4, [(0, 2), (1, 3)])])
    k3 = PermGroup([C(4, [(0, 3), (1, 2)])])
    report = is_strong_multiple_factorisation(klein, [k1, k2, k3])
    assert not report.holds
    assert not any(report.per_index)


def test_smf_trivial_member(klein):
    k1 = PermGroup([C(4, [(0, 1), (2, 3)])])
    k2 = PermGroup([C(4, [(0, 2), (1, 3)])])
    report = is_strong_multiple_factorisation(klein, [klein, k1, k2])
    assert report.trivial
    assert not report.holds


# --- conjugation transitivity ----------------------------------------------------


def test_conjugation_transitivity_a6(a6_case):
    t = a6_case.group
    a, b = a6_case.subgroups["A"], a6_case.subgroups["B"]
    assert conjugation_transitivity_check(t, a, b)
    assert conjugation_transitivity_check(t, b, a)


def test_conjugation_transitivity_s4(s4):
    s3 = PermGroup([C(4, [(0, 1, 2)]), C(4, [(0, 1)])])
    c4 = PermGroup([C(4, [(0, 1, 2, 3)])])
    assert conjugation_transitivity_check(s4, s3, c4)


def test_conjugation_requires_factorisation(a6):
    a, b = a5_pair(a6)
    with pytest.raises(NotFactorisation):
        conjugation_transitivity_check(a6, a, b)


S6_PERMS = st.permutations(range(6)).map(Permutation)


@settings(max_examples=60, deadline=None)
@given(x=S6_PERMS, ys=st.lists(S6_PERMS, min_size=1, max_size=2), swap=st.booleans())
@example(x=C(6, [tuple(range(6))]), ys=[C(6, [(1, 2, 3, 4, 5)]), C(6, [(1, 2)])], swap=False)
@example(x=C(6, [(0, 1, 2)]), ys=[C(6, [(3, 4, 5)]), C(6, [(0, 3)])], swap=True)
def test_factorisation_matches_product_set(x, ys, swap):
    # G = <A, B> for one cyclic subgroup of S6 and one on one or two generators,
    # in either order; the order identity must agree with the listed product set
    a, b = PermGroup([x]), PermGroup(ys)
    if swap:
        a, b = b, a
    g = PermGroup([x, *ys])
    holds = product_set(a.elements(), b.elements()) == g.element_set()
    assert is_factorisation(g, a, b).holds == holds


def _conjugation_orbit(a, b):
    """{B^x : x in A}, each conjugate as its element set."""
    elements = b.elements()
    return {frozenset(e.conjugate_by(x) for e in elements) for x in a.elements()}


def test_conjugation_orbit_sizes_by_enumeration(a6_case, s4):
    s3 = PermGroup([C(4, [(0, 1, 2)]), C(4, [(0, 1)])])
    c4 = PermGroup([C(4, [(0, 1, 2, 3)])])
    a6_pair = (a6_case.group, a6_case.subgroups["A"], a6_case.subgroups["B"])
    for g, a, b in (a6_pair, (s4, s3, c4)):
        for x, y in ((a, b), (b, a)):
            orbit = _conjugation_orbit(x, y)
            assert len(orbit) == x.order() // normaliser_in(x, y).order()
            transitive = orbit == _conjugation_orbit(g, y)
            assert conjugation_transitivity_check(g, x, y) == transitive


def test_conjugation_trivial_b(s4):
    assert conjugation_transitivity_check(s4, s4, PermGroup((), degree=4))


def test_conjugation_budget(m12_case, monkeypatch):
    # N_T(B) takes 79 nodes; the conjugation check's normalisers have no order cap
    t, b = m12_case.group, m12_case.subgroups["B"]
    monkeypatch.setattr(structure, "DEFAULT_NODE_BUDGET", 50)
    with pytest.raises(BudgetExceeded, match="normaliser search exceeded 50 nodes"):
        normaliser_in(t, b)
    monkeypatch.setattr(structure, "DEFAULT_NODE_BUDGET", 79)
    assert normaliser_in(t, b).order() == 7920


# --- automorphisms and equivalence -------------------------------------------------


def test_identity_automorphism(a6_case):
    t = a6_case.group
    a, b = a6_case.subgroups["A"], a6_case.subgroups["B"]
    ident = Automorphism.identity()
    assert equivalent_factorisations(t, (a, b), (a, b), [ident])
    # pairs are unordered, so reversing the pair changes nothing
    assert equivalent_factorisations(t, (a, b), (b, a), [ident])


def test_theta_swaps_a5_classes(a6_case):
    t = a6_case.group
    a, b = a6_case.subgroups["A"], a6_case.subgroups["B"]
    theta = a6_case.outer_automorphism
    assert theta is not None
    # the two point-stabiliser classes of A5 inside A6 are not fused by
    # conjugation, but theta maps one onto the other
    assert _find_conjugator(t, a, b) is None
    assert _find_conjugator(t, theta.apply_group(a), b) is not None
    assert equivalent_factorisations(t, (a, b), (b, a), [theta])


def test_find_conjugator_reaches_every_conjugate(s4):
    # paths in the conjugation tree of <(0 1)> under S4 run up to three edges deep
    h = PermGroup([C(4, [(0, 1)])])
    for y in s4.elements():
        k = PermGroup([g.conjugate_by(y) for g in h.generators])
        x = _find_conjugator(s4, h, k)
        assert s4.contains(x)
        assert PermGroup([g.conjugate_by(x) for g in h.generators]).same_group(k)
    assert _find_conjugator(s4, h, PermGroup([C(4, [(0, 1), (2, 3)])])) is None


def test_find_conjugator_degree_mismatch(s4):
    with pytest.raises(DegreeMismatch):
        _find_conjugator(s4, PermGroup([C(5, [(0, 1)])]), PermGroup([C(5, [(1, 2)])]))


def conjugates(g, h, k):
    """The x in g with h^x = k, by enumeration."""
    if h.order() != k.order():
        return []
    k_set = k.element_set()
    return [x for x in g.elements() if all(s.conjugate_by(x) in k_set for s in h.generators)]


@pytest.mark.parametrize("n", [6, 8])
def test_find_conjugator_matches_enumeration(n):
    # k is h conjugated by an element of g, of Sym(n), or an unrelated group
    rng = random.Random(800 + n)
    sym = PermGroup([C(n, [tuple(range(n))]), C(n, [(0, 1)])])

    def small_group():
        while True:
            group = PermGroup([sym.random_element(rng) for _ in range(rng.randint(1, 2))])
            if group.order() <= 2000:
                return group

    outcomes = set()
    for i in range(60):
        g, h = small_group(), small_group()
        if i % 3 == 2:
            k = small_group()
        else:
            y = (g if i % 3 == 0 else sym).random_element(rng)
            k = PermGroup([s.conjugate_by(y) for s in h.generators])
        x = _find_conjugator(g, h, k)
        found = conjugates(g, h, k)
        outcomes.add(x is None)
        assert (x is None) == (not found)
        assert x is None or x in found
    assert outcomes == {True, False}


def test_equivalence_pair_search_matches_enumeration():
    # S6 = S5 X for S5 the stabiliser of 0 and X either regular group of
    # order 6; S5 conjugates onto S5^y for every y, but C6 never onto S3
    s6 = PermGroup([C(6, [tuple(range(6))]), C(6, [(0, 1)])])
    s5 = s6.point_stabiliser(0)
    c6 = PermGroup([C(6, [tuple(range(6))])])
    s3 = PermGroup([C(6, [(0, 1, 2), (3, 5, 4)]), C(6, [(0, 3), (1, 4), (2, 5)])])
    rng = random.Random(900)
    first_only = 0
    for x in (c6, s3) * 6:
        y, z, r = (s6.random_element(rng) for _ in range(3))
        pair2 = (PermGroup([s.conjugate_by(y) for s in s5.generators]),
                 PermGroup([s.conjugate_by(z) for s in x.generators]))
        beta = Automorphism(lambda p: p.conjugate_by(r))
        first, second = beta.apply_group(s5), beta.apply_group(c6)
        want = any(set(conjugates(s6, first, ta)) & set(conjugates(s6, second, tb))
                   for ta, tb in (pair2, pair2[::-1]))
        assert want == (x is c6)
        first_only += bool(conjugates(s6, first, pair2[0])) and not want
        assert equivalent_factorisations(s6, (s5, c6), pair2, [beta]) == want
    assert first_only == 6


def test_relabelling_automorphism(s4):
    s3 = PermGroup([C(4, [(0, 1, 2)]), C(4, [(0, 1)])])
    c4 = PermGroup([C(4, [(0, 1, 2, 3)])])
    r = C(4, [(0, 3)])
    beta = Automorphism(lambda x: x.conjugate_by(r))
    assert equivalent_factorisations(s4, (s3, c4), (beta.apply_group(s3), c4), [beta])


def test_equivalence_rejects_non_factorisations(a6):
    a, b = a5_pair(a6)
    with pytest.raises(NotFactorisation):
        equivalent_factorisations(a6, (a, b), (a, b), [Automorphism.identity()])


def test_equivalence_order_mismatch(s4, klein):
    s3 = PermGroup([C(4, [(0, 1, 2)]), C(4, [(0, 1)])])
    c4 = PermGroup([C(4, [(0, 1, 2, 3)])])
    # (S3, C4) cannot map onto (V4, S3): the orders do not match up
    assert not equivalent_factorisations(
        s4, (s3, c4), (klein, s3), [Automorphism.identity()]
    )


def test_report_serialisation(a6_case):
    t = a6_case.group
    a, b = a6_case.subgroups["A"], a6_case.subgroups["B"]
    data = json.loads(io.dump_json(is_factorisation(t, a, b)))
    assert data["holds"] and data["full"]
    assert data["orders"] == [60, 60, 10, 360]
