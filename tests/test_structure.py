import ast
import gc
import hashlib
import math
import pathlib
import random

import pytest
from conftest import corpus_group

from permdec import (
    BudgetExceeded,
    Coset,
    CosetAction,
    DegreeMismatch,
    InternalError,
    InvalidInput,
    NotSubgroup,
    PermdecError,
    PermGroup,
    Permutation,
    block_systems,
    centraliser_in_symmetric,
    coset_intersection,
    group_from_generators,
    intersect,
    is_innately_transitive,
    minimal_normal_subgroups,
    normal_closure,
    normaliser_in,
    setwise_stabiliser,
)
from permdec import group as group_module
from permdec import structure
from permdec.brute import mulclose
from permdec.cartesian import enumerate_cartesian_systems
from permdec.errors import check
from permdec.structure import interval_subgroups, partition_from_block, prime_divisors

C = Permutation.from_cycles


@pytest.fixture(scope="module")
def s6():
    return PermGroup([C(6, [tuple(range(6))]), C(6, [(0, 1)])], name="S6")


# --- backtrack searches against enumeration oracles --------------------------


def random_subgroup(parent, rng, k=2):
    return group_from_generators([parent.random_element(rng) for _ in range(k)], parent.degree)


def test_intersection_matches_enumeration(s6):
    rng = random.Random(101)
    for _ in range(25):
        a = random_subgroup(s6, rng)
        b = random_subgroup(s6, rng)
        want = a.element_set() & b.element_set()
        got = intersect(a, b)
        assert got.order() == len(want)
        assert got.element_set() == want


def test_setwise_stabiliser_matches_enumeration(s6):
    rng = random.Random(202)
    for _ in range(25):
        g = random_subgroup(s6, rng)
        block = rng.sample(range(6), rng.randrange(1, 6))
        want = {x for x in g.elements() if x.act_on_set(block) == frozenset(block)}
        got = setwise_stabiliser(g, block)
        assert got.element_set() == want


def test_coset_intersection_matches_enumeration(s6):
    rng = random.Random(303)
    for _ in range(25):
        a = random_subgroup(s6, rng)
        b = random_subgroup(s6, rng)
        x, y = s6.random_element(rng), s6.random_element(rng)
        want = {e * x for e in a.elements()} & {e * y for e in b.elements()}
        got = coset_intersection([(a, x), (b, y)])
        if got is None:
            assert not want
        else:
            assert set(got.elements()) == want


def test_coset_equality():
    k = PermGroup([C(4, [(0, 1)])])
    x = C(4, [(2, 3)])
    y = C(4, [(0, 1), (2, 3)])
    assert Coset(k, x) == Coset(k, y)
    assert Coset(k, x) != Coset(k, C(4, [(1, 2)]))


def test_equal_cosets_hash_equal():
    h = PermGroup([C(3, [(0, 1)])])
    e, t = Permutation.identity(3), C(3, [(0, 1)])
    assert Coset(h, e) == Coset(h, t)
    assert len({Coset(h, e), Coset(h, t)}) == 1
    # the same subgroup from other generators, and other representatives
    s5 = PermGroup([C(5, [(0, 1, 2, 3, 4)]), C(5, [(0, 1)])])
    rng = random.Random(905)
    for _ in range(40):
        k = random_subgroup(s5, rng)
        again = PermGroup(list(k.generators) + [k.random_element(rng)], degree=5)
        z = s5.random_element(rng)
        assert Coset(k, z) == Coset(again, k.random_element(rng) * z)
        assert hash(Coset(k, z)) == hash(Coset(again, k.random_element(rng) * z))


def test_coset_hash_walks_each_orbit_once(monkeypatch):
    # Sym{0,1,2} x Sym{3,4} on six points, from two unrelated generating sets
    h = PermGroup([C(6, [(0, 1, 2)]), C(6, [(0, 1)]), C(6, [(3, 4)])])
    k = PermGroup([C(6, [(0, 1), (3, 4)]), C(6, [(1, 2)])])
    assert h.same_group(k) and h.order() == 12
    z = C(6, [(0, 5, 3), (1, 4)])
    for x in h.elements():
        assert Coset(h, z) == Coset(k, x * z)
        assert len({Coset(h, z), Coset(k, x * z)}) == 1
    walks = []

    def recording(original):
        def walk(start, gens, act=None):
            walks.append(start)
            return original(start, gens, act)
        return walk

    for module in (structure, group_module):
        monkeypatch.setattr(module, "orbit", recording(module.orbit))
    hash(Coset(k, z))
    assert sorted(walks) == [0, 3, 5]


def test_intersection_budget(monkeypatch):
    # neither group contains the other, so the backtrack search must run
    a = PermGroup([C(6, [(0, 1, 2, 3, 4, 5)])])
    b = PermGroup([C(6, [(0, 1)]), C(6, [(2, 3, 4, 5)])])
    monkeypatch.setattr(structure, "DEFAULT_NODE_BUDGET", 2)
    with pytest.raises(BudgetExceeded):
        intersect(a, b)


def test_backtrack_searches_leave_no_cyclic_garbage():
    # a search's chains must be freed when it returns, not at the next gc
    a = PermGroup([C(6, [(0, 1, 2, 3, 4, 5)])])
    b = PermGroup([C(6, [(0, 1)]), C(6, [(2, 3, 4, 5)])])
    z3z3 = PermGroup([C(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)]), C(9, [(0, 3, 6), (1, 4, 7), (2, 5, 8)])])
    enumerate_cartesian_systems(z3z3, plinth=z3z3)
    gc.collect()
    gc.disable()
    try:
        intersect(a, b)
        setwise_stabiliser(b, [0, 2])
        coset_intersection([(a, a.identity), (b, C(6, [(0, 2)]))])
        enumerate_cartesian_systems(z3z3, plinth=z3z3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def random_small_subgroup(n, rng, bound=3000):
    """A subgroup of Sym(n) of order at most bound, from 1-3 random generators.

    Each generator is a power of a random permutation of a random support,
    so fixed-point-free involutions and regular elementary abelian groups,
    whose orbits take several hits per level, turn up too.
    """
    while True:
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(n), rng.randint(2, n))
            images = list(range(n))
            for src, dst in zip(support, rng.sample(support, len(support))):
                images[src] = dst
            gens.append(Permutation(images) ** rng.randint(1, 3))
        group = PermGroup(gens, degree=n)
        if group.order() <= bound:
            return group


@pytest.mark.parametrize("n", [7, 8])
def test_kernel_intersection_matches_enumeration(n):
    rng = random.Random(400 + n)
    for _ in range(40):
        a, b = random_small_subgroup(n, rng), random_small_subgroup(n, rng)
        got = intersect(a, b)
        assert got.element_set() == a.element_set() & b.element_set()


@pytest.mark.parametrize("n", [7, 8])
def test_kernel_coset_intersection_matches_enumeration(n):
    rng = random.Random(500 + n)
    empty = 0
    for _ in range(40):
        terms = [(random_small_subgroup(n, rng), random_small_subgroup(n, rng).random_element(rng))
                 for _ in range(rng.randint(2, 3))]
        want = set.intersection(*({e * x for e in k.elements()} for k, x in terms))
        got = coset_intersection(terms)
        if got is None:
            empty += 1
            assert not want
        else:
            assert set(got.elements()) == want
    assert 0 < empty < 40


@pytest.mark.parametrize("n", [7, 8])
def test_kernel_setwise_stabiliser_matches_enumeration(n):
    rng = random.Random(600 + n)
    non_blocks = 0
    for _ in range(60):
        g = random_small_subgroup(n, rng)
        block = frozenset(rng.sample(range(n), rng.randint(2, n - 2)))
        images = {x.act_on_set(block) for x in g.elements()}
        non_blocks += any(i & j and i != j for i in images for j in images)
        want = {x for x in g.elements() if x.act_on_set(block) == block}
        assert setwise_stabiliser(g, block).element_set() == want
    assert non_blocks >= 20


def test_intersection_with_several_hits_per_level():
    # AGL(1,8) ∩ (2^3 : <transvection>) is the regular translation group
    # 2^3, so the top level of the search needs three hits, growing the
    # orbit 2 -> 4 -> 8
    def perm(f):
        return Permutation([f(p) for p in range(8)])

    translations = [perm(lambda p, v=v: p ^ v) for v in (1, 2, 4)]
    times_x = perm(lambda p: ((p << 1) & 7) ^ (3 if p & 4 else 0))  # in F_2[x]/(x^3+x+1)
    transvection = perm(lambda p: p ^ (p >> 2 & 1))
    a = PermGroup(translations + [times_x])
    b = PermGroup(translations + [transvection])
    assert (a.order(), b.order()) == (56, 16)
    got = intersect(a, b)
    assert got.element_set() == a.element_set() & b.element_set()
    assert got.order() == 8


@pytest.mark.parametrize("k", [8, 10])
def test_intersection_prunes_by_found_subgroup(k, monkeypatch):
    # Sym{0..k} ∩ Sym{1..k+1} = Sym{1..k}; listing its k! elements would
    # need far more than 1000 nodes
    n = k + 2
    a = PermGroup([C(n, [tuple(range(k + 1))]), C(n, [(0, 1)])])
    b = PermGroup([C(n, [tuple(range(1, k + 2))]), C(n, [(1, 2)])])
    monkeypatch.setattr(structure, "DEFAULT_NODE_BUDGET", 1000)
    assert intersect(a, b).order() == math.factorial(k)


def test_normaliser_prunes_by_orbits(monkeypatch):
    # N_S10(<(0 1 2)>) = Sym{0,1,2} x Sym{3..9}; with no orbit pruning the
    # search tries about 700,000 images
    s10 = PermGroup([C(10, [tuple(range(10))]), C(10, [(0, 1)])])
    h = PermGroup([C(10, [(0, 1, 2)])])
    monkeypatch.setattr(structure, "DEFAULT_NODE_BUDGET", 1000)
    assert normaliser_in(s10, h).order() == 6 * math.factorial(7)


def test_structure_has_no_bare_asserts():
    # assert statements vanish under python -O; invariants use errors.check,
    # and the case-data generator under tools/ raises explicitly as well
    tools = pathlib.Path(__file__).resolve().parent.parent / "tools"
    paths = [*pathlib.Path(structure.__file__).parent.glob("*.py"), *tools.glob("*.py")]
    assert any(p.parent.name == "tools" for p in paths)
    found = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert len(found) == 0, found
    with pytest.raises(InternalError) as info:
        check(False, "broken invariant")
    assert isinstance(info.value, PermdecError)


def test_structure_raises_no_assertion_errors():
    # an unreachable branch is an errors.check, so it reaches the CLI as a PermdecError
    found = []
    for path in sorted(pathlib.Path(structure.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append((path.name, node.lineno))
    assert found == []


STORAGE = {"gens", "transversal", "packed", "inv", "u_inv", "tree", "swept", "tables"}


def test_only_group_reads_level_storage():
    # outside group.py a level is read only through point, orbit and u
    found = []
    for path in sorted(pathlib.Path(structure.__file__).parent.glob("*.py")):
        if path.name == "group.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in STORAGE:
                found.append((path.name, node.lineno))
    assert found == []


CHAIN_SLOTS = ("_chain",)  # a PermGroup's chain


def test_only_group_imports_chain_internals():
    # chains grow only inside group.py: no other module imports _Chain, _Level,
    # _adopting or any other private name of it, or assigns a group's chain
    found = []
    for path in sorted(pathlib.Path(structure.__file__).parent.glob("*.py")):
        if path.name == "group.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("group", "permdec.group"):
                found += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
            targets = [*getattr(node, "targets", ()), getattr(node, "target", None)]
            found += [(path.name, t.attr) for t in targets
                      if isinstance(t, ast.Attribute) and t.attr in CHAIN_SLOTS]
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
                    "setattr", "__setattr__"):  # setattr(group, "_chain", ...) and the like
                found += [(path.name, a.value) for a in node.args[1:2]
                          if isinstance(a, ast.Constant) and a.value in CHAIN_SLOTS]
    assert found == []


def test_coset_intersection_of_no_cosets_is_invalid_input():
    with pytest.raises(InvalidInput) as info:
        coset_intersection([])
    assert isinstance(info.value, ValueError)


def test_only_io_knows_json():
    # io is the one JSON boundary: it reads every file and writes every report
    imports, methods = [], []
    for path in sorted(pathlib.Path(structure.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [path.name for alias in node.names if alias.name == "json"]
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                imports.append(path.name)
            elif isinstance(node, ast.ClassDef):
                methods += [(path.name, node.name, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef)
                            and f.name in ("to_json", "from_json")]
    assert imports == ["io.py"]
    assert methods == []


# --- block systems ------------------------------------------------------------


def test_block_systems_d8():
    d8 = PermGroup([C(4, [(0, 1, 2, 3)]), C(4, [(1, 3)])])
    systems = block_systems(d8)
    nontrivial = [p for p in systems if not p.is_trivial()]
    assert len(nontrivial) == 1
    assert nontrivial[0].blocks == ((0, 2), (1, 3))


def test_block_systems_c6():
    c6 = PermGroup([C(6, [tuple(range(6))])])
    sizes = sorted(p.block_sizes()[0] for p in block_systems(c6))
    assert sizes == [1, 2, 3, 6]


def test_interval_subgroup_orders_match_blocks(s3s3):
    for block, sub in interval_subgroups(s3s3, 0):
        # |stabiliser of the block| = |point stabiliser| * |block|
        assert sub.order() == 4 * len(block)


def test_partition_from_block(s3s3):
    p = partition_from_block(s3s3, frozenset({0, 1, 2}))
    assert p.blocks == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def _blocks_joining_every_point(g, omega):
    """Blocks through omega with their generators, joining every block with every point."""
    trans = g.orbit_transversal(omega)
    start = frozenset({omega})
    found = {start: list(g.point_stabiliser(omega).generators)}

    def join(block, beta):
        if beta in block:
            return block
        gens = found[block] + [trans[beta]]
        joined = frozenset(group_module.orbit(omega, [s.images for s in gens]))
        found.setdefault(joined, gens)
        return joined

    group_module.orbit(start, range(g.degree), join)
    return found


@pytest.mark.parametrize("which", ["a6_36", "KLEIN_GRID", "s3s3"], ids=["A6_36", "KLEIN_GRID", "S3xS3"])
def test_blocks_through_joins_one_point_per_suborbit(which, request):
    from permdec.atlas import load_case

    g = load_case(which).group if which == "KLEIN_GRID" else request.getfixturevalue(which)
    for omega in (0, g.degree - 1):
        got = structure._blocks_through(g, omega)
        want = _blocks_joining_every_point(g, omega)
        assert list(got) == list(want)  # the same blocks, found in the same order
        for block, gens in want.items():
            assert [p.images for p in got[block]] == [p.images for p in gens]


# --- normal structure -----------------------------------------------------------


def test_minimal_normal_subgroups_s4(s4):
    minimals = minimal_normal_subgroups(s4)
    assert [n.order() for n in minimals] == [4]


def test_minimal_normal_subgroups_klein(klein):
    minimals = minimal_normal_subgroups(klein)
    assert [n.order() for n in minimals] == [2, 2, 2]
    report = is_innately_transitive(klein)
    assert not report.innately_transitive


def test_innately_transitive_a6(a6):
    report = is_innately_transitive(a6)
    assert report.innately_transitive and report.quasiprimitive
    assert report.plinths[0].same_group(a6)


def test_normal_closure(s4):
    n = normal_closure(s4, [C(4, [(0, 1), (2, 3)])])
    assert n.order() == 4
    n = normal_closure(s4, [C(4, [(0, 1, 2)])])
    assert n.order() == 12


def _minimal_normal_subgroups_per_element(g):
    """minimal_normal_subgroups with one normal closure per listed element."""
    closures = []
    for x in g.elements():
        if x.is_identity():
            continue
        o = x.order()
        candidate = normal_closure(g, [x ** (o // min(prime_divisors(o)))])
        if not any(candidate.same_group(c) for c in closures):
            closures.append(candidate)
    minimal = [c for c in closures if not any(
        o is not c and o.order() < c.order() and o.is_subgroup_of(c) for o in closures)]
    return sorted(minimal, key=lambda h: (h.order(), [p.images for p in h.generators]))


def _seeded_groups(count, bound=10**4):
    rng = random.Random(27)
    return [random_small_subgroup(rng.choice((6, 7, 8)), rng, bound=bound) for _ in range(count)]


def test_one_closure_per_class_is_the_closure_per_element(corpus_entries):
    # each class's closure is seeded by its first listed element, the seed the
    # per-element loop keeps, so the same groups come with the same generators
    groups = [corpus_group(entry)[0] for entry in corpus_entries] + _seeded_groups(12)
    assert max(g.order() for g in groups) > 1000
    for g in groups:
        got, want = minimal_normal_subgroups(g), _minimal_normal_subgroups_per_element(g)
        assert [[p.images for p in h.generators] for h in got] == [
            [p.images for p in h.generators] for h in want]


def test_minimal_normals_budget(a6):
    with pytest.raises(BudgetExceeded):
        minimal_normal_subgroups(a6, bound=10)


def test_centraliser_regular_abelian(klein):
    assert centraliser_in_symmetric(klein).order() == 4


def test_centraliser_trivial(a6):
    assert centraliser_in_symmetric(a6).order() == 1


@pytest.mark.parametrize("n", [7, 8])
def test_normaliser_matches_enumeration(n):
    # h is a subgroup of g half of the time and an arbitrary subgroup of Sym(n) otherwise
    rng = random.Random(700 + n)
    proper = 0
    for _ in range(40):
        g = random_small_subgroup(n, rng)
        if rng.random() < 0.5:
            h = PermGroup([g.random_element(rng) for _ in range(rng.randint(1, 2))], degree=n)
        else:
            h = random_small_subgroup(n, rng)
        h_set = h.element_set()
        want = {x for x in g.elements() if all(s.conjugate_by(x) in h_set for s in h.generators)}
        assert normaliser_in(g, h).element_set() == want
        proper += len(want) < g.order()
    assert proper >= 10


def test_normaliser(s4, klein):
    assert normaliser_in(s4, klein).order() == 24
    a3 = PermGroup([C(4, [(0, 1, 2)])])
    # N_S4(A3) = S3 on {0,1,2}
    assert normaliser_in(s4, a3).order() == 6


# --- coset actions --------------------------------------------------------------


def test_coset_action_s4(s4):
    s3 = setwise_stabiliser(s4, [0])
    action = CosetAction(s4, s3)
    assert action.degree == 4
    assert action.is_faithful()
    assert action.image.order() == 24


def test_coset_action_kernel():
    # action of V4 on cosets of an order-2 subgroup is not faithful
    v = PermGroup([C(4, [(0, 1), (2, 3)]), C(4, [(0, 2), (1, 3)])])
    sub = PermGroup([C(4, [(0, 1), (2, 3)])])
    action = CosetAction(v, sub)
    assert action.degree == 2
    assert not action.is_faithful()


def test_coset_action_maps_subgroups(a6):
    b = PermGroup([C(6, [(0, 1, 2, 3, 4)]), C(6, [(0, 5), (1, 4)])])
    action = CosetAction(a6, b)
    assert action.degree == 6
    img = PermGroup([action.act(x) for x in a6.generators], degree=action.degree)
    assert img.order() == 360


def test_coset_action_rejects_non_subgroup():
    a3 = PermGroup([C(4, [(0, 1, 2)])])
    with pytest.raises(NotSubgroup):
        CosetAction(a3, PermGroup([C(4, [(0, 1)])]))


def test_coset_action_act_outside_group():
    a4 = PermGroup([C(4, [(0, 1, 2)]), C(4, [(0, 1), (2, 3)])])
    for sub in (PermGroup((), degree=4), PermGroup([C(4, [(0, 1), (2, 3)])])):
        with pytest.raises(NotSubgroup):
            CosetAction(a4, sub).act(C(4, [(0, 1)]))


def test_coset_action_act_degree_mismatch(s4):
    action = CosetAction(s4, setwise_stabiliser(s4, [0]))
    for p in (C(3, [(0, 1)]), C(5, [(0, 1)]), C(5, [(3, 4)])):
        with pytest.raises(DegreeMismatch):
            action.act(p)


def enumerated_coset_action(g, h):
    """Right cosets of h in g as element sets, numbered breadth first from h
    under g's generators: {element: coset number}, and the map sending an
    element of g to the permutation it induces on the cosets."""
    h_set = mulclose(h.generators) | {g.identity}
    where = dict.fromkeys(h_set, 0)
    reps = [g.identity]
    for rep in reps:  # the loop visits cosets appended during it
        for s in g.generators:
            y = rep * s
            if y not in where:
                where.update(dict.fromkeys((x * y for x in h_set), len(reps)))
                reps.append(y)
    return where, lambda x: [where[r * x] for r in reps]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_coset_action_matches_enumeration(n):
    rng = random.Random(900 + n)
    kinds = set()
    for i in range(40):
        g = random_small_subgroup(n, rng, bound=720)
        kind = ("trivial", "whole", "normal", "random")[i % 4]
        if kind == "trivial":
            h = PermGroup((), degree=n)
        elif kind == "whole":
            h = PermGroup(g.generators, degree=n)
        elif kind == "normal":
            h = normal_closure(g, [g.random_element(rng)])
        else:
            h = PermGroup([g.random_element(rng) for _ in range(rng.randint(1, 2))], degree=n)
        action = CosetAction(g, h)
        where, induced = enumerated_coset_action(g, h)
        assert [tuple(p.images) for p in action.image.generators] == [
            tuple(induced(s)) for s in g.generators
        ]
        assert [where[r] for r in action.reps] == list(range(action.degree))
        x = g.random_element(rng)
        assert list(action.act(x).images) == induced(x)
        if 1 < action.degree and not action.is_faithful():
            kinds.add("non-faithful")
        kinds.add(kind)
    assert kinds == {"trivial", "whole", "normal", "random", "non-faithful"}


# sha256 over the image tuples of the image generators, recorded before the
# coset lookup keyed by canonical elements replaced the membership scan
COSET_IMAGE_DIGESTS = {
    "A6_36": "e3682b7b908d03b6b9c08db9a62d8fe15da49cd489e2b4cd48f5801c64216152",
    "M12_144": "99ab533a274661f1bc8f8170b3e7e5154c2199137d61f23f862c02a56dd33ece",
    "SP62_K1": "f9be771de8623ee61e8ecd1572d87ef4793d83beb7a62b100d0fd2c8faeeaea9",
}


def test_coset_numbering_pinned(a6_36, m12_144, sp62_case):
    sp62_k1 = CosetAction(sp62_case.group, sp62_case.subgroups["K1"]).image
    got = {}
    for name, image in (("A6_36", a6_36), ("M12_144", m12_144), ("SP62_K1", sp62_k1)):
        digest = hashlib.sha256()
        for p in image.generators:
            digest.update(repr(tuple(p.images)).encode())
        got[name] = digest.hexdigest()
    assert (a6_36.degree, m12_144.degree, sp62_k1.degree) == (36, 144, 120)
    assert got == COSET_IMAGE_DIGESTS
