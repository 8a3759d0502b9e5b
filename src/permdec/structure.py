"""Subgroup machinery on top of the BSGS engine.

Backtrack searches (setwise stabiliser, intersection, coset intersection)
run over the stabiliser chain of one group while pruning with an exact
coset walker on the other group's chain, rebuilt on a matching base.
Block systems are found by closing the point stabiliser with transversal
elements, using the lattice correspondence between subgroups above a
point stabiliser and blocks through the point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, DegreeMismatch, PointOutOfRange
from .group import PermGroup, group_from_generators
from .perm import Partition, Permutation

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class Coset:
    """A right coset subgroup * representative."""

    subgroup: PermGroup
    representative: Permutation

    def __eq__(self, other):
        if not isinstance(other, Coset):
            return NotImplemented
        return self.subgroup.same_group(other.subgroup) and self.subgroup.contains(
            self.representative * other.representative.inverse()
        )

    def contains(self, p):
        return self.subgroup.contains(p * self.representative.inverse())

    def elements(self):
        return [e * self.representative for e in self.subgroup.elements()]


def _check_points(degree, points):
    for p in points:
        if not 0 <= p < degree:
            raise PointOutOfRange(f"point {p} outside 0..{degree - 1}")


# --- coset walker -----------------------------------------------------------
#
# Tracks the solution set {x in K : x(q_j) = c_j for all processed
# constraints} as a right coset H_level * w of K's stabiliser chain, where
# the chain base follows the constraint points in order.


class _Walker:
    __slots__ = ("chain", "level", "w", "w_inv")

    def __init__(self, chain, level=0, w=None, w_inv=None):
        self.chain = chain
        self.level = level
        ident = Permutation.identity(chain.degree)
        self.w = w if w is not None else ident
        self.w_inv = w_inv if w_inv is not None else ident

    def constrain(self, q, c):
        """Child walker after adding x(q) = c, or None if no x remains."""
        target = self.w_inv.images[c]
        if self.level < len(self.chain.levels):
            lv = self.chain.levels[self.level]
            assert lv.point == q, "chain base out of step with constraints"
            u = lv.transversal.get(target)
            if u is None:
                return None
            return _Walker(self.chain, self.level + 1, u * self.w, self.w_inv * lv.inv[target])
        return self if target == q else None


# --- intersection -----------------------------------------------------------


def intersect(a, b, node_budget=DEFAULT_NODE_BUDGET):
    """The intersection a ∩ b by backtrack over the smaller group's chain."""
    if a.degree != b.degree:
        raise DegreeMismatch(f"degrees {a.degree} and {b.degree} differ")
    if a.is_subgroup_of(b):
        return a
    if b.is_subgroup_of(a):
        return b
    if b.order() < a.order():
        a, b = b, a
    chain_a = a.chain
    chain_b = b.chain_with_base(chain_a.base)
    found = []
    nodes = [0]

    def dfs(level, partial, walker):
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetExceeded(f"intersection search exceeded {node_budget} nodes")
        if level == len(chain_a.levels):
            if chain_b.contains(partial):
                found.append(partial)
            return
        lv = chain_a.levels[level]
        for beta in lv.orbit:
            child = walker.constrain(lv.point, partial.images[beta])
            if child is not None:
                dfs(level + 1, lv.transversal[beta] * partial, child)

    dfs(0, a.identity, _Walker(chain_b))
    del dfs  # it refers to itself: free its chains now, not at the next gc
    group = group_from_generators(found, a.degree)
    assert group.order() == len(found)
    return group


# --- setwise stabiliser -----------------------------------------------------


def _block_image_closure(g, block):
    """All images of block under g, or None once two images overlap partially."""
    start = frozenset(block)
    seen = {start}
    queue = [start]
    for current in queue:
        for s in g.generators:
            img = s.act_on_set(current)
            if img in seen:
                continue
            for other in seen:
                inter = img & other
                if inter and inter != img:
                    return None
            seen.add(img)
            queue.append(img)
    return seen


def stabiliser_in_action(g, start, act):
    """Orbit and stabiliser of an object under an induced action of g.

    act(perm, obj) must define a right action compatible with composition.
    Returns (orbit transversal dict, stabiliser PermGroup).
    """
    trans = {start: g.identity}
    queue = [start]
    for obj in queue:
        u = trans[obj]
        for s in g.generators:
            img = act(s, obj)
            if img not in trans:
                trans[img] = u * s
                queue.append(img)
    inv = {obj: u.inverse() for obj, u in trans.items()}
    gens = []
    for obj, u in trans.items():
        for s in g.generators:
            sg = u * s * inv[act(s, obj)]
            if not sg.is_identity():
                gens.append(sg)
    stab = group_from_generators(gens, g.degree)
    assert g.order() == len(trans) * stab.order()
    return trans, stab


def setwise_stabiliser(g, block, node_budget=DEFAULT_NODE_BUDGET):
    """{x in g : block^x = block}."""
    block = frozenset(block)
    if not block:
        raise PointOutOfRange("empty block")
    _check_points(g.degree, block)
    if len(block) == g.degree:
        return g

    images = _block_image_closure(g, block)
    if images is not None:
        # the images never split each other, so the induced action is exact
        _, stab = stabiliser_in_action(g, block, lambda s, obj: s.act_on_set(obj))
        return stab

    chain = g.chain
    found = []
    nodes = [0]

    def dfs(level, partial):
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetExceeded(f"setwise stabiliser search exceeded {node_budget} nodes")
        if level == len(chain.levels):
            if partial.act_on_set(block) == block:
                found.append(partial)
            return
        lv = chain.levels[level]
        inside = lv.point in block
        for beta in lv.orbit:
            if (partial.images[beta] in block) == inside:
                dfs(level + 1, lv.transversal[beta] * partial)

    dfs(0, g.identity)
    del dfs  # it refers to itself: free its chains now, not at the next gc
    stab = group_from_generators(found, g.degree)
    assert stab.order() == len(found)
    assert all(s.act_on_set(block) == block for s in stab.generators)
    return stab


# --- coset intersection -----------------------------------------------------


def _find_in_coset(s_group, k_group, v, node_budget):
    """Some s in s_group with s*v in k_group, or None."""
    chain_s = s_group.chain
    chain_k = k_group.chain_with_base(chain_s.base)
    nodes = [0]

    def dfs(level, partial, walker):
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetExceeded(f"coset search exceeded {node_budget} nodes")
        if level == len(chain_s.levels):
            return partial if chain_k.contains(partial * v) else None
        lv = chain_s.levels[level]
        for beta in lv.orbit:
            child = walker.constrain(lv.point, v.images[partial.images[beta]])
            if child is not None:
                hit = dfs(level + 1, lv.transversal[beta] * partial, child)
                if hit is not None:
                    return hit
        return None

    hit = dfs(0, s_group.identity, _Walker(chain_k))
    del dfs  # it refers to itself: free its chains now, not at the next gc
    return hit


def coset_intersection(terms, node_budget=DEFAULT_NODE_BUDGET):
    """Intersection of right cosets K_i x_i; a Coset of ∩K_i, or None if empty."""
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one coset")
    degree = terms[0][0].degree
    for k, x in terms:
        if k.degree != degree or x.degree != degree:
            raise DegreeMismatch("cosets act on different point sets")
    subgroup, rep = terms[0]
    for k, x in terms[1:]:
        z = _find_in_coset(subgroup, k, rep * x.inverse(), node_budget)
        if z is None:
            return None
        rep = z * rep
        subgroup = intersect(subgroup, k, node_budget)
    return Coset(subgroup, rep)


# --- block systems ----------------------------------------------------------


def _blocks_through(g, omega):
    """Blocks through omega, each with a generating set of its stabiliser.

    Uses the correspondence between subgroups in [G_omega, G] and blocks
    containing omega: a subgroup's block is the omega-orbit, and the block's
    stabiliser is generated by G_omega together with transversal elements
    into the block.
    """
    g.require_transitive()
    stab_gens = list(g.point_stabiliser(omega).generators)
    trans = g.orbit_transversal(omega)

    def omega_orbit(gens):
        seen = {omega}
        queue = [omega]
        for beta in queue:
            for s in gens:
                img = s.images[beta]
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
        return frozenset(seen)

    start = frozenset({omega})
    found = {start: list(stab_gens)}
    queue = [start]
    for block in queue:
        gens = found[block]
        for beta in range(g.degree):
            if beta in block:
                continue
            cand = gens + [trans[beta]]
            new_block = omega_orbit(cand)
            if new_block not in found:
                found[new_block] = cand
                queue.append(new_block)
    return found


def interval_subgroups(g, omega):
    """All (block, stabiliser) pairs for subgroups between G_omega and G."""
    raw = _blocks_through(g, omega)
    out = []
    for block in sorted(raw, key=lambda b: (len(b), sorted(b))):
        out.append((block, group_from_generators(raw[block], g.degree)))
    return out


def partition_from_block(g, block):
    """The g-invariant partition whose blocks are the translates of block."""
    anchor = min(block)
    trans = g.orbit_transversal(anchor)
    blocks = {frozenset(u.images[x] for x in block) for u in trans.values()}
    return Partition(sorted(tuple(sorted(b)) for b in blocks), degree=g.degree)


def block_systems(g, omega=0):
    """All g-invariant partitions, one per subgroup between G_omega and g.

    Includes the two trivial partitions (Partition.is_trivial flags them).
    """
    out = [partition_from_block(g, block) for block, _ in interval_subgroups(g, omega)]
    return sorted(out, key=lambda p: (p.block_count, p.blocks))


# --- normal structure -------------------------------------------------------


def normal_closure(g, seeds):
    """Smallest normal subgroup of g containing the seed permutations."""
    gens = [s for s in seeds if not s.is_identity()]
    closure = group_from_generators(gens, g.degree)
    frontier = list(closure.generators)
    gens = list(closure.generators)
    while frontier:
        new = []
        for x in frontier:
            for s in g.generators:
                c = x.conjugate_by(s)
                if not closure.contains(c):
                    gens.append(c)
                    closure = PermGroup(tuple(gens), degree=g.degree)
                    new.append(c)
        frontier = new
    return closure


def minimal_normal_subgroups(g, bound=10**6):
    """All minimal normal subgroups, via closures of prime-order elements."""
    order = g.order()
    if order > bound:
        raise BudgetExceeded(f"group order {order} above bound {bound}")
    if order == 1:
        return []
    closures = []
    for x in g.elements():
        if x.is_identity():
            continue
        o = x.order()
        p = min(_prime_factors(o))
        y = x ** (o // p)
        candidate = normal_closure(g, [y])
        if not any(candidate.same_group(c) for c in closures):
            closures.append(candidate)
    minimal = []
    for c in closures:
        if not any(o is not c and o.order() < c.order() and o.is_subgroup_of(c) for o in closures):
            minimal.append(c)
    return sorted(minimal, key=lambda h: (h.order(), [p.images for p in h.generators]))


@dataclass(frozen=True)
class InnateReport:
    innately_transitive: bool
    plinths: tuple
    quasiprimitive: bool


def is_innately_transitive(g, bound=10**6):
    """Whether g has a transitive minimal normal subgroup (with candidates)."""
    minimals = minimal_normal_subgroups(g, bound=bound)
    plinths = tuple(n for n in minimals if n.is_transitive())
    quasi = bool(minimals) and len(plinths) == len(minimals)
    return InnateReport(bool(plinths), plinths, quasi)


def centraliser_in_symmetric(g):
    """The centraliser of a transitive group in the full symmetric group."""
    g.require_transitive()
    stab = g.point_stabiliser(0)
    trans = g.orbit_transversal(0)
    elements = []
    for beta in range(g.degree):
        if any(s.images[beta] != beta for s in stab.generators):
            continue
        images = [0] * g.degree
        for gamma, u in trans.items():
            images[gamma] = u.images[beta]
        if sorted(images) != list(range(g.degree)):
            continue
        c = Permutation(images)
        if all((c * s).images == (s * c).images for s in g.generators):
            elements.append(c)
    cent = group_from_generators(elements, g.degree)
    assert cent.order() == len(elements)
    return cent


def normaliser_in(g, h, budget=2 * 10**5):
    """N_g(h) by filtering the elements of g; desk scale only."""
    if g.degree != h.degree:
        raise DegreeMismatch(f"degrees {g.degree} and {h.degree} differ")
    if g.order() > budget:
        raise BudgetExceeded(f"group order {g.order()} above bound {budget}")
    hits = []
    for x in g.elements():
        x_inv = x.inverse()
        if all(h.contains(x_inv * k * x) for k in h.generators):
            hits.append(x)
    result = group_from_generators(hits, g.degree)
    assert result.order() == len(hits)
    return result


# --- coset actions ----------------------------------------------------------


class CosetAction:
    """The right-coset action of a group on the cosets of a subgroup."""

    def __init__(self, group, subgroup):
        if not subgroup.is_subgroup_of(group):
            raise DegreeMismatch("subgroup does not sit inside the group")
        self.group = group
        self.subgroup = subgroup
        self.reps = [group.identity]
        gen_images = [[] for _ in group.generators]
        for i, rep in enumerate(self.reps):
            for gi, s in enumerate(group.generators):
                z = rep * s
                j = self._index_of(z)
                if j is None:
                    j = len(self.reps)
                    self.reps.append(z)
                gen_images[gi].append((i, j))
        n = len(self.reps)
        perms = []
        for pairs in gen_images:
            images = [0] * n
            for i, j in pairs:
                images[i] = j
            perms.append(Permutation(images))
        self.image = PermGroup(perms, degree=n, name=f"coset action of {group.name or 'G'}")

    def _index_of(self, z):
        for j, r in enumerate(self.reps):
            if self.subgroup.contains(z * r.inverse()):
                return j
        return None

    @property
    def degree(self):
        return len(self.reps)

    def act(self, p):
        """The permutation induced on cosets by an element of the group."""
        images = [self._index_of(r * p) for r in self.reps]
        if any(v is None for v in images):
            raise ValueError("element does not act on the coset space")
        return Permutation(images)

    def map_subgroup(self, h, name=None):
        return PermGroup([self.act(x) for x in h.generators], degree=self.degree, name=name)

    def is_faithful(self):
        return self.image.order() == self.group.order()


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
