"""Subgroup machinery on top of the BSGS engine.

Intersection, setwise stabiliser, coset intersection, normaliser and
conjugator share one backtrack kernel (Butler, LNCS 559; Seress,
*Permutation Group Algorithms*, ch. 9). It runs over the base images of
the searched group's stabiliser chain: a node fixes the images of the
first base points, and the property prunes each candidate image and tests
each leaf. For the intersection and the coset search the property is x * v
in the other group, read off its ``chain_with_base`` on the searched base:
its own chain when the two bases agree as far as both go, past whose last
level x * v must fix each base point. Case subgroups share T's base and each
found subgroup is laid out on the searched chain's base (``on_base``), so they agree.

The conjugacy property, x with h^x = k for pairs (h, k) of equal order,
prunes by orbits (Leon 1991): x maps each h-orbit onto a k-orbit of the
same length, so a node keeps the orbit correspondence its base images
force and drops an image that breaks it. The leaf tests h^x <= k on the
generators of h; N_g(h) is the subgroup with the property for (h, h).

The first-hit mode returns one element with the property. The subgroup
mode finds the subgroup K of all of them level by level, deepest first.
At base point b_i it already holds generators of K^(i+1), the part of K
fixing b_0..b_i. A candidate image of b_i that lies in the orbit of b_i
under the generators found so far is skipped; for any other candidate one
first-hit search looks for an element of K mapping b_i there. A hit is a
new generator. A miss makes the candidate's whole orbit under the
generators found so far dead: an element of K reaching one point of that
orbit would reach all of them, the candidate included.
Every hit is essential and |K| is the product of the final orbit lengths,
so the result is built without a pass over its elements.

Block systems are found by closing the point stabiliser with transversal
elements, one per orbit of the point stabiliser, using the lattice
correspondence between subgroups above a point stabiliser and blocks
through the point.

A coset action keys each right coset H z by its canonical element: along
H's chain, z becomes u_beta * z with beta the level's orbit point that z
maps lowest, which leaves the element of H z whose base images are least,
level by level. Cosets are numbered by the breadth-first orbit of these
keys under the group's generators, and finding one is a dict lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, DegreeMismatch, InvalidInput, NotSubgroup, PointOutOfRange, check
from .group import PermGroup, group_from_generators, normal_closure, on_base, orbit
from .perm import Partition, Permutation, check_points, pack, product

DEFAULT_NODE_BUDGET = 10**8
ORDER_BOUND = 10**6  # the largest group whose elements minimal_normal_subgroups lists


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

    def __hash__(self):
        # each z in the coset maps each orbit O of the subgroup onto one set O^z
        ids = _orbit_ids(self.subgroup)
        return hash(frozenset((ids[p], x) for p, x in enumerate(self.representative.images)))

    def elements(self):
        return [e * self.representative for e in self.subgroup.elements()]


def prime_divisors(n):
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
    return tuple(out)


# --- backtrack kernel -------------------------------------------------------


class _Backtrack:
    """Backtrack over the base images of one stabiliser chain.

    refine(state, point, image) is the state after requiring that the
    element maps base point `point` to `image`, or None when no element with
    the property does; leaf(g) decides g once all its base images are fixed.
    Each candidate image tried counts one node against DEFAULT_NODE_BUDGET,
    read when the search is made.
    """

    __slots__ = ("chain", "refine", "leaf", "what", "budget", "nodes")

    def __init__(self, chain, refine, leaf, what):
        self.chain = chain
        self.refine = refine
        self.leaf = leaf
        self.what = what
        self.budget = DEFAULT_NODE_BUDGET
        self.nodes = 0

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"{self.what} search exceeded {self.budget} nodes")

    def first_hit(self, level, partial, state):
        """An element with the property below the node (level, partial, state), or None.

        partial maps base point j to its fixed image partial.images[b_j] for
        j < level; an element below it is t_{k-1} * ... * t_level * partial.
        """
        levels = self.chain.levels
        if level == len(levels):
            return partial if self.leaf(partial) else None
        stack = [(level, partial, state, iter(levels[level].orbit))]
        while stack:
            level, partial, state, betas = stack[-1]
            lv = levels[level]
            for beta in betas:
                self._tick()
                child = self.refine(state, lv.point, partial.images[beta])
                if child is not None:
                    break
            else:
                stack.pop()
                continue
            g = partial if beta == lv.point else lv.u(beta) * partial
            if level + 1 < len(levels):
                stack.append((level + 1, g, child, iter(levels[level + 1].orbit)))
            elif self.leaf(g):
                return g
        return None

    def subgroup(self, root):
        """The subgroup of all elements with the property, which must be closed."""
        levels = self.chain.levels
        fixing = [root]  # fixing[i]: the state with b_0..b_{i-1} fixed
        for lv in levels[:-1]:
            fixing.append(self.refine(fixing[-1], lv.point, lv.point))
        gens = []
        order = 1
        for i in reversed(range(len(levels))):
            lv = levels[i]
            reached = {lv.point}
            dead = set()
            for beta in lv.orbit:
                if beta in reached or beta in dead:
                    continue
                self._tick()
                child = self.refine(fixing[i], lv.point, beta)
                hit = None if child is None else self.first_hit(i + 1, lv.u(beta), child)
                if hit is None:
                    dead.update(orbit(beta, [s.images for s in gens]))
                else:
                    gens.append(hit)
                    reached = orbit(lv.point, [s.images for s in gens])
            order *= len(reached)
        # top-level generators first: a chain built from them measured
        # several times cheaper than one built deepest level first
        group = on_base(gens[::-1], self.chain.degree, self.chain.base)
        check(group.order() == order, f"{self.what} search: orbit lengths disagree with the order")
        check(all(self.leaf(g) for g in gens), f"{self.what} search: a generator fails the property")
        return group


# --- intersection -----------------------------------------------------------


def _in_coset(chain, v):
    """refine, leaf and root state for x with x * v in the chain's group, whose base
    follows the searched one. The state (level, w^-1) holds the x left as H_level * w."""

    def refine(state, point, image):
        level, w_inv = state
        target = w_inv.images[v.images[image]]
        if level == len(chain.levels):
            return state if target == point else None
        lv = chain.levels[level]
        check(lv.point == point, "chain base out of step with constraints")
        u = lv.u(target)
        if u is None:
            return None
        return level + 1, w_inv if target == point else w_inv * u.inverse()

    return refine, lambda x: chain.contains(x * v), (0, Permutation.identity(chain.degree))


def intersect(a, b):
    """a ∩ b by backtrack over the smaller group's chain; if a <= b the search finds a."""
    if a.degree != b.degree:
        raise DegreeMismatch(f"degrees {a.degree} and {b.degree} differ")
    if b.order() < a.order():
        a, b = b, a
    refine, leaf, root = _in_coset(b.chain_with_base(a.chain.base), a.identity)
    return _Backtrack(a.chain, refine, leaf, "intersection").subgroup(root)


# --- setwise stabiliser -----------------------------------------------------


def setwise_stabiliser(g, block):
    """{x in g : block^x = block}."""
    block = frozenset(block)
    if not block:
        raise PointOutOfRange("empty block")
    check_points(g.degree, block)
    if len(block) == g.degree:
        return g

    def keeps_block(state, point, image):
        return state if (image in block) == (point in block) else None

    search = _Backtrack(g.chain, keeps_block, lambda x: x.act_on_set(block) == block,
                        "setwise stabiliser")
    return search.subgroup(True)


# --- coset intersection -----------------------------------------------------


def _find_in_coset(s_group, k_group, v):
    """Some s in s_group with s*v in k_group, or None."""
    refine, leaf, root = _in_coset(k_group.chain_with_base(s_group.chain.base), v)
    return _Backtrack(s_group.chain, refine, leaf, "coset").first_hit(0, s_group.identity, root)


def coset_intersection(terms):
    """Intersection of right cosets K_i x_i; a Coset of ∩K_i, or None if empty."""
    terms = list(terms)
    if not terms:
        raise InvalidInput("need at least one coset")
    degree = terms[0][0].degree
    for k, x in terms:
        if k.degree != degree or x.degree != degree:
            raise DegreeMismatch("cosets act on different point sets")
    subgroup, rep = terms[0]
    for k, x in terms[1:]:
        z = _find_in_coset(subgroup, k, rep * x.inverse())
        if z is None:
            return None
        rep = z * rep
        subgroup = intersect(subgroup, k)
    return Coset(subgroup, rep)


# --- block systems ----------------------------------------------------------


def _blocks_through(g, omega):
    """Blocks through omega, each with a generating set of its stabiliser.

    Uses the correspondence between subgroups in [G_omega, G] and blocks
    containing omega: a subgroup's block is the omega-orbit, and the block's
    stabiliser is generated by G_omega together with transversal elements
    into the block. The blocks are the orbit of {omega} under joining with
    the transversal element of the least point of each G_omega-orbit: a
    block is a union of G_omega-orbits, and u_beta' lies in G_omega u_beta
    G_omega for beta' in beta^G_omega, so the least point makes the join its
    whole orbit makes, and makes it first.
    """
    g.require_transitive()
    trans = g.orbit_transversal(omega)
    stab = g.point_stabiliser(omega)
    start = frozenset({omega})
    found = {start: list(stab.generators)}

    def join(block, beta):
        if beta in block:
            return block
        gens = found[block] + [trans[beta]]
        joined = frozenset(orbit(omega, [s.images for s in gens]))
        found.setdefault(joined, gens)
        return joined

    orbit(start, sorted({first for first, _ in _orbit_ids(stab).values()}), join)
    return found


def interval_subgroups(g, omega):
    """All (block, stabiliser) pairs for subgroups between G_omega and G."""
    raw = _blocks_through(g, omega)
    return [(block, PermGroup(raw[block], degree=g.degree))
            for block in sorted(raw, key=lambda b: (len(b), sorted(b)))]


def partition_from_block(g, block):
    """The g-invariant partition whose blocks are the translates of block."""
    translates = orbit(frozenset(block), g.generators, lambda b, s: s.act_on_set(b))
    return Partition(translates, degree=g.degree)


def block_systems(g, omega=0):
    """All g-invariant partitions, one per subgroup between G_omega and g.

    Includes the two trivial partitions (Partition.is_trivial flags them).
    """
    out = [partition_from_block(g, block) for block, _ in interval_subgroups(g, omega)]
    return sorted(out, key=lambda p: (p.block_count, p.blocks))


# --- normal structure -------------------------------------------------------


def minimal_normal_subgroups(g, bound=ORDER_BOUND):
    """All minimal normal subgroups, via closures of prime-order elements."""
    order = g.order()
    if order > bound:
        raise BudgetExceeded(f"group order {order} above bound {bound}")
    if order == 1:
        return []
    # one closure per conjugacy class, an orbit under y -> s^-1 * y * s, seeded by its first element
    mul, conj = product(g.degree), [(s.inverse().images, pack(s.images)) for s in g.generators]
    closures, closed = [], set()  # the images of every element of each class closed
    for x in g.elements():
        if x.is_identity() or x.images in closed:
            continue
        closed.update(orbit(x.images, conj, lambda y, c: mul(c[0], pack(mul(y, c[1])))))
        o = x.order()
        p = min(prime_divisors(o))
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


def is_innately_transitive(g, bound=ORDER_BOUND):
    """Whether g has a transitive minimal normal subgroup (with candidates)."""
    minimals = minimal_normal_subgroups(g, bound=bound)
    plinths = tuple(n for n in minimals if n.is_transitive())
    quasi = bool(minimals) and len(plinths) == len(minimals)
    return InnateReport(bool(plinths), plinths, quasi)


def centraliser_in_symmetric(g):
    """The centraliser of a transitive group in the full symmetric group: the maps
    0^u -> b^u for u in g, one per point b that G_0 fixes (Dixon & Mortimer, Thm 4.2A)."""
    g.require_transitive()
    stab = g.point_stabiliser(0)
    trans = g.orbit_transversal(0)
    fixed = [b for b in range(g.degree) if all(s.images[b] == b for s in stab.generators)]
    elements = [Permutation([trans[x].images[b] for x in range(g.degree)]) for b in fixed]
    check(all((c * s).images == (s * c).images for c in elements for s in g.generators),
          "a centraliser element does not commute with the group")
    cent = group_from_generators(elements, g.degree)
    check(cent.order() == len(elements), "centraliser elements are not a group")
    return cent


def _orbit_ids(h):
    """Each point's h-orbit as (its first point, its length)."""
    ids = {}
    for p in range(h.degree):
        if p not in ids:
            points = orbit(p, [s.images for s in h.generators])
            ids.update(dict.fromkeys(points, (p, len(points))))
    return ids


def _conjugacy(pairs):
    """refine, leaf and root state for x with h^x = k for each (h, k) in pairs.

    Each h has the order of its k. The state is the orbit correspondence,
    {(i, 0, h-orbit): k-orbit, (i, 1, k-orbit): h-orbit} for pair i.
    """
    ids = [(_orbit_ids(h), _orbit_ids(k)) for h, k in pairs]

    def refine(state, point, image):
        for i, (h_ids, k_ids) in enumerate(ids):
            src, dst = h_ids[point], k_ids[image]
            to, back = (i, 0, src), (i, 1, dst)
            if src[1] != dst[1] or state.get(to, dst) != dst or state.get(back, src) != src:
                return None
            state = {**state, to: dst, back: src}
        return state

    def leaf(x):
        # h^x <= k with |h| = |k| is h^x = k
        return all(k.contains(s.conjugate_by(x)) for h, k in pairs for s in h.generators)

    return refine, leaf, {}


def normaliser_in(g, h):
    """N_g(h) = {x in g : h^x = h}, by backtrack over g's chain."""
    if g.degree != h.degree:
        raise DegreeMismatch(f"degrees {g.degree} and {h.degree} differ")
    refine, leaf, root = _conjugacy([(h, h)])
    return _Backtrack(g.chain, refine, leaf, "normaliser").subgroup(root)


def conjugator(g, pairs):
    """Some x in g with h^x = k for every (h, k) in pairs, or None."""
    if any(x.degree != g.degree for pair in pairs for x in pair):
        raise DegreeMismatch(f"a group in the pairs does not have degree {g.degree}")
    if any(h.order() != k.order() for h, k in pairs):
        return None
    refine, leaf, root = _conjugacy(pairs)
    search = _Backtrack(g.chain, refine, leaf, "conjugator")
    return search.first_hit(0, g.identity, root)


# --- coset actions ----------------------------------------------------------


class CosetAction:
    """The right-coset action on a subgroup's cosets; reps[i] is coset i's canonical element."""

    def __init__(self, group, subgroup):
        if not subgroup.is_subgroup_of(group):
            raise NotSubgroup("subgroup does not sit inside the group")
        self.group = group
        self.subgroup = subgroup
        self._mul = product(group.degree)
        tree = orbit(self._canon(group.identity.images), [pack(s.images) for s in group.generators],
                     lambda z, s: self._canon(self._mul(z, s)))
        self._index = {z: i for i, z in enumerate(tree)}
        self.reps = [Permutation._unchecked(z) for z in tree]
        perms = [self.act(s) for s in group.generators]
        self.image = PermGroup(perms, degree=len(tree), name=f"coset action of {group.name or 'G'}")

    def _canon(self, z):
        """Images of the canonical element of the coset H z, z given by its images."""
        for lv in self.subgroup.chain.levels:
            beta = min(lv.orbit, key=z.__getitem__)
            if beta != lv.point:
                z = self._mul(lv.u(beta).images, pack(z))
        return z

    @property
    def degree(self):
        return len(self.reps)

    def act(self, p):
        """The permutation induced on the cosets by an element of the group."""
        if p.degree != self.group.degree:
            raise DegreeMismatch(f"degrees {p.degree} and {self.group.degree} differ")
        try:
            table = pack(p.images)
            return Permutation([self._index[self._canon(self._mul(r.images, table))] for r in self.reps])
        except KeyError:
            raise NotSubgroup("element is not in the group") from None

    def is_faithful(self):
        return self.image.order() == self.group.order()
