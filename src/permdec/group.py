"""Permutation groups with a deterministic base-and-strong-generating-set.

The stabiliser chain is built by the classic deterministic Schreier-Sims
procedure (Seress, *Permutation Group Algorithms*, ch. 4). Base points are
chosen as the first point moved by the generator that forces a new level,
processing generators in input order, so the whole construction is
reproducible for a fixed generator list.

Levels are completed deepest first, each by one sweep that sifts its
Schreier generators u * s * u_gamma^-1 into the levels below, adds any
residue there and completes again the levels the residue was added to.
One sweep is enough: level i's generators and orbit stay fixed during it
(residues go deeper), and a Schreier generator that sifted to the identity,
or whose residue was added, lies in the group of the completed levels
below, which only grows. A level the residue missed keeps its generators,
as does every level below it, so it stays complete. Sweeps sit on an
explicit stack. A level is laid out when its sweep is scheduled, as only
sweeps of shallower levels, waiting below it on the stack, add to it. What
is acted on (u_x, Schreier generators, sift residues, ``contains``
queries) is a permutation's own images, n bytes up to 256 points. What
acts from the right (u_x^-1, each generator and its inverse) is kept as a
table (``perm.pack``, 256 bytes up to 256 points). So a product, bound
once per chain by degree (``perm.product``), is one ``bytes.translate``;
above 256 points both are the image tuple. A level keeps one list of
(generator, table, inverse table) entries and a Schreier tree
{x: (parent, generator index)}, along which u_x is the ``Permutation``
u_parent * s, the level's only copy of u_x, and u_x^-1 the table
s^-1 * u_parent^-1, a table per orbit point, in a list indexed by point and
None off the orbit, so a sift reads one subscript per level. Outside this
module a level is read only through ``point``, ``orbit`` and ``u``. A sift
or Schreier generator skips each level whose base point it already fixes,
as the transversal element there is the identity. A sift stops once its
residue is the identity.

A re-sweep is incremental. Each level keeps its Schreier tree, and a new
tree reuses u_x and u_x^-1 for each point x whose tree edge and every
ancestor edge are unchanged; such a point is kept. A finished sweep records
how many generators the level had. A later sweep skips the pair (beta, s)
when s was one of those and both beta and beta^s are kept: its Schreier
generator is the very element the last finished sweep sifted, so it lies in
the group of the levels below, which were complete then and have only grown
since. A sweep also leaves unsifted a Schreier generator that is the
identity or one of the generators level i + 1 held when the sweep began: the
levels from i + 1 are complete while level i sweeps, so every element of the
group of level i + 1's generators sifts to the identity. That covers the pair
(b_i, s) for s fixing b_i, the level's point, whose Schreier generator is s
itself, which _add_gen put on level i + 1 too. Sifting either kind would give
the identity and add nothing, so every chain is the one a sweep over all pairs
builds.

A sweep also ends, as a finished one, once ``_proven_complete`` proves level
i complete, asked before the first pair and after each residue's levels are
completed again. Level i holds exactly the generators fixing b_0..b_{i-1}, so
their group H_i lies in G_i, the stabiliser of b_0..b_{i-1}, and |H_i| >=
|O_i| |O_{i+1}| ..., for the orbits O_j = b_j^H_j, with equality just when the
levels from i are complete. (a) If level i's generators fix every point off
O_i, |H_i| <= |O_i|!, a product that needs |O_{i+1}| = |O_i| - 1. (b) As
|O_j| <= |G_j : G_{j+1}|, a product equal to a known |G| makes every orbit
full and the base's stabiliser trivial, so H_j = G_j, deepest level first.
A pair left unsifted then gives an element of H_{i+1}, the chain is a full
sweep's, and ``swept`` may skip that pair later. ``order=`` is read only
here, against current orbits.

``_Chain.extend`` re-sweeps only the levels a new generator touches; only
``group_from_generators`` and ``normal_closure`` extend, each a chain it
then adopts; ``on_base`` adopts one it lays out on the given points,
each new level taking the next one, so a subgroup of G laid out on a
base of G has a prefix of it as base. ``chain_with_base`` gives a chain, for
reading only, whose base agrees with the given points as far as both go: the
cached one if it does (past a chain's end the stabiliser is trivial), else a
rebuild from its strong generators given |G|, each sweep ending at once when
their orbits reach it, by (b). A point stabiliser adopts levels 1 onward of
``chain_with_base((point,))``, made at most once per point; its level 0 is the
point's orbit transversal, so ``_Level.recompute_orbit`` makes every
transversal element.
"""

from __future__ import annotations

import copy
from math import factorial, prod

from .errors import DegreeMismatch, InvalidInput, NotTransitive
from .perm import Permutation, check_count, check_points, identity_images, pack, product


def orbit(start, gens, act=None):
    """The Schreier tree of start under gens: {x: (parent, j)}, x the image of
    parent under gens[j], None at the root.

    act(x, s) is the image of x under s; without act each s is an image
    sequence or a table, and x maps to s[x]. The tree is built breadth first
    and its keys come in that order, each after its parent; no products are made.
    """
    tree = {start: None}
    queue = [start]
    for x in queue:  # the loop visits points appended during it
        for j, s in enumerate(gens):
            y = s[x] if act is None else act(x, s)
            if y not in tree:
                tree[y] = (x, j)
                queue.append(y)
    return tree


class _Level:
    __slots__ = ("point", "gens", "orbit", "tree", "transversal", "inv", "swept")

    def __init__(self, point):
        self.point = point
        self.gens = []  # (generator, table, inverse table)
        self.orbit = [point]
        self.tree = {}  # {x: (parent, generator index)}
        self.transversal = {}
        self.inv = []  # u_x^-1 as a table at each orbit point x, else None
        self.swept = 0  # generators the level had when its last sweep finished

    def u(self, beta):
        """u_beta, with point^u_beta = beta, or None when beta is off the orbit."""
        return self.transversal.get(beta)

    def recompute_orbit(self, chain):
        """Rebuild the Schreier tree; return the points whose tree path is unchanged,
        which keep their u_x and u_x^-1."""
        old_tree, old_u, old_inv = self.tree, self.transversal, self.inv
        gens = self.gens
        self.tree = tree = orbit(self.point, [t for _, t, _ in gens])
        self.orbit = list(tree)
        self.transversal = u = {}
        self.inv = inv = [None] * chain.degree
        kept = set()
        mul = chain.mul
        for x, edge in tree.items():  # each parent comes before its children
            if edge is None:
                u[x], inv[x] = Permutation._unchecked(chain.identity), chain.identity_table
            elif edge[0] in kept and old_tree.get(x) == edge:
                u[x], inv[x] = old_u[x], old_inv[x]
            else:
                parent, j = edge
                s, _, s_inv = gens[j]
                u[x] = u[parent] * s
                inv[x] = mul(s_inv, inv[parent])  # u_x^-1 = s^-1 * u_parent^-1
                continue
            kept.add(x)
        return kept


class _Chain:
    """Stabiliser chain: level i generates the stabiliser of base[0..i-1]."""

    def __init__(self, degree, generators, base_hint=(), order=None):
        """Given the group's order, each sweep ends once the orbits' product reaches it."""
        self.degree = degree
        self.levels = []
        self._order = order
        self._hint = iter(base_hint)
        self.mul = product(degree)
        self.identity = identity_images(degree)
        self.identity_table = pack(self.identity)
        for g in generators:
            if not g.is_identity():
                self._add_gen(g, 0)
        self._complete(range(len(self.levels)))

    @property
    def base(self):
        return tuple([level.point for level in self.levels])

    def _new_level_point(self, g):
        point = next(self._hint, None)  # no hint repeats a point
        return g.first_moved() if point is None else point

    def _add_gen(self, g, start):
        """Append g to levels start..k, k the first whose point g moves; return that range."""
        entry = g, pack(g.images), pack(g.inverse().images)
        k = start
        while True:
            if k == len(self.levels):
                self.levels.append(_Level(self._new_level_point(g)))
            self.levels[k].gens.append(entry)
            if g.images[self.levels[k].point] != self.levels[k].point:
                return range(start, k + 1)
            k += 1

    def extend(self, g):
        """Add g unless the group holds it, sweeping again only the levels it touches;
        whether g was added. Never call it on an adopted chain: its levels are shared."""
        if self.contains(g):
            return False
        self._complete(self._add_gen(g, 0))
        return True

    def _strip_images(self, g, start=0):
        """Sift the images g through levels start onward; return the residue."""
        mul, identity = self.mul, self.identity
        for level in self.levels[start:] if start else self.levels:
            point = level.point
            beta = g[point]
            if beta != point:  # else u_beta is the identity
                u_inv = level.inv[beta]
                if u_inv is None:
                    return g
                g = mul(g, u_inv)
                if g == identity:
                    return g
        return g

    def _complete(self, touched):
        """Sweep the touched levels, deepest first, each laid out as its sweep is scheduled;
        re-sweep the levels an addition touches."""
        stack = []
        while True:
            stack += [self._sweep(k, self.levels[k].recompute_orbit(self)) for k in touched]
            while stack and (touched := next(stack[-1], None)) is None:
                stack.pop()
            if not stack:
                return

    def _sweep(self, i, kept):
        """Sift level i's Schreier generators; yield the levels each residue is added to.

        The pair (beta, s) is skipped when s is one of the last finished sweep's
        generators and beta and beta^s are in kept, the points ``recompute_orbit``
        kept when the sweep was scheduled; its Schreier generator is left unsifted
        when it is the identity or a generator level i + 1 held as the sweep began."""
        level = self.levels[i]
        swept, level.swept = level.swept, 0  # an unfinished sweep leaves nothing to skip
        gens = [s for _, s, _ in level.gens]
        mul, identity, n = self.mul, self.identity, self.degree
        held = {identity, *[g.images for lv in self.levels[i + 1:i + 2] for g, _, _ in lv.gens]}
        point = level.point
        done = self._proven_complete(i)
        for beta in level.orbit:
            if done:
                break
            u = level.transversal[beta].images
            sifted = swept if beta in kept else 0  # pairs the last sweep sifted
            for j, s in enumerate(gens):  # u_point is the identity
                gamma = s[beta]
                if done or j < sifted and gamma in kept:
                    continue
                sg = s[:n] if beta == point else mul(u, s)
                if gamma != point:
                    sg = mul(sg, level.inv[gamma])
                if sg in held:
                    continue
                residue = self._strip_images(sg, i + 1)
                if residue != identity:
                    yield self._add_gen(Permutation._unchecked(residue), i + 1)
                    done = self._proven_complete(i)
        level.swept = len(gens)

    def _proven_complete(self, i):
        """Whether level i is complete, the levels below being so: (a) or (b) of the module doc."""
        if self._order is not None and self.order() == self._order:
            return True
        levels, m = self.levels, len(self.levels[i].orbit)
        if i + 1 == len(levels) or len(levels[i + 1].orbit) != m - 1 or prod(
                len(level.orbit) for level in levels[i + 1:]) != factorial(m - 1):
            return False
        off = set(range(self.degree)).difference(levels[i].orbit, [lv.point for lv in levels[:i]])
        return all(s[x] == x for _, s, _ in levels[i].gens for x in off)

    def order(self):
        return prod(len(level.orbit) for level in self.levels)

    def contains(self, g):
        if len(g.images) != self.degree:
            raise DegreeMismatch(f"degrees {g.degree} and {self.degree} differ")
        return self._strip_images(g.images) == self.identity

    def elements(self):
        """All group elements, deterministic order; at most one product per element."""
        out = [Permutation.identity(self.degree)]
        for level in reversed(self.levels):
            rest = [level.u(beta) for beta in level.orbit[1:]]
            out = [f for e in out for f in (e, *(e * u for u in rest))]
        return out

    def random_element(self, rng):
        g = Permutation.identity(self.degree)
        for level in reversed(self.levels):
            beta = rng.choice(level.orbit)
            g = g if beta == level.point else g * level.u(beta)
        return g


class PermGroup:
    """A finite permutation group given by generators on {0,...,n-1}."""

    def __init__(self, generators, degree=None, name=None):
        generators = tuple(generators)
        if degree is None:
            if not generators:
                raise InvalidInput("degree required for an empty generator list")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
        self.degree = check_count(degree, "degree")
        self.generators = generators
        self.name = name
        self._chain = None
        self._rebased = {}

    # chain plumbing ---------------------------------------------------------

    @property
    def chain(self):
        if self._chain is None:
            self._chain = _Chain(self.degree, self.generators)
        return self._chain

    def chain_with_base(self, base_hint):
        """A chain whose base and the given points agree as far as both go, for reading
        only: the cached one if its base does, else one from its strong generators."""
        base = self.chain.base
        if base[:len(base_hint)] == tuple(base_hint)[:len(base)]:
            return self.chain
        strong = {g.images: g for level in self.chain.levels for g, _, _ in level.gens}
        return _Chain(self.degree, strong.values(), base_hint=base_hint, order=self.order())

    @property
    def base(self):
        return self.chain.base

    @property
    def identity(self):
        return Permutation.identity(self.degree)

    # queries ----------------------------------------------------------------

    def order(self):
        return self.chain.order()

    def contains(self, g):
        return self.chain.contains(g)

    def is_trivial(self):
        return self.order() == 1

    def is_transitive(self):
        return self.degree > 0 and len(self.orbit(0)) == self.degree

    def elements(self):
        return self.chain.elements()

    def element_set(self):
        return frozenset(self.chain.elements())

    def random_element(self, rng):
        return self.chain.random_element(rng)

    def orbit(self, point):
        """The orbit of a point, ascending."""
        check_points(self.degree, (point,))
        return tuple(sorted(orbit(point, [s.images for s in self.generators])))

    def orbit_transversal(self, point):
        """Map beta -> u with point^u = beta, read off level 0 of the chain based at point."""
        chain, _ = self._based_at(point)
        return dict(chain.levels[0].transversal) if chain.levels else {point: self.identity}

    def point_stabiliser(self, point):
        """Stabiliser of a point, adopting levels 1 onward of the chain based there."""
        return self._based_at(point)[1]

    def _based_at(self, point):
        """``chain_with_base((point,))`` and the point's stabiliser, made once per point."""
        check_points(self.degree, (point,))
        if point not in self._rebased:
            chain = self.chain_with_base((point,))
            stab = copy.copy(chain)  # shares the levels it keeps
            stab.levels = chain.levels[1:]
            gens = [g for level in stab.levels[:1] for g, _, _ in level.gens]
            self._rebased[point] = chain, _adopting(gens, stab)
        return self._rebased[point]

    # comparisons --------------------------------------------------------------

    def is_subgroup_of(self, other):
        if self.degree != other.degree:
            raise DegreeMismatch(f"degrees {self.degree} and {other.degree} differ")
        return all(other.contains(g) for g in self.generators)

    def same_group(self, other):
        """Equality as subgroups of Sym(n): with equal orders one inclusion is equality."""
        return (self.degree == other.degree and self.order() == other.order()
                and self.is_subgroup_of(other))

    def require_transitive(self):
        if not self.is_transitive():
            raise NotTransitive(f"{self!r} is not transitive")

    def __repr__(self):
        label = self.name or f"{len(self.generators)} gens"
        return f"PermGroup(degree={self.degree}, {label})"


def on_base(generators, degree, base, name=None):
    """The group of the generators, its chain laid out on the given base points first."""
    gens = tuple(generators)
    return _adopting(gens, _Chain(degree, gens, base), name)


def _adopting(generators, chain, name=None):
    """The group of the generators, taking as its chain a complete one of them."""
    group = PermGroup(generators, degree=chain.degree, name=name)
    group._chain = chain
    return group


def group_from_generators(gens, degree, name=None):
    """Group from a redundant generator list, keeping those that enlarge it."""
    chain = _Chain(degree, ())
    return _adopting([g for g in gens if chain.extend(g)], chain, name)


def normal_closure(g, seeds):
    """Smallest normal subgroup of g containing the seed permutations."""
    chain = _Chain(g.degree, ())
    gens = [x for x in seeds if chain.extend(x)]
    for x in gens:  # the loop visits the conjugates kept during it
        gens += [c for c in (x.conjugate_by(s) for s in g.generators) if chain.extend(c)]
    return _adopting(gens, chain)
