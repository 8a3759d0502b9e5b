"""Cartesian decompositions and Cartesian systems, and the maps between them.

A Cartesian decomposition of the point set is a list of partitions such
that every choice of one block per partition meets in exactly one point.
A Cartesian system for a transitive group M with base point w is a list
of subgroups K_1..K_l with intersection M_w such that each K_i times the
intersection of the others is all of M. For a transitive normal subgroup
that fixes every partition, the two notions correspond via K_i = the
stabiliser of the block containing w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import (
    DegreeMismatch,
    InvalidDecomposition,
    InvalidSystem,
    NotInnatelyTransitive,
    NotInvariant,
    NotSubgroup,
    check,
)
from .factor import _eq2
from .group import PermGroup
from .perm import Partition, check_points
from .structure import (
    ORDER_BOUND,
    intersect,  # noqa: F401  re-exported; perfbench's tracer test wraps cartesian.intersect
    interval_subgroups,
    is_innately_transitive,
    partition_from_block,
    setwise_stabiliser,
)


class CartesianDecomposition:
    """An ordered list of distinct partitions of a common point set (canonical order)."""

    __slots__ = ("partitions", "degree")

    def __init__(self, partitions):
        partitions = sorted(partitions)
        if not partitions:
            raise InvalidDecomposition("no partitions given")
        degree = partitions[0].degree
        for p, q in zip(partitions, partitions[1:]):
            if q.degree != degree:
                raise DegreeMismatch(f"partition degrees {q.degree} and {degree} differ")
            if p == q:
                raise InvalidDecomposition(f"repeated partition {p!r}")
        object.__setattr__(self, "partitions", tuple(partitions))
        object.__setattr__(self, "degree", degree)

    @property
    def index(self):
        return len(self.partitions)

    def is_homogeneous(self):
        counts = {p.block_count for p in self.partitions}
        sizes = {s for p in self.partitions for s in p.block_sizes()}
        return len(counts) == 1 and len(sizes) == 1 and min(sizes) >= 2

    def __eq__(self, other):
        return (
            isinstance(other, CartesianDecomposition) and self.partitions == other.partitions
        )

    def __hash__(self):
        return hash(self.partitions)

    def __lt__(self, other):
        return (self.index, self.partitions) < (other.index, other.partitions)

    def __repr__(self):
        return f"CartesianDecomposition(index={self.index}, degree={self.degree})"


@dataclass(frozen=True)
class DecompositionReport:
    valid: bool
    index: int
    homogeneous: bool
    block_counts: tuple
    block_sizes: tuple
    witness: tuple | None = None


def validate_decomposition(e):
    """Check the one-point-per-block-choice condition.

    Decided by injectivity of the point -> block-index-tuple map together
    with the product count, which is equivalent to inspecting all block
    choices. A concrete offending block choice is reported as witness.
    Neither scan passes degree + 1 steps: a repeated tuple ends the first,
    and when the degree points have distinct tuples one of the first
    degree + 1 tuples in product order is unused.
    """
    total = math.prod(p.block_count for p in e.partitions)
    indexers = [p.block_index_of() for p in e.partitions]
    seen = {}
    witness = None
    for point, key in enumerate(zip(*indexers)):
        if key in seen:
            witness = tuple(e.partitions[i].blocks[k] for i, k in enumerate(key))
            break
        seen[key] = point
    if witness is None and total != e.degree:
        # some block choice is empty; find the first unused index tuple
        for key in product(*[range(p.block_count) for p in e.partitions]):
            if key not in seen:
                witness = tuple(e.partitions[i].blocks[k] for i, k in enumerate(key))
                break
    valid = witness is None and total == e.degree
    return DecompositionReport(
        valid=valid,
        index=e.index,
        homogeneous=e.is_homogeneous(),
        block_counts=tuple(p.block_count for p in e.partitions),
        block_sizes=tuple(p.block_sizes() for p in e.partitions),
        witness=witness,
    )


@dataclass(frozen=True)
class InvarianceReport:
    invariant: bool
    generator_actions: tuple  # per generator: tuple mapping partition i -> j
    witness: Partition | None = None


def is_invariant(g, e):
    """Whether g permutes the partitions of e, with the induced action."""
    if g.degree != e.degree:
        raise DegreeMismatch(f"degrees {g.degree} and {e.degree} differ")
    lookup = {p: i for i, p in enumerate(e.partitions)}
    actions = []
    for x in g.generators:
        row = []
        for p in e.partitions:
            img = p.apply(x)
            j = lookup.get(img)
            if j is None:
                return InvarianceReport(False, tuple(), witness=img)
            row.append(j)
        actions.append(tuple(row))
    return InvarianceReport(True, tuple(actions))


class CartesianSystem:
    """Subgroups K_1..K_l of a transitive group M, anchored at a base point."""

    __slots__ = ("ambient", "base_point", "subgroups")

    def __init__(self, ambient, base_point, subgroups):
        subgroups = tuple(subgroups)
        if not subgroups:
            raise InvalidSystem("no subgroups given")
        check_points(ambient.degree, [base_point])
        for k in subgroups:  # is_subgroup_of raises DegreeMismatch on another degree
            if not k.is_subgroup_of(ambient):
                raise NotSubgroup("system member is not a subgroup of the ambient group")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "base_point", base_point)
        object.__setattr__(self, "subgroups", subgroups)

    @property
    def index(self):
        return len(self.subgroups)

    def is_homogeneous(self):
        m_order = self.ambient.order()
        orders = {k.order() for k in self.subgroups}
        return len(orders) == 1 and m_order not in orders

    def conjugate(self, m):
        return CartesianSystem(
            self.ambient,
            m.images[self.base_point],
            [PermGroup([g.conjugate_by(m) for g in k.generators], degree=k.degree)
             for k in self.subgroups],
        )

    def same_system(self, other):
        """Equality as sets of subgroups over the same ambient and base point."""
        if (
            self.base_point != other.base_point
            or self.index != other.index
            or not self.ambient.same_group(other.ambient)
        ):
            return False
        unmatched = list(other.subgroups)
        for k in self.subgroups:
            for i, k2 in enumerate(unmatched):
                if k.same_group(k2):
                    del unmatched[i]
                    break
            else:
                return False
        return True

    def __repr__(self):
        return (
            f"CartesianSystem(index={self.index}, base_point={self.base_point},"
            f" orders={[k.order() for k in self.subgroups]})"
        )


@dataclass(frozen=True)
class SystemReport:
    valid: bool
    eq1: bool
    eq2: tuple  # per-subgroup booleans
    homogeneous: bool
    omega_prediction: int
    orders: tuple
    failing_index: int | None = None


def validate_system(k):
    """Check eqs. (1) and (2) of a Cartesian system, both from ``factor._eq2``."""
    m = k.ambient
    m_order = m.order()
    inter_all, _, eq2 = _eq2(m, k.subgroups)
    eq1 = inter_all.same_group(m.point_stabiliser(k.base_point))
    failing = next((i for i, ok in enumerate(eq2) if not ok), None)
    return SystemReport(
        valid=eq1 and all(eq2),
        eq1=eq1,
        eq2=eq2,
        homogeneous=k.is_homogeneous(),
        omega_prediction=math.prod(m_order // sub.order() for sub in k.subgroups),
        orders=tuple(sub.order() for sub in k.subgroups),
        failing_index=failing,
    )


def plinth_fixes_partitions(m, e):
    """Whether every generator of m fixes every partition of e setwise."""
    if m.degree != e.degree:
        raise DegreeMismatch(f"degrees {m.degree} and {e.degree} differ")
    return all(p.apply(x) == p for p in e.partitions for x in m.generators)


def to_system(m, e, omega=0):
    """The Cartesian system of block stabilisers at omega."""
    m.require_transitive()
    report = validate_decomposition(e)
    if not report.valid:
        raise InvalidDecomposition(f"invalid decomposition: witness {report.witness}")
    if not plinth_fixes_partitions(m, e):
        raise NotInvariant("a partition is moved by a group generator")
    system = _system_of(m, e, omega)
    sys_report = validate_system(system)
    if not sys_report.valid:
        raise InvalidSystem(f"block stabilisers fail the system equations: {sys_report}")
    return system


def _system_of(m, e, omega):
    """The block stabilisers at omega of a valid decomposition that m fixes, unchecked."""
    blocks = [p.block_containing(omega) for p in e.partitions]
    return CartesianSystem(m, omega, [setwise_stabiliser(m, b) for b in blocks])


def covariance_check(m, e, omega, mover):
    """Whether the system at omega^mover is the mover-conjugate of the one at omega."""
    if not m.contains(mover):
        raise NotSubgroup("the moving element lies outside the group")
    lhs = to_system(m, e, omega).conjugate(mover)
    rhs = to_system(m, e, mover.images[omega])
    return lhs.same_system(rhs)


def to_decomposition(k):
    """The decomposition whose partitions are the translates of the orbits w^K_i."""
    report = validate_system(k)
    if not report.valid:
        raise InvalidSystem(f"system equations fail: {report}")
    m = k.ambient
    m.require_transitive()
    blocks = [sub.orbit(k.base_point) for sub in k.subgroups]
    e = CartesianDecomposition([partition_from_block(m, b) for b in blocks])
    if not validate_decomposition(e).valid:
        raise InvalidSystem("translated orbits do not form a Cartesian decomposition")
    return e


# --- enumeration -------------------------------------------------------------


def _resolve_plinth(g, plinth, bound):
    if plinth is None:
        report = is_innately_transitive(g, bound=bound)
        if not report.innately_transitive:
            raise NotInnatelyTransitive(
                "no transitive minimal normal subgroup; supply plinth= explicitly"
            )
        return report.plinths[0]
    if not plinth.is_transitive():
        raise NotInnatelyTransitive("supplied plinth is not transitive")
    if not plinth.is_subgroup_of(g):
        raise NotSubgroup("supplied plinth is not a subgroup")
    for x in g.generators:
        for y in plinth.generators:
            if not plinth.contains(y.conjugate_by(x)):
                raise NotInnatelyTransitive("supplied plinth is not normal")
    return plinth


def enumerate_cartesian_systems(g, omega=0, plinth=None, bound=ORDER_BOUND):
    """All G_omega-invariant Cartesian systems of the plinth, as block subsets.

    Works entirely in the lattice of blocks through omega, where a subgroup
    between M_omega and M is its omega-orbit and a meet of subgroups the meet
    of their blocks. Blocks B_i meeting in {omega}, eq. (1), with indices
    n / |B_i| of product n also satisfy eq. (2): for L_i the meet of the other
    K_j, |M : L_i| <= n / |M : K_i|, so |K_i L_i| = |K_i||L_i| / |M_omega| >= |M|.
    Returns (plinth, list of block tuples, block -> stabiliser in the plinth),
    the stabilisers as the lattice generates them.
    """
    g.require_transitive()
    m = _resolve_plinth(g, plinth, bound)
    n = g.degree

    stabilisers = dict(interval_subgroups(m, omega))
    proper = [b for b in stabilisers if 1 < len(b) < n]  # already in (size, points) order

    stab_gens = g.point_stabiliser(omega).generators

    results = []

    def gomega_invariant(chosen):
        chosen_set = set(chosen)
        return all(x.act_on_set(b) in chosen_set for b in chosen for x in stab_gens)

    # depth-first over increasing block indices; children are pushed in
    # reverse so they pop, and results appear, in ascending order
    stack = [(0, [], 1)]
    while stack:
        start, chosen, prod = stack.pop()
        if (len(chosen) >= 2 and prod == n and frozenset.intersection(*chosen) == {omega}
                and gomega_invariant(chosen)):
            results.append(tuple(chosen))
        if prod >= n:
            continue
        for i in reversed(range(start, len(proper))):
            count = n // len(proper[i])
            if prod * count <= n:
                stack.append((i + 1, chosen + [proper[i]], prod * count))
    return m, results, stabilisers


def enumerate_cartesian_decompositions(g, omega=0, plinth=None, bound=ORDER_BOUND):
    """The complete list of g-invariant Cartesian decompositions, canonical order."""
    m, block_tuples, _ = enumerate_cartesian_systems(g, omega=omega, plinth=plinth, bound=bound)
    return sorted(set(_decompositions(g, m, block_tuples)))


def _decompositions(g, m, block_tuples):
    """The checked decomposition of each of the plinth m's block tuples, in order."""
    out = []
    for chosen in block_tuples:
        e = CartesianDecomposition([partition_from_block(m, b) for b in chosen])
        check(validate_decomposition(e).valid, "translated blocks are not a decomposition")
        check(is_invariant(g, e).invariant, "an enumerated decomposition is not g-invariant")
        check(plinth_fixes_partitions(m, e), "the plinth moves an enumerated partition")
        out.append(e)
    return out


@dataclass(frozen=True)
class RoundTripReport:
    decomposition_count: int
    forward_ok: bool
    backward_ok: bool
    details: tuple = ()
    decompositions: tuple = ()  # sorted
    systems: tuple = ()  # the block stabilisers at omega of each decomposition, in its order

    @property
    def ok(self):
        return self.forward_ok and self.backward_ok


def round_trip_check(g, omega=0, plinth=None):
    """Both directions of the decomposition/system bijection on g, in one pass.

    Each enumerated block tuple gives a decomposition e (the translates of
    its blocks) and a system K (the stabilisers in M of its blocks, as the
    block lattice generates them). One check per direction suffices:

    - forward, e -> K -> e: ``to_decomposition(K)`` validates K once and
      must give back e;
    - backward, K -> e -> K: the block stabilisers of e at omega, found by
      the setwise-stabiliser search (``_system_of``), must be the same
      system as the lattice's K.

    Two tuples giving one decomposition show as a count mismatch. The
    report also carries the sorted decompositions and their searched systems.
    """
    m, block_tuples, stabilisers = enumerate_cartesian_systems(g, omega=omega, plinth=plinth)
    forward, backward, systems = {}, [], {}
    for chosen, e in zip(block_tuples, _decompositions(g, m, block_tuples)):
        k = CartesianSystem(m, omega, [stabilisers[b] for b in chosen])
        forward[e] = to_decomposition(k) == e
        systems[e] = _system_of(m, e, omega)
        backward.append((k.index, systems[e].same_system(k)))
    decomps = sorted(forward)

    details = [f"decomposition index {e.index}: round trip {'ok' if forward[e] else 'FAIL'}"
               for e in decomps]
    details += [f"system index {index}: round trip {'ok' if good else 'FAIL'}"
                for index, good in backward]
    backward_ok = all(good for _, good in backward)
    if len(backward) != len(decomps):
        backward_ok = False
        details.append(f"count mismatch: {len(backward)} systems vs {len(decomps)} decompositions")

    return RoundTripReport(len(decomps), all(forward.values()), backward_ok, tuple(details),
                           tuple(decomps), tuple(systems[e] for e in decomps))
