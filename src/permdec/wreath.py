"""Wreath products in product action and full stabilisers of decompositions.

Points of the product action on Gamma^l are encoded big-endian mixed
radix: coordinate 0 is the most significant digit, and coordinate i of
point p is (p // strides[i]) % radices[i]. The natural Cartesian
decomposition has one partition per coordinate, whose blocks are the
fibres of that coordinate. The wreath product Sym(Gamma) wr S_l in product
action is the full stabiliser of the natural decomposition; one routine,
``full_stabiliser``, builds the stabiliser of any decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cartesian import CartesianDecomposition, is_invariant, validate_decomposition
from .errors import (
    BudgetExceeded,
    InvalidDecomposition,
    InvalidInput,
    NotHomogeneous,
    PointOutOfRange,
    check,
)
from .group import PermGroup
from .perm import Partition, Permutation

DEGREE_BUDGET = 10**5


@dataclass(frozen=True)
class WreathSpec:
    base_size: int
    top_count: int

    def __post_init__(self):
        if self.base_size < 2 or self.top_count < 2:
            raise InvalidInput("need base size >= 2 and top count >= 2")

    @property
    def degree(self):
        return self.base_size**self.top_count

    @property
    def radices(self):
        return (self.base_size,) * self.top_count


def encode(spec, coords):
    """Tuple of coordinates -> point, big-endian mixed radix."""
    coords = tuple(coords)
    if len(coords) != spec.top_count:
        raise PointOutOfRange(f"expected {spec.top_count} coordinates, got {len(coords)}")
    point = 0
    for c in coords:
        if not 0 <= c < spec.base_size:
            raise PointOutOfRange(f"coordinate {c} outside 0..{spec.base_size - 1}")
        point = point * spec.base_size + c
    return point


def decode(spec, point):
    """Point -> tuple of coordinates."""
    if not 0 <= point < spec.degree:
        raise PointOutOfRange(f"point {point} outside 0..{spec.degree - 1}")
    radices = spec.radices
    return tuple((point // s) % r for s, r in zip(_strides(radices), radices))


def _strides(radices):
    out = [1] * len(radices)
    for i in range(len(radices) - 2, -1, -1):
        out[i] = out[i + 1] * radices[i + 1]
    return out


def _coord_perm(radices, i, images_on_values):
    """The permutation applying a value map to coordinate i only."""
    stride, r = _strides(radices)[i], radices[i]
    out = [0] * math.prod(radices)
    for p in range(len(out)):
        v = (p // stride) % r
        out[p] = p + (images_on_values[v] - v) * stride
    return Permutation(out)


def _top_perm(radices, sigma):
    """The permutation sending coordinate i to position sigma[i].

    Only valid when the moved radices agree.
    """
    strides = _strides(radices)
    out = [0] * math.prod(radices)
    for i, (s, r) in enumerate(zip(strides, radices)):
        t = strides[sigma[i]]
        out = [q + (p // s) % r * t for p, q in enumerate(out)]
    return Permutation(out)


def natural_decomposition(radices):
    """One partition per coordinate; blocks are the coordinate fibres."""
    n = math.prod(radices)
    partitions = []
    for s, r in zip(_strides(radices), radices):
        fibres = [[] for _ in range(r)]
        for p in range(n):
            fibres[(p // s) % r].append(p)
        partitions.append(Partition(fibres, degree=n))
    return CartesianDecomposition(partitions)


def _sym_gens(size):
    """Image lists of a transposition and, for size > 2, a size-cycle: Sym(size)."""
    swap = [1, 0] + list(range(2, size))
    return [swap, list(range(1, size)) + [0]] if size > 2 else [swap]


def product_action_wreath(spec, degree_budget=DEGREE_BUDGET):
    """Sym(Gamma) wr S_l in product action, with its natural decomposition.

    W is the full stabiliser of the natural decomposition in Sym(Gamma^l),
    ``full_stabiliser(e_nat).group``: the natural partitions sort in
    coordinate order, so the relabelling is the identity and W is generated
    by Sym(Gamma) on coordinate 0 and S_l on the coordinates. Its order,
    |Gamma|!^l * l!, is not checked here; w.order() computes it from the
    generators.
    """
    # base >= 2 makes the degree at least 2^l, so a long top needs no power
    if spec.top_count >= degree_budget.bit_length() or spec.degree > degree_budget:
        raise BudgetExceeded(f"wr:{spec.base_size}^{spec.top_count} has degree above "
                             f"the budget {degree_budget}")
    e_nat = natural_decomposition(spec.radices)
    w = full_stabiliser(e_nat).group
    check(w.is_transitive(), "the product action wreath is not transitive")
    return w, e_nat


@dataclass(frozen=True)
class StabiliserResult:
    group: PermGroup
    homogeneous: bool
    structure: str
    expected_order: int


def full_stabiliser(e, require_homogeneous=True):
    """The stabiliser of a Cartesian decomposition in the full symmetric group.

    Built as the stabiliser of the natural decomposition with the same
    block counts, conjugated by the relabelling matching natural blocks
    to the blocks of e. Partitions with equal block counts may be
    permuted; distinct counts give a plain direct product, reported with
    homogeneous=False (and rejected when require_homogeneous is set).
    expected_order is the closed-form order; group.order() recomputes it
    from the generators, which the atlas does for its W_order rows.
    """
    report = validate_decomposition(e)
    if not report.valid:
        raise InvalidDecomposition(f"invalid decomposition: witness {report.witness}")
    homogeneous = e.is_homogeneous()
    if require_homogeneous and not homogeneous:
        raise NotHomogeneous(
            "inhomogeneous decomposition; call with require_homogeneous=False "
            "for the direct-product stabiliser"
        )

    counts = [p.block_count for p in e.partitions]
    radices = tuple(counts)
    n = e.degree

    # relabelling: natural point with digits (b_1..b_l) -> the unique point
    # lying in block b_i of partition i for every i
    naturals = [0] * n
    for p, s in zip(e.partitions, _strides(radices)):
        naturals = [q + k * s for q, k in zip(naturals, p.block_index_of())]
    relabel = Permutation(naturals).inverse()

    # generators per class of equal block count; the top action is
    # transitive on each class so one coordinate of value gens suffices
    classes = {}
    for pos, c in enumerate(counts):
        classes.setdefault(c, []).append(pos)
    gens = []
    structure_bits = []
    expected = 1
    for c in sorted(classes):
        positions = classes[c]
        size = len(positions)
        for imgs in _sym_gens(c):
            gens.append(_coord_perm(radices, positions[0], imgs))
        for imgs in _sym_gens(size) if size >= 2 else ():
            sigma = list(range(len(counts)))
            for k, j in enumerate(imgs):
                sigma[positions[k]] = positions[j]
            gens.append(_top_perm(radices, sigma))
        expected *= math.factorial(c) ** size * math.factorial(size)
        if size == 1:
            structure_bits.append(f"S{c}")
        else:
            structure_bits.append(f"S{c} wr S{size}")

    conj = [g.conjugate_by(relabel) for g in gens]
    group = PermGroup(conj, degree=n, name=" x ".join(structure_bits))
    check(is_invariant(group, e).invariant, "the full stabiliser moves the decomposition")
    return StabiliserResult(group, homogeneous, " x ".join(structure_bits), expected)
