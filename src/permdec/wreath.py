"""Wreath products in product action and full stabilisers of decompositions.

Points of the product action on Gamma^l are encoded big-endian mixed
radix: coordinate 0 is the most significant digit. The natural Cartesian
decomposition has one partition per coordinate, whose blocks are the
fibres of that coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

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
    coords = []
    for _ in range(spec.top_count):
        point, c = divmod(point, spec.base_size)
        coords.append(c)
    return tuple(reversed(coords))


def _strides(radices):
    out = [1] * len(radices)
    for i in range(len(radices) - 2, -1, -1):
        out[i] = out[i + 1] * radices[i + 1]
    return out


def _decode_mixed(radices, point):
    coords = []
    for r in reversed(radices):
        point, c = divmod(point, r)
        coords.append(c)
    return tuple(reversed(coords))


def _coord_perm(radices, i, images_on_values):
    """The permutation applying a value map to coordinate i only."""
    stride = _strides(radices)[i]
    n = 1
    for r in radices:
        n *= r
    out = [0] * n
    for p in range(n):
        v = (p // stride) % radices[i]
        out[p] = p + (images_on_values[v] - v) * stride
    return Permutation(out)


def _top_perm(radices, sigma):
    """The permutation sending coordinate i to position sigma[i].

    Only valid when the moved radices agree.
    """
    strides = _strides(radices)
    n = 1
    for r in radices:
        n *= r
    out = [0] * n
    for p in range(n):
        coords = _decode_mixed(radices, p)
        q = 0
        moved = [0] * len(radices)
        for i, c in enumerate(coords):
            moved[sigma[i]] = c
        for i, c in enumerate(moved):
            q += c * strides[i]
        out[p] = q
    return Permutation(out)


def natural_decomposition(radices):
    """One partition per coordinate; blocks are the coordinate fibres."""
    strides = _strides(radices)
    n = 1
    for r in radices:
        n *= r
    partitions = []
    for i, r in enumerate(radices):
        fibres = {v: [] for v in range(r)}
        for p in range(n):
            fibres[(p // strides[i]) % r].append(p)
        partitions.append(Partition(fibres.values(), degree=n))
    return CartesianDecomposition(partitions)


def _sym_value_gens(size):
    gens = [list(range(size)) for _ in range(2 if size > 2 else 1)]
    gens[0][0], gens[0][1] = 1, 0
    if size > 2:
        gens[1] = list(range(1, size)) + [0]
    return gens


def product_action_wreath(spec, degree_budget=DEGREE_BUDGET):
    """Sym(Gamma) wr S_l in product action, with its natural decomposition.

    The order, |Gamma|!^l * l!, is known in closed form, so no stabiliser
    chain is built to check it here; w.order() computes it from generators.
    """
    n = spec.degree
    if n > degree_budget:
        raise BudgetExceeded(f"degree {n} exceeds the budget {degree_budget}")
    radices = spec.radices
    gens = [_coord_perm(radices, 0, imgs) for imgs in _sym_value_gens(spec.base_size)]
    swap = list(range(spec.top_count))
    swap[0], swap[1] = 1, 0
    gens.append(_top_perm(radices, swap))
    if spec.top_count > 2:
        cycle = [(i + 1) % spec.top_count for i in range(spec.top_count)]
        gens.append(_top_perm(radices, cycle))
    w = PermGroup(gens, degree=n, name=f"S{spec.base_size} wr S{spec.top_count}")
    e_nat = natural_decomposition(radices)
    check(w.is_transitive(), "the product action wreath is not transitive")
    check(is_invariant(w, e_nat).invariant, "the wreath moves its natural decomposition")
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
    indexers = [p.block_index_of() for p in e.partitions]
    strides = _strides(radices)
    images = [0] * n
    for point in range(n):
        natural = sum(indexers[i][point] * strides[i] for i in range(len(radices)))
        images[natural] = point
    relabel = Permutation(images)

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
        for imgs in _sym_value_gens(c):
            gens.append(_coord_perm(radices, positions[0], imgs))
        if size >= 2:
            swap = list(range(len(counts)))
            swap[positions[0]], swap[positions[1]] = positions[1], positions[0]
            gens.append(_top_perm(radices, swap))
        if size > 2:
            cycle = list(range(len(counts)))
            for k in range(size):
                cycle[positions[k]] = positions[(k + 1) % size]
            gens.append(_top_perm(radices, cycle))
        expected *= factorial(c) ** size * factorial(size)
        if size == 1:
            structure_bits.append(f"S{c}")
        else:
            structure_bits.append(f"S{c} wr S{size}")

    conj = [g.conjugate_by(relabel) for g in gens]
    group = PermGroup(conj, degree=n, name=" x ".join(structure_bits))
    check(is_invariant(group, e).invariant, "the full stabiliser moves the decomposition")
    return StabiliserResult(group, homogeneous, " x ".join(structure_bits), expected)
