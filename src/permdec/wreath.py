"""Wreath products in product action and full stabilisers of decompositions.

Points of the product action on Gamma^l are encoded big-endian mixed
radix: coordinate 0 is the most significant digit, and coordinate i of
point p is (p // strides[i]) % radices[i]. The natural Cartesian
decomposition has one partition per coordinate, whose blocks are the
fibres of that coordinate. Any Cartesian decomposition E identifies each
point with the tuple of its blocks, one per partition of E, and one
routine, ``full_stabiliser``, builds Stab(E) as maps on those tuples. The
wreath product Sym(Gamma) wr S_l in product action is the stabiliser of
the natural decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cartesian import CartesianDecomposition, is_invariant, validate_decomposition
from .errors import BudgetExceeded, InvalidDecomposition, InvalidInput, PointOutOfRange, check
from .group import PermGroup
from .perm import Partition, Permutation, check_count, check_points

DEGREE_BUDGET = 10**5


@dataclass(frozen=True)
class WreathSpec:
    base_size: int
    top_count: int

    def __post_init__(self):
        if (check_count(self.base_size, "base size") < 2
                or check_count(self.top_count, "top count") < 2):
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
        if type(c) is not int or not 0 <= c < spec.base_size:
            raise PointOutOfRange(f"coordinate {c!r} outside 0..{spec.base_size - 1}")
        point = point * spec.base_size + c
    return point


def decode(spec, point):
    """Point -> tuple of coordinates."""
    check_points(spec.degree, (point,))
    radices = spec.radices
    return tuple((point // s) % r for s, r in zip(_strides(radices), radices))


def _strides(radices):
    out = [1] * len(radices)
    for i in range(len(radices) - 2, -1, -1):
        out[i] = out[i + 1] * radices[i + 1]
    return out


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
    coordinate order, so a point's block tuple is its coordinate tuple and W
    is generated by Sym(Gamma) on coordinate 0 and S_l on the coordinates. Its order,
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


def full_stabiliser(e):
    """The stabiliser of a Cartesian decomposition in the full symmetric group.

    e identifies each point with the tuple of blocks holding it, one block
    index per partition, and every generator is a map on those tuples. Per
    class of partitions with c >= 2 blocks, Sym(c) relabels the blocks of
    the class's first partition and, for two or more partitions, Sym(class
    size) permutes the partitions; a one-block partition is fixed by every
    permutation and adds nothing. Distinct block counts give a direct
    product, reported with homogeneous=False. expected_order is the
    closed-form order; group.order() recomputes it from the generators,
    which the atlas does for its W_order rows.
    """
    report = validate_decomposition(e)
    if not report.valid:
        raise InvalidDecomposition(f"invalid decomposition: witness {report.witness}")
    keys = list(zip(*(p.block_index_of() for p in e.partitions)))
    point_of = {key: x for x, key in enumerate(keys)}

    classes = {}
    for pos, p in enumerate(e.partitions):
        classes.setdefault(p.block_count, []).append(pos)
    gens = []
    structure_bits = []
    expected = 1
    for c, positions in sorted(classes.items()):
        if c == 1:
            continue
        first, size = positions[0], len(positions)
        for imgs in _sym_gens(c):
            moved = [key[:first] + (imgs[key[first]],) + key[first + 1:] for key in keys]
            gens.append(Permutation([point_of[key] for key in moved]))
        for imgs in _sym_gens(size) if size >= 2 else ():
            # partition positions[k] takes the place of partition positions[imgs[k]]
            source = list(range(e.index))
            for k, j in enumerate(imgs):
                source[positions[j]] = positions[k]
            gens.append(Permutation([point_of[tuple(key[i] for i in source)] for key in keys]))
        expected *= math.factorial(c) ** size * math.factorial(size)
        structure_bits.append(f"S{c} wr S{size}" if size >= 2 else f"S{c}")

    structure = " x ".join(structure_bits) or "1"
    group = PermGroup(gens, degree=e.degree, name=structure)
    check(is_invariant(group, e).invariant, "the full stabiliser moves the decomposition")
    return StabiliserResult(group, e.is_homogeneous(), structure, expected)
