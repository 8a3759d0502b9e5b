"""Wreath products in product action and full stabilisers of decompositions.

Sym(k) wr Sym(l) acting on k^l points is the largest group preserving the
natural Cartesian decomposition of the grid; any group that preserves a
homogeneous decomposition embeds into such a wreath product.
"""

from permdec import (
    WreathSpec,
    decode,
    encode,
    full_stabiliser,
    is_invariant,
    product_action_wreath,
)
from permdec.wreath import natural_decomposition

spec = WreathSpec(3, 2)
w, e = product_action_wreath(spec)
print(f"S3 wr S2 on {w.degree} points, order {w.order()}")  # 6^2 * 2 = 72

# points are coordinate tuples in disguise
print("point 5 is", decode(spec, 5), "and back:", encode(spec, (1, 2)))

# the natural decomposition is the pair of coordinate partitions
for part in e.partitions:
    print("  partition:", part.blocks)
print("invariant under the wreath product:", is_invariant(w, e).invariant)

# the full stabiliser of the decomposition recovers the wreath product
result = full_stabiliser(e)
print(f"full stabiliser: {result.structure}, order {result.group.order()}")
assert result.group.same_group(w)

# inhomogeneous grids get a direct product instead of a wreath product
mixed = natural_decomposition((2, 3))
result = full_stabiliser(mixed)
print(f"2x3 grid stabiliser: {result.structure}, order {result.group.order()}")

# at 6^2 = 36 points, the stabiliser of the grid already has order (6!)^2 * 2
big = full_stabiliser(natural_decomposition((6, 6)))
print(f"6x6 grid stabiliser order: {big.expected_order}")
