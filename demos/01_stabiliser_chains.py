"""Stabiliser chains: orders, membership, and orbits from a handful of generators.

A permutation group is stored by its generators; everything else (order,
membership tests, point stabilisers, uniform-ish random elements) comes out
of a base and strong generating set computed once and cached.
"""

import random

from permdec import PermGroup, Permutation

C = Permutation.from_cycles

# Mathieu group M12 from three standard generators on 12 points
m12 = PermGroup(
    [
        C(12, [tuple(range(11))]),
        C(12, [(2, 6, 10, 7), (3, 9, 4, 5)]),
        C(12, [(0, 11), (1, 10), (2, 5), (3, 7), (4, 8), (6, 9)]),
    ],
    name="M12",
)

print(f"|M12| = {m12.order()}")  # 95040, from 3 generators
print(f"transitive: {m12.is_transitive()}")
print(f"base: {m12.chain.base}")

# membership is a sift down the chain, not a search
x = C(12, [(0, 1)])
print(f"(0 1) in M12: {m12.contains(x)}")

# a point stabiliser keeps the lower levels of M12's chain: no new chain is built
stab = m12.point_stabiliser(0)
print(f"|M12_0| = {stab.order()}  (index {m12.order() // stab.order()})")

# orbit-stabiliser in action
assert len(m12.orbit(0)) * stab.order() == m12.order()

rng = random.Random(0)
sample = [m12.random_element(rng) for _ in range(5)]
print("orders of 5 random elements:", sorted(p.order() for p in sample))
