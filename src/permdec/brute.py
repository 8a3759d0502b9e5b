"""Brute-force oracles used to cross-check the structured algorithms.

Everything here is deliberately naive: direct enumeration against the
definitions, no group theory beyond closure. Keep it that way; the point
is independence from the clever code paths.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from .cartesian import CartesianDecomposition
from .errors import BudgetExceeded
from .perm import Partition, Permutation

ORACLE_STEP_BUDGET = 10**7  # search steps brute_force_decompositions may take
CLOSURE_LIMIT = 10**6  # elements mulclose may list


def uniform_partitions(n, block_size):
    """All partitions of 0..n-1 into blocks of the given size."""
    if n % block_size:
        return []

    def rec(remaining):
        if not remaining:
            yield []
            return
        first = remaining[0]
        rest = remaining[1:]
        for combo in combinations(rest, block_size - 1):
            taken = set(combo)
            left = [x for x in rest if x not in taken]
            for tail in rec(left):
                yield [(first,) + combo] + tail

    return [Partition(bs, degree=n) for bs in rec(tuple(range(n)))]


def proper_uniform_partitions(n):
    """Uniform partitions with 1 < block size < n, smallest blocks first."""
    out = []
    for size in range(2, n):
        if n % size == 0:
            out.extend(uniform_partitions(n, size))
    return out


def is_cartesian_set(partitions):
    """Directly check the partitions are distinct and each block choice meets in one point."""
    partitions = list(partitions)
    degrees = {p.degree for p in partitions}
    # one point per choice makes as many choices as points; this bounds the scan
    if (len(degrees) != 1 or len(set(partitions)) < len(partitions)
            or math.prod(p.block_count for p in partitions) not in degrees):
        return False
    return all(len(set.intersection(*map(set, choice))) == 1
               for choice in product(*(p.blocks for p in partitions)))


def brute_force_decompositions(g):
    """All nontrivial g-invariant Cartesian decompositions, by exhaustion.

    Scans every subset of the proper uniform partitions whose block
    counts multiply to the degree, so it is exact for transitive groups
    (blocks of an invariant partition of a transitive group are uniform).
    """
    n = g.degree
    candidates = proper_uniform_partitions(n)
    results = []
    steps = [0]

    def closed_under_g(e_set):
        return all(p.apply(x) in e_set for p in e_set for x in g.generators)

    def dfs(start, chosen, prod):
        steps[0] += 1
        if steps[0] > ORACLE_STEP_BUDGET:
            raise BudgetExceeded(f"oracle enumeration exceeded {ORACLE_STEP_BUDGET} steps")
        if len(chosen) >= 2 and prod == n:
            e_set = frozenset(chosen)
            if (
                len(e_set) == len(chosen)
                and is_cartesian_set(chosen)
                and closed_under_g(e_set)
            ):
                results.append(CartesianDecomposition(chosen))
        if prod >= n:
            return
        for i in range(start, len(candidates)):
            p = candidates[i]
            if prod * p.block_count <= n:
                dfs(i + 1, chosen + [p], prod * p.block_count)

    dfs(0, [], 1)
    return sorted(set(results))


def mulclose(gens):
    """The full element set generated by the given permutations."""
    gens = list(gens)
    if not gens:
        return set()
    seen = {Permutation.identity(gens[0].degree)}
    frontier = list(seen)
    for g in gens:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    if len(seen) >= CLOSURE_LIMIT:
                        raise BudgetExceeded(f"closure exceeded {CLOSURE_LIMIT} elements")
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def product_set(a_elements, b_elements):
    """The set {a*b} for explicit element collections."""
    return {a * b for a in a_elements for b in b_elements}
