"""Factorisation predicates: plain, full, and strong multiple factorisations.

All predicates decide by order arithmetic (|A||B| = |G||A intersect B|);
no product set is enumerated. One routine, ``_eq2``, decides eq. (2) for
a factorisation pair, a strong multiple factorisation and
``cartesian.validate_system``.
Automorphisms are never computed from scratch; equivalence checking takes
caller-supplied maps and finds the inner adjustment, like every conjugator
here, by one backtrack over the group's stabiliser chain
(``structure.conjugator``). No group's elements are listed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidInput, NotFactorisation, NotSubgroup
from .group import PermGroup
from .structure import conjugator, intersect, prime_divisors


@dataclass(frozen=True)
class FactorisationReport:
    holds: bool
    orders: tuple  # (|A|, |B|, |A intersect B|, |G|)
    prime_sets: tuple  # primes of |G|, |A|, |B|
    full: bool
    witness: str | None = None


def _require_subgroup(g, h, label):
    if not h.is_subgroup_of(g):
        raise NotSubgroup(f"{label} is not a subgroup of the ambient group")


def is_factorisation(g, a, b):
    """Whether G = AB, by the order identity |A||B| = |G||A intersect B|.

    The product set AB has |A||B|/|A intersect B| elements, all in G. The
    identity is eq. (2) for the pair, so ``_eq2`` decides it.
    """
    _require_subgroup(g, a, "A")
    _require_subgroup(g, b, "B")
    inter, _, (holds, _) = _eq2(g, (a, b))
    orders = (a.order(), b.order(), inter.order(), g.order())
    witness = None
    if not holds:
        witness = f"product set has {orders[0] * orders[1] // orders[2]} of {orders[3]} elements"
    primes = (
        prime_divisors(g.order()),
        prime_divisors(a.order()),
        prime_divisors(b.order()),
    )
    full = holds and primes[0] == primes[1] == primes[2]
    return FactorisationReport(holds, orders, primes, full, witness)


def is_full_factorisation(t, a, b):
    """A factorisation where |T|, |A|, |B| share the same prime divisors."""
    report = is_factorisation(t, a, b)
    if report.holds and not report.full:
        return replace(report, holds=False, witness="prime divisor sets differ")
    return report


@dataclass(frozen=True)
class MultipleFactorisationReport:
    holds: bool
    per_index: tuple  # Eq. (2) status for each i
    proper: tuple  # properness per subgroup
    orders: tuple
    intersection_order: int
    others_orders: tuple  # |intersection of all but K_i| for each i
    omega_prediction: int
    trivial: bool  # some member equals the whole group


def _eq2(t, subgroups):
    """Eq. (2) for each K_i: whether K_i times the others' intersection is t.

    Returns (all, others, eq2): the intersection of every K_j, that of all
    but K_i for each i, and the booleans by the order identity
    |K_i||others_i| = |t||all|. Prefix and suffix folds make each
    intersection once (3l - 5 calls for l >= 2). That of none is t.
    """

    def meet(x, y):  # None stands for t
        return y if x is None else x if y is None else intersect(x, y)

    n = len(subgroups)
    prefix, suffix = [None], [None]  # meets of the first i and of the last i
    for i in range(1, n):
        prefix.append(meet(prefix[-1], subgroups[i - 1]))
        suffix.append(meet(suffix[-1], subgroups[n - i]))
    others = [meet(prefix[i], suffix[n - 1 - i]) or t for i in range(n)]
    inter_all = meet(prefix[-1], subgroups[-1]) if n else t
    target = t.order() * inter_all.order()
    eq2 = tuple(k.order() * o.order() == target for k, o in zip(subgroups, others))
    return inter_all, others, eq2


def is_strong_multiple_factorisation(t, subgroups):
    """Every K_i proper and K_i times the others' intersection T (``_eq2``), l >= 3."""
    subgroups = list(subgroups)
    if len(subgroups) < 3:
        raise InvalidInput("a strong multiple factorisation needs at least 3 subgroups")
    t_order = t.order()
    for i, k in enumerate(subgroups):
        _require_subgroup(t, k, f"K{i + 1}")
    proper = tuple(k.order() < t_order for k in subgroups)

    inter_all, others, per_index = _eq2(t, subgroups)
    return MultipleFactorisationReport(
        holds=all(per_index) and all(proper),
        per_index=per_index,
        proper=proper,
        orders=tuple(k.order() for k in subgroups),
        intersection_order=inter_all.order(),
        others_orders=tuple(o.order() for o in others),
        omega_prediction=math.prod(t_order // k.order() for k in subgroups),
        trivial=not all(proper),
    )


# --- conjugation transitivity -------------------------------------------------


def conjugation_transitivity_check(g, a, b):
    """Whether A acts transitively by conjugation on the G-class of B: always, once G = AB.

    G = AB gives G = G^-1 = B^-1 A^-1 = BA, so each x in G is some b a and
    B^x = B^a; the A-orbit of B is its whole G-class. Raises NotFactorisation
    unless G = AB. The tests check |A : N_A(B)| = |G : N_G(B)| and list orbits.
    """
    if not is_factorisation(g, a, b).holds:
        raise NotFactorisation("G = AB does not hold")
    return True


# --- automorphisms and equivalence ---------------------------------------------


class Automorphism:
    """A group automorphism given as an explicit map on permutations."""

    def __init__(self, fn):
        self._fn = fn

    @staticmethod
    def identity():
        return Automorphism(lambda x: x)

    def apply_group(self, k):
        return PermGroup([self._fn(g) for g in k.generators], degree=k.degree, name=k.name)


def _find_conjugator(g, h, k):
    """Some x in g with h^x = k, or None."""
    return conjugator(g, [(h, k)])


def equivalent_factorisations(g, pair1, pair2, automorphisms):
    """Whether some supplied automorphism, adjusted by an inner one, maps
    the first factorisation pair onto the second as an unordered pair.

    Per automorphism beta and order of the second pair, one search looks for
    an x in g conjugating beta(A1) and beta(B1) onto both targets at once.
    """
    for pair in (pair1, pair2):
        if not is_factorisation(g, *pair).holds:
            raise NotFactorisation("both pairs must be factorisations")
    (a1, b1), (a2, b2) = pair1, pair2
    for beta in automorphisms:
        first, second = beta.apply_group(a1), beta.apply_group(b1)
        for ta, tb in ((a2, b2), (b2, a2)):
            if conjugator(g, [(first, ta), (second, tb)]) is not None:
                return True
    return False
