"""Factorisation predicates: plain, full, and strong multiple factorisations.

All predicates decide by order arithmetic (|A||B| = |G||A intersect B|);
no product set is enumerated. Automorphisms are never computed from
scratch; equivalence checking takes caller-supplied maps and searches
inner adjustments explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, InvalidInput, NotFactorisation, NotSubgroup
from .group import PermGroup, orbit
from .structure import intersect, normaliser_in, prime_divisors

NORMALISER_BUDGET = 2 * 10**5


@dataclass(frozen=True)
class FactorisationReport:
    holds: bool
    orders: tuple  # (|A|, |B|, |A intersect B|, |G|)
    prime_sets: tuple  # primes of |G|, |A|, |B|
    full: bool
    witness: str | None = None

    def to_json(self):
        return {
            "holds": self.holds,
            "orders": list(self.orders),
            "prime_sets": [list(p) for p in self.prime_sets],
            "full": self.full,
            "witness": self.witness,
        }


def _require_subgroup(g, h, label):
    if not h.is_subgroup_of(g):
        raise NotSubgroup(f"{label} is not a subgroup of the ambient group")


def is_factorisation(g, a, b):
    """Whether G = AB, by the order identity |A||B| = |G||A intersect B|.

    The product set AB has |A||B|/|A intersect B| elements, all in G.
    """
    _require_subgroup(g, a, "A")
    _require_subgroup(g, b, "B")
    inter = intersect(a, b)
    orders = (a.order(), b.order(), inter.order(), g.order())
    holds = orders[0] * orders[1] == orders[3] * orders[2]
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
        return FactorisationReport(
            False, report.orders, report.prime_sets, False,
            witness="prime divisor sets differ",
        )
    return FactorisationReport(
        report.holds and report.full, report.orders, report.prime_sets,
        report.full, report.witness,
    )


@dataclass(frozen=True)
class MultipleFactorisationReport:
    holds: bool
    per_index: tuple  # Eq. (2) status for each i
    proper: tuple  # properness per subgroup
    orders: tuple
    intersection_order: int
    omega_prediction: int
    trivial: bool  # some member equals the whole group

    def to_json(self):
        return {
            "holds": self.holds,
            "per_index": list(self.per_index),
            "proper": list(self.proper),
            "orders": list(self.orders),
            "intersection_order": self.intersection_order,
            "omega_prediction": self.omega_prediction,
            "trivial": self.trivial,
        }


def is_strong_multiple_factorisation(t, subgroups):
    """K_i times the intersection of the others equals T, for >= 3 subgroups."""
    subgroups = list(subgroups)
    if len(subgroups) < 3:
        raise InvalidInput("a strong multiple factorisation needs at least 3 subgroups")
    t_order = t.order()
    for i, k in enumerate(subgroups):
        _require_subgroup(t, k, f"K{i + 1}")
    proper = tuple(k.order() < t_order for k in subgroups)

    inter_all = subgroups[0]
    for k in subgroups[1:]:
        inter_all = intersect(inter_all, k)

    per_index = []
    for i, k in enumerate(subgroups):
        rest = None
        for j, other in enumerate(subgroups):
            if j == i:
                continue
            rest = other if rest is None else intersect(rest, other)
        per_index.append(k.order() * rest.order() == t_order * inter_all.order())

    prediction = 1
    for k in subgroups:
        prediction *= t_order // k.order()
    trivial = not all(proper)
    return MultipleFactorisationReport(
        holds=all(per_index) and all(proper),
        per_index=tuple(per_index),
        proper=proper,
        orders=tuple(k.order() for k in subgroups),
        intersection_order=inter_all.order(),
        omega_prediction=prediction,
        trivial=trivial,
    )


# --- conjugation transitivity -------------------------------------------------


def _conjugate_group(k, x):
    return PermGroup([g.conjugate_by(x) for g in k.generators], degree=k.degree)


def conjugation_transitivity_check(g, a, b, budget=NORMALISER_BUDGET):
    """Whether A acts transitively by conjugation on the G-class of B.

    Decided by the index identity |A : N_A(B)| = |G : N_G(B)|: the A-orbit
    of B has |A : N_A(B)| members and the G-class of B has |G : N_G(B)|.
    The tests compare both counts with explicitly enumerated orbits.
    """
    report = is_factorisation(g, a, b)
    if not report.holds:
        raise NotFactorisation("G = AB does not hold")
    if b.is_trivial():
        return True
    if g.order() > budget:
        raise BudgetExceeded(f"group order {g.order()} above bound {budget}")
    n_g = normaliser_in(g, b, budget=budget)
    n_a = normaliser_in(a, b, budget=budget)
    return a.order() // n_a.order() == g.order() // n_g.order()


# --- automorphisms and equivalence ---------------------------------------------


class Automorphism:
    """A group automorphism given as an explicit map on permutations."""

    def __init__(self, fn, name=None):
        self._fn = fn
        self.name = name

    @staticmethod
    def identity(name="id"):
        return Automorphism(lambda x: x, name=name)

    @staticmethod
    def from_relabelling(r, name=None):
        """Conjugation x -> r^-1 x r by a fixed relabelling permutation."""
        r_inv = r.inverse()
        return Automorphism(lambda x: r_inv * x * r, name=name)

    def apply(self, x):
        return self._fn(x)

    def apply_group(self, k):
        return PermGroup([self._fn(g) for g in k.generators], degree=k.degree, name=k.name)

    def __repr__(self):
        return f"Automorphism({self.name or 'unnamed'})"


def _conjugate_set(elements, x):
    x_inv = x.inverse()
    return frozenset(x_inv * e * x for e in elements)


def _find_conjugator(g, h, k, budget):
    """Some x in g with h^x = k, or None, from the conjugation orbit of h's elements."""
    if h.order() != k.order():
        return None
    if g.order() > budget:
        raise BudgetExceeded(f"group order {g.order()} above bound {budget}")
    tree = orbit(frozenset(h.elements()), g.generators, _conjugate_set)
    node = frozenset(k.elements())
    if node not in tree:
        return None
    x = g.identity
    while tree[node] is not None:  # prepend each edge on the way back to the root
        node, s = tree[node]
        x = s * x
    return x


def equivalent_factorisations(g, pair1, pair2, automorphisms, budget=NORMALISER_BUDGET):
    """Whether some supplied automorphism, adjusted by an inner one, maps
    the first factorisation pair onto the second as an unordered pair."""
    a1, b1 = pair1
    a2, b2 = pair2
    for a, b in (pair1, pair2):
        if not is_factorisation(g, a, b).holds:
            raise NotFactorisation("both pairs must be factorisations")

    targets = [(a2, b2), (b2, a2)]
    for beta in automorphisms:
        first = beta.apply_group(a1)
        second = beta.apply_group(b1)
        for ta, tb in targets:
            if first.order() != ta.order() or second.order() != tb.order():
                continue
            x = _find_conjugator(g, first, ta, budget)
            if x is None:
                continue
            # all conjugators form x * N_g(ta); scan that coset for one
            # aligning the second components
            moved = _conjugate_group(second, x)
            n_ta = normaliser_in(g, ta, budget=budget)
            if any(
                _conjugate_group(moved, n).same_group(tb) for n in n_ta.elements()
            ):
                return True
    return False
