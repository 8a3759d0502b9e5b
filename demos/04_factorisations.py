"""Group factorisations and where Cartesian decompositions come from.

A transitive simple group T with T = AB and A, B sharing all prime divisors
of |T| gives rise to a Cartesian decomposition of the coset space
T / (A meet B): the two partitions are the A-cosets and the B-cosets.
A6 is the smallest example; inside A6 live two conjugacy classes of A5.
"""

from permdec import (
    CosetAction,
    enumerate_cartesian_decompositions,
    intersect,
    is_full_factorisation,
    to_system,
)
from permdec.atlas import load_case
from permdec.factor import _find_conjugator

case = load_case("A6_36")
t = case.group
a, b = case.subgroups["A"], case.subgroups["B"]

report = is_full_factorisation(t, a, b)
print(f"A6 = A5 . A5' : holds={report.holds}, orders {report.orders}")

inter = intersect(a, b)
print(f"|A meet B| = {inter.order()}  -> coset space of size {t.order() // inter.order()}")

# move to the 36-point action and find the decomposition it carries
action = CosetAction(t, inter)
g = action.image
decs = enumerate_cartesian_decompositions(g, plinth=g)
print(f"invariant Cartesian decompositions of the 36-point action: {len(decs)}")
system = to_system(g, decs[0], 0)
print("system subgroup orders:", sorted(k.order() for k in system.subgroups))

# the two A5 classes are not conjugate in A6, but the outer automorphism
# theta (realised via the coset action on B) swaps them
theta = case.outer_automorphism
print("A conjugate to B in A6:", _find_conjugator(t, a, b) is not None)
print("theta(A) conjugate to B:", _find_conjugator(t, theta.apply_group(a), b) is not None)
