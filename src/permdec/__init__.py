"""permdec: Cartesian decompositions of finite permutation group actions.

A small computational group theory toolkit built around a deterministic
Schreier-Sims engine: Cartesian decompositions of a point set, Cartesian
systems of subgroups, the bijection between them for innately transitive
groups, wreath products in product action, and factorisation predicates
for finite simple groups, together with bundled verified case data.
"""

from .cartesian import (
    CartesianDecomposition,
    CartesianSystem,
    covariance_check,
    enumerate_cartesian_decompositions,
    is_invariant,
    plinth_fixes_partitions,
    round_trip_check,
    to_decomposition,
    to_system,
    validate_decomposition,
    validate_system,
)
from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    InternalError,
    InvalidDecomposition,
    InvalidInput,
    InvalidSystem,
    NonBijection,
    NotFactorisation,
    NotInnatelyTransitive,
    NotInvariant,
    NotSubgroup,
    NotTransitive,
    OrderMismatch,
    PermdecError,
    PointOutOfRange,
    UnknownCase,
)
from .factor import (
    Automorphism,
    conjugation_transitivity_check,
    equivalent_factorisations,
    is_factorisation,
    is_full_factorisation,
    is_strong_multiple_factorisation,
)
from .group import PermGroup, group_from_generators, normal_closure
from .perm import Partition, Permutation
from .structure import (
    Coset,
    CosetAction,
    block_systems,
    centraliser_in_symmetric,
    coset_intersection,
    intersect,
    is_innately_transitive,
    minimal_normal_subgroups,
    normaliser_in,
    setwise_stabiliser,
)
from .wreath import WreathSpec, decode, encode, full_stabiliser, product_action_wreath

__version__ = "0.1.0"

__all__ = [
    "Automorphism",
    "BudgetExceeded",
    "CartesianDecomposition",
    "CartesianSystem",
    "Coset",
    "CosetAction",
    "DegreeMismatch",
    "InternalError",
    "InvalidDecomposition",
    "InvalidInput",
    "InvalidSystem",
    "NonBijection",
    "NotFactorisation",
    "NotInnatelyTransitive",
    "NotInvariant",
    "NotSubgroup",
    "NotTransitive",
    "OrderMismatch",
    "Partition",
    "PermGroup",
    "PermdecError",
    "Permutation",
    "PointOutOfRange",
    "UnknownCase",
    "WreathSpec",
    "block_systems",
    "centraliser_in_symmetric",
    "conjugation_transitivity_check",
    "coset_intersection",
    "covariance_check",
    "decode",
    "encode",
    "enumerate_cartesian_decompositions",
    "equivalent_factorisations",
    "full_stabiliser",
    "group_from_generators",
    "intersect",
    "is_factorisation",
    "is_full_factorisation",
    "is_innately_transitive",
    "is_invariant",
    "is_strong_multiple_factorisation",
    "minimal_normal_subgroups",
    "normal_closure",
    "normaliser_in",
    "plinth_fixes_partitions",
    "product_action_wreath",
    "round_trip_check",
    "setwise_stabiliser",
    "to_decomposition",
    "to_system",
    "validate_decomposition",
    "validate_system",
]
