"""Exception hierarchy shared by all permdec modules."""


class PermdecError(Exception):
    """Base class for all errors raised by permdec."""


class InvalidInput(PermdecError, ValueError):
    """Malformed input: an unreadable file, bad JSON, or a bad argument value."""


class NonBijection(PermdecError):
    """An image array is not a permutation of 0..n-1."""


class DegreeMismatch(PermdecError):
    """Operands act on point sets of different sizes."""


class PointOutOfRange(PermdecError):
    """A point is not an int in 0..degree-1."""


class NotTransitive(PermdecError):
    """The operation requires a transitive group."""


class NotInvariant(PermdecError):
    """A partition is not invariant under the given group."""


class InvalidDecomposition(PermdecError):
    """The partitions do not form a Cartesian decomposition."""


class InvalidSystem(PermdecError):
    """The subgroups do not form a Cartesian system."""


class NotSubgroup(PermdecError):
    """A claimed subgroup has elements outside the ambient group."""


class NotFactorisation(PermdecError):
    """The order identity |A||B| = |G||A∩B| does not hold."""


class NotInnatelyTransitive(PermdecError):
    """No transitive minimal normal subgroup was found or supplied."""


class BudgetExceeded(PermdecError):
    """A search or enumeration exceeded its configured budget."""


class UnknownCase(PermdecError):
    """No bundled case record with the requested name."""


class OrderMismatch(PermdecError):
    """Recomputed group order disagrees with the bundled record."""


class InternalError(PermdecError):
    """An internal invariant failed: a fault in permdec, not in its input."""


def check(cond, msg):
    """Raise InternalError(msg) unless cond holds; unlike assert, kept under -O."""
    if not cond:
        raise InternalError(msg)
