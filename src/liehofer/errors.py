"""Exception hierarchy shared by all liehofer modules."""


class LieHoferError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedSystem(LieHoferError):
    """Requested root-system family/rank is outside the supported table."""


class DimensionError(LieHoferError):
    """Vector dimensions do not match the root-system rank."""


class DegenerateSubgroup(LieHoferError):
    """A zero coweight does not generate a circle subgroup."""


class InvalidWeights(LieHoferError):
    """A weight multiset contains a nonnegative entry."""


class DegenerateOrbit(LieHoferError):
    """The base coweight of a coadjoint orbit must be nonzero."""


class EmptyFamily(LieHoferError):
    """A family of loops must contain at least one member."""


class NotDominant(LieHoferError):
    """The operation requires a dominant coweight (all coordinates >= 0)."""


class EnergyBoundViolation(LieHoferError):
    """A correction term reaches or exceeds the leading energy exponent."""


class NumericalFailure(LieHoferError):
    """A numerical routine (eigensolver, quadrature) failed to converge."""


class ConsistencyError(LieHoferError):
    """Internally derived data disagree with an independent check (a bug in
    the package, never a bad input)."""
