"""Exception hierarchy shared by all liehofer modules."""

# Longest repr of bad input that an error message repeats whole.
_SHOWN = 60


def clipped(shown, text):
    """Bad input text as ``shown`` in a one-line error message, cut after
    ``_SHOWN`` characters, with the length of the text said after the cut."""
    if len(shown) <= _SHOWN:
        return shown
    return f"{shown[:_SHOWN]}... ({len(text)} characters)"


def clipped_repr(text):
    """repr of bad input text, clipped for a one-line error message."""
    return clipped(repr(text), text)


class LieHoferError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LieHoferError):
    """Only bad input raises it: the CLI reports it as a usage error (exit 2)."""


class UnsupportedSystem(InputError):
    """Requested root-system family/rank is outside the supported table."""


class DimensionError(InputError):
    """Vector dimensions do not match the root-system rank."""


class DegenerateSubgroup(InputError):
    """A zero coweight does not generate a circle subgroup."""


class InvalidWeights(LieHoferError):
    """A weight multiset contains a nonnegative entry."""


class DegenerateOrbit(InputError):
    """The base coweight of a coadjoint orbit must be nonzero."""


class NotDominant(InputError):
    """The operation requires a dominant coweight (all coordinates >= 0)."""


class EnergyBoundViolation(LieHoferError):
    """A correction term reaches or exceeds the leading energy exponent."""


class ConsistencyError(LieHoferError):
    """Internally derived data disagree with an independent check (a bug in
    the package, never a bad input)."""
