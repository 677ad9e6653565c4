"""Exception types raised by the library."""


class CentautsError(Exception):
    """Base class for all library-specific errors."""


class NotAGroup(CentautsError):
    """A multiplication table violates a group axiom (witness in the message)."""


class SizeLimitExceeded(CentautsError):
    """A construction or enumeration passed a size bound fixed in the library:
    the element cap, the subgroup cap, the permutation cell bound or the Hom
    cell bound."""


class NotNormal(CentautsError):
    """A subgroup required to be normal is not (conjugation witness in message)."""


class NotNilpotent(CentautsError):
    """The lower central series stabilises above the trivial subgroup."""


class NotPGroup(CentautsError):
    """The group order is not a prime power."""


class NotAbelian(CentautsError):
    """An operation defined only for abelian groups received a non-abelian one."""


class NotCentral(CentautsError):
    """A subgroup required to lie in the center does not."""


class WrongClass(CentautsError):
    """The group does not have the nilpotency class the operation requires."""


class PrimeMismatch(CentautsError):
    """Two abelian types built over different primes were combined."""


class NotPurelyNonabelian(CentautsError):
    """The group has a non-trivial abelian direct factor."""


class BudgetExceeded(CentautsError):
    """A search, or a Hom build at one attempt per row, exceeded its attempt budget."""


class InternalDisagreement(CentautsError):
    """Two independent computations of the same quantity differ (library bug)."""


class HypothesisViolated(CentautsError):
    """An input does not satisfy a stated hypothesis; the message names it."""


class ParseError(CentautsError):
    """A group file could not be parsed; the message carries the location."""


class ConfigError(CentautsError):
    """A run configuration is invalid."""
