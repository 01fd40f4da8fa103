"""Shared exception types for inconclusive runs and file validation."""


class Inconclusive(RuntimeError):
    """A cap or a truncation window prevented a verdict.

    Every inconclusive outcome is this class or a subclass, so verify-all
    and the CLI catch one type and report the subclass name.
    """


class SizeLimit(Inconclusive):
    """A chain space or enumeration exceeded its configured cap."""


class ParseError(ValueError):
    """A structured text file did not parse."""


class InvariantViolation(ValueError):
    """A loaded structure fails a declared identity."""
