"""Exception types shared across the package."""


class BergmanError(Exception):
    """Base class for all package-specific failures."""


class UsageError(BergmanError):
    """A setting from the command line or the environment is not usable."""


class KernelComponentError(BergmanError):
    """A resolvent was applied to a state with a nonzero kernel component.

    Signals a missing orthogonal-complement projection upstream.
    """


class DegreeCapError(BergmanError):
    """A state exceeded the configured polynomial degree bound."""


class DegenerateCurvatureError(BergmanError):
    """The line-bundle curvature form is degenerate or wrongly normalized at the base point."""


class TruncationInsufficientError(BergmanError):
    """The supplied potential is truncated below the order the jet pipeline needs."""


class InvalidJetError(BergmanError):
    """A geometry jet failed validation."""


class InvalidPotentialError(BergmanError, ValueError):
    """A potential map has a bad monomial key or coefficient."""

