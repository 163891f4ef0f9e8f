"""Exception types shared across the package."""

from __future__ import annotations


class MPShrinkError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveSupport(MPShrinkError):
    """Population spectrum places mass at a location <= 0."""


class MassNotOne(MPShrinkError):
    """Population spectrum weights do not sum to one."""


class NoConvergence(MPShrinkError):
    """A solve missed its residual check or the sign checks of its root.

    Carries the residual of the failing point, where one was computed; from
    solve_mF, that of the equation in m with k = -z*mu taken from the root.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DomainError(MPShrinkError):
    """Operation outside its domain (e.g. gamma <= 0 or nan, Im z <= 0)."""


class GammaOne(DomainError):
    """The aspect ratio gamma = 1 is excluded from boundary-value formulas."""


class EmptySupport(MPShrinkError):
    """A solution carries no support intervals."""


class DegenerateDenominator(MPShrinkError):
    """Closed-form denominator too close to zero to evaluate."""


class ZeroBranchUnavailable(MPShrinkError):
    """The l = 0 overlap branch requires gamma < 1."""


class EmptyBin(MPShrinkError):
    """A requested bin carries no probability mass."""


class DegenerateSpan(MPShrinkError):
    """The span {I, S} collapsed and no projection could be computed."""
