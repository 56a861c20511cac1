"""Exception types shared across the package."""


class InvariantViolationError(ValueError):
    """A domain object failed a construction invariant (Hermiticity, trace,
    positivity, orthonormality, nondegeneracy, ...). The message names the
    violated invariant."""


class DimensionMismatchError(ValueError):
    """Objects passed to an operation do not share the same Hilbert-space
    dimension."""


class ZeroInformationError(ValueError):
    """The post-measurement state is maximally mixed, so a ratio of extracted
    to injected information is undefined."""


class ChannelValidationError(ValueError):
    """A candidate free operation failed validation. The message names the
    violated condition (unitality, trace preservation, or commutation with
    one of the dephasing maps)."""


class CrossCheckError(ArithmeticError):
    """Two independent computations of the same quantity disagreed beyond
    their documented tolerance."""


def _cross_check(name: str, residual: float, tolerance: float, *args) -> None:
    """Raise CrossCheckError unless ``residual <= tolerance``, so a NaN residual
    fails. The message, ``name.format(*args)`` with the residual and the
    tolerance, is built on failure only: the sweep runs two checks per point."""
    if not residual <= tolerance:
        raise CrossCheckError(
            f"{name.format(*args)}: residual {float(residual)!r} is not within"
            f" tolerance {float(tolerance)!r}"
        )
