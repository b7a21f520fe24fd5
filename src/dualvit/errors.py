"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class DualVitError(Exception):
    """Base class for all errors raised by dualvit."""


class DimensionError(DualVitError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(DualVitError):
    """A model or layer configuration is internally inconsistent."""


class ContractError(DualVitError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


class InputError(DualVitError):
    """User-supplied input (image resolution, file path, ...) is invalid."""


class FormatError(DualVitError):
    """A serialized file does not conform to its format."""


@contextmanager
def allocation_refused_as(error: type[DualVitError], what: str):
    """Re-raise numpy failing (``MemoryError``) or refusing (a too-large shape)
    an allocation as ``error("<what> cannot be allocated: ...")``; any other
    ``ValueError`` propagates unchanged."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if type(exc) is ValueError and not str(exc).startswith(
                ("array is too big", "Maximum allowed dimension exceeded")):
            raise
        raise error(f"{what} cannot be allocated: {exc}") from exc
