"""Exception types shared across the package, its one resource-cap check and
its one tolerance check."""


class BarygapError(Exception):
    """Base class for all package errors."""


class InputError(BarygapError):
    """Invalid argument: bad vertex index, violated precondition, malformed file."""


class ResourceCapError(BarygapError):
    """An enumeration or LP would exceed the configured desk-scale cap."""

    def __init__(self, message, required=None, cap=None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class SolverError(BarygapError):
    """A solver failed, or its answer failed an exact check."""


def check_cap(what, required, cap):
    """Raise ResourceCapError when ``required`` exceeds the desk-scale ``cap``."""
    if required > cap:
        raise ResourceCapError(f"{what} exceeds cap {cap}", required=required, cap=cap)


def check_tol(tol):
    """Raise InputError unless ``tol`` is a positive number (nan is not)."""
    if not tol > 0:
        raise InputError(f"tol must be positive, got {tol}")
