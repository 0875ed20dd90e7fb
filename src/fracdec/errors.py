"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
mesh/data problems (and OSError from file I/O) exit 3,
numerical-accuracy problems exit 4.
"""


class ConfigError(ValueError):
    """Invalid configuration or arguments."""


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class FormatError(MeshError):
    """Unparseable mesh file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConnectivityError(MeshError):
    """Complex is not connected where connectivity is required."""


class GeometryError(MeshError):
    """Degenerate geometry (zero-length edge, zero-area triangle, ...)."""


class AccuracyError(RuntimeError):
    """A numerical routine could not reach its requested tolerance."""


class SeriesConvergenceError(AccuracyError):
    """A series evaluation exceeded its term budget before converging."""
