"""Exception types shared across the package."""


class NdcMeshError(Exception):
    """Base class for all package errors."""


class ShapeError(NdcMeshError):
    """An array does not have the shape required by a grid contract."""


class NonFiniteValues(NdcMeshError):
    """A grid holds NaN or infinite samples."""


class InvalidKind(NdcMeshError):
    """A scalar grid has the wrong kind for the requested operation."""


class InvalidArgument(NdcMeshError, ValueError):
    """An argument is not one the called operation accepts."""


class NoConstraints(NdcMeshError):
    """A QEF solve was requested with an empty constraint list."""


class OpenMeshError(NdcMeshError):
    """A signed distance field was requested for a non-watertight mesh."""


class TooFewPoints(NdcMeshError):
    """A point cloud is too small for the requested neighborhood size."""


class EmptyMesh(NdcMeshError):
    """An operation that needs faces received a mesh without any."""


class GridFormatError(NdcMeshError):
    """Base class for errors in the binary grid container."""


class BadMagic(GridFormatError):
    """The file does not start with the expected magic bytes."""


class BadVersion(GridFormatError):
    """The container version is not supported."""


class TruncatedPayload(GridFormatError):
    """The payload is shorter than the header-declared grid requires."""


class ObjParseError(NdcMeshError):
    """A mesh file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TrainingDiverged(NdcMeshError):
    """The training loss became NaN or infinite."""
