"""Exception types shared across the pipeline."""


class AvitrackError(Exception):
    """Base class for all library errors."""


class BehindCameraError(AvitrackError):
    """3D point has non-positive depth in the camera frame."""


class EmptyInputError(AvitrackError):
    """An operation that requires data received none."""


class NoLandmarksError(AvitrackError):
    """No landmarks are registered for the requested camera."""


class EmptyRegionError(AvitrackError):
    """A bounding box with zero area was passed to an image operation."""


class DimensionMismatchError(AvitrackError):
    """Descriptor vectors (or other paired arrays) disagree in length."""


class DegenerateRaysError(AvitrackError):
    """Triangulation rays are parallel or identical."""


class SingularInnovationError(AvitrackError):
    """Kalman innovation covariance is numerically singular."""


class MissingLabelsError(AvitrackError):
    """Ground-truth labels were requested but are not available."""


class ConfigError(AvitrackError):
    """A configuration value is missing, malformed, or out of range."""


class IngestError(AvitrackError):
    """An input file violates its schema.

    Carries enough context to point the user at the offending row, and
    pickles with it, so a pool worker's error reaches the caller intact.
    """

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.message = message
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        return type(self), (self.path, self.message, self.line)
