"""Exception types shared across the package."""


class PierceError(Exception):
    """Base class for package-specific failures."""


class InvalidBodyError(PierceError):
    """Raised when vertex input cannot be turned into a valid convex body."""


class GenerationError(PierceError):
    """Raised when an instance generator's output fails its self-check."""


class PipelineError(PierceError):
    """Raised when a pipeline stage cannot produce a usable result."""
