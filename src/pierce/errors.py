"""Exception types shared across the package."""


class PierceError(Exception):
    """Base class for package-specific failures."""


class InvalidBodyError(PierceError):
    """Raised when vertex input cannot be turned into a valid convex body."""


class IncompleteCandidatesError(PierceError):
    """Raised when some body contains none of the supplied candidate points."""


class GenerationError(PierceError):
    """Raised when an instance generator fails its post-check after retries."""


class PipelineError(PierceError):
    """Raised when a pipeline stage cannot produce a usable result."""
