"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """Invalid population-distribution parameters (bounds, covariance, ...)."""


class ConfigurationError(ValueError):
    """Inconsistent meshes, grids, or run configuration."""


class ParseError(ValueError):
    """Malformed episode, config or curve file.  Carries a line number when
    known, named "PATH:LINE: ..." when the reader has the file's path too."""

    def __init__(self, message: str, line: int | None = None,
                 path: str | None = None):
        if line is not None:
            message = (f"line {line}: " if path is None
                       else f"{path}:{line}: ") + message
        super().__init__(message)
        self.line = line


class SamplingError(RuntimeError):
    """Rejection sampler starved (acceptance rate effectively zero)."""


class NumericalError(RuntimeError):
    """Internal numerical failure (non-PD mass matrix, divergent recursion)."""
