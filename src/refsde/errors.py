"""Exception types shared across the package."""


class RateFitError(ValueError):
    """A rate fit is degenerate: some level has zero error, so no log."""


class IntegrationError(RuntimeError):
    """Time stepping produced a non-finite state.

    ``step_index`` is the first offending step; ``path_index`` is set when the
    failure occurred inside a batched sweep.
    """

    def __init__(self, message, step_index=None, path_index=None, level=None):
        super().__init__(message)
        self.step_index = step_index
        self.path_index = path_index
        self.level = level


class ConfigError(ValueError):
    """Experiment configuration failed validation."""
