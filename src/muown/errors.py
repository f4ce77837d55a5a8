"""Shared exception types."""


class ZeroRowError(ValueError):
    """A row magnitude fell at or below the representable floor.

    The row-normalized decomposition is undefined for zero rows, so callers
    get a hard error instead of a silently regularized direction.
    """

    def __init__(self, row: int, norm: float):
        self.row = row
        self.norm = norm
        super().__init__(f"row {row} has norm {norm!r}, below the nonzero-row floor")

    def __reduce__(self):  # rebuilt from its fields, so that it crosses a pickle
        return type(self), (self.row, self.norm)


class NonFiniteError(ValueError):
    """NaN or Inf appeared where the contract requires finite values."""


class StepAllError(RuntimeError):
    """One or more per-layer optimizer steps failed; carries (index, error) pairs."""

    def __init__(self, failures):
        self.failures = list(failures)
        detail = "; ".join(f"layer {i}: {e}" for i, e in self.failures)
        super().__init__(f"{len(self.failures)} layer step(s) failed: {detail}")

    def __reduce__(self):
        return type(self), (self.failures,)


class ConfigError(ValueError):
    """Experiment configuration is invalid; message names the offending field."""
