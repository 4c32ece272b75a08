"""Exception types shared across the package."""


class TamagawaError(Exception):
    """Base class for all library errors."""


class ConfigError(TamagawaError, ValueError):
    """Invalid CLI or library configuration (exit code 64 territory).

    Also a ValueError, so library callers that pass a bad argument value
    (for example a tolerance below what a routine can certify) may catch
    it as one.
    """


class UnsupportedTorusError(TamagawaError):
    """Requested computation is not defined for this torus family/field."""


class QRankError(TamagawaError):
    """A computation that requires an anisotropic torus got Q-rank > 0."""

    def __init__(self, q_rank: int):
        super().__init__(f"Assumption violated: Q-rank {q_rank}")
        self.q_rank = q_rank


class BudgetExceededError(TamagawaError):
    """An enumeration or linear-algebra budget would be exceeded."""


class NotStabilizedError(TamagawaError):
    """An approximation failed to stabilize within its budget.

    Distinguished non-fatal outcome: carries the trace of partial results so
    callers can surface them (verdict INCONCLUSIVE, never PASS).
    """

    def __init__(self, message: str, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)
