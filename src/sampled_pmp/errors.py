"""Exception types shared across the package."""

from __future__ import annotations


class IntegrationBlowUp(RuntimeError):
    """State left the trust region (non-finite or norm > guard) during integration."""

    def __init__(self, time: float, message: str = ""):
        self.time = float(time)
        super().__init__(message or f"integration blew up at t={time:.6g}")


class NonConvergence(RuntimeError):
    """An iterative solve stopped without meeting its tolerance.

    Carries the best iterate seen, its residual norm, and the per-iteration
    history (dicts with at least ``iteration`` and ``residual_norm``).
    """

    def __init__(self, message, iterate=None, residual_norm=None, history=None,
                 interval=None):
        self.iterate = iterate
        self.residual_norm = residual_norm
        self.history = history if history is not None else []
        self.interval = interval
        super().__init__(message)


class UnsupportedCase(ValueError):
    """The requested operation is not defined for this problem configuration."""


class Infeasible(ValueError):
    """The constraints admit no solution (e.g. target outside the reachable set)."""

