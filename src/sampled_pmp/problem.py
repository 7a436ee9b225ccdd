"""Problem data model for optimal sampled-data control.

A problem couples continuous dynamics ``dq/dt = f(t, q, u)`` and a running
cost ``f0(t, q, u)`` with a convex control set, terminal conditions on
``(q(0), q(t_f))``, and a final-time mode (fixed or free).  The control is
piecewise constant: it may only change value at the controlling times
``0, T, 2T, ...`` of a :class:`SamplingGrid` and is held ("frozen") on each
sampling interval.

Everything in this module is immutable after construction and free of
internal state; all operations are pure functions, safe to share across
concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import UnsupportedCase

# Relative tolerance used to decide whether t/T sits on an integer.  Snapping
# prevents off-by-one interval assignment at exact multiples of the period.
GRID_SNAP = 1e-9

# Absolute slack of the control-set membership tests.
MEMBERSHIP_TOL = 1e-12


# ---------------------------------------------------------------------------
# controlling-time index arithmetic
# ---------------------------------------------------------------------------

def _on_period_multiple(t: float, T: float) -> bool:
    """Whether ``t/T`` snaps to a positive integer: the grid's one snap rule."""
    r = t / T
    return abs(r - round(r)) <= GRID_SNAP and round(r) >= 1


def floor_index(t: float, T: float) -> int:
    """Index k of the sampling interval [kT, (k+1)T) containing time t.

    Values of ``t/T`` within ``1e-9`` of an integer snap to that integer, so
    exact multiples of the period are assigned reproducibly regardless of
    rounding in the caller.

    Parameters
    ----------
    t : float
        Query time, must be >= 0.
    T : float
        Sampling period, must be > 0.
    """
    if T <= 0:
        raise ValueError(f"sampling period must be positive, got T={T}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got t={t}")
    if _on_period_multiple(t, T):
        return round(t / T)
    return int(np.floor(t / T))


def final_control_index(t_f: float, T: float) -> int:
    """Index of the last controlling time strictly below ``t_f``.

    Equals ``floor_index(t_f, T)`` when ``t_f`` is not a multiple of the
    period, and one less when it is (the interval starting at ``t_f`` itself
    is empty).  Uses the same snap rule as :func:`floor_index`.
    """
    if t_f <= 0:
        raise ValueError(f"final time must be positive, got t_f={t_f}")
    if T <= 0:
        raise ValueError(f"sampling period must be positive, got T={T}")
    if _on_period_multiple(t_f, T):
        return round(t_f / T) - 1
    return int(np.floor(t_f / T))


@dataclass(frozen=True)
class SamplingGrid:
    """Controlling times ``0, T, ..., kT < t_f`` and the interval lengths.

    Every interval has length T except possibly the last one, which is
    truncated at ``t_f``.  ``lengths[k] = min(T, t_f - k T)``; the lengths sum
    to ``t_f``.
    """

    period: float
    t_f: float
    times: np.ndarray      # shape (K,), times[k] = k*period
    lengths: np.ndarray    # shape (K,), in (0, period]

    @property
    def n_intervals(self) -> int:
        return len(self.times)


def build_grid(t_f: float, T: float) -> SamplingGrid:
    """Build the sampling grid for horizon ``t_f`` and period ``T``.

    When ``t_f`` is an exact multiple ``K T`` (under the snap rule) all ``K``
    intervals have length ``T``; otherwise the last interval is partial with
    length ``t_f - kT``.
    """
    if not (math.isfinite(t_f) and math.isfinite(T)):
        raise ValueError(f"final time and sampling period must be finite, "
                         f"got t_f={t_f}, T={T}")
    k_last = final_control_index(t_f, T)
    K = k_last + 1
    times = np.arange(K, dtype=float) * T
    lengths = np.full(K, float(T))
    if not _on_period_multiple(t_f, T):
        lengths[-1] = t_f - k_last * T
    times.setflags(write=False)
    lengths.setflags(write=False)
    return SamplingGrid(period=float(T), t_f=float(t_f), times=times, lengths=lengths)


# ---------------------------------------------------------------------------
# convex control sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``{u : lower <= u <= upper}`` (componentwise)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, u: np.ndarray) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.lower - MEMBERSHIP_TOL)
                    and np.all(u <= self.upper + MEMBERSHIP_TOL))

    def project(self, u: np.ndarray) -> np.ndarray:
        """Euclidean projection: componentwise clamp."""
        return np.clip(np.asarray(u, dtype=float), self.lower, self.upper)

    def support_gap(self, g: np.ndarray, u: np.ndarray) -> float:
        """max over y in the box of <g, y - u>.

        Nonnegative for u in the set; zero iff the variational inequality
        <g, y - u> <= 0 for all y holds.  Closed form: each component
        contributes g_i (b_i - u_i) when g_i > 0 and g_i (a_i - u_i) otherwise.
        The max runs over the set, not over u, so any u is accepted; the
        certificate reports membership separately.
        """
        u = np.asarray(u, dtype=float)
        g = np.asarray(g, dtype=float)
        best = np.where(g > 0, self.upper, self.lower)
        return float(g @ (best - u))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball ``{u : ||u - center|| <= radius}``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.ndim != 1:
            raise ValueError("ball center must be a 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("ball center must be finite")
        r = float(self.radius)
        if not (math.isfinite(r) and r >= 0):
            raise ValueError("ball radius must be finite and nonnegative")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, u: np.ndarray) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.linalg.norm(u - self.center)
                    <= self.radius + MEMBERSHIP_TOL)

    def project(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        d = u - self.center
        nd = np.linalg.norm(d)
        if nd <= self.radius:
            return u.copy()
        return self.center + d * (self.radius / nd)

    def support_gap(self, g: np.ndarray, u: np.ndarray) -> float:
        """max over y in the ball of <g, y - u> = <g, c - u> + r ||g||."""
        u = np.asarray(u, dtype=float)
        g = np.asarray(g, dtype=float)
        return float(g @ (self.center - u) + self.radius * np.linalg.norm(g))


ControlSet = Union[Box, Ball]


# ---------------------------------------------------------------------------
# terminal conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedEndpoints:
    """q(0) = q0 and q(t_f) = qf both prescribed."""

    q0: np.ndarray
    qf: np.ndarray

    def __post_init__(self):
        q0 = np.atleast_1d(np.asarray(self.q0, dtype=float))
        qf = np.atleast_1d(np.asarray(self.qf, dtype=float))
        if q0.shape != qf.shape:
            raise ValueError("endpoint vectors must have equal length")
        q0.setflags(write=False)
        qf.setflags(write=False)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "qf", qf)


@dataclass(frozen=True)
class FixedInitialFreeFinal:
    """q(0) = q0 prescribed, q(t_f) free (forces p(t_f) = 0)."""

    q0: np.ndarray

    def __post_init__(self):
        q0 = np.atleast_1d(np.asarray(self.q0, dtype=float))
        q0.setflags(write=False)
        object.__setattr__(self, "q0", q0)


@dataclass(frozen=True)
class Periodic:
    """q(0) = q(t_f) with q(0) itself a shooting unknown (forces p(0) = p(t_f))."""


TerminalCondition = Union[FixedEndpoints, FixedInitialFreeFinal, Periodic]


# ---------------------------------------------------------------------------
# final-time modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedTime:
    t_f: float

    def __post_init__(self):
        if self.t_f <= 0:
            raise ValueError(f"final time must be positive, got {self.t_f}")


@dataclass(frozen=True)
class FreeTime:
    """Free final time; ``t_f_guess`` seeds the shooting unknowns."""

    t_f_guess: float

    def __post_init__(self):
        if self.t_f_guess <= 0:
            raise ValueError(f"final-time guess must be positive, got {self.t_f_guess}")


FinalTimeMode = Union[FixedTime, FreeTime]


# ---------------------------------------------------------------------------
# the problem itself
# ---------------------------------------------------------------------------

VectorField = Callable[[float, np.ndarray, np.ndarray], np.ndarray]
ScalarField = Callable[[float, np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class ProblemDefinition:
    """A finite-dimensional nonlinear optimal sampled-data control problem.

    Parameters
    ----------
    n, m : int
        State and control dimensions (both >= 1).
    f : callable
        Dynamics ``f(t, q, u) -> dq/dt`` of shape (n,).
    f_q, f_u : callable
        Partial Jacobians of ``f``: shapes (n, n) and (n, m).
    f0 : callable
        Running cost integrand ``f0(t, q, u) -> float``.
    f0_q, f0_u : callable
        Gradients of ``f0``: shapes (n,) and (m,).
    control_set : Box or Ball
        Closed convex set of admissible control values.
    terminal : TerminalCondition
        One of the three canonical variants.
    final_time : FixedTime or FreeTime
    name : str
        Identifier used in exports; purely informational.
    """

    n: int
    m: int
    f: VectorField
    f_q: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    f_u: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    f0: ScalarField
    f0_q: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    f0_u: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    control_set: ControlSet
    terminal: TerminalCondition
    final_time: FinalTimeMode
    name: str = "custom"

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("state and control dimensions must be >= 1")
        if self.control_set.dim != self.m:
            raise ValueError(
                f"control set dimension {self.control_set.dim} != m={self.m}")

    def hamiltonian(self, t: float, q: np.ndarray, p: np.ndarray, p0: float,
                    u: np.ndarray) -> float:
        """H(t, q, p, p0, u) = <p, f(t, q, u)> + p0 f0(t, q, u)."""
        q = _check_vec(q, self.n, "q")
        p = _check_vec(p, self.n, "p")
        u = _check_vec(u, self.m, "u")
        return float(p @ self.f(t, q, u) + p0 * self.f0(t, q, u))

    def hamiltonian_q(self, t, q, p, p0, u) -> np.ndarray:
        """Gradient of H in q, via the stored Jacobians."""
        q = _check_vec(q, self.n, "q")
        p = _check_vec(p, self.n, "p")
        u = _check_vec(u, self.m, "u")
        return self.f_q(t, q, u).T @ p + p0 * self.f0_q(t, q, u)

    def hamiltonian_u(self, t, q, p, p0, u) -> np.ndarray:
        """Gradient of H in u, via the stored Jacobians."""
        q = _check_vec(q, self.n, "q")
        p = _check_vec(p, self.n, "p")
        u = _check_vec(u, self.m, "u")
        return self.f_u(t, q, u).T @ p + p0 * self.f0_u(t, q, u)

    def initial_state(self) -> np.ndarray:
        """q(0) when the terminal condition prescribes it."""
        if isinstance(self.terminal, (FixedEndpoints, FixedInitialFreeFinal)):
            return self.terminal.q0.copy()
        raise UnsupportedCase(
            "q(0) is a shooting unknown for this terminal condition")


def _check_vec(x, dim: int, label: str) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"{label} must have shape ({dim},), got {x.shape}")
    return x


@dataclass(frozen=True)
class ControlSequence:
    """One control value per controlling time; row k is u(kT)."""

    values: np.ndarray   # shape (K, m)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError("control values must be a (K, m) array")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, k: int) -> np.ndarray:
        return self.values[k]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def all_admissible(self, control_set: ControlSet) -> bool:
        return all(control_set.contains(v) for v in self.values)


# ---------------------------------------------------------------------------
# finite-difference validation of user-supplied derivatives
# ---------------------------------------------------------------------------

def validate_jacobians(problem: ProblemDefinition, rng: np.random.Generator,
                       n_probes: int = 20, rtol: float = 1e-5) -> None:
    """Check f_q, f_u, f0_q, f0_u against central differences of f and f0.

    Raises AssertionError on the first probe point where a stored derivative
    disagrees with the finite-difference estimate beyond ``rtol`` (relative
    to 1 + magnitude).  Probe states/controls are standard normal; times
    uniform in [0, 10].
    """
    n, m = problem.n, problem.m
    h = 1e-6
    for _ in range(n_probes):
        t = float(rng.uniform(0.0, 10.0))
        q = rng.standard_normal(n)
        u = rng.standard_normal(m)

        fq = problem.f_q(t, q, u)
        fu = problem.f_u(t, q, u)
        f0q = problem.f0_q(t, q, u)
        f0u = problem.f0_u(t, q, u)

        for i in range(n):
            e = np.zeros(n); e[i] = h
            df = (np.asarray(problem.f(t, q + e, u)) - np.asarray(problem.f(t, q - e, u))) / (2 * h)
            d0 = (problem.f0(t, q + e, u) - problem.f0(t, q - e, u)) / (2 * h)
            _assert_close(fq[:, i], df, rtol, "f_q column")
            _assert_close(f0q[i], d0, rtol, "f0_q component")
        for i in range(m):
            e = np.zeros(m); e[i] = h
            df = (np.asarray(problem.f(t, q, u + e)) - np.asarray(problem.f(t, q, u - e))) / (2 * h)
            d0 = (problem.f0(t, q, u + e) - problem.f0(t, q, u - e)) / (2 * h)
            _assert_close(fu[:, i], df, rtol, "f_u column")
            _assert_close(f0u[i], d0, rtol, "f0_u component")


def _assert_close(stored, fd, rtol, label):
    stored = np.asarray(stored, dtype=float)
    fd = np.asarray(fd, dtype=float)
    err = np.max(np.abs(stored - fd) / (1.0 + np.abs(fd)))
    if err > rtol:
        raise AssertionError(f"{label} disagrees with finite differences: {err:.3e} > {rtol}")
