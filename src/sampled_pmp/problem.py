"""Problem data model for optimal sampled-data control.

A problem couples continuous dynamics ``dq/dt = f(t, q, u)`` and a running
cost ``f0(t, q, u)`` with a convex control set, terminal conditions on
``(q(0), q(t_f))``, and a final-time mode (fixed or free).  The control is
piecewise constant: it may only change value at the controlling times
``0, T, 2T, ...`` of a :class:`SamplingGrid` and is held ("frozen") on each
sampling interval.

Everything in this module is immutable after construction and free of
internal state; all operations are pure functions, safe to share across
concurrent workers; records that hold arrays compare by identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import UnsupportedCase

# Relative tolerance used to decide whether t/T sits on an integer.  Snapping
# prevents off-by-one interval assignment at exact multiples of the period.
GRID_SNAP = 1e-9

# Absolute slack of the control-set membership tests.
MEMBERSHIP_TOL = 1e-12


def _freeze(record, **arrays):
    """Set read-only float copies of ``arrays`` on a frozen dataclass."""
    for name, x in arrays.items():
        x = np.array(x, dtype=float)
        x.setflags(write=False)
        object.__setattr__(record, name, x)


# ---------------------------------------------------------------------------
# controlling-time index arithmetic: one snap rule, owned by the grid
# ---------------------------------------------------------------------------
# build_grid counts the intervals and SamplingGrid.interval_of looks times up
# through the same _snapped_floor; callers read grid facts from the grid.

def _snapped_floor(r):
    """``floor(r)`` and whether ``r`` snapped: a ratio within GRID_SNAP of a
    positive integer counts as that integer, the grid's one snap rule."""
    n = np.round(r)
    on_multiple = (np.abs(r - n) <= GRID_SNAP) & (n >= 1)
    return np.where(on_multiple, n, np.floor(r)).astype(int), on_multiple


@dataclass(frozen=True, eq=False)
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

    def interval_of(self, t):
        """Index k of the sampling interval [kT, (k+1)T) holding each time.

        ``t/T`` within GRID_SNAP of an integer snaps to it, so exact
        multiples of the period are assigned reproducibly; ``t_f`` belongs
        to the last interval.  Accepts a scalar or an array of times in
        ``[0, t_f]`` and raises ValueError for any other.
        """
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0) & (t <= self.t_f)):
            raise ValueError(f"time outside [0, t_f={self.t_f:.6g}]")
        k, _ = _snapped_floor(t / self.period)
        return np.minimum(k, self.n_intervals - 1)


def build_grid(t_f: float, T: float) -> SamplingGrid:
    """Build the sampling grid for horizon ``t_f`` and period ``T``.

    When ``t_f`` is an exact multiple ``K T`` (under the snap rule) all ``K``
    intervals have length ``T``; otherwise the last interval is partial with
    length ``t_f - kT``.
    """
    if not (math.isfinite(t_f) and math.isfinite(T)):
        raise ValueError(f"final time and sampling period must be finite, "
                         f"got t_f={t_f}, T={T}")
    if t_f <= 0:
        raise ValueError(f"final time must be positive, got t_f={t_f}")
    if T <= 0:
        raise ValueError(f"sampling period must be positive, got T={T}")
    k, on_multiple = _snapped_floor(t_f / T)
    K = int(k) if on_multiple else int(k) + 1
    times = np.arange(K, dtype=float) * T
    lengths = np.full(K, float(T))
    if not on_multiple:
        lengths[-1] = t_f - (K - 1) * T
    times.setflags(write=False)
    lengths.setflags(write=False)
    return SamplingGrid(period=float(T), t_f=float(t_f), times=times, lengths=lengths)


# ---------------------------------------------------------------------------
# convex control sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
        _freeze(self, lower=lo, upper=hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, u: np.ndarray):
        return _item(np.all((u >= self.lower - MEMBERSHIP_TOL)
                            & (u <= self.upper + MEMBERSHIP_TOL), axis=-1))

    def project(self, u: np.ndarray) -> np.ndarray:
        """Euclidean projection: componentwise clamp."""
        return np.minimum(np.maximum(u, self.lower), self.upper)

    def project_jacobian(self, w: np.ndarray) -> np.ndarray:
        """Jacobian of :meth:`project` at one point w (m,): the diagonal
        indicator of lower < w < upper.  A component on a bound gets 0, the
        derivative from outside the box, an element of the generalized
        Jacobian at the kink."""
        w = np.asarray(w, dtype=float)
        return np.diag(((self.lower < w) & (w < self.upper)).astype(float))

    def support_gap(self, g: np.ndarray, u: np.ndarray):
        """max over y in the box of <g, y - u>, for each point of (..., m).

        Nonnegative for u in the set; zero iff the variational inequality
        <g, y - u> <= 0 for all y holds.  Closed form: each component
        contributes g_i (b_i - u_i) when g_i > 0 and g_i (a_i - u_i) otherwise.
        The max runs over the set, not over u, so any u is accepted; the
        certificate reports membership separately.
        """
        u = np.asarray(u, dtype=float)
        g = np.asarray(g, dtype=float)
        best = np.where(g > 0, self.upper, self.lower)
        return _item(_dot(g, best - u))


@dataclass(frozen=True, eq=False)
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
        _freeze(self, center=c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, u: np.ndarray):
        d = np.asarray(u, dtype=float) - self.center
        return _item(np.sqrt(_dot(d, d)) <= self.radius + MEMBERSHIP_TOL)

    def project(self, u: np.ndarray) -> np.ndarray:
        """Euclidean projection of each point of (..., m): radial scaling."""
        u = np.asarray(u, dtype=float)
        if u.ndim > 1:
            # point by point: an inner-solve step's one point pays no overhead
            return np.array([self.project(x) for x in u]).reshape(u.shape)
        d = u - self.center
        nd = np.linalg.norm(d)
        if nd <= self.radius:
            return u.copy()
        return self.center + d * (self.radius / nd)

    def project_jacobian(self, w: np.ndarray) -> np.ndarray:
        """Jacobian of :meth:`project` at one point w (m,): I inside the
        ball, on its boundary included, and (r/|d|)(I - d d'/|d|^2) outside,
        where d = w - center.  A zero radius projects onto the constant
        center, whose Jacobian is 0 everywhere, the center included."""
        d = np.asarray(w, dtype=float) - self.center
        nd = np.linalg.norm(d)
        eye = np.eye(d.size)
        if nd <= self.radius:
            return eye if self.radius > 0 else np.zeros_like(eye)
        d = d / nd
        return (self.radius / nd) * (eye - np.outer(d, d))

    def support_gap(self, g: np.ndarray, u: np.ndarray):
        """max over y in the ball of <g, y - u> = <g, c - u> + r ||g||."""
        u = np.asarray(u, dtype=float)
        g = np.asarray(g, dtype=float)
        return _item(_dot(g, self.center - u)
                     + self.radius * np.sqrt(_dot(g, g)))


ControlSet = Union[Box, Ball]


# ---------------------------------------------------------------------------
# terminal conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FixedEndpoints:
    """q(0) = q0 and q(t_f) = qf both prescribed."""

    q0: np.ndarray
    qf: np.ndarray

    def __post_init__(self):
        q0 = np.atleast_1d(np.asarray(self.q0, dtype=float))
        qf = np.atleast_1d(np.asarray(self.qf, dtype=float))
        if q0.shape != qf.shape:
            raise ValueError("endpoint vectors must have equal length")
        _freeze(self, q0=q0, qf=qf)


@dataclass(frozen=True, eq=False)
class FixedInitialFreeFinal:
    """q(0) = q0 prescribed, q(t_f) free (forces p(t_f) = 0)."""

    q0: np.ndarray

    def __post_init__(self):
        _freeze(self, q0=np.atleast_1d(self.q0))


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
        if not (math.isfinite(self.t_f) and self.t_f > 0):
            raise ValueError(f"final time must be positive and finite, "
                             f"got {self.t_f}")


@dataclass(frozen=True)
class FreeTime:
    """Free final time; ``t_f_guess`` seeds the shooting unknowns."""

    t_f_guess: float

    def __post_init__(self):
        if not (math.isfinite(self.t_f_guess) and self.t_f_guess > 0):
            raise ValueError(f"final-time guess must be positive and finite, "
                             f"got {self.t_f_guess}")


FinalTimeMode = Union[FixedTime, FreeTime]


# ---------------------------------------------------------------------------
# linear-quadratic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinearQuadratic:
    """Dynamics ``A q + B u`` and running cost ``q'Qq + u'Ru`` as matrices.

    A is n x n, B n x m, Q n x n and R m x m, all finite.  Q and R are
    symmetrized, so only their symmetric parts matter.  Equality and hashing
    are by identity: an instance keys the cache of its interval maps.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A, B, Q, R = (np.asarray(x, dtype=float)
                      for x in (self.A, self.B, self.Q, self.R))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        n = A.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B must have {n} rows")
        m = B.shape[1]
        if Q.shape != (n, n) or R.shape != (m, m):
            raise ValueError("Q and R must match the state/control dimensions")
        if not all(np.all(np.isfinite(x)) for x in (A, B, Q, R)):
            raise ValueError("A, B, Q and R must be finite")
        Q = 0.5 * (Q + Q.T)
        R = 0.5 * (R + R.T)
        _freeze(self, A=A, B=B, Q=Q, R=R)


# ---------------------------------------------------------------------------
# the problem itself
# ---------------------------------------------------------------------------

Callback = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class ProblemDefinition:
    """A finite-dimensional nonlinear optimal sampled-data control problem.

    Parameters
    ----------
    n, m : int
        State and control dimensions (both >= 1).
    f : callable
        Dynamics ``f(t, q, u) -> dq/dt``.  Every callback takes q of shape
        (..., n), u of shape (..., m) and t of shape ``q.shape[:-1]``, and
        broadcasts over the leading axes: ``f`` returns (..., n).
    f_q, f_u : callable
        Partial Jacobians of ``f``: shapes (..., n, n) and (..., n, m).  A
        constant Jacobian may be returned unbroadcast, as (n, n) or (n, m).
    f0 : callable
        Running cost integrand ``f0(t, q, u)`` of shape (...).
    f0_q, f0_u : callable
        Gradients of ``f0``: shapes (..., n) and (..., m).
    control_set : Box or Ball
        Closed convex set of admissible control values.
    terminal : TerminalCondition
        One of the three canonical variants.
    final_time : FixedTime or FreeTime
    name : str
        A label, purely informational: no artifact records it, since a run's
        manifest holds the specification it solved.
    lq : LinearQuadratic or None
        The same dynamics and running cost as matrices, for linear-quadratic
        problems.  When set, intervals propagate by precomputed RK4 step
        matrices, while the certificate, the cost and the exports still read
        the callbacks.  A caller who replaces ``f`` or ``f0`` (say with
        ``dataclasses.replace``) by a different function must pass
        ``lq=None``; :func:`validate_jacobians` checks the two agree.
    """

    n: int
    m: int
    f: Callback
    f_q: Callback
    f_u: Callback
    f0: Callback
    f0_q: Callback
    f0_u: Callback
    control_set: ControlSet
    terminal: TerminalCondition
    final_time: FinalTimeMode
    name: str = "custom"
    lq: Optional[LinearQuadratic] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("state and control dimensions must be >= 1")
        if self.control_set.dim != self.m:
            raise ValueError(
                f"control set dimension {self.control_set.dim} != m={self.m}")
        if self.lq is not None and self.lq.B.shape != (self.n, self.m):
            raise ValueError(
                f"lq matrices are for n={self.lq.B.shape[0]}, "
                f"m={self.lq.B.shape[1]}, not n={self.n}, m={self.m}")

    def hamiltonian(self, t, q, p, p0: float, u):
        """H = <p, f(t, q, u)> + p0 f0(t, q, u), of shape (...)."""
        q, p, u = self._checked(q, p, u)
        return _item(_dot(p, np.asarray(self.f(t, q, u), dtype=float))
                     + p0 * self.f0(t, q, u))

    def hamiltonian_q(self, t, q, p, p0, u) -> np.ndarray:
        """Gradient of H in q, (..., n), via the stored Jacobians."""
        q, p, u = self._checked(q, p, u)
        return _vecmat(p, self.f_q(t, q, u)) + p0 * self.f0_q(t, q, u)

    def hamiltonian_u(self, t, q, p, p0, u) -> np.ndarray:
        """Gradient of H in u, (..., m), via the stored Jacobians."""
        q, p, u = self._checked(q, p, u)
        return _vecmat(p, self.f_u(t, q, u)) + p0 * self.f0_u(t, q, u)

    def _checked(self, q, p, u):
        """q, p and u as float arrays, each trailing dimension checked once."""
        return [_check_last(x, dim, label) for x, dim, label in
                ((q, self.n, "q"), (p, self.n, "p"), (u, self.m, "u"))]

    def initial_state(self) -> np.ndarray:
        """q(0) when the terminal condition prescribes it."""
        if isinstance(self.terminal, (FixedEndpoints, FixedInitialFreeFinal)):
            return self.terminal.q0.copy()
        raise UnsupportedCase(
            "q(0) is a shooting unknown for this terminal condition")


def _check_last(x, dim: int, label: str) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != dim:
        raise ValueError(f"{label} must have shape (..., {dim}), "
                         f"got {x.shape}")
    return x


def _dot(x, y):
    """<x, y> over the last axis, per point: matmul of (1, n) rows takes the
    BLAS call of the 1-d ``x @ y``, so stacked and single calls agree."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _vecmat(x, M):
    """Row vector times matrix, x M, for each point; M is (n, k) or stacked."""
    return (x[..., None, :] @ M)[..., 0, :]


def _item(x):
    """A one-point result as a Python scalar, a stacked one as its array."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


@dataclass(frozen=True, eq=False)
class ControlSequence:
    """One control value per controlling time; row k is u(kT)."""

    values: np.ndarray   # shape (K, m)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError("control values must be a (K, m) array")
        _freeze(self, values=v)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, k: int) -> np.ndarray:
        return self.values[k]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def all_admissible(self, control_set: ControlSet) -> bool:
        return bool(np.all(control_set.contains(self.values)))


# ---------------------------------------------------------------------------
# finite-difference validation of user-supplied derivatives
# ---------------------------------------------------------------------------

JACOBIAN_PROBES = 20        # probe points of validate_jacobians
JACOBIAN_RTOL = 1e-5        # its tolerance, relative to 1 + magnitude


def validate_jacobians(problem: ProblemDefinition,
                       rng: np.random.Generator) -> None:
    """Check the six callbacks at ``JACOBIAN_PROBES`` probe points.

    One stacked call must return each probe point's own values (f_q and f_u
    may return a constant Jacobian unbroadcast).  f_q, f_u, f0_q and f0_u
    must match central differences of f and f0, and with ``lq`` set, f, f_q,
    f_u, f0_q and f0_u must match its matrices.  AssertionError names the
    first check off by more than ``JACOBIAN_RTOL``.  Probes: q and u standard
    normal, t uniform in [0, 10].
    """
    n, m, lq = problem.n, problem.m, problem.lq
    points = [(float(rng.uniform(0.0, 10.0)), rng.standard_normal(n),
               rng.standard_normal(m)) for _ in range(JACOBIAN_PROBES)]
    t, q, u = (np.array(x) for x in zip(*points))
    values = []
    for name in ("f", "f_q", "f_u", "f0", "f0_q", "f0_u"):
        fn = getattr(problem, name)
        rows = np.array([fn(*point) for point in points], dtype=float)
        got = np.asarray(fn(t, q, u), dtype=float)
        if name in ("f_q", "f_u") and got.ndim == 2:
            got = np.broadcast_to(got, rows.shape)
        if got.shape != rows.shape:
            raise AssertionError(f"{name} on stacked points has shape "
                                 f"{got.shape}, not {rows.shape}")
        _assert_close(got, rows, f"{name} on stacked points against its "
                                 f"per-point calls")
        values.append(rows)
    f, fq, fu, _, f0q, f0u = values

    if lq is not None:
        _assert_close(f, q @ lq.A.T + u @ lq.B.T, "f against lq")
        _assert_close(fq, lq.A, "f_q against lq")
        _assert_close(fu, lq.B, "f_u against lq")
        _assert_close(f0q, 2.0 * (q @ lq.Q), "f0_q against lq")
        _assert_close(f0u, 2.0 * (u @ lq.R), "f0_u against lq")

    h = 1e-6
    for i in range(n):
        e = h * np.eye(n)[i]
        df = (problem.f(t, q + e, u) - problem.f(t, q - e, u)) / (2 * h)
        d0 = (problem.f0(t, q + e, u) - problem.f0(t, q - e, u)) / (2 * h)
        _assert_close(fq[:, :, i], df, "f_q column against finite differences")
        _assert_close(f0q[:, i], d0, "f0_q entry against finite differences")
    for i in range(m):
        e = h * np.eye(m)[i]
        df = (problem.f(t, q, u + e) - problem.f(t, q, u - e)) / (2 * h)
        d0 = (problem.f0(t, q, u + e) - problem.f0(t, q, u - e)) / (2 * h)
        _assert_close(fu[:, :, i], df, "f_u column against finite differences")
        _assert_close(f0u[:, i], d0, "f0_u entry against finite differences")


def _assert_close(stored, reference, label):
    stored = np.asarray(stored, dtype=float)
    reference = np.asarray(reference, dtype=float)
    err = np.max(np.abs(stored - reference) / (1.0 + np.abs(reference)))
    if err > JACOBIAN_RTOL:
        raise AssertionError(f"{label}: {err:.3e} > {JACOBIAN_RTOL}")
