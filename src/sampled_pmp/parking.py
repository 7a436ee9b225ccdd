"""Minimum-energy parking of a double integrator, permanent and sampled.

A car at position M > 0 with zero velocity must reach the origin at rest at
time t_f, with |acceleration| <= 1, minimizing the integrated squared
acceleration.  Existence requires t_f^2 > 4M.  The permanent-control solution
is classical and closed-form in two regimes:

* constrained, 4M < t_f^2 < 6M: full braking until the switching time t1,
  then an affine ramp, then full acceleration from t_f - t1;
* unconstrained, t_f^2 >= 6M: the affine ramp 6M/t_f^3 (2t - t_f) alone.

In the sampled version the control is frozen on each period-T interval.  The
adjoint is affine (p_1 constant, p_2 of slope -p_1), so interval k's
averaged gradient is pbar_2,k - 2u, pbar_2,k = p_2(0) - p_1 m_k the mean of
p_2 over the interval and m_k its midpoint, and u_k = clip(pbar_2,k / 2).
The whole problem collapses to the two unknowns p(0), the packed unknowns
of every other solve, shot at the two terminal constraints through exact
closed-form propagation.  This holds on every grid: a partial last interval
only moves its midpoint m_k = t_k + Delta_k/2.

The terminal state is affine in the K controls, so whether a grid can park
the car at all has a closed form too: the sampled reach R, the largest M
that controls with |u_k| <= 1 park exactly (R = t_f^2/4 on a uniform grid
with even K, R = 0 at K = 1).  Past it, every admissible control misses
the target by at least (M - R)/(1 + |lambda*|), and the shooting solve
rejects the instance before any Newton step.

This module also carries an independent brute-force oracle: the sampled
problem is a convex QP in the K control values, solved by active-set
enumeration (K <= 12).  Its matrices come from the same grid, so it checks
the shooting solver on every grid, a partial last interval included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .certificate import Certificate, check_certificate
from .errors import Infeasible, NonConvergence
from .problem import (Box, ControlSequence, FixedEndpoints, FixedTime,
                      ProblemDefinition, SamplingGrid, _item, build_grid)
from .problems import lti_problem
from .simulate import integrate_extremal_forward
from . import solver as _solver


# ---------------------------------------------------------------------------
# problem factory
# ---------------------------------------------------------------------------

DOUBLE_INTEGRATOR = ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])  # (A, B)


def parking_problem(M: float, t_f: float) -> ProblemDefinition:
    """The parking problem as a generic ProblemDefinition: the double
    integrator from (M, 0) to rest at the fixed time t_f, |u| <= 1, with cost
    the integral of u^2.

    It is :func:`~sampled_pmp.problems.lti_problem` with A = [[0, 1], [0, 0]],
    B = [0, 1]' and its default Q = 0 and R = 1: exactly what
    :func:`parking_position` recognizes.  Other double integrators are
    ``lti_problem(*DOUBLE_INTEGRATOR, ...)`` calls.
    """
    return lti_problem(
        *DOUBLE_INTEGRATOR,
        control_set=Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=FixedEndpoints(q0=np.array([float(M), 0.0]), qf=np.zeros(2)),
        final_time=FixedTime(t_f), name="parking")


def parking_position(problem: ProblemDefinition) -> Optional[float]:
    """M when ``problem`` is exactly what ``parking_problem(M, t_f)`` builds,
    None otherwise.

    Exactly means: ``lq`` holds parking's A and B with Q = 0 and R = [[1]],
    the control set is Box(-1, 1), the endpoints are fixed at q0 = (M, 0)
    with M > 0 and qf = 0, and the final time is fixed.  Each test is an
    exact equality.  This is the one place that decides whether the
    closed-form :func:`solve_parking` serves a problem.
    """
    lq, box, term = problem.lq, problem.control_set, problem.terminal
    if not (lq is not None and isinstance(box, Box)
            and isinstance(term, FixedEndpoints)
            and isinstance(problem.final_time, FixedTime)):
        return None
    A, B = DOUBLE_INTEGRATOR
    if not (np.array_equal(lq.A, A) and np.array_equal(lq.B, B)
            and np.array_equal(lq.Q, np.zeros((2, 2)))
            and np.array_equal(lq.R, [[1.0]])
            and np.array_equal(box.lower, [-1.0])
            and np.array_equal(box.upper, [1.0])
            and np.array_equal(term.qf, np.zeros(2))
            and term.q0[0] > 0 and term.q0[1] == 0):
        return None
    return float(term.q0[0])


# ---------------------------------------------------------------------------
# permanent-control closed forms
# ---------------------------------------------------------------------------

def _require_existence(M: float, t_f: float) -> None:
    """The one existence rule: the car, at a positive and finite M, can park
    only if t_f^2 > 4M.  An (M, t_f) whose t_f^3 or M^2 overflows a float is
    rejected first, so no closed form downstream can overflow."""
    if not 0 < M < math.inf:
        raise ValueError(f"initial position must be positive and finite, "
                         f"got {M}")
    # products overflow to inf where float ** raises OverflowError
    if not math.isfinite(t_f * t_f * t_f) or not math.isfinite(M * M):
        raise ValueError(f"t_f^3 or M^2 overflows at M={M:.6g}, t_f={t_f:.6g}")
    if t_f ** 2 <= 4.0 * M:
        raise ValueError(f"existence needs t_f^2 > 4M (got t_f^2={t_f**2:.6g}, "
                         f"4M={4*M:.6g})")


def switching_time(M: float, t_f: float) -> float:
    """First switching time t1 of the constrained regime, in (0, t_f/2)."""
    if not (4.0 * M < t_f ** 2 < 6.0 * M):
        raise ValueError("switching time exists only for 4M < t_f^2 < 6M")
    return 0.5 * (t_f - math.sqrt(3.0 * (t_f ** 2 - 4.0 * M)))


def permanent_control(M: float, t_f: float, t):
    """Optimal permanent control u*(t); accepts scalar or array times."""
    _require_existence(M, t_f)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < -1e-9) or np.any(t_arr > t_f + 1e-9):
        raise ValueError("time outside [0, t_f]")
    if t_f ** 2 >= 6.0 * M:
        out = (6.0 * M / t_f ** 3) * (2.0 * t_arr - t_f)
    else:
        t1 = switching_time(M, t_f)
        ramp = (2.0 * t_arr - t_f) / math.sqrt(3.0 * (t_f ** 2 - 4.0 * M))
        out = np.where(t_arr <= t1, -1.0, np.where(t_arr >= t_f - t1, 1.0, ramp))
    return _item(out)


def permanent_cost(M: float, t_f: float) -> float:
    """Energy of the permanent optimum (closed form in both regimes)."""
    _require_existence(M, t_f)
    if t_f ** 2 >= 6.0 * M:
        return 12.0 * M ** 2 / t_f ** 3
    sigma = math.sqrt(3.0 * (t_f ** 2 - 4.0 * M))
    t1 = 0.5 * (t_f - sigma)
    return 2.0 * t1 + sigma / 3.0


def initial_adjoint_guess(M: float, t_f: float) -> np.ndarray:
    """p(0) of the unconstrained permanent solution, u*(t) = p_2(t)/2; it
    seeds the sampled shooting, dedicated and generic, in both regimes."""
    p1 = -24.0 * M / t_f ** 3
    return np.array([p1, p1 * t_f + 12.0 * M / t_f ** 2])


# ---------------------------------------------------------------------------
# sampled closed forms
# ---------------------------------------------------------------------------

def _midpoint_coeffs(grid: SamplingGrid) -> np.ndarray:
    """c_k = t_f - kT - Delta_k/2 (reduces to t_f - kT - T/2 on full intervals)."""
    return grid.t_f - grid.times - grid.lengths / 2.0


def _midpoints(grid: SamplingGrid) -> np.ndarray:
    """m_k = t_k + Delta_k/2, where the mean of an affine p_2 is taken."""
    return grid.times + grid.lengths / 2.0


def sampled_control(p_init, grid: SamplingGrid) -> ControlSequence:
    """Per-interval controls of the adjoint that starts at p(0) = ``p_init``.

    The averaged gradient p_2(0) - p_1 m_k - 2x decreases in x; u_k is -1
    when it is negative at -1, +1 when it is positive at 1, and its root
    (p_2(0) - p_1 m_k)/2 otherwise.
    """
    u = np.clip(0.5 * (p_init[1] - p_init[0] * _midpoints(grid)), -1.0, 1.0)
    return ControlSequence(u[:, None])


def sampled_reach(grid: SamplingGrid):
    """``(R, lam)``: the largest M that admissible controls park on ``grid``,
    and the multiplier that proves it.

    Parking needs sum Delta_k u_k = 0 and sum Delta_k c_k u_k = -M with
    |u_k| <= 1.  For any lam, -sum Delta_k c_k u_k = -sum Delta_k (c_k - lam)
    u_k <= sum Delta_k |c_k - lam|, and LP duality makes the minimum over
    lam, R, attained: the reachable M are exactly (0, R].  The minimizer is
    the Delta-weighted median of the c_k, which decrease in k, so a
    cumulative sum finds it.  R = t_f^2/4 on a uniform grid with even K,
    and R = 0 at K = 1.
    """
    c = _midpoint_coeffs(grid)
    d = grid.lengths
    cum = np.cumsum(d)
    lam = float(c[np.searchsorted(cum, 0.5 * cum[-1])])
    return float(d @ np.abs(c - lam)), lam


def parking_shooting_map(p_init, M: float, grid: SamplingGrid):
    """Exact terminal state (q_1(t_f), q_2(t_f)) of the double integrator
    under the controls of the adjoint that starts at p(0) = ``p_init``."""
    u = sampled_control(p_init, grid).values[:, 0]
    c = _midpoint_coeffs(grid)
    d = np.asarray(grid.lengths)
    q2f = float(np.sum(d * u))
    q1f = float(M + np.sum(d * u * c))
    return q1f, q2f


def sampled_cost(grid: SamplingGrid, controls: ControlSequence) -> float:
    """Energy of a sampled control: sum of Delta_k |u_k|^2."""
    v = controls.values
    return float(np.sum(np.asarray(grid.lengths) * np.sum(v * v, axis=1)))


# ---------------------------------------------------------------------------
# dedicated 2-unknown shooting solve
# ---------------------------------------------------------------------------

def solve_parking(M: float, t_f: float, T: float,
                  stats: Optional[dict] = None):
    """Solve the sampled parking instance by two-unknown shooting.

    Returns ``(extremal, certificate)`` and fills ``stats`` as
    :func:`~sampled_pmp.solve` does.  Newton runs on p(0) from
    :func:`initial_adjoint_guess` through :func:`parking_shooting_map`,
    exact on any grid, and its exact Jacobian.  Only the converged p(0)'s
    extremal is integrated, once, and certified; its ``final_adjoint``
    holds the terminal multipliers (p_1, p_2(t_f)).

    A target past the grid's :func:`sampled_reach` R by more than
    (1 + |lambda*|) NEWTON_TOL, one interval's say, is missed by more than
    NEWTON_TOL by every admissible control.  It raises NonConvergence at
    once, naming M, R and K, with that lower bound on the miss as
    ``residual_norm`` and an empty history: no map is evaluated and
    nothing is integrated.
    """
    _require_existence(M, t_f)
    grid = build_grid(t_f, T)
    reach, lam = sampled_reach(grid)
    # every admissible control has q1f - lam q2f >= M - R, so its terminal
    # miss is at least (M - R)/(1 + |lam|) in norm
    miss = (M - reach) / (1.0 + abs(lam))
    if miss > _solver.NEWTON_TOL:
        raise NonConvergence(
            f"target unreachable: M = {M:.6g} exceeds the reach "
            f"R = {reach:.6g} of K = {grid.n_intervals} intervals",
            residual_norm=miss)
    problem = parking_problem(M, t_f)
    c, m = _midpoint_coeffs(grid), _midpoints(grid)

    def residual(x):
        return np.array(parking_shooting_map(x, M, grid)), None

    def jacobian(x, _):
        # rows (q1f, q2f) sum Delta_k (c_k, 1) du_k, where the map is affine:
        # du_k/dp(0) = (-m_k, 1)/2 off the bounds and 0 on them
        w = 0.5 * grid.lengths * (np.abs(0.5 * (x[1] - x[0] * m)) < 1.0)
        return np.array([[-(w * c) @ m, w @ c], [-w @ m, np.sum(w)]])

    x, _ = _solver._damped_newton(
        residual, jacobian, initial_adjoint_guess(M, t_f),
        _solver.NEWTON_TOL, _solver.NEWTON_MAX_ITER, stats=stats)
    extremal = integrate_extremal_forward(problem, grid,
                                          sampled_control(x, grid),
                                          np.array([M, 0.0]), x, -1.0)
    return extremal, check_certificate(problem, extremal)


# ---------------------------------------------------------------------------
# brute-force oracle: the sampled problem as a convex QP
# ---------------------------------------------------------------------------

MAX_ENUMERATION_K = 12


def qp_oracle(M: float, t_f: float, T: float) -> ControlSequence:
    """Global optimum of the discretized problem, independent of the solver.

    Minimizes sum Delta_k u_k^2 under the two linear terminal constraints and
    |u_k| <= 1, on any grid (a partial last interval included).  Every
    pattern in {-1, free, +1}^K is tried: the free components solve the
    bordered KKT system of the pattern, and the cheapest feasible candidate
    wins (K <= 12).
    """
    if T <= 0 or t_f <= 0 or M <= 0:
        raise ValueError("qp_oracle needs positive M, t_f, T")
    grid = build_grid(t_f, T)
    K = grid.n_intervals
    d = np.asarray(grid.lengths)
    c = _midpoint_coeffs(grid)
    A = np.vstack([d, d * c])          # q2(t_f) and q1(t_f) - M rows
    b = np.array([0.0, -M])

    if M > t_f ** 2 / 4.0:
        raise Infeasible(
            f"target unreachable: M={M:.6g} exceeds t_f^2/4={t_f**2/4:.6g} "
            f"with unit acceleration bound")
    if K > MAX_ENUMERATION_K:
        raise ValueError(f"active-set enumeration bounded at K <= "
                         f"{MAX_ENUMERATION_K}, got K={K}")

    # all 3^K saturation patterns, visited in order of the cost their fixed
    # entries already commit to; once that sunk cost reaches the incumbent,
    # every remaining pattern is provably worse (free entries only add cost)
    patterns = np.stack(np.meshgrid(*([np.array([-1, 0, 1], dtype=np.int8)] * K),
                                    indexing="ij")).reshape(K, -1).T
    sunk = (patterns != 0) @ d         # a saturated u_k = +-1 costs Delta_k
    order = np.argsort(sunk, kind="stable")

    best_cost = np.inf
    best_u = None
    feas_tol = 1e-9
    for idx in order:
        if sunk[idx] >= best_cost - 1e-15:
            break
        pattern = patterns[idx]
        fixed = pattern != 0
        u = pattern.astype(float)
        b_eff = b - A[:, fixed] @ u[fixed]
        free_idx = np.nonzero(~fixed)[0]
        nf = len(free_idx)
        if nf == 0:
            if np.linalg.norm(b_eff) > feas_tol:
                continue
        else:
            # bordered KKT of min sum d u^2 s.t. A_F u = b_eff
            Af = A[:, free_idx]
            kkt = np.zeros((nf + 2, nf + 2))
            kkt[:nf, :nf] = 2.0 * np.diag(d[free_idx])
            kkt[:nf, nf:] = Af.T
            kkt[nf:, :nf] = Af
            rhs = np.concatenate([np.zeros(nf), b_eff])
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            uf = sol[:nf]
            if np.linalg.norm(Af @ uf - b_eff) > feas_tol:
                continue
            if np.any(np.abs(uf) > 1.0 + 1e-12):
                continue
            u[free_idx] = uf
        cost = float(np.sum(d * u * u))
        if cost < best_cost - 1e-15:
            best_cost = cost
            best_u = u.copy()
    if best_u is None:
        raise Infeasible(
            f"no admissible sampled control parks M={M:.6g} in t_f={t_f:.6g} "
            f"with K={K} intervals")
    return ControlSequence(best_u[:, None])


# ---------------------------------------------------------------------------
# sampling-period sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SweepRow:
    """One sampling period's outcome in a convergence sweep."""

    T: float
    K: int
    sup_dev: float
    terminal_residual: float
    max_pmp_residual: float
    cost_sampled: float
    cost_permanent: float
    status: str = "ok"
    error: str = ""
    controls: Optional[ControlSequence] = None     # None on a failed row
    # why a row failed: the raised error or the failing Certificate
    cause: Optional[Union[Exception, Certificate]] = None


def sweep_row(M: float, t_f: float, T: float) -> SweepRow:
    """Solve one instance and compare it against the permanent optimum.

    The deviation is measured at interval midpoints kT + Delta_k/2, where the
    unsaturated sampled law samples an affine function of time and the
    comparison is free of the O(T) offset that a comparison at kT carries.
    When the box constraint is active, ``sup_dev`` is not monotone in T: it
    depends on where the grid falls relative to the kinks t1 and t_f - t1
    (at (M, t_f, T) = (2, 3, 1) it is 0).  The cost gap ``cost_sampled -
    cost_permanent`` does not increase when each period divides the last.
    A failed solve or certificate gives a "failed" row that says why and
    keeps its cause.  ``terminal_residual`` is the certificate's feasibility.
    """
    grid = build_grid(t_f, T)
    try:
        extremal, cert = solve_parking(M, t_f, T)
        cause = None if cert.passed else cert
        error = ("" if cert.passed else
                 "certificate failed: " + "; ".join(cert.violations))
    except (NonConvergence, ValueError) as exc:
        cause, error = exc, str(exc)
    if cause is not None:
        return SweepRow(T=T, K=grid.n_intervals, sup_dev=np.nan,
                        terminal_residual=np.nan, max_pmp_residual=np.nan,
                        cost_sampled=np.nan,
                        cost_permanent=permanent_cost(M, t_f),
                        status="failed", error=error, cause=cause)
    controls = extremal.controls
    u_star = np.asarray(permanent_control(M, t_f, _midpoints(grid)))
    sup_dev = float(np.max(np.abs(controls.values[:, 0] - u_star)))
    max_r = max(cert.max_interval_residual, cert.transversality)
    return SweepRow(T=T, K=grid.n_intervals, sup_dev=sup_dev,
                    terminal_residual=cert.feasibility, max_pmp_residual=max_r,
                    cost_sampled=sampled_cost(grid, controls),
                    cost_permanent=permanent_cost(M, t_f), controls=controls)

