"""Independent checks of the program's answers, in the benchmark's own arithmetic.

Every workload solves a sampled double integrator

    x' = v,  v' = u,  x(0) = M,  v(0) = 0,  x(t_f) = v(t_f) = 0,
    u held at u_k on [t_k, t_k + d_k),  u_k in U,  minimize sum_k d_k |u_k|^2

(1-D parking with U = [-1, 1], or its planar version with U a disc).  Under
sample-and-hold the terminal state has a closed form,

    v(t_f) = sum_k d_k u_k,   x(t_f) = M + sum_k d_k c_k u_k,
    c_k = t_f - t_k - d_k / 2,

so the problem is a strictly convex QP in (u_k) with linear constraints
sum_k G_k u_k = b.  Its KKT conditions say that for some multiplier
nu = (nu_v, nu_x)

    u_k = proj_U((nu_v + c_k nu_x) / 2)     for every k,

and for a convex problem they are sufficient: controls that meet the
constraints and the KKT conditions are the unique optimum.  Nothing here
imports the program.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

TERMINAL_TOL = 1e-9     # the solvers stop at a terminal residual of 1e-10
KKT_TOL = 1e-8          # on the controls themselves, of order 1
ADMISSIBLE_TOL = 1e-9
SATURATION_MARGIN = 1e-9


class CheckFailed(AssertionError):
    """A program output failed one of the benchmark's checks."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# grids and control sets
# ---------------------------------------------------------------------------

def uniform_grid(t_f: float, K: int):
    """(start times, lengths) of K equal intervals covering [0, t_f]."""
    d = np.full(K, t_f / K)
    return np.arange(K) * (t_f / K), d


def midpoint_coefficients(times, lengths, t_f: float) -> np.ndarray:
    return t_f - np.asarray(times) - np.asarray(lengths) / 2.0


def project_box(w: np.ndarray, bound: float) -> np.ndarray:
    return np.clip(w, -bound, bound)


def project_ball(w: np.ndarray, radius: float) -> np.ndarray:
    """Radial projection of each row of w onto the disc of given radius."""
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return w * scale


# ---------------------------------------------------------------------------
# the sampled double integrator
# ---------------------------------------------------------------------------

def terminal_state(M, times, lengths, t_f: float, controls: np.ndarray):
    """(x(t_f), v(t_f)) under sample-and-hold from rest at x = M."""
    U = np.asarray(controls, dtype=float).reshape(len(lengths), -1)
    d = np.asarray(lengths)
    c = midpoint_coefficients(times, lengths, t_f)
    v = d @ U
    x = np.atleast_1d(np.asarray(M, dtype=float)) + (d * c) @ U
    return x, v


def kkt_residual(times, lengths, t_f: float, controls: np.ndarray,
                 kind: str, bound: float) -> float:
    """Largest |u_k - proj_U((nu_v + c_k nu_x) / 2)| over k, nu fitted.

    nu is the least-squares solution of the linear conditions the KKT system
    puts on it: w_k = u_k on intervals strictly inside U, and for the disc
    also w_k parallel to u_k on its boundary.  Raises CheckFailed when those
    conditions do not determine nu.
    """
    U = np.asarray(controls, dtype=float).reshape(len(lengths), -1)
    K, m = U.shape
    c = midpoint_coefficients(times, lengths, t_f)
    rows, rhs = [], []
    for k in range(K):
        # w_k = (nu_v + c_k nu_x) / 2 = E_k nu with nu = (nu_v, nu_x)
        E = 0.5 * np.hstack([np.eye(m), c[k] * np.eye(m)])
        u = U[k]
        if kind == "box":
            free = np.abs(u) < bound - SATURATION_MARGIN
            rows.extend(E[free])
            rhs.extend(u[free])
        elif np.linalg.norm(u) < bound - SATURATION_MARGIN:
            rows.extend(E)
            rhs.extend(u)
        else:
            direction = u / np.linalg.norm(u)
            normal_part = np.eye(m) - np.outer(direction, direction)
            rows.extend(normal_part @ E)
            rhs.extend(np.zeros(m))
    A = np.asarray(rows).reshape(-1, 2 * m)
    require(A.shape[0] > 0 and np.linalg.matrix_rank(A) == 2 * m,
            "too few unsaturated intervals to determine the multiplier")
    nu = np.linalg.lstsq(A, np.asarray(rhs), rcond=None)[0]
    W = 0.5 * (nu[:m][None, :] + c[:, None] * nu[m:][None, :])
    P = project_box(W, bound) if kind == "box" else project_ball(W, bound)
    return float(np.max(np.abs(P - U)))


def check_sampled_optimum(M, times, lengths, t_f: float, controls,
                          kind: str, bound: float) -> None:
    """Controls are admissible, park the integrator and are the QP optimum."""
    U = np.asarray(controls, dtype=float).reshape(len(lengths), -1)
    require(np.all(np.isfinite(U)), "non-finite control")
    if kind == "box":
        excess = float(np.max(np.abs(U))) - bound
    else:
        excess = float(np.max(np.linalg.norm(U, axis=1))) - bound
    require(excess <= ADMISSIBLE_TOL,
            f"control leaves the control set by {excess:.3e}")
    x, v = terminal_state(M, times, lengths, t_f, U)
    miss = float(np.linalg.norm(np.concatenate([x, v])))
    require(miss <= TERMINAL_TOL,
            f"terminal state misses the origin by {miss:.3e}")
    kkt = kkt_residual(times, lengths, t_f, U, kind, bound)
    require(kkt <= KKT_TOL, f"KKT residual {kkt:.3e} > {KKT_TOL:.0e}")


def sampled_optimum_box(M: float, times, lengths, t_f: float,
                        bound: float = 1.0) -> np.ndarray:
    """Optimal 1-D controls by Newton ascent on the concave dual in nu.

    The dual function g(nu) = sum_k min_{|u| <= bound} (d_k u^2 - nu.G_k u)
    + nu.b is piecewise quadratic; its gradient is b - sum_k G_k u_k(nu)
    with u_k(nu) = clip((nu_v + c_k nu_x) / 2).
    """
    d = np.asarray(lengths, dtype=float)
    c = midpoint_coefficients(times, lengths, t_f)
    G = np.vstack([d, d * c])               # rows: v(t_f), x(t_f) - M
    b = np.array([0.0, -float(M)])

    def controls(nu):
        return project_box(0.5 * (nu[0] + c * nu[1]), bound)

    def dual(nu):
        u = controls(nu)
        return float(np.sum(d * u * u) - nu @ (G @ u) + nu @ b)

    # the unconstrained optimum's multiplier is the starting point
    H = 0.5 * (G / d) @ G.T
    nu = np.linalg.solve(H, b)
    for _ in range(200):
        u = controls(nu)
        grad = b - G @ u
        if np.linalg.norm(grad) <= 1e-12 * (1.0 + abs(M)):
            return u
        free = np.abs(0.5 * (nu[0] + c * nu[1])) < bound
        hess = 0.5 * (G[:, free] / d[free]) @ G[:, free].T
        step = np.linalg.lstsq(hess + 1e-14 * np.eye(2), grad, rcond=None)[0]
        g0, scale = dual(nu), 1.0
        while scale > 1e-12 and dual(nu + scale * step) < g0:
            scale *= 0.5
        nu = nu + scale * step
    raise CheckFailed("dual Newton did not converge")


def permanent_control(M: float, t_f: float, t) -> np.ndarray:
    """u*(t) of the permanent (continuous-control) parking problem."""
    t = np.asarray(t, dtype=float)
    if t_f ** 2 >= 6.0 * M:
        return 6.0 * M / t_f ** 3 * (2.0 * t - t_f)
    sigma = math.sqrt(3.0 * (t_f ** 2 - 4.0 * M))
    return np.clip((2.0 * t - t_f) / sigma, -1.0, 1.0)


def permanent_cost(M: float, t_f: float) -> float:
    """Integral of u*(t)^2: ramp alone, or 2 t1 of saturation plus the ramp."""
    if t_f ** 2 >= 6.0 * M:
        return 12.0 * M ** 2 / t_f ** 3
    sigma = math.sqrt(3.0 * (t_f ** 2 - 4.0 * M))
    return (t_f - sigma) + sigma / 3.0


# ---------------------------------------------------------------------------
# CLI artifacts
# ---------------------------------------------------------------------------

def read_csv_columns(path) -> dict:
    """Columns of a numeric CSV with a header row, as float arrays."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    out = {}
    for j, name in enumerate(header):
        try:
            out[name] = np.array([float(row[j]) for row in cells])
        except ValueError:
            out[name] = [row[j] for row in cells]
    return out


def check_hold(t, u_hold, times, lengths, controls) -> None:
    """u_hold(t) is u_k for the interval [t_k, t_k + d_k) holding t.

    At a sample within 1e-9 of a grid point either neighbour is accepted,
    since the program and the benchmark may round t/T differently there.
    """
    controls = np.asarray(controls, dtype=float).ravel()
    ends = np.asarray(times) + np.asarray(lengths)
    K = len(controls)
    for ti, hi in zip(t, u_hold):
        candidates = {min(int(np.searchsorted(ends, ti, side="right")), K - 1)}
        for shift in (-1e-9, 1e-9):
            candidates.add(min(int(np.searchsorted(ends, ti + shift,
                                                   side="right")), K - 1))
        require(any(abs(hi - controls[k]) <= 1e-12 * (1 + abs(controls[k]))
                    for k in candidates),
                f"hold at t={ti:.6g} is {hi:.6g}, not the control held there")


def check_sweep(M: float, t_f: float, Ks, rows: dict) -> None:
    """The cost gap of the rows is positive and does not increase as the
    nested periods shrink, and each row matches the benchmark's optimum."""
    require(list(rows["status"]) == ["ok"] * len(Ks),
            f"sweep statuses {rows['status']}")
    require([int(k) for k in rows["K"]] == list(Ks),
            f"sweep interval counts {rows['K']} != {list(Ks)}")
    gaps = [s - p for s, p in zip(rows["cost_sampled"], rows["cost_permanent"])]
    require(all(g > 0 for g in gaps), f"cost gaps {gaps} not all positive")
    require(all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])),
            f"cost gaps {gaps} increase on nested periods")
    cost_perm = permanent_cost(M, t_f)
    for j, K in enumerate(Ks):
        times, lengths = uniform_grid(t_f, K)
        u = sampled_optimum_box(M, times, lengths, t_f)
        cost = float(np.sum(lengths * u * u))
        require(abs(rows["cost_sampled"][j] - cost) <= 1e-9 * (1 + cost),
                f"K={K}: sampled cost {rows['cost_sampled'][j]!r}, "
                f"benchmark's optimum {cost!r}")
        require(abs(rows["cost_permanent"][j] - cost_perm) <= 1e-10,
                f"permanent cost {rows['cost_permanent'][j]!r} != {cost_perm!r}")
        require(rows["terminal_residual"][j] <= TERMINAL_TOL,
                f"K={K}: terminal residual {rows['terminal_residual'][j]!r}")


# ---------------------------------------------------------------------------
# infeasible single-interval parking
# ---------------------------------------------------------------------------

def prove_single_interval_infeasible(M: float, t_f: float, T: float) -> None:
    """With T > t_f the only controlling time is 0, so u is one constant u_0:
    v(t_f) = t_f u_0 = 0 forces u_0 = 0, which leaves x(t_f) = M != 0."""
    require(T > t_f, f"T={T} does not exceed t_f={t_f}: not one interval")
    require(M != 0.0, "M = 0 is feasible")


def check_rejection(outcome, rejection_types) -> Optional[str]:
    """None when the program rejected the instance with one of the expected
    exception types; otherwise the reason the operation failed."""
    if isinstance(outcome, BaseException):
        if isinstance(outcome, rejection_types):
            return None
        return f"raised {type(outcome).__name__}: {outcome}"
    return "returned a solution for a provably infeasible instance"
