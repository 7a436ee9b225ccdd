"""Indirect shooting for optimal sampled-data control.

The outer loop is a damped Newton iteration on the unknown initial adjoint
(plus the initial state for periodic problems and the final time when it is
free).  Each residual evaluation propagates the coupled state/adjoint system
forward interval by interval; on every interval the frozen control solves
the averaged-gradient variational inequality by semismooth Newton on its
natural residual project(u + Gbar(u)) - u, re-integrating the interval at
each trial control so that the implicit dependence of the arc on the control
is resolved exactly.  The arc of the last evaluation, at the solved control,
advances the propagation and is the returned extremal's piece of the
interval, so a residual integrates no interval beyond its inner solve.
The residual is read from the end values of those arcs by the boundary
conditions the certificate checks; only the accepted iterate's arcs are
assembled into an extremal, and ``solve`` returns its certificate whatever
the verdict.  On a problem with ``lq`` matrices the interval arcs come from
the precomputed RK4 maps (see :mod:`.simulate`) and Gbar is the Simpson
mean of B'p + 2 p0 R u on the adjoint nodes, by the same weights; the same
Newton iterations run on them, and the certificate still evaluates dH/du
through the callbacks.

The shooting map is piecewise smooth: it kinks where a control changes
saturation status and, for free final times, where the horizon crosses a
multiple of the sampling period.  The backtracking line search absorbs
both kinds.

The damped Newton driver ``_damped_newton`` is the library's only one: the
interval control, the generic shooting, the two-unknown parking shooting and
``match_terminal_adjoint`` all run on it.  The method has no options: its
tolerances, iteration caps and line-search settings are the module constants
below, and every interval integrates with ``simulate.SUBSTEPS`` RK4 steps.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .certificate import (_terminal_hamiltonian, boundary_residuals,
                          check_certificate)
from .errors import IntegrationBlowUp, NonConvergence
from .problem import (ControlSequence, FreeTime, Periodic, ProblemDefinition,
                      SamplingGrid, build_grid)
from .simulate import (SIMPSON_MEAN, _extremal_from_arcs, _extremal_interval,
                       _interval_mean, integrate_extremal_forward)


# Tolerance and iteration cap of the inner Newton on each interval's natural
# residual and of the outer Newton on the shooting residual.
INNER_TOL = 1e-12
INNER_MAX_ITER = 200
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100

FD_STEP = 1e-6              # forward-difference step, scaled by (1 + |x|)
MAX_HALVINGS = 30           # trial scales 1, 1/2, ... along one direction

# Levenberg damping of the one retry taken when no scale of the Newton step
# decreases the residual.  Where the shooting map kinks (a control changing
# saturation status between the FD probes), the one-sided Jacobian can mix
# regions and point uphill; heavy damping rotates the step toward steepest
# descent of |r|^2, which is region-independent.
LEVENBERG_DAMPING = 1.0


def _unknown_layout(problem: ProblemDefinition):
    """(has_q0, has_tf, total unknown dimension) for the problem's variant.

    The packed unknown vector is p(0), then q(0) for periodic problems, then
    t_f when the final time is free.
    """
    has_q0 = isinstance(problem.terminal, Periodic)
    has_tf = isinstance(problem.final_time, FreeTime)
    dim = problem.n * (2 if has_q0 else 1) + (1 if has_tf else 0)
    return has_q0, has_tf, dim


# ---------------------------------------------------------------------------
# inner solve: one interval's control from the averaged-gradient condition
# ---------------------------------------------------------------------------

def _interval_average_gradient(problem, t_k, delta, q_k, p_k, p0, u):
    """Average of dH/du over one interval, re-integrating the coupled arc at u.

    Returns ``(gbar, arc)`` with the integrated ``(times, nodes)`` arc.  A
    linear-quadratic problem averages dH/du = B'p + 2 p0 R u by the same
    Simpson rule on the adjoint nodes, without callbacks.
    """
    n = problem.n
    times, nodes = _extremal_interval(problem, t_k, delta,
                                      np.concatenate([q_k, p_k]), u, p0)
    lq = problem.lq
    if lq is None:
        gbar = _interval_mean(problem.hamiltonian_u, times, nodes[:, :n],
                              nodes[:, n:], p0, u)
    else:
        gbar = lq.B.T @ (SIMPSON_MEAN @ nodes[:, n:]) + 2.0 * p0 * (lq.R @ u)
    return gbar, (times, nodes)


def solve_interval_control(problem: ProblemDefinition, t_k: float, delta: float,
                           q_k: np.ndarray, p_k: np.ndarray, p0: float,
                           u_init: np.ndarray):
    """Control value satisfying the interval's variational inequality.

    Runs :func:`_damped_newton` on the natural residual
    F(u) = project(u + Gbar(u)) - u, whose zeros are exactly the controls
    where Gbar lies in the normal cone of the control set; Gbar re-integrates
    the interval arc at the trial control.  ``INNER_TOL`` and
    ``INNER_MAX_ITER`` serve as the Newton tolerance and iteration cap.
    Returns ``(u, arc)``, where ``arc`` is the ``(times, nodes)`` coupled arc
    integrated at ``u`` by its last residual evaluation.
    """
    q_k = np.asarray(q_k, dtype=float)
    p_k = np.asarray(p_k, dtype=float)
    project = problem.control_set.project
    u = project(np.atleast_1d(np.asarray(u_init, dtype=float)))

    def natural_residual(v):
        gbar, arc = _interval_average_gradient(problem, t_k, delta, q_k, p_k,
                                               p0, v)
        return project(v + gbar) - v, arc

    return _damped_newton(natural_residual, u, INNER_TOL, INNER_MAX_ITER)


# ---------------------------------------------------------------------------
# forward propagation with inner solves, and the shooting residual
# ---------------------------------------------------------------------------

def _propagate(problem: ProblemDefinition, grid: SamplingGrid, x: np.ndarray):
    """Integrate the extremal forward from the packed unknowns ``x``.

    Returns ``(residual_vector, (grid, controls, arcs))``, the grid being
    the trial horizon's for a free final time.  Each interval's coupled
    ``(times, nodes)`` arc is the one the inner solve integrated at its
    solved control; that arc advances the state and adjoint, and
    ``simulate._extremal_from_arcs`` with p0 = -1 assembles the arcs into
    the extremal.  Controls are warm-started from the previous interval (the
    first from the projected origin).
    """
    n = problem.n
    has_q0, has_tf, dim = _unknown_layout(problem)
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"unknown vector must have shape ({dim},), got {x.shape}")
    q = x[n:2 * n] if has_q0 else problem.initial_state()
    p0 = -1.0

    if has_tf:
        if x[-1] <= 0:
            raise IntegrationBlowUp(0.0, "trial final time is nonpositive")
        grid = build_grid(float(x[-1]), grid.period)

    u_prev = np.zeros(problem.m)

    z = np.concatenate([q, x[:n]])
    us, arcs = [], []
    for k in range(grid.n_intervals):
        t_k, delta = float(grid.times[k]), float(grid.lengths[k])
        try:
            u_k, arc = solve_interval_control(problem, t_k, delta, z[:n],
                                              z[n:], p0, u_prev)
        except NonConvergence as exc:
            exc.interval = k
            raise
        arcs.append(arc)
        us.append(u_k)
        z = arcs[-1][1][-1]
        u_prev = u_k

    controls = ControlSequence(np.vstack(us))

    # the start block holds by construction of q above
    z0 = arcs[0][1][0]
    _, end, transversality = boundary_residuals(
        problem.terminal, z0[:n], z[:n], z0[n:], z[n:])
    h_f = ([_terminal_hamiltonian(problem, grid.t_f, z[:n], z[n:], p0,
                                  controls[-1])] if has_tf else [])
    return np.concatenate([end, transversality, h_f]), (grid, controls, arcs)


def shooting_residual(problem: ProblemDefinition, grid: SamplingGrid,
                      unknowns) -> np.ndarray:
    """Residual of the shooting system at the given unknowns.

    The ``end`` and ``transversality`` blocks of
    :func:`~sampled_pmp.certificate.boundary_residuals`, concatenated with the
    signed terminal Hamiltonian for free final times.  ``unknowns`` is the
    packed vector (see ``_unknown_layout``).
    """
    r, _ = _propagate(problem, grid, unknowns)
    return r


# ---------------------------------------------------------------------------
# outer Newton iteration
# ---------------------------------------------------------------------------

def _active_set_signature(problem, controls: ControlSequence) -> str:
    """One symbol per control component per interval: -, 0 or + saturation.

    Ball sets get B for a boundary point and 0 otherwise.  Newton failure
    reports carry this per iteration because saturation flips are exactly
    where the piecewise-affine shooting map kinks.
    """
    cs = problem.control_set
    syms = []
    for k in range(len(controls)):
        u = controls[k]
        if hasattr(cs, "lower"):
            for i in range(len(u)):
                if abs(u[i] - cs.lower[i]) <= 1e-9:
                    syms.append("-")
                elif abs(u[i] - cs.upper[i]) <= 1e-9:
                    syms.append("+")
                else:
                    syms.append("0")
        else:
            on_boundary = np.linalg.norm(u - cs.center) >= cs.radius - 1e-9
            syms.append("B" if on_boundary else "0")
    return "".join(syms)


def solve(problem: ProblemDefinition, grid: SamplingGrid,
          initial_unknowns=None, stats: Optional[dict] = None):
    """Solve the sampled-data problem by indirect shooting.

    Runs :func:`_damped_newton` on the shooting residual and assembles the
    converged iterate's arcs into an extremal.  Returns
    ``(Extremal, Certificate)`` with the cost multiplier normalized
    to -1, whatever the certificate's verdict: the caller reads
    ``certificate.passed``, as for ``parking.solve_parking``.

    ``initial_unknowns`` is the packed vector (see ``_unknown_layout``) or
    None for the generic guess: the origin, with the final-time guess of a
    free horizon; it must be finite, with a positive final time, and the
    grid's horizon must be a fixed final time's, or ValueError is raised
    before anything is integrated.  History entries
    carry the active-set signature of the iterate's controls, and for a
    free final time its horizon.  When a ``stats`` dict is supplied it
    receives the iteration count, the final residual norm, the
    per-iteration history and the solved unknowns.
    """
    _, has_tf, dim = _unknown_layout(problem)
    if not has_tf and grid.t_f != problem.final_time.t_f:
        raise ValueError(f"the grid's horizon t_f = {grid.t_f} contradicts "
                         f"the problem's fixed final time "
                         f"{problem.final_time.t_f}")

    if initial_unknowns is None:
        x = np.zeros(dim)
        if has_tf:
            x[-1] = problem.final_time.t_f_guess
    else:
        x = np.asarray(initial_unknowns, dtype=float).copy()
        if (x.shape != (dim,) or not np.all(np.isfinite(x))
                or (has_tf and x[-1] <= 0)):
            raise ValueError(
                f"initial unknowns must be {dim} finite values"
                + (", the last a positive final time" if has_tf else "")
                + f", got {x}")

    def residual(vec):
        return _propagate(problem, grid, vec)

    def annotate(vec, propagated):
        _, controls, _ = propagated
        entry = {"active_set": _active_set_signature(problem, controls)}
        if has_tf:
            entry["t_f"] = float(vec[-1])
        return entry

    # a free horizon's solved grid differs from the one the search started on
    _, (solved_grid, controls, arcs) = _damped_newton(
        residual, x, NEWTON_TOL, NEWTON_MAX_ITER, annotate=annotate,
        stats=stats)
    extremal = _extremal_from_arcs(solved_grid, controls, arcs, -1.0)
    return extremal, check_certificate(problem, extremal)


def match_terminal_adjoint(problem: ProblemDefinition, grid: SamplingGrid,
                           controls, q0: np.ndarray, p_end: np.ndarray,
                           p0: float) -> np.ndarray:
    """Initial adjoint p(0) whose forward arc hits ``p_end`` at t_f.

    For a fixed trajectory the adjoint equation is linear in p, so the map
    p(0) -> p(t_f) is affine and Newton from p(0) = 0 converges in one or
    two steps.
    """
    p_end = np.asarray(p_end, dtype=float)

    def terminal(p_start):
        ext = integrate_extremal_forward(problem, grid, controls, q0, p_start,
                                         p0)
        return ext.final_adjoint - p_end, None

    x, _ = _damped_newton(terminal, np.zeros(problem.n), 1e-12, 8)
    return x


# ---------------------------------------------------------------------------
# the damped Newton driver
# ---------------------------------------------------------------------------

def _damped_newton(residual, x, tol, max_iter, annotate=None, stats=None,
                   stall_hint=""):
    """Damped Newton on ``residual(x) -> (r, aux)`` with square r.

    Every iteration builds a forward-difference Jacobian and backtracks along
    the Newton step until the residual norm decreases; when no scale of it
    helps, it backtracks once more along the LEVENBERG_DAMPING step.
    ``annotate(x, aux)`` returns extra fields for each history entry.
    Returns ``(x, aux)`` once the norm reaches ``tol`` within ``max_iter``
    steps (the iterate after the last step is tested too), filling ``stats``
    when given; otherwise raises NonConvergence with the best iterate and
    the history.
    """
    history = []
    r, aux = residual(x)
    rnorm = float(np.linalg.norm(r))
    best = (rnorm, x.copy())
    for iteration in range(max_iter + 1):
        entry = {"iteration": iteration, "residual_norm": rnorm}
        if annotate is not None:
            entry.update(annotate(x, aux))
        history.append(entry)
        if rnorm <= tol:
            if stats is not None:
                stats.update(iterations=iteration, residual_norm=rnorm,
                             history=history, unknowns=x.tolist())
            return x, aux
        if iteration == max_iter:
            break

        J = _fd_jacobian(residual, x, r)
        found = _search_decrease(residual, x, rnorm, _newton_step(J, r))
        if found is None:
            found = _search_decrease(residual, x, rnorm,
                                     _damped_step(J, r, LEVENBERG_DAMPING))
        if found is None:
            raise NonConvergence(
                f"no step direction decreased the residual (at {rnorm:.3e})"
                + stall_hint,
                iterate=best[1], residual_norm=best[0], history=history)
        x, r, rnorm, aux = found
        if rnorm < best[0]:
            best = (rnorm, x.copy())

    raise NonConvergence(
        f"Newton did not reach tolerance {tol:.1e} in {max_iter} iterations "
        f"(best residual {best[0]:.3e})",
        iterate=best[1], residual_norm=best[0], history=history)


def _search_decrease(residual, x, rnorm, step):
    """Backtrack along ``step`` until the residual norm decreases.

    Integration failures on a trial point count as rejected trials.  Returns
    (x, r, rnorm, aux) or None when no scale helped.
    """
    scale = 1.0
    for _ in range(MAX_HALVINGS):
        x_try = x + scale * step
        try:
            r_try, aux_try = residual(x_try)
        except (IntegrationBlowUp, NonConvergence):
            scale *= 0.5
            continue
        rn_try = float(np.linalg.norm(r_try))
        if rn_try < rnorm:
            return x_try, r_try, rn_try, aux_try
        scale *= 0.5
    return None


def _fd_jacobian(residual, x, r) -> np.ndarray:
    h = FD_STEP * (1.0 + float(np.linalg.norm(x)))
    J = np.empty((r.size, x.size))
    for i in range(x.size):
        e = np.zeros(x.size); e[i] = h
        J[:, i] = (residual(x + e)[0] - r) / h
    return J


def _newton_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    try:
        step = np.linalg.solve(J, -r)
        if np.all(np.isfinite(step)) and np.linalg.norm(step) <= 1e8 * (1 + np.linalg.norm(r)):
            return step
    except np.linalg.LinAlgError:
        pass
    return _damped_step(J, r, 1e-10)


def _damped_step(J: np.ndarray, r: np.ndarray, mu_rel: float) -> np.ndarray:
    mu = mu_rel * (1.0 + float(np.trace(J.T @ J)) / J.shape[1])
    return np.linalg.solve(J.T @ J + mu * np.eye(J.shape[1]), -J.T @ r)
