"""Indirect shooting for optimal sampled-data control.

The outer loop is a damped Newton iteration on the unknown initial adjoint
(plus the initial state for periodic problems and the final time when it is
free).  Each residual evaluation propagates the coupled state/adjoint system
forward interval by interval; on every interval the frozen control solves
the averaged-gradient variational inequality by semismooth Newton on its
natural residual project(u + Gbar(u)) - u.  The interval is integrated once
at the solved control; that arc advances the propagation and is the returned
extremal's piece of the interval.  The residual is read from the end values
of those arcs by the boundary conditions the certificate checks; only the
accepted iterate's arcs are assembled into an extremal, and ``solve``
returns its certificate whatever the verdict.

On a problem with ``lq`` matrices the derivatives are exact, read from the
interval's cached RK4 maps (see :mod:`.simulate`).  Gbar(u) = a + G u is
affine, so the inner Newton integrates no trial control and uses the exact
Jacobian of the natural residual.  Each interval also returns its tangent
dz_{k+1}/dz_k, and for a fixed horizon the tangents chained at an accepted
iterate give the exact Jacobian of the shooting residual.  The shooting map
is piecewise smooth there (piecewise affine on a Box): it kinks where a
control changes saturation status, and the chained tangents are an element
of its generalized Jacobian, which makes the outer iteration the semismooth
Newton method of Qi & Sun (Math. Programming 58, 1993).  Forward
differences remain where no tangent exists: problems without ``lq`` (Gbar
then re-integrates the arc by the callbacks at each trial control, inner
and outer Jacobians are forward differences), intervals whose maps
overflow, a free horizon (whose map also kinks where the horizon crosses a
multiple of the sampling period), and the two-unknown parking shooting.
The backtracking line search absorbs the kinks.  The certificate still
evaluates dH/du through the callbacks.

The damped Newton driver ``_damped_newton`` is the library's only one: the
interval control, the generic shooting and the two-unknown parking shooting
all run on it.  The method has no options: its tolerances, iteration caps
and line-search settings are the module constants below, and every interval
integrates with ``simulate.SUBSTEPS`` RK4 steps.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .certificate import (_terminal_hamiltonian, boundary_residuals,
                          check_certificate)
from .errors import IntegrationBlowUp, NonConvergence
from .problem import (ControlSequence, FreeTime, Periodic, ProblemDefinition,
                      SamplingGrid, build_grid)
from .simulate import (_extremal_from_arcs, _extremal_interval, _lq_maps,
                       _node_mean, integrate_extremal_forward)


# Tolerance and iteration cap of the inner Newton on each interval's natural
# residual and of the outer Newton on the shooting residual.
INNER_TOL = 1e-12
INNER_MAX_ITER = 200
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100

FD_STEP = 1e-6              # forward-difference step, scaled by (1 + |x|),
                            # where no exact Jacobian exists
MAX_HALVINGS = 30           # trial scales 1, 1/2, ... along one direction

# Levenberg damping of the one retry taken when no scale of the Newton step
# decreases the residual.  Where the shooting map kinks (a control changing
# saturation status near the iterate), the Jacobian of one piece can point
# uphill on another; heavy damping rotates the step toward steepest descent
# of |r|^2, which is region-independent.
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
    """Average of dH/du over one interval, re-integrating the coupled arc at u
    by the callbacks' path of :func:`_extremal_interval`.

    Returns ``(gbar, arc)`` with the integrated ``(times, nodes)`` arc.
    """
    n = problem.n
    times, nodes = _extremal_interval(problem, t_k, delta,
                                      np.concatenate([q_k, p_k]), u, p0)
    gbar = _node_mean(problem.hamiltonian_u, times, nodes[:, :n],
                      nodes[:, n:], p0, u)
    return gbar, (times, nodes)


def solve_interval_control(problem: ProblemDefinition, t_k: float, delta: float,
                           q_k: np.ndarray, p_k: np.ndarray, p0: float,
                           u_init: np.ndarray):
    """Control value satisfying the interval's variational inequality.

    Runs :func:`_damped_newton` on the natural residual
    F(u) = project(u + Gbar(u)) - u, whose zeros are exactly the controls
    where Gbar lies in the normal cone of the control set.  ``INNER_TOL`` and
    ``INNER_MAX_ITER`` serve as the Newton tolerance and iteration cap.

    With ``lq`` matrices, Gbar(u) = a + G u is affine: a = Ga z_k and G come
    from the interval's cached maps (:class:`~sampled_pmp.simulate.LQMaps`),
    so no trial control is integrated.  F's Jacobian is exact,
    D (I + G) - I with D the projection's Jacobian at w = u + a + G u, and
    the arc is integrated once, at the solved control.  The interval's
    tangent, the derivative of its end point z_{k+1} in z_k = (q_k, p_k),
    is then Phi_end + Gamma_end du/dz with du/dz = -(D (I + G) - I)^{-1} D Ga.
    Without ``lq`` (or when its maps overflow) Gbar re-integrates the arc by
    the callbacks at each trial control, F's Jacobian is a forward
    difference, and there is no tangent.

    Returns ``(u, arc, tangent)``: ``arc`` is the ``(times, nodes)`` coupled
    arc integrated at ``u``, ``tangent`` the 2n x 2n matrix or None.
    """
    q_k = np.asarray(q_k, dtype=float)
    p_k = np.asarray(p_k, dtype=float)
    cs = problem.control_set
    u = cs.project(np.atleast_1d(np.asarray(u_init, dtype=float)))
    maps = (None if problem.lq is None
            else _lq_maps(problem.lq, float(delta), float(p0)))
    if maps is None:
        def natural_residual(v):
            gbar, arc = _interval_average_gradient(problem, t_k, delta, q_k,
                                                   p_k, p0, v)
            return cs.project(v + gbar) - v, arc

        u, arc = _damped_newton(natural_residual, u, INNER_TOL, INNER_MAX_ITER)
        return u, arc, None

    z = np.concatenate([q_k, p_k])
    a, G = maps.ga @ z, maps.g
    eye = np.eye(problem.m)

    def natural_residual(v):
        w = v + a + G @ v
        return cs.project(w) - v, w

    def jacobian(v, w):
        return cs.project_jacobian(w) @ (eye + G) - eye

    u, w = _damped_newton(natural_residual, u, INNER_TOL, INNER_MAX_ITER,
                          jacobian=jacobian)
    arc = _extremal_interval(problem, t_k, delta, z, u, p0)
    D = cs.project_jacobian(w)
    try:
        du_dz = -np.linalg.solve(D @ (eye + G) - eye, D @ maps.ga)
    except np.linalg.LinAlgError:
        return u, arc, None
    return u, arc, maps.phi_end + maps.gamma_end @ du_dz


# ---------------------------------------------------------------------------
# forward propagation with inner solves, and the shooting residual
# ---------------------------------------------------------------------------

def _propagate(problem: ProblemDefinition, grid: SamplingGrid, x: np.ndarray):
    """Integrate the extremal forward from the packed unknowns ``x``.

    Returns ``(residual_vector, (grid, controls, arcs, tangents))``, the
    grid being the trial horizon's for a free final time.  Each interval's
    coupled ``(times, nodes)`` arc is the one the inner solve integrated at
    its solved control; that arc advances the state and adjoint, and
    ``simulate._extremal_from_arcs`` with p0 = -1 assembles the arcs into
    the extremal.  ``tangents`` holds each interval's tangent (None off the
    ``lq`` path), for :func:`_tangent_jacobian`.  Controls are warm-started
    from the previous interval (the first from the projected origin).
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
    us, arcs, tangents = [], [], []
    for k in range(grid.n_intervals):
        t_k, delta = float(grid.times[k]), float(grid.lengths[k])
        u_k, arc, tangent = solve_interval_control(problem, t_k, delta, z[:n],
                                                   z[n:], p0, u_prev)
        arcs.append(arc)
        tangents.append(tangent)
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
    return (np.concatenate([end, transversality, h_f]),
            (grid, controls, arcs, tangents))


def _tangent_jacobian(problem: ProblemDefinition, tangents):
    """Exact Jacobian of a fixed-horizon shooting residual, or None when an
    interval has no tangent.

    The residual is the ``end`` and ``transversality`` blocks of
    :func:`~sampled_pmp.certificate.boundary_residuals`, affine in the end
    points (z_0, z_K) of the extremal.  With S = dz_0/dx for the packed
    unknowns x, z_K moves by T_{K-1}...T_0 S, so column i of the Jacobian
    is the linear part of the boundary residual at (S e_i, T_{K-1}...T_0 S
    e_i).  On the piece of the shooting map where no control changes
    saturation status this is its derivative; at a kink it is one element
    of the generalized Jacobian, which makes the outer iteration semismooth
    Newton.
    """
    if any(t is None for t in tangents):
        return None
    n = problem.n
    has_q0, _, dim = _unknown_layout(problem)
    S = np.zeros((2 * n, dim))
    S[n:, :n] = np.eye(n)
    if has_q0:
        S[:n, n:] = np.eye(n)
    chain = S
    for tangent in tangents:
        chain = tangent @ chain

    def boundary(z0, zK):
        _, end, transversality = boundary_residuals(
            problem.terminal, z0[:n], zK[:n], z0[n:], zK[n:])
        return np.concatenate([end, transversality])

    offset = boundary(np.zeros(2 * n), np.zeros(2 * n))
    return np.column_stack([boundary(S[:, i], chain[:, i]) - offset
                            for i in range(dim)])


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
    cs, u = problem.control_set, controls.values
    if hasattr(cs, "lower"):
        syms = np.where(np.abs(u - cs.lower) <= 1e-9, "-",
                        np.where(np.abs(u - cs.upper) <= 1e-9, "+", "0"))
    else:
        syms = np.where(np.linalg.norm(u - cs.center, axis=1)
                        >= cs.radius - 1e-9, "B", "0")
    return "".join(syms.ravel())


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
        _, controls, _, _ = propagated
        entry = {"active_set": _active_set_signature(problem, controls)}
        if has_tf:
            entry["t_f"] = float(vec[-1])
        return entry

    def jacobian(vec, propagated):
        # a free horizon moves the grid: its column stays a forward difference
        return None if has_tf else _tangent_jacobian(problem, propagated[3])

    # a free horizon's solved grid differs from the one the search started on
    _, (solved_grid, controls, arcs, _) = _damped_newton(
        residual, x, NEWTON_TOL, NEWTON_MAX_ITER, annotate=annotate,
        stats=stats, jacobian=jacobian)
    extremal = _extremal_from_arcs(solved_grid, controls, arcs, -1.0)
    return extremal, check_certificate(problem, extremal)


def match_terminal_adjoint(problem: ProblemDefinition, grid: SamplingGrid,
                           controls, q0: np.ndarray, p_end: np.ndarray,
                           p0: float) -> np.ndarray:
    """Initial adjoint p(0) whose forward arc hits ``p_end`` at t_f.

    For fixed controls and states the adjoint equation is linear in p, and
    so is each RK4 step: p(t_f) = c + Phi p(0).  The arc from p(0) = 0 gives
    c, the arc from p(0) = e_i with p0 = 0 gives column i of Phi (no two
    nearly equal ends are subtracted), and one linear solve gives p(0).
    """
    def final_adjoint(p_start, p0):
        return integrate_extremal_forward(problem, grid, controls, q0,
                                          p_start, p0).final_adjoint

    c = final_adjoint(np.zeros(problem.n), p0)
    phi = np.column_stack([final_adjoint(e, 0.0) for e in np.eye(problem.n)])
    return np.linalg.solve(phi, np.asarray(p_end, dtype=float) - c)


# ---------------------------------------------------------------------------
# the damped Newton driver
# ---------------------------------------------------------------------------

def _damped_newton(residual, x, tol, max_iter, annotate=None, stats=None,
                   stall_hint="", jacobian=None):
    """Damped Newton on ``residual(x) -> (r, aux)`` with square r.

    Every iteration takes the Jacobian ``jacobian(x, aux)`` at the accepted
    iterate, or a forward difference when there is no hook or it returns
    None, and backtracks along the Newton step until the residual norm
    decreases; when no scale of it helps, it backtracks once more along the
    LEVENBERG_DAMPING step.
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

        J = None if jacobian is None else jacobian(x, aux)
        if J is None:
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
