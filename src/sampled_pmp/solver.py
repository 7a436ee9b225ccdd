"""Indirect shooting for optimal sampled-data control.

The outer loop is a damped Newton iteration on the unknown initial adjoint
(plus the initial state for periodic problems and the final time when it is
free).  ``_shooting_start`` is the one reader of these packed unknowns: it
gives the start point and the grid, the trial horizon's for a free final
time, to the solver, ``shooting_residual`` and ``sampled-pmp check`` alike.
Each residual evaluation propagates the coupled state/adjoint system
forward interval by interval; on every interval the frozen control solves
the averaged-gradient variational inequality and returns the interval's arc
at the solved control, already judged by the blow-up rule: off the ``lq``
maps the inner solve's last integration, on them one node product (see
:mod:`.simulate`).  Where Gbar(u) = a + G u is an ``lq`` interval's affine
map with G a negative diagonal (on a Ball, a negative multiple of I: every
m = 1 interval with G < 0, every minimum-energy problem with diagonal R),
the inequality's one solution is the projected root P(a / -diag G), taken
in closed form; coupled or non-monotone ``lq`` intervals and every
callback interval are solved by semismooth Newton on the natural residual
project(u + Gbar(u)) - u.  The arc's last node advances the propagation,
and ``_residual`` reads the residual from the end values by the boundary
conditions the certificate checks; the Jacobian applies the same function
to the chained tangents.  Only the accepted iterate's arcs are assembled into
an extremal, and ``solve`` returns its certificate whatever the verdict.

Each interval's derivatives come as one :class:`~.simulate.LQMaps` of Gbar
and the end node in the start point and the control: an ``lq`` interval's
cached RK4 maps (see :mod:`.simulate`), exact, with Gbar(u) = a + G u
affine, so no trial control is integrated; otherwise forward differences
of one stacked callback integration per trial control (internal numerical
differentiation, Bock 1981).  The inner Newton reads its Jacobian from
them, the closed form its derivative, and each interval returns its
tangent dz_{k+1}/dz_k.  The chained tangents are the shooting residual's
Jacobian, an element of the generalized Jacobian of a map that kinks where
a control changes saturation status: semismooth Newton (Qi & Sun, Math.
Programming 58, 1993), whose kinks the backtracking line search absorbs; a
singular inner Newton matrix gives the minimum-norm tangent.  Only a free
horizon's last interval, whose length moves with t_f, is differenced
alone; no whole propagation is differenced.
The certificate still evaluates dH/du through the callbacks.

The damped Newton driver ``_damped_newton`` is the library's only one: the
interval control, the generic shooting and the two-unknown parking shooting
each run it with their own Jacobian.  It has no options: its tolerances,
iteration caps and line-search settings are the module constants below,
and every interval integrates with ``simulate.SUBSTEPS`` RK4 steps.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .certificate import (_terminal_hamiltonian, boundary_residuals,
                          check_certificate)
from .errors import IntegrationBlowUp, NonConvergence
from .problem import (Box, ControlSequence, FreeTime, Periodic,
                      ProblemDefinition, SamplingGrid, build_grid)
from .simulate import (LQMaps, _blown, _extremal_from_arcs,
                       _extremal_interval, _lq_maps, _lq_nodes, _node_mean,
                       integrate_extremal_forward)


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

def _interval_average_gradient(problem, t_k, delta, z, u, p0):
    """Gbar at ``u`` on one interval from z = (q_k, p_k), its maps and arc,
    from one stacked callback integration of the base arc and one step
    ``FD_STEP (1 + |(z, u)|)`` along each component of (z, u).  Returns
    ``(gbar, maps, arc)``, ``maps`` an :class:`LQMaps` without node maps."""
    n = problem.n
    x = np.concatenate([z, u])
    h = FD_STEP * (1.0 + float(np.linalg.norm(x)))
    stack = x + np.vstack([np.zeros(x.size), h * np.eye(x.size)])
    times, nodes = _extremal_interval(problem, t_k, delta, stack[:, :2 * n],
                                      stack[:, 2 * n:], p0)
    gbar = _node_mean(problem.hamiltonian_u,
                      np.broadcast_to(times, nodes.shape[:2]),
                      nodes[..., :n], nodes[..., n:], p0, stack[:, 2 * n:])
    d_gbar = ((gbar[1:] - gbar[0]) / h).T
    d_end = ((nodes[1:, -1] - nodes[0, -1]) / h).T
    maps = LQMaps(None, None, d_gbar[:, :2 * n], d_gbar[:, 2 * n:],
                  d_end[:, :2 * n], d_end[:, 2 * n:])
    return gbar[0], maps, (times, nodes[0])


def solve_interval_control(problem: ProblemDefinition, t_k: float, delta: float,
                           q_k: np.ndarray, p_k: np.ndarray, p0: float,
                           u_init: np.ndarray):
    """Control value satisfying the interval's variational inequality.

    G = dGbar/du and Ga = dGbar/dz_k are the ``lq`` interval's cached maps,
    where Gbar = Ga z_k + G u is affine and nothing is integrated, or
    :func:`_interval_average_gradient`'s at each trial control.  The
    tangent dz_{k+1}/dz_k is Phi_end + Gamma_end du/dz.

    On ``lq`` maps whose G = -diag(gain) with gain > 0 (``LQMaps.decoupled``;
    on a Ball all gains equal), Gbar lies in the normal cone of the control
    set exactly at u = project(root), root = Ga z_k / gain, whatever
    ``u_init``, and du/dz = D Ga / gain with D the projection's Jacobian at
    the root; no Newton step is taken and no linear system solved.

    Every other interval (coupled or non-monotone G, or no maps) runs
    :func:`_damped_newton` from ``u_init`` on the natural residual
    F(u) = project(u + Gbar(u)) - u, whose zeros are exactly the controls
    where Gbar lies in the normal cone of the control set.  ``INNER_TOL`` and
    ``INNER_MAX_ITER`` serve as the Newton tolerance and iteration cap.
    F's Jacobian is D (I + G) - I with D the projection's Jacobian at
    w = u + Gbar(u), and du/dz = -(D (I + G) - I)^+ D Ga, ^+ the
    (pseudo-)inverse.

    Returns ``(u, nodes, tangent)``: ``nodes`` (SUBSTEPS+1, 2n) are the
    coupled arc's nodes at ``u``, the last trial's integration off the
    ``lq`` maps and one :func:`~.simulate._lq_nodes` product on them; either
    way a node that breaks the blow-up rule raises IntegrationBlowUp at its
    time.  ``tangent`` is the 2n x 2n matrix.
    """
    if delta <= 0:
        raise ValueError(f"interval length must be positive, got {delta}")
    z = np.asarray(np.concatenate([q_k, p_k]), dtype=float)
    cs = problem.control_set
    maps = (None if problem.lq is None
            else _lq_maps(problem.lq, float(delta), float(p0)))
    gain = None if maps is None else maps.decoupled
    if gain is not None and (isinstance(cs, Box) or gain.min() == gain.max()):
        # a - gain u lies in the normal cone at u = P(root) and nowhere else
        root = maps.ga @ z / gain
        u = cs.project(root)
        nodes = _lq_nodes(maps, [t_k], delta, z[None], u[None])[0]
        du_dz = cs.project_jacobian(root) @ (maps.ga / gain[:, None])
        return u, nodes, maps.phi_end + maps.gamma_end @ du_dz

    u = cs.project(np.atleast_1d(np.asarray(u_init, dtype=float)))
    eye = np.eye(problem.m)
    a = None if maps is None else maps.ga @ z

    def natural_residual(v):
        if maps is None:
            gbar, v_maps, (_, nodes) = _interval_average_gradient(
                problem, t_k, delta, z, v, p0)
            w = v + gbar
        else:
            w, v_maps, nodes = v + a + maps.g @ v, maps, None
        return cs.project(w) - v, (w, v_maps, nodes)

    def jacobian(v, aux):
        w, v_maps, _ = aux
        return cs.project_jacobian(w) @ (eye + v_maps.g) - eye

    u, (w, u_maps, nodes) = _damped_newton(natural_residual, jacobian, u,
                                           INNER_TOL, INNER_MAX_ITER)
    if nodes is None:
        nodes = _lq_nodes(maps, [t_k], delta, z[None], u[None])[0]
    D = cs.project_jacobian(w)
    newton, drive = D @ (eye + u_maps.g) - eye, D @ u_maps.ga
    try:
        du_dz = -np.linalg.solve(newton, drive)
    except np.linalg.LinAlgError:
        du_dz = -np.linalg.lstsq(newton, drive, rcond=None)[0]
    return u, nodes, u_maps.phi_end + u_maps.gamma_end @ du_dz


# ---------------------------------------------------------------------------
# forward propagation with inner solves, and the shooting residual
# ---------------------------------------------------------------------------

def _shooting_start(problem: ProblemDefinition, grid: SamplingGrid, x):
    """The start z(0) = (q(0), p(0)) and the grid of the packed unknowns ``x``.

    ``x`` is p(0), then q(0) for a periodic problem (otherwise q(0) is
    ``initial_state()``), then t_f when the final time is free, whose trial
    grid is ``build_grid(t_f, grid.period)``.  A wrong shape, or a grid off
    a fixed final time, raises ValueError; a nonpositive trial t_f raises
    IntegrationBlowUp, so that a line search rejects the trial, and so does
    a z(0) that breaks the blow-up rule at t = 0.  Nothing is integrated.
    """
    n = problem.n
    has_q0, has_tf, dim = _unknown_layout(problem)
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"unknown vector must have shape ({dim},), got {x.shape}")
    if has_tf:
        if x[-1] <= 0:
            raise IntegrationBlowUp(0.0, "trial final time is nonpositive")
        grid = build_grid(float(x[-1]), grid.period)
    elif grid.t_f != problem.final_time.t_f:
        raise ValueError(f"the grid's horizon t_f = {grid.t_f} contradicts "
                         f"the problem's fixed final time "
                         f"{problem.final_time.t_f}")
    q = x[n:2 * n] if has_q0 else problem.initial_state()
    z0 = np.concatenate([q, x[:n]])
    if _blown(z0):
        raise IntegrationBlowUp(0.0)
    return z0, grid


def _residual(problem: ProblemDefinition, z0: np.ndarray, out: np.ndarray):
    """The shooting residual ``end`` + ``transversality`` + ``out[2n:]``.

    The blocks are :func:`~sampled_pmp.certificate.boundary_residuals`' at
    the start ``z0`` and the end ``out[:2n]``, z(t_f); ``out[2n:]`` is
    H(t_f) for a free horizon and empty otherwise.  The ``start`` block
    holds by construction of ``z0`` (see :func:`_shooting_start`).  The
    residual is affine in (z0, out).
    """
    n = problem.n
    _, end, transversality = boundary_residuals(
        problem.terminal, z0[:n], out[:n], z0[n:], out[n:2 * n])
    return np.concatenate([end, transversality, out[2 * n:]])


def _propagate(problem: ProblemDefinition, grid: SamplingGrid, x: np.ndarray):
    """Integrate the extremal forward from the packed unknowns ``x``.

    Returns ``(residual_vector, (grid, controls, nodes, tangents))``, the
    grid being :func:`_shooting_start`'s, the trial horizon's for a free
    final time.  Each interval's inner solve returns its judged arc, whose
    last node advances the state and adjoint; the intervals are solved in
    time order, so the first failure in time is the one raised.  ``nodes`` (K, SUBSTEPS+1, 2n) stack
    the arcs, which ``simulate._extremal_from_arcs`` with p0 = -1 assembles
    into the extremal.  :func:`_tangent_jacobian` linearizes the second
    element, whose ``tangents`` are the intervals'.  Controls are
    warm-started from the previous interval (the first from the projected
    origin).
    """
    n = problem.n
    p0 = -1.0
    z0, grid = _shooting_start(problem, grid, x)
    u_prev = np.zeros(problem.m)
    z = z0
    us, arcs, tangents = [], [], []
    for t_k, delta in zip(grid.times, grid.lengths):
        u_prev, arc, tangent = solve_interval_control(
            problem, float(t_k), float(delta), z[:n], z[n:], p0, u_prev)
        us.append(u_prev)
        arcs.append(arc)
        tangents.append(tangent)
        z = arc[-1]
    controls = ControlSequence(np.vstack(us))
    nodes = np.stack(arcs)

    if isinstance(problem.final_time, FreeTime):
        z = np.append(z, _terminal_hamiltonian(problem, grid.t_f, z[:n],
                                               z[n:], p0, controls[-1]))
    return _residual(problem, z0, z), (grid, controls, nodes, tangents)


def _tangent_jacobian(problem: ProblemDefinition, propagated):
    """Jacobian of the shooting residual at :func:`_propagate`'s
    ``propagated``, exact with exact tangents.

    The residual is affine in the end points (z_0, z_K) of the extremal
    (see :func:`~sampled_pmp.certificate.boundary_residuals`), then H(t_f)
    for a free horizon.  With S = dz_0/dx for the packed unknowns x, z_K
    moves by T_{K-1}...T_0 S, so column i is the linear part of the
    residual at (S e_i, T_{K-1}...T_0 S e_i).  A free horizon's last
    interval, whose length moves with t_f, is :func:`_fd_jacobian` of its
    inner solve in (z_{K-1}, t_f - t_{K-1}), with H(t_f) as an extra
    output.  Where no control changes saturation status this is the
    derivative; at a kink, one element of the generalized Jacobian.
    """
    grid, controls, nodes, tangents = propagated
    n = problem.n
    has_q0, has_tf, dim = _unknown_layout(problem)
    S = np.zeros((2 * n, dim))
    S[n:, :n] = np.eye(n)
    if has_q0:
        S[:n, n:2 * n] = np.eye(n)
    chain = S
    for tangent in tangents[:-1] if has_tf else tangents:
        chain = tangent @ chain
    if has_tf:
        t_k = grid.times[-1]
        u_prev = controls[-2] if len(tangents) > 1 else np.zeros(problem.m)

        def last_interval(v):
            u, arc, _ = solve_interval_control(
                problem, t_k, v[-1], v[:n], v[n:2 * n], -1.0, u_prev)
            end = arc[-1]
            return np.append(end, _terminal_hamiltonian(
                problem, t_k + v[-1], end[:n], end[n:], -1.0, u))

        x = np.append(nodes[-1, 0], grid.lengths[-1])
        chain = _fd_jacobian(last_interval, x) @ np.vstack(
            [chain, np.eye(dim)[-1]])

    offset = _residual(problem, np.zeros(2 * n), np.zeros(len(chain)))
    return np.column_stack([_residual(problem, S[:, i], chain[:, i]) - offset
                            for i in range(dim)])


def shooting_residual(problem: ProblemDefinition, grid: SamplingGrid,
                      unknowns) -> np.ndarray:
    """Residual of the shooting system at the given unknowns.

    The ``end`` and ``transversality`` blocks of
    :func:`~sampled_pmp.certificate.boundary_residuals`, concatenated with the
    signed terminal Hamiltonian for free final times.  ``unknowns`` is the
    packed vector (see ``_unknown_layout``).  It starts where :func:`solve`
    starts (see ``_shooting_start``), so a grid off a fixed final time
    raises ValueError before anything is integrated.
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

    def annotate(vec, propagated):
        _, controls, _, _ = propagated
        entry = {"active_set": _active_set_signature(problem, controls)}
        if has_tf:
            entry["t_f"] = float(vec[-1])
        return entry

    # a free horizon's solved grid differs from the one the search started on
    _, (solved_grid, controls, nodes, _) = _damped_newton(
        lambda vec: _propagate(problem, grid, vec),
        lambda _, propagated: _tangent_jacobian(problem, propagated),
        x, NEWTON_TOL, NEWTON_MAX_ITER, annotate=annotate, stats=stats)
    extremal = _extremal_from_arcs(solved_grid, controls, nodes, -1.0)
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

def _damped_newton(residual, jacobian, x, tol, max_iter, annotate=None,
                   stats=None):
    """Damped Newton on ``residual(x) -> (r, aux)`` with square r.

    Every iteration takes the caller's Jacobian ``jacobian(x, aux)`` at the
    accepted iterate and backtracks along the Newton step until the residual
    norm decreases; when no scale of it helps, it backtracks once more along
    the LEVENBERG_DAMPING step.
    ``annotate(x, aux)`` returns extra fields for each history entry.
    Returns ``(x, aux)`` once the norm reaches ``tol`` within ``max_iter``
    steps (the iterate after the last step is tested too), filling ``stats``
    when given; otherwise raises NonConvergence with the current iterate,
    the best one since a step is accepted only on a strict decrease, and
    the history.
    """
    history = []
    r, aux = residual(x)
    rnorm = math.sqrt(r.dot(r))
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

        J = jacobian(x, aux)
        found = _search_decrease(residual, x, rnorm, _newton_step(J, r))
        if found is None:
            found = _search_decrease(residual, x, rnorm,
                                     _damped_step(J, r, LEVENBERG_DAMPING))
        if found is None:
            raise NonConvergence(
                f"no step direction decreased the residual (at {rnorm:.3e})",
                iterate=x.copy(), residual_norm=rnorm, history=history)
        x, r, rnorm, aux = found

    raise NonConvergence(
        f"Newton did not reach tolerance {tol:.1e} in {max_iter} iterations "
        f"(best residual {rnorm:.3e})",
        iterate=x.copy(), residual_norm=rnorm, history=history)


def _search_decrease(residual, x, rnorm, step):
    """Backtrack along ``step`` until the residual norm decreases.

    Integration failures on a trial point count as rejected trials.  Returns
    (x, r, rnorm, aux) or None when no scale helped or the step is zero.
    """
    if not step.any():
        return None
    scale = 1.0
    for _ in range(MAX_HALVINGS):
        x_try = x + scale * step
        try:
            r_try, aux_try = residual(x_try)
        except (IntegrationBlowUp, NonConvergence):
            scale *= 0.5
            continue
        rn_try = math.sqrt(r_try.dot(r_try))
        if rn_try < rnorm:
            return x_try, r_try, rn_try, aux_try
        scale *= 0.5
    return None


def _fd_jacobian(f, x) -> np.ndarray:
    h = FD_STEP * (1.0 + float(np.linalg.norm(x)))
    fx = f(x)
    return np.column_stack([(f(x + h * e) - fx) / h for e in np.eye(x.size)])


def _newton_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    try:
        step = np.linalg.solve(J, -r)
        # a non-finite step fails the test too
        if math.sqrt(step.dot(step)) <= 1e8 * (1 + math.sqrt(r.dot(r))):
            return step
    except np.linalg.LinAlgError:
        pass
    return _damped_step(J, r, 1e-10)


def _damped_step(J: np.ndarray, r: np.ndarray, mu_rel: float) -> np.ndarray:
    mu = mu_rel * (1.0 + float(np.trace(J.T @ J)) / J.shape[1])
    return np.linalg.solve(J.T @ J + mu * np.eye(J.shape[1]), -J.T @ r)
