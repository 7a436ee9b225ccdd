"""Indirect shooting for optimal sampled-data control.

The outer loop is a damped Newton iteration on the unknown initial adjoint
(plus the initial state for periodic problems and the final time when it is
free).  Three functions own the packed layout: ``_check_unknowns`` judges a
caller's packed unknowns and gives the default start, ``_shooting_start``
reads them, giving the start point and the grid, the trial horizon's for a
free time, to the solver, ``shooting_residual`` and ``sampled-pmp check``
alike, and ``_start_tangent`` is the start's derivative, from which both
paths chain their Jacobians.  No other code reads the packed layout.
Every extremal is shot normal, at the one cost multiplier ``P0`` = -1.
On the walk (:func:`_propagate`) each residual evaluation propagates the
coupled state/adjoint system forward interval by interval; on every
interval the frozen control solves the averaged-gradient variational
inequality and returns the interval's end at the solved control.  Where
Gbar(u) = a + G u is an ``lq`` interval's affine map with G a negative
diagonal (on a Ball, a negative multiple of I: every m = 1 interval
with G < 0, every minimum-energy problem with diagonal R), the
inequality's one solution is the projected root P(a / -diag G), taken
in closed form; coupled or non-monotone ``lq`` intervals and every
callback interval are solved by semismooth Newton on the natural residual
project(u + Gbar(u)) - u.  The end advances the propagation, and
``_residual`` reads the residual from the end values by the boundary
conditions the certificate checks; the Jacobian applies the same function
to the chained tangents.

A fixed-horizon ``lq`` problem with Q = 0 whose every interval takes the
closed-form control is not walked: its adjoint does not see the state, so
each control is the projection of an affine function of p(0) and z(t_f) is
an explicit sum.  :func:`_shooting_map` builds that map once per solve, by
doubling the powers of the cached end maps; each residual and its exact
Jacobian are then a few products.  The walk stays the definition the map is
tested against, and serves every other problem and ``shooting_residual``;
parking is the map's case.  Both paths judge a trial by the blow-up rule
at the interval ends they reach, evaluating nodes only past it, and end
one way: the accepted iterate is integrated once by
:func:`~.simulate.integrate_extremal_forward`, the function ``sampled-pmp
check`` rebuilds a solve's extremal by, and certified.

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
interval control and the shooting, on the walk or the map, each run it
with their own Jacobian.  It has no options: its tolerances, iteration caps
and line-search settings are the module constants below, and every
interval integrates with ``simulate.SUBSTEPS`` RK4 steps.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .certificate import boundary_residuals, check_certificate
from .errors import IntegrationBlowUp, NonConvergence
from .problem import (Box, FreeTime, Periodic, ProblemDefinition,
                      SamplingGrid, build_grid)
from .simulate import (LQMaps, _blown, _extremal_interval, _lq_maps,
                       _lq_nodes, _node_mean, _runs, integrate_extremal_forward)


# The cost multiplier of every normal extremal the solver shoots and
# ``sampled-pmp check`` rebuilds; the PMP fixes (p, p0) only up to a
# positive factor.
P0 = -1.0

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


def _check_unknowns(problem: ProblemDefinition, x, name: str) -> np.ndarray:
    """A caller's packed unknowns ``x``, as a new float vector, when they
    are finite, of ``_unknown_layout``'s size and with a positive free final
    time; otherwise ValueError naming them ``name``, and naming what is
    missing when ``x`` is p(0) alone.  ``x`` None is the default start:
    zeros, with a free horizon's ``t_f_guess`` last."""
    has_q0, has_tf, dim = _unknown_layout(problem)
    if x is None:
        x = np.zeros(dim)
        if has_tf:
            x[-1] = problem.final_time.t_f_guess
        return x
    x = np.array(x, dtype=float)
    if x.shape == (problem.n,) != (dim,):
        missing = " and ".join(["q(0)"] * has_q0 + ["t_f"] * has_tf)
        raise ValueError(f"{name} gives p(0) only, but this problem's "
                         f"shooting unknowns also hold {missing}")
    if x.shape != (dim,) or not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be {dim} finite values, "
                         f"got {x.tolist()}")
    if has_tf and x[-1] <= 0:
        raise ValueError(f"{name}: the final time must be positive, "
                         f"got t_f={x[-1]}")
    return x


# ---------------------------------------------------------------------------
# inner solve: one interval's control from the averaged-gradient condition
# ---------------------------------------------------------------------------

def _interval_average_gradient(problem, t_k, delta, z, u):
    """Gbar at ``u`` on one interval from z = (q_k, p_k), its maps and end
    node, from one stacked callback integration of the base arc and one step
    ``FD_STEP (1 + |(z, u)|)`` along each component of (z, u).  Returns
    ``(gbar, maps, end)``, ``maps`` an :class:`LQMaps` without node maps."""
    n = problem.n
    x = np.concatenate([z, u])
    h = FD_STEP * (1.0 + float(np.linalg.norm(x)))
    stack = x + np.vstack([np.zeros(x.size), h * np.eye(x.size)])
    times, nodes = _extremal_interval(problem, t_k, delta, stack[:, :2 * n],
                                      stack[:, 2 * n:], P0)
    gbar = _node_mean(problem.hamiltonian_u,
                      np.broadcast_to(times, nodes.shape[:2]),
                      nodes[..., :n], nodes[..., n:], P0, stack[:, 2 * n:])
    d_gbar = ((gbar[1:] - gbar[0]) / h).T
    d_end = ((nodes[1:, -1] - nodes[0, -1]) / h).T
    maps = LQMaps(None, None, d_gbar[:, :2 * n], d_gbar[:, 2 * n:],
                  d_end[:, :2 * n], d_end[:, 2 * n:])
    return gbar[0], maps, nodes[0, -1]


def _lq_end(maps: LQMaps, t_k: float, delta: float, z: np.ndarray,
            u: np.ndarray) -> np.ndarray:
    """End node Phi_end z + Gamma_end u of an ``lq`` interval, judged by the
    blow-up rule; a blown end has the interval's nodes evaluated, which
    raise IntegrationBlowUp at the first blown one."""
    with np.errstate(over="ignore", invalid="ignore"):
        end = maps.phi_end @ z + maps.gamma_end @ u
    if _blown(end):
        _lq_nodes(maps, [t_k], delta, z[None], u[None])
        # the nodes end below the rule only by rounding at its threshold
        raise IntegrationBlowUp(t_k + delta)
    return end


def _closed_form_gain(cs, maps: Optional[LQMaps]) -> Optional[np.ndarray]:
    """``maps.decoupled`` where the interval's control is the projected
    root P(Ga z / gain) in closed form: on a Box, and on a Ball whose gains
    are all equal; None otherwise, and without maps."""
    gain = None if maps is None else maps.decoupled
    if gain is not None and (isinstance(cs, Box) or gain.min() == gain.max()):
        return gain
    return None


def solve_interval_control(problem: ProblemDefinition, t_k: float, delta: float,
                           z: np.ndarray, u_init: np.ndarray):
    """Control value satisfying the interval's variational inequality at the
    start z = (q_k, p_k), on the normal extremal p0 = ``P0``.

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

    Returns ``(u, end, tangent)``: ``end`` is the arc's end node at ``u``,
    the last trial's integration off the ``lq`` maps and :func:`_lq_end` on
    them; either way a blown node raises IntegrationBlowUp at its time.
    ``tangent`` is the 2n x 2n matrix.
    """
    if delta <= 0:
        raise ValueError(f"interval length must be positive, got {delta}")
    z = np.asarray(z, dtype=float)
    cs = problem.control_set
    maps = None if problem.lq is None else _lq_maps(problem.lq,
                                                    float(delta), P0)
    gain = _closed_form_gain(cs, maps)
    if gain is not None:
        # a - gain u lies in the normal cone at u = P(root) and nowhere else
        root = maps.ga @ z / gain
        u = cs.project(root)
        du_dz = cs.project_jacobian(root) @ (maps.ga / gain[:, None])
        return (u, _lq_end(maps, t_k, delta, z, u),
                maps.phi_end + maps.gamma_end @ du_dz)

    u = cs.project(np.atleast_1d(np.asarray(u_init, dtype=float)))
    eye = np.eye(problem.m)
    a = None if maps is None else maps.ga @ z

    def natural_residual(v):
        if maps is None:
            gbar, v_maps, end = _interval_average_gradient(
                problem, t_k, delta, z, v)
            w = v + gbar
        else:
            w, v_maps, end = v + a + maps.g @ v, maps, None
        return cs.project(w) - v, (w, v_maps, end)

    def jacobian(v, aux):
        w, v_maps, _ = aux
        return cs.project_jacobian(w) @ (eye + v_maps.g) - eye

    u, (w, u_maps, end), _ = _damped_newton(natural_residual, jacobian, u,
                                            INNER_TOL, INNER_MAX_ITER)
    if end is None:
        end = _lq_end(maps, t_k, delta, z, u)
    D = cs.project_jacobian(w)
    newton, drive = D @ (eye + u_maps.g) - eye, D @ u_maps.ga
    try:
        du_dz = -np.linalg.solve(newton, drive)
    except np.linalg.LinAlgError:
        du_dz = -np.linalg.lstsq(newton, drive, rcond=None)[0]
    return u, end, u_maps.phi_end + u_maps.gamma_end @ du_dz


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
    residual is affine in (z0, out), and rows of stacked (z0, out) give
    rows of residuals.
    """
    n = problem.n
    _, end, transversality = boundary_residuals(
        problem.terminal, z0[..., :n], out[..., :n], z0[..., n:],
        out[..., n:2 * n])
    return np.concatenate([end, transversality, out[..., 2 * n:]], axis=-1)


def _propagate(problem: ProblemDefinition, grid: SamplingGrid, x: np.ndarray):
    """Propagate the interval ends forward from the packed unknowns ``x``.

    Returns ``(residual_vector, (grid, controls, z0, (z_last, tangents)))``,
    :func:`_map_residual`'s layout: :func:`_shooting_start`'s grid and z0,
    the controls (K, m), and the last interval's start and every interval's
    tangent for :func:`_tangent_jacobian`.  Each inner solve returns its
    judged end, which advances the state and adjoint; the intervals are
    solved in time order, so the first failure in time is the one raised.
    Controls are warm-started from the previous interval (the first from
    the projected origin).
    """
    n = problem.n
    z0, grid = _shooting_start(problem, grid, x)
    u_prev = np.zeros(problem.m)
    z = z0
    us, tangents = [], []
    for t_k, delta in zip(grid.times, grid.lengths):
        z_last = z
        u_prev, z, tangent = solve_interval_control(
            problem, float(t_k), float(delta), z, u_prev)
        us.append(u_prev)
        tangents.append(tangent)
    controls = np.vstack(us)

    if isinstance(problem.final_time, FreeTime):
        z = np.append(z, problem.hamiltonian(grid.t_f, z[:n], z[n:], P0,
                                             controls[-1]))
    return _residual(problem, z0, z), (grid, controls, z0, (z_last, tangents))


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
    grid, controls, _, (z_last, tangents) = propagated
    n = problem.n
    has_tf = isinstance(problem.final_time, FreeTime)
    start = chain = _start_tangent(problem)
    for tangent in tangents[:-1] if has_tf else tangents:
        chain = tangent @ chain
    if has_tf:
        t_k = grid.times[-1]
        u_prev = controls[-2] if len(tangents) > 1 else np.zeros(problem.m)

        def last_interval(v):
            u, end, _ = solve_interval_control(problem, t_k, v[-1], v[:-1],
                                               u_prev)
            return np.append(end, problem.hamiltonian(
                t_k + v[-1], end[:n], end[n:], P0, u))

        x = np.append(z_last, grid.lengths[-1])
        chain = _fd_jacobian(last_interval, x) @ np.vstack(
            [chain, np.eye(chain.shape[1])[-1]])
    return _linearized_residual(problem, start, chain)


def _start_tangent(problem: ProblemDefinition) -> np.ndarray:
    """S = dz(0)/dx (2n x dim) for the packed unknowns x: p(0), then q(0)
    of a periodic problem; a free horizon's column is zero.  The walk's
    tangents and the map's transition are both chained from it."""
    n = problem.n
    has_q0, _, dim = _unknown_layout(problem)
    S = np.zeros((2 * n, dim))
    S[n:, :n] = np.eye(n)
    if has_q0:
        S[:n, n:2 * n] = np.eye(n)
    return S


def _linearized_residual(problem: ProblemDefinition, start: np.ndarray,
                         chain: np.ndarray) -> np.ndarray:
    """The shooting residual's Jacobian from ``chain``, the derivative of
    :func:`_residual`'s ``out`` in the packed unknowns.  The residual is
    affine in (z(0), out), so column i is its linear part at
    (S e_i, chain e_i), S = ``start``, the caller's
    :func:`_start_tangent`."""
    offset = _residual(problem, np.zeros(2 * problem.n), np.zeros(len(chain)))
    return (_residual(problem, start.T, chain.T) - offset).T


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
    return _propagate(problem, grid, unknowns)[0]


# ---------------------------------------------------------------------------
# the closed-form shooting map of minimum-energy lq problems
# ---------------------------------------------------------------------------

class _ShootingMap(NamedTuple):
    """:func:`_shooting_map`'s arrays on ``grid``: the control
    of interval k is u_k = P(w[k] p(0)), and z(t_f) is
    (phi q(0) + sum_k e[k] u_k, adjoint p(0))."""

    grid: SamplingGrid
    w: np.ndarray           # (K, m, n)
    e: np.ndarray           # (K, n, m)
    phi: np.ndarray         # (n, n) state transition over [0, t_f]
    adjoint: np.ndarray     # (n, n) adjoint transition over [0, t_f]


def _powers(X: np.ndarray, count: int) -> np.ndarray:
    """X^0, ..., X^(count-1) stacked (count, d, d), by doubling: each
    batched product extends the stack by up to its own length."""
    out, step = np.eye(len(X))[None], X
    while len(out) < count:
        out = np.concatenate([out, out[:count - len(out)] @ step])
        step = step @ step
    return out


def _shooting_map(problem: ProblemDefinition,
                  grid: SamplingGrid) -> Optional[_ShootingMap]:
    """The closed-form shooting map of ``problem`` on ``grid``, or None
    where :func:`_propagate`'s walk serves the problem.

    The map serves a fixed horizon, ``grid``'s, of an ``lq`` problem with
    Q = 0 whose every interval length takes the closed-form control
    (:func:`_closed_form_gain`).  With Q = 0 the adjoint does not see the
    state: each interval advances p by the adjoint block of the end map, so
    p_k = P_k p(0), and the control is u_k = P(W_k p(0)) with
    W_k = Ga^p P_k / gain, Ga^p the adjoint columns of Ga (its state
    columns are zero).  The state advances by its own blocks F and
    Gamma^q, so q(t_f) = F^K q(0) + sum_k E_k u_k, E_k = F^(K-1-k) Gamma^q
    on a uniform grid.  The powers are taken by doubling, one run of equal
    interval lengths at a time, from the cached end maps.  Maps that
    overflow give None.
    """
    lq, n = problem.lq, problem.n
    if (lq is None or isinstance(problem.final_time, FreeTime)
            or grid.t_f != problem.final_time.t_f or lq.Q.any()):
        return None
    runs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _runs(grid):
            maps = _lq_maps(lq, float(grid.lengths[lo]), P0)
            gain = _closed_form_gain(problem.control_set, maps)
            if gain is None:
                return None
            # the end map is block diagonal, and so are its powers
            runs.append((maps, gain, _powers(maps.phi_end, hi - lo + 1)))
        w, e, phi, adjoint = [], [], np.eye(n), np.eye(n)
        for maps, gain, powers in runs:
            w.append(maps.ga[:, n:] / gain[:, None] @ powers[:-1, n:, n:]
                     @ adjoint)
            adjoint = powers[-1, n:, n:] @ adjoint
        for maps, _, powers in reversed(runs):
            e.insert(0, phi @ powers[-2::-1, :n, :n] @ maps.gamma_end[:n])
            phi = phi @ powers[-1, :n, :n]
    shooting = _ShootingMap(grid, np.concatenate(w), np.concatenate(e), phi,
                            adjoint)
    if not all(np.isfinite(a).all() for a in shooting[1:]):
        return None
    return shooting


def _map_residual(problem: ProblemDefinition, shooting: _ShootingMap, x):
    """The shooting residual at the packed unknowns ``x`` by the map, with
    ``(grid, controls, z(0), roots)``, :func:`_propagate`'s layout, the
    roots for :func:`_map_jacobian`.

    :func:`_shooting_start` judges z(0) and the map z(t_f).  When z(t_f)
    breaks the blow-up rule, the trial's arcs are integrated, and raise
    IntegrationBlowUp at their first blown node in time.
    """
    n = problem.n
    z0, grid = _shooting_start(problem, shooting.grid, x)
    with np.errstate(over="ignore", invalid="ignore"):
        roots = shooting.w @ z0[n:]
        u = problem.control_set.project(roots)
        end = np.concatenate([
            shooting.phi @ z0[:n] + np.einsum("kim,km->i", shooting.e, u),
            shooting.adjoint @ z0[n:]])
    if _blown(end):
        if np.all(np.isfinite(u)):
            integrate_extremal_forward(problem, grid, u, z0[:n], z0[n:], P0)
        # the arcs end below the rule only by rounding at its threshold
        raise IntegrationBlowUp(grid.t_f)
    return _residual(problem, z0, end), (grid, u, z0, roots)


def _map_jacobian(problem: ProblemDefinition, shooting: _ShootingMap,
                  roots: np.ndarray) -> np.ndarray:
    """Exact Jacobian of :func:`_map_residual` at the trial of ``roots``.

    The map's transition dz(t_f)/dz(0) is [[F^K, sum_k E_k D_k W_k],
    [0, adjoint transition]], D_k the projection's Jacobian at the root,
    the rule of :func:`solve_interval_control`; it is chained from
    :func:`_start_tangent` as the walk chains its interval tangents."""
    n = problem.n
    D = problem.control_set.project_jacobian(roots)
    transition = np.zeros((2 * n, 2 * n))
    transition[:n, :n], transition[n:, n:] = shooting.phi, shooting.adjoint
    transition[:n, n:] = (shooting.e @ D @ shooting.w).sum(axis=0)
    start = _start_tangent(problem)
    return _linearized_residual(problem, start, transition @ start)


# ---------------------------------------------------------------------------
# outer Newton iteration
# ---------------------------------------------------------------------------

def _active_set_signature(problem, u: np.ndarray) -> str:
    """One symbol per control component per interval of the controls ``u``
    (K, m): -, 0 or + saturation.

    Ball sets get B for a boundary point and 0 otherwise.  Newton failure
    reports carry this per iteration because saturation flips are exactly
    where the piecewise-affine shooting map kinks.
    """
    cs = problem.control_set
    if hasattr(cs, "lower"):
        syms = np.where(np.abs(u - cs.lower) <= 1e-9, ord("-"),
                        np.where(np.abs(u - cs.upper) <= 1e-9, ord("+"),
                                 ord("0")))
    else:
        syms = np.where(np.linalg.norm(u - cs.center, axis=1)
                        >= cs.radius - 1e-9, ord("B"), ord("0"))
    return syms.astype(np.uint8).tobytes().decode()


def solve(problem: ProblemDefinition, grid: SamplingGrid,
          initial_unknowns=None, stats: Optional[dict] = None):
    """Solve the sampled-data problem by indirect shooting.

    Runs :func:`_damped_newton` on the shooting residual from the start
    :func:`_check_unknowns` gives and returns
    ``(Extremal, Certificate)`` for the converged iterate, with the cost
    multiplier ``P0``, whatever the certificate's verdict: the
    caller reads ``certificate.passed``.  Where :func:`_shooting_map`
    serves the problem, each residual is the closed-form map's; otherwise
    each residual walks the intervals (:func:`_propagate`).  Both paths
    take the same Newton steps up to rounding and end one way: the solved
    grid, controls and z(0) are integrated once by
    :func:`~.simulate.integrate_extremal_forward`, then certified.

    ``initial_unknowns`` is the packed vector (see ``_unknown_layout``) or
    None for the generic guess: the origin, with the final-time guess of a
    free horizon; ``_check_unknowns`` must accept it, and the grid's
    horizon must be a fixed final time's, or ValueError is raised before
    anything is integrated.  History entries
    carry the active-set signature of the iterate's controls, and for a
    free final time the horizon of the grid the residual ran on.  When a
    ``stats`` dict is supplied, ``solve`` fills it from the driver's
    history: the iteration count, the final residual norm, the
    per-iteration history and the solved unknowns.
    """
    x = _check_unknowns(problem, initial_unknowns, "initial unknowns")

    def annotate(vec, aux):
        entry = {"active_set": _active_set_signature(problem, aux[1])}
        if isinstance(problem.final_time, FreeTime):
            entry["t_f"] = aux[0].t_f
        return entry

    shooting = _shooting_map(problem, grid)
    if shooting is None:
        path = (lambda vec: _propagate(problem, grid, vec),
                lambda _, aux: _tangent_jacobian(problem, aux))
    else:
        path = (lambda vec: _map_residual(problem, shooting, vec),
                lambda _, aux: _map_jacobian(problem, shooting, aux[3]))
    # a free horizon's solved grid differs from the one the search started on
    x, (solved_grid, u, z0, _), history = _damped_newton(
        *path, x, NEWTON_TOL, NEWTON_MAX_ITER, annotate=annotate)
    if stats is not None:
        stats.update(iterations=len(history) - 1,
                     residual_norm=history[-1]["residual_norm"],
                     history=history, unknowns=x.tolist())
    extremal = integrate_extremal_forward(problem, solved_grid, u,
                                          *np.split(z0, 2), P0)
    return extremal, check_certificate(problem, extremal)


def match_terminal_adjoint(problem: ProblemDefinition, grid: SamplingGrid,
                           controls, q0: np.ndarray,
                           p_end: np.ndarray) -> np.ndarray:
    """Initial adjoint p(0) whose forward arc at p0 = ``P0`` hits ``p_end``
    at t_f.

    For fixed controls and states the adjoint equation is linear in p, and
    so is each RK4 step: p(t_f) = c + Phi p(0).  The arc from p(0) = 0 gives
    c, the arc from p(0) = e_i with p0 = 0 gives column i of Phi (no two
    nearly equal ends are subtracted), and one linear solve gives p(0).
    """
    def final_adjoint(p_start, p0):
        return integrate_extremal_forward(problem, grid, controls, q0,
                                          p_start, p0).final_adjoint

    c = final_adjoint(np.zeros(problem.n), P0)
    phi = np.column_stack([final_adjoint(e, 0.0) for e in np.eye(problem.n)])
    return np.linalg.solve(phi, np.asarray(p_end, dtype=float) - c)


# ---------------------------------------------------------------------------
# the damped Newton driver
# ---------------------------------------------------------------------------

def _damped_newton(residual, jacobian, x, tol, max_iter, annotate=None):
    """Damped Newton on ``residual(x) -> (r, aux)`` with square r.

    Every iteration takes the caller's Jacobian ``jacobian(x, aux)`` at the
    accepted iterate and backtracks along the Newton step until the residual
    norm decreases; when no scale of it helps, it backtracks once more along
    the LEVENBERG_DAMPING step.
    ``annotate(x, aux)`` returns extra fields for each history entry.
    Returns ``(x, aux, history)`` once the norm reaches ``tol`` within
    ``max_iter`` steps (the iterate after the last step is tested too),
    ``history`` one entry per iterate, which :func:`solve` reports in its
    ``stats``; otherwise raises NonConvergence with the current iterate,
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
            return x, aux, history
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
