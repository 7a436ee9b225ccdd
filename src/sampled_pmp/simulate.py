"""Sample-and-hold integration of extremal arcs.

The control is frozen on each sampling interval, so the dynamics restricted
to one interval are smooth and classical Runge-Kutta applies: every interval
takes ``SUBSTEPS`` steps, whatever its length.  Every integral over an
interval (the cost, the averaged gradient, the averaged Hamiltonian) is the
one composite Simpson rule ``SIMPSON_MEAN`` on the integrator's own nodes,
which reuses every evaluation and is exact for the polynomial integrands of
the built-in problems.  The callbacks broadcast, so :func:`_node_mean` takes
it over one interval's nodes or a whole extremal's in one callback call.

:func:`_extremal_interval` is the only interval integrator: it integrates
the coupled state/adjoint arc, whose state block is dq/dt = dH/dp = f.
:func:`_extremal_from_arcs` stacks per-interval nodes into the one
:class:`Extremal` record (q, p, p0, u) for :func:`integrate_extremal_forward`
and the shooting solver, which builds its extremal from the arcs it has
already integrated.  The record carries no cost: :func:`running_cost`
computes it on request.  :func:`simulate` is the state block of the coupled
integration from p(0) = 0 with p0 = 0, on which the adjoint stays exactly
zero, returned with its cost.

A problem that carries ``lq`` matrices integrates each interval by the same
RK4 steps written as matrices: the node maps of the coupled affine system are
built once per (lq, interval length, p0), cached, and applied with
two matrix products.  The same cache entry holds the Simpson mean of dH/du
as an affine map of the start point and the control, and the end-node maps,
from which the solver reads exact derivatives.  The running cost and the
certificate's interval averages read the callbacks on both paths; the
callback RK4 calls them on one point a stage, and integrates only the state
block of an arc that starts from p = 0 with p0 = 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IntegrationBlowUp
from .problem import (ControlSequence, LinearQuadratic, ProblemDefinition,
                      SamplingGrid)

# Abort threshold: trial adjoints in Newton iterations can diverge, and a
# structured failure beats a flood of overflow warnings.
BLOWUP_NORM = 1e12

# RK4 steps per sampling interval; even, so Simpson applies on the nodes.
SUBSTEPS = 16

# Composite Simpson weights over an interval's SUBSTEPS + 1 nodes:
# ``SIMPSON_MEAN @ values`` is the mean of the integrand over the interval,
# whatever its length.
SIMPSON_MEAN = (np.array([1.0] + [4.0, 2.0] * (SUBSTEPS // 2 - 1) + [4.0, 1.0])
                / (3.0 * SUBSTEPS))
SIMPSON_MEAN.setflags(write=False)

# Interval maps of linear-quadratic problems kept, one per (problem data,
# interval length, p0).  A solve needs one per distinct length; a free
# horizon adds one per trial final time, and ``simulate`` adds p0 = 0 ones.
LQ_MAPS_CACHE_SIZE = 64


@dataclass(frozen=True, eq=False)
class Extremal:
    """Candidate extremal (q, p, p0, u) on the RK4 nodes of every interval.

    ``controls[k]`` is held on interval k of ``grid``.  The read-only arrays
    are stacked by interval: ``times`` is (K, SUBSTEPS+1), ``states`` and
    ``adjoints`` are (K, SUBSTEPS+1, n), and each interval boundary is both
    the last node of one interval and the first of the next.
    """

    grid: SamplingGrid
    controls: ControlSequence
    times: np.ndarray
    states: np.ndarray
    adjoints: np.ndarray
    p0: float

    @property
    def initial_state(self) -> np.ndarray:
        return self.states[0, 0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1, -1]

    @property
    def initial_adjoint(self) -> np.ndarray:
        return self.adjoints[0, 0]

    @property
    def final_adjoint(self) -> np.ndarray:
        return self.adjoints[-1, -1]


# ---------------------------------------------------------------------------
# fixed-step RK4
# ---------------------------------------------------------------------------

def _rk4(rhs, t0: float, delta: float, x0: np.ndarray):
    """Integrate dx/dt = rhs(t, x) over [t0, t0+delta] with SUBSTEPS RK4 steps.

    Returns (times, values) including both endpoints.  Raises
    IntegrationBlowUp when a node goes non-finite or beyond BLOWUP_NORM.
    """
    h = delta / SUBSTEPS
    out = np.empty((SUBSTEPS + 1, x0.size))
    out[0] = x0
    x = x0
    for i in range(SUBSTEPS):
        t = t0 + i * h
        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * h, x + (0.5 * h) * k1)
        k3 = rhs(t + 0.5 * h, x + (0.5 * h) * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # the max test also rejects NaN (which it propagates) and keeps the
        # norm from overflowing
        if (not np.abs(x).max() <= BLOWUP_NORM
                or np.linalg.norm(x) > BLOWUP_NORM):
            raise IntegrationBlowUp(t + h)
        out[i + 1] = x
    times = t0 + h * np.arange(SUBSTEPS + 1)
    return times, out


def _extremal_interval(problem: ProblemDefinition, t_start: float,
                       delta: float, z_start: np.ndarray, u: np.ndarray,
                       p0: float):
    """Nodes of the coupled state/adjoint arc over one interval held at ``u``.

    ``z_start`` stacks q and p; the right-hand side is (f, -dH/dq).  Returns
    (times, nodes) arrays of length SUBSTEPS+1.  The library's only interval
    integrator: by the maps of :func:`_lq_maps` when the problem carries
    ``lq`` matrices and they do not overflow, by the callbacks otherwise.
    """
    if delta <= 0:
        raise ValueError(f"interval length must be positive, got {delta}")
    n = problem.n
    if problem.lq is not None:
        arc = _lq_arc(problem.lq, t_start, delta, z_start, u, p0)
        if arc is not None:
            return arc

    if p0 == 0 and not np.any(z_start[n:]):
        # from p = 0 with p0 = 0 the adjoint right-hand side is exactly zero:
        # the adjoint stays zero, and only the state block is integrated
        times, states = _rk4(
            lambda t, q: np.asarray(problem.f(t, q, u), dtype=float),
            t_start, delta, z_start[:n])
        return times, np.hstack([states, np.zeros_like(states)])

    def rhs(t, zz):
        qq, pp = zz[:n], zz[n:]
        dq = np.asarray(problem.f(t, qq, u), dtype=float)
        dp = -problem.hamiltonian_q(t, qq, pp, p0, u)
        return np.concatenate([dq, dp])

    return _rk4(rhs, t_start, delta, z_start)


# ---------------------------------------------------------------------------
# linear-quadratic intervals: the same RK4 steps as matrices
# ---------------------------------------------------------------------------

class LQMaps(NamedTuple):
    """One interval's RK4 maps of a linear-quadratic problem (read-only).

    The nodes are ``phi @ z + gamma @ u``, (SUBSTEPS+1)*2n rows;
    ``phi_end`` and ``gamma_end`` are the last node's 2n rows.  The Simpson
    mean of dH/du = B'p + 2 p0 R u over the nodes is ``ga @ z + g @ u``:
    ga = B' sum_i w_i Phi_i^p (m x 2n) and g = B' sum_i w_i Gamma_i^p
    + 2 p0 R (m x m), where w = SIMPSON_MEAN and the superscript p takes
    the adjoint rows of node i.
    """

    phi: np.ndarray
    gamma: np.ndarray
    ga: np.ndarray
    g: np.ndarray
    phi_end: np.ndarray
    gamma_end: np.ndarray


@functools.lru_cache(maxsize=LQ_MAPS_CACHE_SIZE)
def _lq_maps(lq: LinearQuadratic, delta: float, p0: float):
    """RK4 node maps of the coupled state/adjoint arc over one interval.

    With z = (q, p) the coupled right-hand side (f, -dH/dq) is affine,
    z' = M z + N u with M = [[A, 0], [-2 p0 Q, -A']] and N = [B; 0].  One
    RK4 step of length h maps z to R(hM) z + h S(hM) N u, where
    R(X) = I + X + X^2/2 + X^3/6 + X^4/24 and S(X) = I + X/2 + X^2/6 + X^3/24:
    the same scheme as ``_rk4``, not a matrix exponential.  Stacking the
    steps gives the nodes Phi z + Gamma u.  Returns the :class:`LQMaps`,
    with the averaged-gradient maps read off the same nodes, or None when
    the maps overflow.
    """
    A, B, Q = lq.A, lq.B, lq.Q
    n = A.shape[0]
    h = delta / SUBSTEPS
    eye = np.eye(2 * n)
    with np.errstate(over="ignore", invalid="ignore"):
        X = h * np.block([[A, np.zeros((n, n))], [-2.0 * p0 * Q, -A.T]])
        X2 = X @ X
        X3 = X2 @ X
        step = eye + X + X2 / 2.0 + X3 / 6.0 + (X3 @ X) / 24.0
        drive = h * ((eye + X / 2.0 + X2 / 6.0 + X3 / 24.0)[:, :n] @ B)
        phi = np.empty((SUBSTEPS + 1, 2 * n, 2 * n))
        gamma = np.empty((SUBSTEPS + 1, 2 * n, B.shape[1]))
        phi[0], gamma[0] = eye, 0.0
        for i in range(SUBSTEPS):
            phi[i + 1] = step @ phi[i]
            gamma[i + 1] = step @ gamma[i] + drive
        ga = B.T @ np.tensordot(SIMPSON_MEAN, phi[:, n:], axes=1)
        g = (B.T @ np.tensordot(SIMPSON_MEAN, gamma[:, n:], axes=1)
             + 2.0 * p0 * lq.R)
    maps = LQMaps(phi.reshape(-1, 2 * n), gamma.reshape(-1, B.shape[1]),
                  ga, g, phi[-1], gamma[-1])
    if not all(np.all(np.isfinite(x)) for x in maps):
        return None
    for x in maps:
        x.setflags(write=False)
    return maps


def _lq_arc(lq: LinearQuadratic, t0: float, delta: float, z_start, u,
            p0: float):
    """(times, nodes) of one interval by the maps of :func:`_lq_maps`.

    Applies the blow-up rule of ``_rk4`` to the nodes: the first node
    past BLOWUP_NORM, or non-finite, raises IntegrationBlowUp at its time.
    Returns None when the maps overflow, so the caller integrates by the
    callbacks.
    """
    maps = _lq_maps(lq, float(delta), float(p0))
    if maps is None:
        return None
    h = delta / SUBSTEPS
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = (maps.phi @ z_start + maps.gamma @ u).reshape(SUBSTEPS + 1, -1)
        # _rk4's max-abs and norm tests in one: a max-abs past BLOWUP_NORM
        # puts the norm past it too, and NaN fails the comparison
        blown = ~(np.sum(nodes[1:] * nodes[1:], axis=1) <= BLOWUP_NORM ** 2)
    if blown.any():
        i = int(np.argmax(blown))
        raise IntegrationBlowUp(t0 + i * h + h)
    return t0 + h * np.arange(SUBSTEPS + 1), nodes


def _node_mean(integrand, times, states, adjoints, p0, u):
    """Simpson mean of ``integrand(t, q, p, p0, u)`` over the node axis of
    ``times`` (..., SUBSTEPS+1) in one call; ``u`` (..., m) is per interval."""
    u = np.broadcast_to(u[..., None, :], times.shape + u.shape[-1:])
    values = np.asarray(integrand(times, states, adjoints, p0, u), dtype=float)
    if values.ndim == times.ndim:
        return (SIMPSON_MEAN @ values[..., None])[..., 0]
    return SIMPSON_MEAN @ values


def _check_controls(problem, grid, controls, enforce_admissible):
    if not isinstance(controls, ControlSequence):
        controls = ControlSequence(np.asarray(controls, dtype=float))
    if len(controls) != grid.n_intervals:
        raise ValueError(
            f"control sequence has {len(controls)} values, grid has "
            f"{grid.n_intervals} intervals")
    if controls.m != problem.m:
        raise ValueError(f"control values have {controls.m} components, the "
                         f"problem has m = {problem.m}")
    if enforce_admissible and not controls.all_admissible(problem.control_set):
        raise ValueError("control sequence leaves the control set")
    return controls


def _extremal_from_arcs(grid, controls, arcs, p0: float) -> Extremal:
    """Extremal stacking per-interval coupled ``(times, nodes)`` arcs, the
    nodes holding q then p; its arrays are read-only."""
    times = np.stack([t for t, _ in arcs])
    nodes = np.stack([z for _, z in arcs])
    times.setflags(write=False)
    nodes.setflags(write=False)
    n = nodes.shape[2] // 2
    return Extremal(grid=grid, controls=controls, times=times,
                    states=nodes[:, :, :n], adjoints=nodes[:, :, n:],
                    p0=float(p0))


def simulate(problem: ProblemDefinition, grid: SamplingGrid, controls,
             q0: np.ndarray):
    """Propagate the state under piecewise-constant controls.

    Returns ``(Extremal, cost)`` with the cost of :func:`running_cost`.
    This is the state block of :func:`integrate_extremal_forward` from
    p(0) = 0 with p0 = 0: the adjoint right-hand side -dH/dq then vanishes,
    so the adjoint stays exactly zero and the blow-up rule reads the state
    alone.  Controls outside the control set raise ValueError.
    """
    extremal = integrate_extremal_forward(problem, grid, controls, q0,
                                          np.zeros(problem.n), 0.0)
    return extremal, running_cost(problem, extremal)


def integrate_extremal_forward(problem: ProblemDefinition, grid: SamplingGrid,
                               controls, q0: np.ndarray, p_init: np.ndarray,
                               p0: float,
                               enforce_admissible: bool = True) -> Extremal:
    """Integrate the coupled extremal equations forward from t = 0.

    The state obeys dq/dt = dH/dp = f and the adjoint dp/dt = -dH/dq, both
    driven by the frozen control of each interval.  Raises ValueError when
    ``q0`` or ``p_init`` is not a finite vector of n components.
    """
    controls = _check_controls(problem, grid, controls, enforce_admissible)
    n = problem.n
    start = []
    for label, v in (("q0", q0), ("p_init", p_init)):
        v = np.asarray(v, dtype=float)
        if v.shape != (n,) or not np.all(np.isfinite(v)):
            raise ValueError(f"{label} must be {n} finite values, got {v}")
        start.append(v)
    z = np.concatenate(start)
    arcs = []
    for k in range(grid.n_intervals):
        arcs.append(_extremal_interval(problem, grid.times[k], grid.lengths[k],
                                       z, controls[k], p0))
        z = arcs[-1][1][-1]
    return _extremal_from_arcs(grid, controls, arcs, p0)


# ---------------------------------------------------------------------------
# interval averages
# ---------------------------------------------------------------------------

def _extremal_mean(integrand, extremal: Extremal, k=None, u=None):
    """:func:`_node_mean` on interval k of the extremal, or on every interval
    when k is None; ``u`` defaults to the intervals' controls."""
    K = extremal.grid.n_intervals
    if k is None:
        k = slice(None)
    elif not 0 <= k < K:
        raise IndexError(f"interval index {k} out of range [0, {K})")
    return _node_mean(integrand, extremal.times[k], extremal.states[k],
                      extremal.adjoints[k], extremal.p0,
                      extremal.controls.values[k] if u is None else u)


def running_cost(problem: ProblemDefinition, extremal: Extremal) -> float:
    """Integral of the running cost f0 along the extremal's state arc.

    Each interval contributes its length times the Simpson mean of f0 at
    the state nodes, from one f0 call.
    """
    def f0(t, q, p, p0, u):
        return problem.f0(t, q, u)

    return float(extremal.grid.lengths @ _extremal_mean(f0, extremal))


def average_u_gradient(problem: ProblemDefinition, extremal: Extremal,
                       k: int) -> np.ndarray:
    """Average over interval k of the control-gradient of the Hamiltonian.

    This is the quantity whose variational inequality against the control
    set certifies the interval; the averaging length is the interval's own
    (so a partial final interval is averaged over t_f - kT).
    """
    return _extremal_mean(problem.hamiltonian_u, extremal, k)


def average_hamiltonian(problem: ProblemDefinition, extremal: Extremal,
                        k: int, y: np.ndarray) -> float:
    """Average of H over interval k with the control argument replaced by y.

    The state and adjoint arcs stay frozen; only the Hamiltonian's control
    slot varies.  For Hamiltonians concave in the control, the certified
    control maximizes this average over the control set.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return float(_extremal_mean(problem.hamiltonian, extremal, k, y))
