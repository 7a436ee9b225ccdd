"""Sample-and-hold integration of extremal arcs.

The control is frozen on each sampling interval, so the dynamics restricted
to one interval are smooth and classical Runge-Kutta applies: every interval
takes ``SUBSTEPS`` steps, whatever its length.  Every integral over an
interval (the cost, the averaged gradient, the averaged Hamiltonian) is the
one composite Simpson rule ``SIMPSON_MEAN`` on the integrator's own nodes,
which reuses every evaluation and is exact for the polynomial integrands of
the built-in problems.  The callbacks broadcast, so :func:`_node_mean` takes
it over one interval's nodes or a whole extremal's in one callback call.

:func:`_extremal_interval` integrates the coupled state/adjoint arc of one
interval on the callbacks, whose state block is dq/dt = dH/dp = f.
:func:`integrate_extremal_forward` integrates a whole grid into the one
:class:`Extremal` record (q, p, p0, u); every extremal the library builds,
the shooting solver's included, comes from it.  The record carries no
cost: :func:`running_cost` computes it on request.  :func:`simulate` is the
coupled integration from p(0) = 0 with p0 = 0, on which the adjoint stays
exactly zero, returned with its cost.

A problem that carries ``lq`` matrices integrates each interval by the same
RK4 steps written as matrices: the node maps of the coupled affine system are
built once per (lq, interval length, p0) and cached, or are None where they
overflow.  :func:`integrate_extremal_forward` takes an interval's maps when
they exist and :func:`_extremal_interval` otherwise.  It walks the grid by
runs of intervals of one length (:func:`_runs`, which the shooting solver's
closed-form map shares): on a run with maps the end-node maps advance the
boundaries one interval at a time, then :func:`_lq_nodes` evaluates the
run's nodes from their start points in one matrix product.  The shooting
solver advances its trials by the end-node maps alone and evaluates an
interval's nodes, by the same function, only where its end breaks the
blow-up rule.  The same cache entry holds the Simpson mean of dH/du as an
affine map of the start point and the control, from which, with the
end-node maps, the solver reads exact derivatives, and whether that mean's
control components decouple.  The running cost and the certificate's
interval averages read the callbacks on both paths; the callback RK4 calls
them once a stage, on one arc or a stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

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

    Returns times and values (..., SUBSTEPS+1, d) for x0 (..., d), with both
    endpoints; a step breaking the blow-up rule raises IntegrationBlowUp.
    """
    h = delta / SUBSTEPS
    out = np.empty(x0.shape[:-1] + (SUBSTEPS + 1, x0.shape[-1]))
    out[..., 0, :] = x0
    x = x0
    for i in range(SUBSTEPS):
        t = t0 + i * h
        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * h, x + (0.5 * h) * k1)
        k3 = rhs(t + 0.5 * h, x + (0.5 * h) * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if _blown(x).any():
            raise IntegrationBlowUp(t + h)
        out[..., i + 1, :] = x
    return _node_times(t0, delta), out


def _blown(x: np.ndarray) -> np.ndarray:
    """The blow-up rule, True where a row of ``x`` (..., d) is non-finite or
    past BLOWUP_NORM in norm; a sum of squares that overflows is past it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ~(np.einsum("...i,...i", x, x) <= BLOWUP_NORM ** 2)


def _node_times(t0, delta):
    """RK4 node times (..., SUBSTEPS+1) of intervals starting at ``t0`` with
    length ``delta`` (broadcasting arrays or floats)."""
    h = np.asarray(delta) / SUBSTEPS
    return np.asarray(t0)[..., None] + h[..., None] * np.arange(SUBSTEPS + 1)


def _extremal_interval(problem: ProblemDefinition, t_start: float,
                       delta: float, z_start: np.ndarray, u: np.ndarray,
                       p0: float):
    """Nodes of the coupled state/adjoint arc over one interval held at ``u``,
    by RK4 on the callbacks.

    ``z_start`` stacks q and p; the right-hand side is (f, -dH/dq).  Returns
    (times, nodes) with SUBSTEPS+1 nodes; (S, 2n) starts and (S, m) controls
    integrate S arcs at once.  Both walkers over a grid call it only where
    the problem has no ``lq`` maps for the interval's length.  From p = 0
    with p0 = 0, -dH/dq is exactly zero at every stage, so the adjoint stays
    zero; the state block never reads the adjoint.
    """
    if delta <= 0:
        raise ValueError(f"interval length must be positive, got {delta}")
    n = problem.n

    def rhs(t, zz):
        tt, qq, pp = np.full(zz.shape[:-1], t), zz[..., :n], zz[..., n:]
        dq = np.asarray(problem.f(tt, qq, u), dtype=float)
        return np.concatenate([dq, -problem.hamiltonian_q(tt, qq, pp, p0, u)],
                              axis=-1)

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
    the adjoint rows of node i.  ``decoupled`` is -diag(g) when g is
    diagonal with negative entries, so that each component of the mean is
    strictly decreasing in its own control and in no other; otherwise None.
    """

    phi: np.ndarray
    gamma: np.ndarray
    ga: np.ndarray
    g: np.ndarray
    phi_end: np.ndarray
    gamma_end: np.ndarray
    decoupled: Optional[np.ndarray] = None


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
    arrays = (phi.reshape(-1, 2 * n), gamma.reshape(-1, B.shape[1]), ga, g,
              phi[-1], gamma[-1])
    if not all(np.all(np.isfinite(x)) for x in arrays):
        return None
    gain = -np.diagonal(g)
    decoupled = (gain if np.all(gain > 0) and np.array_equal(g, -np.diag(gain))
                 else None)
    for x in (*arrays, gain):
        x.setflags(write=False)
    return LQMaps(*arrays, decoupled)


def _lq_nodes(maps: LQMaps, t0, delta: float, starts: np.ndarray,
              controls: np.ndarray) -> np.ndarray:
    """Nodes (K, SUBSTEPS+1, 2n) of K intervals of length ``delta`` by the
    maps of :func:`_lq_maps`, from one matrix product.

    ``t0`` holds the K start times in increasing order, ``starts`` (K, 2n)
    the start points and ``controls`` (K, m) the controls.  Applies the
    blow-up rule (:func:`_blown`) once over the batch in time order: the
    first node that breaks it raises IntegrationBlowUp at its time.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = (starts @ maps.phi.T + controls @ maps.gamma.T).reshape(
            len(starts), SUBSTEPS + 1, -1)
    blown = _blown(nodes[:, 1:])
    if blown.any():
        k, i = divmod(int(np.argmax(blown)), SUBSTEPS)
        h = delta / SUBSTEPS
        raise IntegrationBlowUp(t0[k] + i * h + h)
    return nodes


def _runs(grid: SamplingGrid):
    """(lo, hi) of each run of equal-length intervals lo, ..., hi - 1 of
    ``grid``, in time order."""
    cuts = [0, *(np.flatnonzero(np.diff(grid.lengths)) + 1).tolist(),
            grid.n_intervals]
    return list(zip(cuts, cuts[1:]))


def _node_mean(integrand, times, states, adjoints, p0, u):
    """Simpson mean of ``integrand(t, q, p, p0, u)`` over the node axis of
    ``times`` (..., SUBSTEPS+1) in one call; ``u`` (..., m) is per interval."""
    u = np.broadcast_to(u[..., None, :], times.shape + u.shape[-1:])
    values = np.asarray(integrand(times, states, adjoints, p0, u), dtype=float)
    if values.ndim == times.ndim:
        return (SIMPSON_MEAN @ values[..., None])[..., 0]
    return SIMPSON_MEAN @ values


def simulate(problem: ProblemDefinition, grid: SamplingGrid, controls,
             q0: np.ndarray):
    """Propagate the state under piecewise-constant controls.

    Returns ``(Extremal, cost)`` with the cost of :func:`running_cost`.
    This is :func:`integrate_extremal_forward` from p(0) = 0 with p0 = 0:
    the adjoint right-hand side -dH/dq then vanishes, so the adjoint stays
    exactly zero, the blow-up rule reads the state alone, and the states are
    bit for bit those of any extremal under the same controls.  Controls
    outside the control set raise ValueError once the arc is integrated.
    """
    extremal = integrate_extremal_forward(problem, grid, controls, q0,
                                          np.zeros(problem.n), 0.0)
    if not extremal.controls.all_admissible(problem.control_set):
        raise ValueError("control sequence leaves the control set")
    return extremal, running_cost(problem, extremal)


def integrate_extremal_forward(problem: ProblemDefinition, grid: SamplingGrid,
                               controls, q0: np.ndarray, p_init: np.ndarray,
                               p0: float) -> Extremal:
    """Integrate the coupled extremal equations forward from t = 0.

    The state obeys dq/dt = dH/dp = f and the adjoint dp/dt = -dH/dq, both
    driven by the frozen control of each interval.  The grid is walked in
    time order by runs of intervals of one length.  On a run with ``lq``
    maps the end-node recurrence z_{k+1} = Phi_end z_k + Gamma_end u_k
    advances the boundaries, then one :func:`_lq_nodes` product evaluates
    the run's nodes, each boundary node keeping the recurrence's one value;
    on a run without maps :func:`_extremal_interval` integrates one interval
    after the other.  Each run is judged by the blow-up rule before the next
    starts, so the first blown node in time raises.  The nodes, at the
    grid's node times, make the returned read-only :class:`Extremal`.

    Any finite controls are integrated, in the control set or not: the
    certificate judges membership.  Raises ValueError, before integrating,
    when the controls are not one finite row of m values per interval, or
    when ``q0`` or ``p_init`` is not a finite vector of n components.
    """
    if not isinstance(controls, ControlSequence):
        controls = ControlSequence(np.asarray(controls, dtype=float))
    if len(controls) != grid.n_intervals:
        raise ValueError(
            f"control sequence has {len(controls)} values, grid has "
            f"{grid.n_intervals} intervals")
    if controls.m != problem.m:
        raise ValueError(f"control values have {controls.m} components, the "
                         f"problem has m = {problem.m}")
    u = controls.values
    bad = ~np.all(np.isfinite(u), axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"control values must be finite, row {k} is {u[k]}")
    n = problem.n
    start = []
    for label, v in (("q0", q0), ("p_init", p_init)):
        v = np.asarray(v, dtype=float)
        if v.shape != (n,) or not np.all(np.isfinite(v)):
            raise ValueError(f"{label} must be {n} finite values, got {v}")
        start.append(v)
    starts = np.empty((grid.n_intervals + 1, 2 * n))
    starts[0] = np.concatenate(start)
    nodes = np.empty((grid.n_intervals, SUBSTEPS + 1, 2 * n))
    for lo, hi in _runs(grid):
        delta = grid.lengths[lo]
        maps = (None if problem.lq is None
                else _lq_maps(problem.lq, float(delta), float(p0)))
        if maps is None:
            for k in range(lo, hi):
                nodes[k] = _extremal_interval(problem, grid.times[k], delta,
                                              starts[k], u[k], p0)[1]
                starts[k + 1] = nodes[k, -1]
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            drive = u[lo:hi] @ maps.gamma_end.T
            for k in range(lo, hi):
                starts[k + 1] = maps.phi_end @ starts[k] + drive[k - lo]
        nodes[lo:hi] = _lq_nodes(maps, grid.times[lo:hi], delta,
                                 starts[lo:hi], u[lo:hi])
        nodes[lo:hi, 0], nodes[lo:hi, -1] = starts[lo:hi], starts[lo + 1:hi + 1]
    times = _node_times(grid.times, grid.lengths)
    for x in (times, nodes):
        x.setflags(write=False)
    return Extremal(grid=grid, controls=controls, times=times,
                    states=nodes[:, :, :n], adjoints=nodes[:, :, n:],
                    p0=float(p0))


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
