"""Sample-and-hold integration of state and extremal arcs.

The control is frozen on each sampling interval, so the dynamics restricted
to one interval are smooth and a fixed-step classical Runge-Kutta scheme
applies.  Costs and averaged control-gradients are computed by composite
Simpson quadrature on the integrator's own nodes (substep counts are even),
which reuses every evaluation and is exact for the polynomial integrands of
the built-in problems.

One assembly turns per-interval nodes into a :class:`Trajectory` (cost and
read-only arrays) for :func:`simulate`, :func:`integrate_extremal_forward`
and the shooting solver, which builds its extremal from the arcs it has
already integrated.  :func:`simulate` integrates the state alone; it computes
no adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowUp
from .problem import ControlSequence, ProblemDefinition, SamplingGrid

# Abort threshold: trial adjoints in Newton iterations can diverge, and a
# structured failure beats a flood of overflow warnings.
BLOWUP_NORM = 1e12

DEFAULT_SUBSTEPS = 16


@dataclass(frozen=True)
class Trajectory:
    """State arc stored per sampling interval on uniform substep nodes."""

    grid: SamplingGrid
    times: tuple        # K arrays of node times, each (substeps+1,)
    states: tuple       # K arrays of states, each (substeps+1, n)
    cost: float

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1][-1]

    @property
    def initial_state(self) -> np.ndarray:
        return self.states[0][0]


@dataclass(frozen=True)
class AdjointArc:
    """Adjoint arc on the same nodes as the trajectory, plus the cost multiplier."""

    values: tuple       # K arrays, each (substeps+1, n)
    p0: float

    @property
    def final(self) -> np.ndarray:
        return self.values[-1][-1]

    @property
    def initial(self) -> np.ndarray:
        return self.values[0][0]


@dataclass(frozen=True)
class Extremal:
    """Candidate quadruple (state arc, adjoint arc, cost multiplier, controls)."""

    trajectory: Trajectory
    adjoint: AdjointArc
    controls: ControlSequence
    grid: SamplingGrid

    @property
    def p0(self) -> float:
        return self.adjoint.p0


# ---------------------------------------------------------------------------
# fixed-step RK4
# ---------------------------------------------------------------------------

def _rk4(rhs, t0: float, delta: float, x0: np.ndarray, substeps: int):
    """Integrate dx/dt = rhs(t, x) over [t0, t0+delta] with `substeps` RK4 steps.

    Returns (times, values) including both endpoints.  Raises
    IntegrationBlowUp when a node goes non-finite or beyond BLOWUP_NORM.
    """
    h = delta / substeps
    out = np.empty((substeps + 1, x0.size))
    out[0] = x0
    x = x0
    for i in range(substeps):
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
    times = t0 + h * np.arange(substeps + 1)
    return times, out


def integrate_interval(problem: ProblemDefinition, t_start: float, delta: float,
                       q_start: np.ndarray, u: np.ndarray,
                       substeps: int = DEFAULT_SUBSTEPS):
    """State nodes over one sampling interval with the control held at ``u``.

    Returns (times, states) arrays of length substeps+1.
    """
    if delta <= 0:
        raise ValueError(f"interval length must be positive, got {delta}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    q_start = np.asarray(q_start, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))

    def rhs(t, q):
        return np.asarray(problem.f(t, q, u), dtype=float)

    return _rk4(rhs, t_start, delta, q_start, substeps)


def _extremal_interval(problem: ProblemDefinition, t_start: float,
                       delta: float, z_start: np.ndarray, u: np.ndarray,
                       p0: float, substeps: int):
    """Nodes of the coupled state/adjoint arc over one interval held at ``u``.

    ``z_start`` stacks q and p; the right-hand side is (f, -dH/dq).  Returns
    (times, nodes) arrays of length substeps+1.
    """
    n = problem.n

    def rhs(t, zz):
        qq, pp = zz[:n], zz[n:]
        dq = np.asarray(problem.f(t, qq, u), dtype=float)
        dp = -problem.hamiltonian_q(t, qq, pp, p0, u)
        return np.concatenate([dq, dp])

    return _rk4(rhs, t_start, delta, z_start, substeps)


def _simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson over uniformly spaced samples (even panel count)."""
    s = len(values) - 1
    if s % 2 != 0:
        raise ValueError("Simpson quadrature needs an even number of substeps")
    acc = values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2], axis=0)
    if s > 2:
        acc = acc + 2.0 * np.sum(values[2:-1:2], axis=0)
    return (h / 3.0) * acc


def _interval_mean(integrand, times, states, adjoints, p0, u, delta):
    """Simpson mean over one interval of ``integrand(t, q, p, p0, u)`` on its
    nodes; ``delta`` is the interval's own length."""
    vals = np.array([integrand(times[i], states[i], adjoints[i], p0, u)
                     for i in range(len(times))])
    return _simpson(vals, delta / (len(times) - 1)) / delta


def _check_controls(problem, grid, controls, enforce_admissible):
    if not isinstance(controls, ControlSequence):
        controls = ControlSequence(np.asarray(controls, dtype=float))
    if len(controls) != grid.n_intervals:
        raise ValueError(
            f"control sequence has {len(controls)} values, grid has "
            f"{grid.n_intervals} intervals")
    if enforce_admissible and not controls.all_admissible(problem.control_set):
        raise ValueError("control sequence leaves the control set")
    return controls


def _trajectory_from_arcs(problem, grid, controls, arcs) -> Trajectory:
    """Trajectory from per-interval ``(times, states)`` nodes, made read-only.

    The cost is composite Simpson of the running cost on the nodes.
    """
    cost = 0.0
    for k, (times, states) in enumerate(arcs):
        u = controls[k]
        f0_nodes = np.array([problem.f0(times[i], states[i], u)
                             for i in range(len(times))])
        cost += _simpson(f0_nodes, grid.lengths[k] / (len(times) - 1))
        times.setflags(write=False)
        states.setflags(write=False)
    return Trajectory(grid=grid, times=tuple(times for times, _ in arcs),
                      states=tuple(states for _, states in arcs),
                      cost=float(cost))


def _extremal_from_arcs(problem, grid, controls, arcs, p0: float) -> Extremal:
    """Extremal from per-interval coupled ``(times, nodes)`` arcs, the nodes
    stacking q and p."""
    n = problem.n
    traj = _trajectory_from_arcs(
        problem, grid, controls,
        [(times, nodes[:, :n]) for times, nodes in arcs])
    adjoints = tuple(nodes[:, n:] for _, nodes in arcs)
    for values in adjoints:
        values.setflags(write=False)
    return Extremal(trajectory=traj,
                    adjoint=AdjointArc(values=adjoints, p0=float(p0)),
                    controls=controls, grid=grid)


def simulate(problem: ProblemDefinition, grid: SamplingGrid, controls,
             q0: np.ndarray, substeps: int = DEFAULT_SUBSTEPS,
             enforce_admissible: bool = True):
    """Propagate the state under piecewise-constant controls.

    Returns ``(Trajectory, cost)`` with the cost accumulated by composite
    Simpson of the running cost on the integration nodes.  Only the state is
    integrated: routing it through the coupled integrator with a zero
    adjoint costs about three times as much.
    """
    if substeps % 2 != 0:
        raise ValueError("substeps must be even so Simpson applies on the nodes")
    controls = _check_controls(problem, grid, controls, enforce_admissible)
    q = np.asarray(q0, dtype=float)
    arcs = []
    for k in range(grid.n_intervals):
        arcs.append(integrate_interval(problem, grid.times[k], grid.lengths[k],
                                       q, controls[k], substeps))
        q = arcs[-1][1][-1]
    traj = _trajectory_from_arcs(problem, grid, controls, arcs)
    return traj, traj.cost


def integrate_extremal_forward(problem: ProblemDefinition, grid: SamplingGrid,
                               controls, q0: np.ndarray, p_init: np.ndarray,
                               p0: float, substeps: int = DEFAULT_SUBSTEPS,
                               enforce_admissible: bool = True) -> Extremal:
    """Integrate the coupled extremal equations forward from t = 0.

    The state obeys dq/dt = dH/dp = f and the adjoint dp/dt = -dH/dq, both
    driven by the frozen control of each interval.  The state part of the
    result is bitwise identical to :func:`simulate` on the same inputs: the
    coupled right-hand side evaluates f on the same floats in the same order.
    """
    if substeps % 2 != 0:
        raise ValueError("substeps must be even so Simpson applies on the nodes")
    controls = _check_controls(problem, grid, controls, enforce_admissible)
    n = problem.n
    q = np.asarray(q0, dtype=float)
    p = np.asarray(p_init, dtype=float)
    if q.shape != (n,) or p.shape != (n,):
        raise ValueError(f"q0 and p_init must have shape ({n},)")
    z = np.concatenate([q, p])
    arcs = []
    for k in range(grid.n_intervals):
        arcs.append(_extremal_interval(problem, grid.times[k], grid.lengths[k],
                                       z, controls[k], p0, substeps))
        z = arcs[-1][1][-1]
    return _extremal_from_arcs(problem, grid, controls, arcs, p0)


# ---------------------------------------------------------------------------
# interval averages
# ---------------------------------------------------------------------------

def _extremal_mean(integrand, extremal: Extremal, k: int, u=None):
    """Simpson mean over interval k of ``integrand(t, q, p, p0, u)`` on the
    extremal's nodes, ``u`` defaulting to the interval's control."""
    K = extremal.grid.n_intervals
    if not 0 <= k < K:
        raise IndexError(f"interval index {k} out of range [0, {K})")
    return _interval_mean(integrand, extremal.trajectory.times[k],
                          extremal.trajectory.states[k],
                          extremal.adjoint.values[k], extremal.adjoint.p0,
                          extremal.controls[k] if u is None else u,
                          extremal.grid.lengths[k])


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


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_trajectory_csv(extremal: Extremal, path) -> None:
    """One row per node: t, q_1..q_n, p_1..p_n, k, u_1..u_m (%.12e)."""
    n = extremal.trajectory.states[0].shape[1]
    m = extremal.controls.m
    header = (["t"] + [f"q_{i+1}" for i in range(n)]
              + [f"p_{i+1}" for i in range(n)] + ["k"]
              + [f"u_{i+1}" for i in range(m)])
    lines = [",".join(header)]
    for k in range(extremal.grid.n_intervals):
        times = extremal.trajectory.times[k]
        states = extremal.trajectory.states[k]
        adjoints = extremal.adjoint.values[k]
        u = extremal.controls[k]
        for i in range(len(times)):
            cells = ["%.12e" % times[i]]
            cells += ["%.12e" % v for v in states[i]]
            cells += ["%.12e" % v for v in adjoints[i]]
            cells.append(str(k))
            cells += ["%.12e" % v for v in u]
            lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
