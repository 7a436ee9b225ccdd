"""Verification of the necessary conditions on a candidate extremal.

Each sampling interval contributes a maximization residual: the support gap
of the averaged control-gradient over the control set, which is zero exactly
when the nonpositive-average-gradient variational inequality holds there.
The variant's boundary conditions (:func:`boundary_residuals`) give the
feasibility of the terminal constraints (a checker must reject infeasible
candidates even though the optimality conditions presuppose admissibility)
and a transversality residual, free-final-time problems add a terminal
Hamiltonian residual, nontriviality of the multiplier pair is checked, the
extremal's arcs must tile [0, t_f] of its grid, each interval starting
where the previous one ends, and on a fixed final time the grid must end
at it.
The shooting residual is built from the same definitions.

The checker covers the three canonical terminal variants the solver
handles (fixed endpoints, fixed start with free end, periodic) and has no
options: its tolerance is ``DEFAULT_TOL``.  Residual magnitudes scale with
the multiplier pair, which is only defined up to a positive factor; every
residual is computed once and, for a normal extremal, divided by -p0 (its
value at the canonical cost multiplier -1) before the tolerance is applied.
The :class:`Certificate` holds each residual once, so normalized; the raw
values are those of :func:`interval_residual` and :func:`free_time_residual`.
``certificate.json`` is the record as held, per-interval residuals and their
start times as two aligned arrays.  The checker reads the callbacks, never
``lq``, and all intervals' averaged gradients come from one call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import UnsupportedCase
from .problem import (GRID_SNAP, FixedEndpoints, FixedInitialFreeFinal,
                      FixedTime, FreeTime, ProblemDefinition,
                      TerminalCondition)
from .simulate import Extremal, _extremal_mean, average_u_gradient

DEFAULT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Certificate:
    """Residuals of every verified condition plus the overall verdict.

    Entry k of ``interval_residuals`` is interval k's, which starts at
    ``interval_times[k]``; every residual is divided by -p0 when p0 < 0.
    """

    passed: bool
    tol: float
    interval_times: np.ndarray
    interval_residuals: np.ndarray
    transversality: float
    free_time: Optional[float]
    feasibility: float
    nontrivial: bool
    violations: tuple

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def max_interval_residual(self) -> float:
        return float(np.max(self.interval_residuals)) if len(self.interval_residuals) else 0.0

    def to_json_dict(self) -> dict:
        """``verdict``, then every field but ``passed`` as held."""
        record = {"verdict": self.verdict}
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name != "passed":
                record[field.name] = (value.tolist()
                                      if isinstance(value, np.ndarray) else value)
        return record


def interval_residual(problem: ProblemDefinition, extremal: Extremal, k: int) -> float:
    """Support gap of the averaged control-gradient at interval k's control.

    Zero (up to tolerance) certifies <Gbar_k, y - u_k> <= 0 for every y in
    the control set.  Membership of u_k is reported separately by the
    aggregate check, so the gap is evaluated even for inadmissible controls.
    """
    gbar = average_u_gradient(problem, extremal, k)
    return problem.control_set.support_gap(gbar, extremal.controls[k])


def boundary_residuals(terminal: TerminalCondition, q_start, q_end, p_start,
                       p_end):
    """Residual vectors ``(start, end, transversality)`` of the variant.

    Fixed endpoints: ``(q_start - q0, q_end - qf, [])``.  Prescribed start,
    free end: ``(q_start - q0, [], p_end)``.  Periodic: ``([], q_end -
    q_start, p_end - p_start)``.  Shooting meets ``start`` by construction,
    through ``initial_state()``, and solves for the other two blocks.
    Stacked (..., n) arguments give stacked residuals.
    """
    none = np.zeros(np.shape(q_start)[:-1] + (0,))
    if isinstance(terminal, FixedEndpoints):
        return q_start - terminal.q0, q_end - terminal.qf, none
    if isinstance(terminal, FixedInitialFreeFinal):
        return q_start - terminal.q0, none, p_end
    return none, q_end - q_start, p_end - p_start


def free_time_residual(problem: ProblemDefinition, extremal: Extremal) -> float:
    """|H| at the final time, from the extremal's end values and the control
    of the grid's last interval, the one ending at t_f: when t_f is an exact
    multiple of the period, no interval starts there (see
    :func:`build_grid`), so no control is sampled at t_f.  The shooting
    residual of a free horizon signs the same H."""
    if not isinstance(problem.final_time, FreeTime):
        raise UnsupportedCase("the final-time condition only applies to "
                              "free-final-time problems")
    return abs(problem.hamiltonian(
        extremal.grid.t_f, extremal.final_state, extremal.final_adjoint,
        extremal.p0, extremal.controls[-1]))


def check_certificate(problem: ProblemDefinition, extremal: Extremal) -> Certificate:
    """Verify every necessary condition on ``extremal`` and aggregate a verdict.

    Fails when the multiplier pair is trivial, the grid ends off a fixed
    final time, the arcs' node times do not tile the grid's [0, t_f] (each
    interval starting where the previous one ends, within ``GRID_SNAP``
    t_f), a control leaves the control set, the terminal constraints are
    violated, or any condition residual exceeds ``DEFAULT_TOL``.  Each
    residual is computed once and, for a normal extremal, divided by -p0
    before the tolerance test; the certificate holds it so divided.
    """
    tol = DEFAULT_TOL
    p0 = extremal.p0
    violations = []

    nontrivial = (np.linalg.norm(extremal.final_adjoint) + abs(p0)) > 0.0
    if not nontrivial:
        violations.append("nontriviality: (p, p0) = (0, 0)")
    if p0 > 0:
        violations.append(f"cost multiplier must be <= 0, got {p0}")

    final, t_f = problem.final_time, extremal.grid.t_f
    if isinstance(final, FixedTime) and t_f != final.t_f:
        violations.append(f"horizon: the grid ends at t_f = {t_f}, not at "
                          f"the fixed final time {final.t_f}")
    times, snap = extremal.times, GRID_SNAP * t_f
    start, end = float(times[0, 0]), float(times[-1, -1])
    if abs(start) > snap or abs(end - t_f) > snap:
        violations.append(f"arcs: they run over [{start}, {end}], not over "
                          f"the grid's [0, {t_f}]")
    for k in np.nonzero(np.abs(times[1:, 0] - times[:-1, -1]) > snap)[0]:
        violations.append(f"interval {k + 1}: starts at {times[k + 1, 0]}, "
                          f"not where interval {k} ends, {times[k, -1]}")

    controls = extremal.controls.values
    for k in np.nonzero(~problem.control_set.contains(controls))[0]:
        violations.append(f"interval {k}: control outside the control set")

    start, end, transversality = boundary_residuals(
        problem.terminal, extremal.initial_state, extremal.final_state,
        extremal.initial_adjoint, extremal.final_adjoint)
    feas = float(np.linalg.norm(np.concatenate([start, end])))
    if feas > tol:
        violations.append(f"terminal constraints violated: {feas:.3e} > {tol:.1e}")

    # every residual is positively homogeneous in (p, p0)
    scale = -p0 if p0 < 0 else 1.0
    r = problem.control_set.support_gap(
        _extremal_mean(problem.hamiltonian_u, extremal), controls) / scale
    tv = float(np.linalg.norm(transversality)) / scale
    ft = (free_time_residual(problem, extremal) / scale
          if isinstance(problem.final_time, FreeTime) else None)

    for k in np.nonzero(r > tol)[0]:
        violations.append(f"interval {int(k)}: maximization residual "
                          f"{r[k]:.3e} > {tol:.1e}")
    if tv > tol:
        violations.append(f"transversality residual {tv:.3e} > {tol:.1e}")
    if ft is not None and ft > tol:
        violations.append(f"free-time Hamiltonian residual {ft:.3e} > {tol:.1e}")

    return Certificate(
        passed=not violations,
        tol=tol,
        interval_times=np.asarray(extremal.grid.times, dtype=float),
        interval_residuals=r,
        transversality=tv,
        free_time=ft,
        feasibility=feas,
        nontrivial=bool(nontrivial),
        violations=tuple(violations),
    )
