"""The generic shooting solver beyond the parking fast path.

Three boundary variants on custom problems:

* a harmonic oscillator driven to the origin (fixed endpoints, LTI helper);
* a scalar transfer with free final time, where the terminal-Hamiltonian
  condition H(t_f) = 0 determines the horizon (optimum t_f = 1 here);
* a periodic double integrator, whose only extremal is rest (u = 0).
"""

import numpy as np

import sampled_pmp as sp
from sampled_pmp import parking as pk


def oscillator():
    prob = sp.lti_problem(
        np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]]),
        control_set=sp.Box(lower=np.array([-2.0]), upper=np.array([2.0])),
        terminal=sp.FixedEndpoints(q0=np.array([1.0, 0.0]), qf=np.zeros(2)),
        final_time=sp.FixedTime(3.0), name="oscillator")
    grid = sp.build_grid(3.0, 0.5)
    ext, cert = sp.solve(prob, grid)
    print("driven oscillator, t_f=3, T=0.5")
    print(f"  controls: {np.round(ext.controls.values.ravel(), 6)}")
    print(f"  q(t_f) = {np.round(ext.final_state, 10)}, "
          f"cost = {sp.running_cost(prob, ext):.6f}, certificate: {cert.verdict}")


def transfer_problem():
    """dq/dt = u with cost u^2 + 1, q: 0 -> 1, free final time.

    Callbacks take stacked points (q of shape (..., 1), u of shape (..., 1))
    and broadcast; the constant Jacobians may come unbroadcast.
    """
    return sp.ProblemDefinition(
        n=1, m=1, f=lambda t, q, u: u.copy(),
        f_q=lambda t, q, u: np.array([[0.0]]),
        f_u=lambda t, q, u: np.array([[1.0]]),
        f0=lambda t, q, u: u[..., 0] ** 2 + 1.0,
        f0_q=lambda t, q, u: np.zeros_like(q),
        f0_u=lambda t, q, u: 2.0 * u,
        control_set=sp.Box(lower=np.array([-5.0]), upper=np.array([5.0])),
        terminal=sp.FixedEndpoints(q0=np.zeros(1), qf=np.ones(1)),
        final_time=sp.FreeTime(1.4), name="transfer")


def free_final_time():
    prob = transfer_problem()
    sp.validate_jacobians(prob, np.random.default_rng(0))
    grid = sp.build_grid(1.4, 0.3)
    ext, cert = sp.solve(prob, grid, initial_unknowns=np.array([1.0, 1.4]))
    print("\nscalar transfer with free horizon (cost u^2 + 1, q: 0 -> 1)")
    print(f"  solved t_f = {ext.grid.t_f:.10f} (analytic optimum 1)")
    print(f"  controls: {np.round(ext.controls.values.ravel(), 8)}")
    print(f"  |H(t_f)| residual: {cert.free_time:.2e}, certificate: {cert.verdict}")


def periodic():
    # parking's double integrator, cost and control set, q(0) = q(t_f) at
    # t_f = 2
    prob = sp.lti_problem(
        *pk.DOUBLE_INTEGRATOR,
        control_set=sp.Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=sp.Periodic(), final_time=sp.FixedTime(2.0), name="parking")
    grid = sp.build_grid(2.0, 0.5)
    ext, cert = sp.solve(prob, grid,
                         initial_unknowns=np.array([0.1, -0.2, 0.7, 0.3]))
    print("\nperiodic double integrator (q(0) = q(t_f) among the unknowns)")
    print(f"  max |u| = {np.max(np.abs(ext.controls.values)):.2e}, "
          f"q(0) = {np.round(ext.initial_state, 8)}")
    print(f"  ||p(0) - p(t_f)|| = {cert.transversality:.2e}, "
          f"certificate: {cert.verdict}")


if __name__ == "__main__":
    oscillator()
    free_final_time()
    periodic()
