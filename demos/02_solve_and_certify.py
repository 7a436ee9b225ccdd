"""Solve sampled parking instances and verify the optimality certificate.

With the control frozen on period-T intervals, the necessary conditions
reduce, per interval, to a variational inequality on the time-average of the
Hamiltonian's control-gradient.  The solver shoots on the initial adjoint
p(0); the certificate then re-checks every condition residual by
residual.  Bumping one control off the optimum must flip the verdict.
"""

import json

import numpy as np

import sampled_pmp as sp
from sampled_pmp import parking as pk


def main():
    for (M, tf, T) in [(2.0, 4.0, 2.0), (2.0, 3.0, 1.0)]:
        extremal, cert = pk.solve_parking(M, tf, T)
        controls, grid = extremal.controls, extremal.grid
        p_init, p_end = extremal.initial_adjoint, extremal.final_adjoint
        print(f"parking M={M}, t_f={tf}, T={T} (K={grid.n_intervals})")
        print(f"  p(0):        {np.round(p_init, 9)}")
        print(f"  p(t_f):      {np.round(p_end, 9)}")
        print(f"  controls:    {np.round(controls.values.ravel(), 9)}")
        print(f"  energy:      {pk.sampled_cost(grid, controls):.9f} "
              f"(permanent: {pk.permanent_cost(M, tf):.9f})")
        print(f"  certificate: {cert.verdict}, max interval residual "
              f"{cert.max_interval_residual:.2e}")

    # tamper with one control: the checker must notice
    M, tf, T = 2.0, 4.0, 2.0
    extremal, _ = pk.solve_parking(M, tf, T)
    bumped = extremal.controls.values.copy()
    bumped[0, 0] += 0.1
    prob = pk.parking_problem(M, tf)
    ext = sp.integrate_extremal_forward(prob, extremal.grid, bumped,
                                        np.array([M, 0.0]),
                                        extremal.initial_adjoint, -1.0)
    bad = sp.check_certificate(prob, ext)
    print(f"\nafter bumping u_0 by +0.1: verdict = {bad.verdict}")
    for v in bad.violations:
        print(f"  - {v}")
    print("\ncertificate JSON:")
    print(json.dumps(bad.to_json_dict(), indent=2)[:400] + " ...")


if __name__ == "__main__":
    main()
