"""Closed-form minimum-energy parking with a permanent (unsampled) control.

A car starts at position M > 0 with zero velocity and must stop at the
origin at time t_f, with |acceleration| <= 1, minimizing the integral of the
squared acceleration.  Two regimes exist:

* 4M < t_f^2 < 6M: the acceleration bound is active at both ends (full
  braking until t1, an affine ramp, full acceleration after t_f - t1);
* t_f^2 >= 6M: the affine ramp 6M/t_f^3 (2t - t_f) never saturates.

The script evaluates both regimes and writes an SVG with the two curves.
"""

import numpy as np

from sampled_pmp import parking as pk
from sampled_pmp.svgfig import SvgPlot


def main():
    for (M, tf) in [(2.0, 3.0), (2.0, 4.0)]:
        constrained = tf ** 2 < 6.0 * M
        regime = "constrained" if constrained else "unconstrained"
        print(f"M={M}, t_f={tf}: {regime} regime "
              f"(4M={4*M:g}, t_f^2={tf**2:g}, 6M={6*M:g})")
        if constrained:
            t1 = pk.switching_time(M, tf)
            print(f"  switching time t1 = {t1:.10f}, "
                  f"saturated on [0, {t1:.4f}] and [{tf - t1:.4f}, {tf:g}]")
        print(f"  u*(0) = {pk.permanent_control(M, tf, 0.0):+.6f}, "
              f"u*(t_f/2) = {pk.permanent_control(M, tf, tf / 2):+.6f}, "
              f"u*(t_f) = {pk.permanent_control(M, tf, tf):+.6f}")
        print(f"  energy = {pk.permanent_cost(M, tf):.10f}")

    fig = SvgPlot(title="permanent optimal control, both regimes",
                  xlabel="t", ylabel="u*")
    for (M, tf, color) in [(2.0, 3.0, "red"), (2.0, 4.0, "darkorange")]:
        ts = np.linspace(0, tf, 1000)
        fig.add_line(ts, pk.permanent_control(M, tf, ts), color=color)
    fig.save("permanent_control.svg")
    print("wrote permanent_control.svg")


if __name__ == "__main__":
    main()
