"""The sample-and-hold staircase next to the permanent optimal control.

The solved control only changes value at the controlling times kT and is
held constant in between; plotted as a zero-order-hold staircase (blue) it
hugs the permanent optimum (red) more and more tightly as T shrinks.  Both
instances use T = 0.5.
"""

import numpy as np

from sampled_pmp import parking as pk
from sampled_pmp.svgfig import SvgPlot


def main():
    T = 0.5
    for (M, tf) in [(2.0, 3.0), (2.0, 4.0)]:
        extremal, _ = pk.solve_parking(M, tf, T)
        controls, grid = extremal.controls, extremal.grid
        ts = np.linspace(0, tf, 1000)
        fig = SvgPlot(title=f"sample-and-hold, M={M:g}, t_f={tf:g}, T={T:g}",
                      xlabel="t", ylabel="u")
        fig.add_line(ts, pk.permanent_control(M, tf, ts), color="red")
        fig.add_steps(list(np.asarray(grid.times)) + [tf],
                      controls.values[:, 0], color="blue")
        name = f"hold_M{M:g}_tf{tf:g}.svg"
        fig.save(name)
        print(f"wrote {name}  (staircase of {grid.n_intervals} steps)")


if __name__ == "__main__":
    main()
