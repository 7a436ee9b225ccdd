"""How fast does the sampled optimum approach the permanent one as T shrinks?

For each sampling period the solved control values are compared against the
permanent optimal control at the interval midpoints (where the unsaturated
sampled law samples an affine function of time exactly).  One SVG per period
overlays the control values (blue crosses at the controlling times) on the
permanent curve (red), in the style of a sampled-vs-continuous comparison.
"""

import numpy as np

import sampled_pmp as sp
from sampled_pmp import parking as pk
from sampled_pmp.svgfig import SvgPlot


def main():
    periods = [1.0, 0.5, 0.1, 0.01]
    for (M, tf) in [(2.0, 3.0), (2.0, 4.0)]:
        print(f"M={M}, t_f={tf}")
        print(f"  {'T':>6} {'K':>4} {'sup dev (midpoints)':>20} "
              f"{'sampled cost':>14} {'permanent':>11}")
        rows = [pk.sweep_row(M, tf, T) for T in periods]
        for row in rows:
            print(f"  {row.T:>6g} {row.K:>4} {row.sup_dev:>20.3e} "
                  f"{row.cost_sampled:>14.9f} {row.cost_permanent:>11.9f}")

    # figures for the coarser periods of the unconstrained instance (the
    # last rows swept), drawn from the controls each row carries
    for row in rows[:2]:
        grid = sp.build_grid(tf, row.T)
        ts = np.linspace(0, tf, 1000)
        fig = SvgPlot(title=f"sampled (T={row.T:g}) vs permanent control",
                      xlabel="t", ylabel="u")
        fig.add_line(ts, pk.permanent_control(M, tf, ts), color="red")
        fig.add_crosses(np.asarray(grid.times), row.controls.values[:, 0],
                        color="blue")
        name = f"sweep_T{row.T:g}.svg"
        fig.save(name)
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
