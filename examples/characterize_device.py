#!/usr/bin/env python
"""Device characterization walkthrough (paper Section V-A, Figs. 5 & 8).

Shows the full table-model pipeline QWM relies on:

1. sweep the golden analytic MOSFET over the (Vs, Vg) grid,
2. fit the Vd dependence at every point — linear in saturation,
   quadratic in triode — storing the paper's seven parameters,
3. query the compressed table off-grid and compare against the golden
   model.

Run:  python examples/characterize_device.py
"""

import numpy as np

from repro import CMOSP35, TableModelLibrary, nmos_model
from repro.devices import FittedIV, characterize_device


def main() -> None:
    tech = CMOSP35
    golden = nmos_model(tech)
    w, l = 2.0 * tech.wmin, tech.lmin

    # --- Fig. 5: the I/V relationship being compressed ---------------
    print("golden NMOS model (vg = vdd):")
    for vs in (0.0, 1.0, 2.0):
        row = [golden.ids(w, l, tech.vdd, vs + vds, vs) * 1e3
               for vds in (0.2, 0.8, 1.6, 2.4)]
        print(f"  vs={vs:.1f} V: " + "  ".join(f"{i:6.3f} mA"
                                               for i in row))

    # --- Section V-A: sweep + fit -------------------------------------
    grid = characterize_device(golden, tech, w=w, l=l, grid_step=0.1)
    n_points = grid.vs_values.size * grid.vg_values.size
    print(f"\ncharacterized {n_points} (Vs, Vg) grid points, "
          f"{grid.n_parameters} stored parameters (7 per point)")

    fit = FittedIV(*grid.table[0][-1])  # vs = 0, vg = vdd
    print("fit at (Vs=0, Vg=vdd):")
    print(f"  saturation: Ids = {fit.s1:.3e} * Vds + {fit.s0:.3e}")
    print(f"  triode    : Ids = {fit.t2:.3e} * Vds^2 "
          f"+ {fit.t1:.3e} * Vds + {fit.t0:.3e}")
    print(f"  vth = {fit.vth:.3f} V, vdsat = {fit.vdsat:.3f} V")

    # --- Table accuracy off-grid --------------------------------------
    library = TableModelLibrary(tech)
    table = library.get("n")
    rng = np.random.default_rng(0)
    ion = golden.ids(w, l, tech.vdd, tech.vdd, 0.0)
    errors = []
    for _ in range(2000):
        vg, va, vb = rng.uniform(0.0, tech.vdd, 3)
        errors.append(abs(table.iv(w, l, vg, va, vb)
                          - golden.ids(w, l, vg, va, vb)) / ion)
    print(f"\ntable vs golden over 2000 random bias points:")
    print(f"  mean |error| = {np.mean(errors) * 100:.3f}% of Ion")
    print(f"  max  |error| = {np.max(errors) * 100:.3f}% of Ion")

    # Derivatives come from the fits, no re-sampling (paper: "can be
    # computed very fast").
    q = table.iv_query(w, l, 2.5, 2.0, 0.5)
    print(f"\nfast-derivative query at (vg=2.5, va=2.0, vb=0.5):")
    print(f"  ids = {q.ids * 1e3:.4f} mA, dI/dVgate = {q.g_gate * 1e3:.4f}"
          f" mS, dI/dVsrc = {q.g_src * 1e3:.4f} mS")


if __name__ == "__main__":
    main()
