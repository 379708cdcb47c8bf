#!/usr/bin/env python3
"""Walk the satellite attitude loop through the full conversion pipeline.

The loop starts as a classical two-state lag controller driving a double
integrator with a constant-disturbance state.  The script

  1. inserts the dipole that moves the controller zero-frequency gain to
     zero (the filter-form observer needs it),
  2. enumerates every observer realisation of the shifted loop, scoring
     each on noise sensitivity, disturbance sensitivity and loop margins,
  3. rebuilds the winner as observer + static gain + quadratic programme
     and confirms the input/output behaviour is unchanged, and
  4. replays the disturbance-rejection scenario under input bounds,
     under the effect-matching cost, and through a stuck-thruster fault.

Run it directly; pass --out DIR to keep the CSV traces.
"""

import argparse
import pathlib

import numpy as np

from lti2mpc.models import satellite_controller, satellite_plant
from lti2mpc.realisation import (
    closed_loop_matrix,
    realisation_controller,
    search_realisations,
    verify_equivalence,
)
from lti2mpc.sim import scenario_library, simulate
from lti2mpc.statespace import add_dipole


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="directory for CSV traces")
    args = ap.parse_args(argv)

    G = satellite_plant()
    K0 = satellite_controller()
    K1 = add_dipole(K0, W=50.0)

    print("== loop conditioning ==")
    z0 = K0.D - K0.C @ np.linalg.solve(K0.A, K0.B)
    z1 = K1.D - K1.C @ np.linalg.solve(K1.A, K1.B)
    print(f"controller gain at z=0: {z0[0, 0]: .4f} before the dipole, "
          f"{z1[0, 0]: .2e} after")
    poles = np.sort_complex(np.linalg.eigvals(closed_loop_matrix(G, K1)))
    print("closed-loop poles:", ", ".join(f"{p:.4f}" for p in poles))

    print("\n== realisation table (filter form) ==")
    res = search_realisations(G, K1, form="filter", rank_by="product",
                              margin_cut=0)
    print(f"{'rank':>4} {'S':>12} {'noise':>8} {'dist':>8} {'product':>9} "
          f"{'GM':>7} {'DM':>7}")
    for rank, (r, s) in enumerate(res.ranked, start=1):
        S = ",".join(str(i) for i in r.choice.state_feedback_set)
        print(f"{rank:>4} {'(' + S + ')':>12} {s.h2_noise:8.4f} "
              f"{s.h2_dist:8.4f} {s.product:9.4f} "
              f"{s.margins.gain_margin:7.3f} {s.margins.delay_margin:7.3f}")

    best = res.ranked[0][0]
    resid = verify_equivalence(realisation_controller(best, G), K1)
    print(f"\nbest realisation reproduces the original controller to "
          f"{resid:.2e} across the unit circle")

    print("\n== constrained replays ==")
    lib = scenario_library()
    traces = {}
    for name in ("satellite-case-1", "satellite-case-2", "satellite-case-3",
                 "satellite-case-5"):
        traces[name] = simulate(lib[name])

    unc = traces["satellite-case-1"]
    clamped = traces["satellite-case-2"]
    n_sat = int(np.sum(np.max(np.abs(clamped.u_applied), axis=1) > 0.11 - 1e-6))
    print(f"|u| <= 0.11 leaves the commanded torque saturated on "
          f"{n_sat} of {len(clamped)} samples")

    eff = traces["satellite-case-3"]
    net_gap = np.abs(eff.u_applied.sum(axis=1) - unc.u_applied.sum(axis=1))
    y_gap = np.max(np.abs(eff.y - unc.y))
    print(f"effect-matching cost under the same bound: second thruster "
          f"takes up {np.max(np.abs(eff.u_applied[:, 1])):.4f} peak torque")
    print(f"  net torque tracks the unconstrained loop to "
          f"{np.max(net_gap):.2e} per sample; output moves {y_gap:.2e} rad")

    fault = traces["satellite-case-5"]
    print(f"stuck thruster at t=3 s: pointing peaks at "
          f"{np.max(np.abs(fault.y)):.2e} rad and settles back to "
          f"{abs(fault.y[-1, 0]):.1e} rad")

    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, tr in traces.items():
            tr.to_csv(out / f"{name}.csv")
        print(f"\ntraces written to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
