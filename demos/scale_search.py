#!/usr/bin/env python3
"""Exercise the realisation search on a deliberately large synthetic loop.

The surrogate couples eleven small loops plus ten uncontrollable modes
into a 21-state plant with a 17-state controller.  After pruning
(conjugate pairs stay together, uncontrollable modes stay with the state
feedback set) the eigenvalue-split enumeration still leaves roughly
42000 candidates, which the search evaluates as stacked kernels in
chunks of 128 splits (``realisation._CHUNK``).

Expect a run time of about 8-11 s on a shared 2-vCPU host with BLAS
pinned to one thread (OPENBLAS_NUM_THREADS=1); the host's speed drifts
between runs.
"""

import argparse
import time

import numpy as np

from lti2mpc.models import scale_surrogate
from lti2mpc.realisation import search_realisations


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    G, K = scale_surrogate(seed=args.seed)
    print(f"plant: {G.n} states, {G.n_u} inputs, {G.n_y} outputs; "
          f"controller: {K.n} states")

    t0 = time.perf_counter()
    res = search_realisations(G, K, form="predictor", rank_by="product")
    elapsed = time.perf_counter() - t0

    examined = len(res.ranked) + len(res.rejected)
    products = np.array(sorted(s.product for _, s in res.ranked))
    q = np.percentile(products, [0, 25, 50, 75, 100])
    print(f"\n{examined} candidate splits examined in {elapsed:.1f} s; "
          f"{len(res.ranked)} feasible")
    print("product score  min {:8.1f}  q25 {:8.1f}  median {:8.1f}  "
          "q75 {:8.1f}  max {:8.1f}".format(*q))

    print("\ntop five:")
    for rank, (r, s) in enumerate(res.ranked[:5], start=1):
        print(f"  {rank}. product {s.product:8.2f}  noise {s.h2_noise:7.3f}  "
              f"dist {s.h2_dist:7.3f}  "
              f"|S|={len(r.choice.state_feedback_set)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
