"""Where the time goes as N grows.

Compression streams the data once (linear in N); likelihood maximization
runs entirely on compressed inner products, so its cost is flat in N. That
is the point of the whole construction: estimation cost is paid per
eigenpair, not per observation.

The basis stage is not yet linear. Its kernel range (a Delaunay-graph MST)
is O(N log N), but k-means knot placement is superlinear: with 200 knots on
the data below it reaches a fixed point after 32 Lloyd passes (0.15 s on a
2-core machine) at N = 10,000, and runs into its 100-pass cap (about 1.6 s)
at N = 50,000.
"""

import numpy as np

from fastsvc import FitOptions, SimConfig, fit, gen_large

options = FitOptions(basis="nystrom", knot_count=200, tol=0.0, max_sweeps=3, seed=0)

print("        N   basis_s  compress_s  estimate_s  eval_count")
for n in (2_000, 8_000, 32_000):
    instance = gen_large(SimConfig(n=n, k=4, seed=1, generator="large",
                                   knot_count=500))
    result = fit(instance.dataset, options)
    t = result.timings
    evals = int(np.sum([np.sum(c) for c in result.trace.eval_counts]))
    print(f"  {n:7d} {t['basis']:9.2f} {t['compress']:11.2f} "
          f"{t['estimate']:11.2f}  {evals:10d}")

print("\nestimate_s stays flat while basis_s and compress_s grow with N.")
print("(sweep count is pinned above so the comparison is per-sweep cost)")
