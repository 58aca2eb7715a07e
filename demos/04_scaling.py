"""Where the time and the memory go as N grows.

Compression streams the data once (linear in N); likelihood maximization
runs entirely on compressed inner products, so its cost is flat in N. That
is the point of the whole construction: estimation cost is paid per
eigenpair, not per observation.

Memory follows the same plan. The Nystrom basis is never held as an N x L
array: compression and surface reconstruction evaluate its rows one chunk
at a time, so a fit's peak is O(N K + chunk m + m^2), with m = K + K L the
Gram's side and a fixed chunk of rows. peak_MiB is the tracemalloc peak of
a second, untimed fit.

The knots layer (knots_s, part of basis_s) stays flat: above 25 sites per
knot, k-means runs on a 5000-site sample (``model.KNOT_SAMPLE_PER_KNOT``).
The rest of basis_s is mostly the kernel range (range_s), which grows with
N: about 0.01, 0.05 and 0.10 s at N = 2k, 8k and 32k on a 2-core machine.
"""

import tracemalloc

import numpy as np

from fastsvc import FitOptions, SimConfig, fit, gen_large

options = FitOptions(basis="nystrom", knot_count=200, tol=0.0, max_sweeps=3, seed=0)

print("        N   basis_s   range_s   knots_s  compress_s  estimate_s  eval_count  peak_MiB")
for n in (2_000, 8_000, 32_000):
    instance = gen_large(SimConfig(n=n, k=4, seed=1, generator="large",
                                   knot_count=500))
    result = fit(instance.dataset, options)
    t = result.timings
    evals = int(np.sum([np.sum(c) for c in result.trace.eval_counts]))
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    fit(instance.dataset, options)
    peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    tracemalloc.stop()
    print(f"  {n:7d} {t['basis']:9.2f} {t['range']:9.2f} {t['knots']:9.2f} "
          f"{t['compress']:11.2f} {t['estimate']:11.2f}  {evals:10d}  {peak:8.1f}")

print("\nestimate_s stays flat while basis_s and compress_s grow with N;")
print("peak_MiB grows with N only through the N x K arrays and the basis stage.")
print("(sweep count is pinned above so the comparison is per-sweep cost)")
