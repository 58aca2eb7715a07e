"""Where the time and the memory go as N grows.

    python demos/04_scaling.py           # N = 10,000 and 100,000
    python demos/04_scaling.py --large   # and N = 1,000,000 (minutes, ~1 GiB)

Compression streams the data once (linear in N); likelihood maximization
runs entirely on compressed inner products, so its cost is flat in N. That
is the point of the whole construction: estimation cost is paid per
eigenpair, not per observation.

Memory follows the same plan. The Nystrom basis is never held as an N x L
array: compression and surface reconstruction evaluate its rows 256 at a
time (``eigenbasis.ROW_CHUNK``), and the kernel range streams its
nearest-neighbour certificate in blocks of sites. So a fit's peak is the
larger of the range's O(N) working set (about 225 bytes per distinct site)
and the Gram with one penalized system, plus the N x K arrays. peak_MiB is
the tracemalloc peak of a second, untimed fit.

The knots layer (knots_s, part of basis_s) stays flat: above 25 sites per
knot, k-means runs on a 5000-site sample (``model.KNOT_SAMPLE_PER_KNOT``).
range_s and compress_s grow about linearly in N, estimate_s stays flat.
One run with ``--large`` on a shared 2-core machine, whose timings vary by
up to 1.5x from hour to hour:

        N  range_s  compress_s  estimate_s  eval_count  peak_MiB
   10,000     0.03        0.14        0.26         221      10.9
  100,000     0.38        1.40        0.35         240      21.4
1,000,000     4.83       14.35        0.41         254     213.7

At N = 1,000,000 the range's working set sets the peak; before the range
streamed its certificate and compress took 256-row chunks, that fit peaked
at 557.9 MiB.
"""

import argparse
import tracemalloc

import numpy as np

from fastsvc import FitOptions, SimConfig, fit, gen_large

parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
parser.add_argument("--large", action="store_true",
                    help="also fit N = 1,000,000 (its data take about a minute)")
sizes = (10_000, 100_000) + ((1_000_000,) if parser.parse_args().large else ())

options = FitOptions(basis="nystrom", knot_count=200, tol=0.0, max_sweeps=3, seed=0)

print("        N   basis_s   range_s   knots_s  compress_s  estimate_s  eval_count  peak_MiB")
for n in sizes:
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

print("\nestimate_s stays flat while range_s and compress_s grow with N;")
print("peak_MiB grows with N through the range's working set and the N x K arrays.")
print("(sweep count is pinned above so the comparison is per-sweep cost)")
