"""Fixed reference program that the benchmark runs next to every command.

On the shared 2-vCPU host where this benchmark was written, the same process
runs 20-35% faster or slower from one second to the next and drifts over
minutes.  A command's wall time divided by the wall times of this program
just before and just after it cancels most of that drift.  The program does
the kind of work a concertq command does -- interpreter start-up, importing
numpy, Python loops and small array operations -- and never imports
concertq, so no change to concertq moves it.  Keep it fixed: changing it
changes the unit of every ``*_rel`` metric.
"""

import numpy as np

rng = np.random.default_rng(12345)
a = rng.random(4096)
total = 0.0
for i in range(3000):
    b = np.cumsum(a[i % 7:]) * 0.5
    total += float(b[-1]) + sum(x * x for x in range(40))
if not np.isfinite(total):
    raise SystemExit("reference: non-finite total")
