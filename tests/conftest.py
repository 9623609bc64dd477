"""Test-session settings.

The suite's matrices are small (dim <= 80 mostly, a few hundred levels at
most), and a BLAS thread pool only adds contention for them: on a 2-core
host under load, tier-1 took ten times longer with the default pool. One
thread is set before numpy loads; a value the caller exported still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
