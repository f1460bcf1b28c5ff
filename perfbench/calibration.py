"""Machine-speed reference for the hermlat benchmark.

On the 2-vCPU VM this benchmark was built on, machine speed drifts by up
to 45% over phases that last from seconds to minutes, with nothing else
running in the VM.  One seed, re-run later, moved as much as any
workload change would.  So every run times this fixed kernel between
rounds of bundles.  It scales its check times by ``NOMINAL_S /
median(kernel times)``, which turns them into seconds on a machine whose
kernel time is ``NOMINAL_S``.  Raw wall times are printed next to the
scaled ones.

The kernel is a frozen copy of the recursive Fincke-Pohst enumerator in
``hermlat.minima`` at the commit that added the benchmark, run on a fixed
8x8 Gram matrix (9,609 nodes).  It mixes interpreter and small-numpy work
the way the code it calibrates does.  It imports nothing from hermlat, so
a change to hermlat never changes it.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.050  # about the kernel's median time on the VM above

_A = np.random.default_rng(7).standard_normal((8, 8))
_GRAM = _A.T @ _A + 0.5 * np.eye(8)
_RADIUS_SQ = 30.0


def _enumerate(gram: np.ndarray, radius_sq: float) -> int:
    n = gram.shape[0]
    r = np.linalg.cholesky(gram).T
    bound = radius_sq * (1 + 1e-12) + 1e-12
    x = np.zeros(n, dtype=np.int64)
    found = []
    nodes = 0

    def rec(level: int, partial: float, centers_done: np.ndarray) -> None:
        nonlocal nodes
        c = -centers_done[level] / r[level, level]
        room = bound - partial
        if room < 0:
            return
        half = math.sqrt(room) / r[level, level]
        lo = math.ceil(c - half - 1e-12)
        hi = math.floor(c + half + 1e-12)
        higher_all_zero = not np.any(x[level + 1:])
        if higher_all_zero:
            lo = max(lo, 0)
        for xi in range(lo, hi + 1):
            nodes += 1
            x[level] = xi
            step = r[level, level] * (xi - c)
            new_partial = partial + step * step
            if new_partial > bound:
                continue
            if level == 0:
                if xi != 0 or not higher_all_zero:
                    found.append(x.copy())
            else:
                rec(level - 1, new_partial, centers_done + r[:, level] * xi)
        x[level] = 0

    rec(n - 1, 0.0, np.zeros(n))
    return nodes


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _enumerate(_GRAM, _RADIUS_SQ)
    return time.perf_counter() - t0
