"""Benchmark bar coboundary assembly and the GF(2) layer.

For the bar delta^4 of C6, C8 and C10, times ``coboundary_matrix`` (the
assembly and canonicalisation of the ``IntMatrix``) and the two mod-2
steps of the bar cochain complex, ``IntMatrix.mod2_column_masks`` and
``gf2.kernel``.  Each row prints the matrix's shape, nnz, rank and kernel
dimension, the bytes of its three triplet arrays, the seconds of each step
and the process's peak RSS (``ru_maxrss``) after the row.

Usage: python3 benchmarks/bench_kernels.py
"""

import resource
import time

from u4class.groups import cyclic_group
from u4class.kernels import gf2
from u4class.modules import trivial_integers
from u4class.resolutions import BarResolution


def run_gf2(order, degree=4):
    group = cyclic_group(order)
    res = BarResolution(group, degree)
    module = trivial_integers(group)
    t0 = time.perf_counter()
    m = res.coboundary_matrix(module, degree)
    t1 = time.perf_counter()
    masks = m.mod2_column_masks()
    t2 = time.perf_counter()
    kernel = gf2.kernel(masks)
    t3 = time.perf_counter()
    stored = sum(a.nbytes for a in m.arrays)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"bar C{order} delta^{degree} (GF(2))  {m.nrows:>7}x{m.ncols:<7} "
          f"nnz={m.nnz:<8} rank {m.ncols - len(kernel):<6} "
          f"kernel {len(kernel):<6} stored {stored / 2**20:6.2f} MB  "
          f"coboundary {t1 - t0:7.3f}s  masks {t2 - t1:7.3f}s  "
          f"kernel {t3 - t2:7.3f}s  peak rss {peak:6.1f} MB", flush=True)


def main():
    for order in (6, 8, 10):
        run_gf2(order)


if __name__ == "__main__":
    main()
