"""Benchmark the GF(2) layer on bar coboundaries.

Times the two mod-2 steps of the bar cochain complex,
``IntMatrix.mod2_column_masks`` and ``gf2.kernel``, on the bar delta^4 of
C6, C8 and C10, and prints each matrix's shape, nnz, rank and kernel
dimension beside the seconds.

Usage: python3 benchmarks/bench_kernels.py
"""

import time

from u4class.groups import cyclic_group
from u4class.kernels import gf2
from u4class.modules import trivial_integers
from u4class.resolutions import BarResolution


def bar_coboundary(order, degree):
    group = cyclic_group(order)
    return BarResolution(group, degree).coboundary_matrix(
        trivial_integers(group), degree)


def run_gf2(name, m):
    t0 = time.perf_counter()
    masks = m.mod2_column_masks()
    t1 = time.perf_counter()
    kernel = gf2.kernel(masks)
    t2 = time.perf_counter()
    print(f"{name:<34} {m.nrows:>7}x{m.ncols:<7} nnz={m.nnz:<8} "
          f"rank {m.ncols - len(kernel):<6} kernel {len(kernel):<6} "
          f"masks {t1 - t0:7.3f}s  kernel {t2 - t1:7.3f}s", flush=True)


def main():
    for order in (6, 8, 10):
        run_gf2(f"bar C{order} delta^4 (GF(2))", bar_coboundary(order, 4))


if __name__ == "__main__":
    main()
