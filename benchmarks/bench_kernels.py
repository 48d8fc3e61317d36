"""Benchmark bar coboundary assembly and the GF(2) layer.

For the bar delta^4 of C6, C8 and C10, times ``coboundary_matrix`` (the
assembly and canonicalisation of the ``IntMatrix``) and the two mod-2
steps of the bar cochain complex, ``IntMatrix.mod2_column_masks`` and
``gf2.kernel``, twice: over all rows, and over the rows [s|...] with s in
the group's generating set alone, assembled directly by
``coboundary_matrix(..., firsts=...)`` as ``BarMod2Complex`` does for its
top coboundary (both kernels are asserted equal).  Each row prints the
full matrix's shape, nnz, rank and kernel dimension, the bytes of its
three triplet arrays, the seconds of each step for both matrices and the
process's peak RSS (``ru_maxrss``) after the row.

Usage: python3 benchmarks/bench_kernels.py
"""

import resource
import time

from u4class.groups import cyclic_group
from u4class.kernels import gf2
from u4class.modules import trivial_integers
from u4class.resolutions import BarResolution


def _assemble(res, module, degree, firsts=None):
    t0 = time.perf_counter()
    m = res.coboundary_matrix(module, degree, firsts=firsts)
    return m, time.perf_counter() - t0


def _masks_and_kernel(m):
    t0 = time.perf_counter()
    masks = m.mod2_column_masks()
    t1 = time.perf_counter()
    kernel = gf2.kernel(masks)
    t2 = time.perf_counter()
    return kernel, t1 - t0, t2 - t1


def run_gf2(order, degree=4):
    group = cyclic_group(order)
    res = BarResolution(group, degree)
    module = trivial_integers(group)
    top, top_s = _assemble(res, module, degree, group.generating_set())
    top_kernel, top_masks, top_kernel_s = _masks_and_kernel(top)
    m, full_s = _assemble(res, module, degree)
    kernel, t_masks, t_kernel = _masks_and_kernel(m)
    assert top_kernel == kernel, f"C{order}: generator-row kernel differs"
    stored = sum(a.nbytes for a in m.arrays)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"bar C{order} delta^{degree} (GF(2))  {m.nrows:>7}x{m.ncols:<7} "
          f"nnz={m.nnz:<8} rank {m.ncols - len(kernel):<6} "
          f"kernel {len(kernel):<6} stored {stored / 2**20:6.2f} MB  "
          f"coboundary {full_s:7.3f}s  masks {t_masks:7.3f}s  "
          f"kernel {t_kernel:7.3f}s  generator rows {top.nrows:>6}: "
          f"coboundary {top_s:7.3f}s  masks {top_masks:7.3f}s  "
          f"kernel {top_kernel_s:7.3f}s  peak rss {peak:6.1f} MB",
          flush=True)


def main():
    for order in (6, 8, 10):
        run_gf2(order)


if __name__ == "__main__":
    main()
