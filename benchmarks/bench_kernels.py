"""Benchmark the GF(2) layer and the pure vs compiled unit-pivot backends.

The GF(2) section times the two mod-2 steps of the bar cochain complex,
``IntMatrix.mod2_column_masks`` and ``gf2.kernel``, on the bar delta^4 of
C6, C8 and C10, and prints each matrix's shape, nnz, rank and kernel
dimension beside the seconds.  It needs no compiled kernel.

The unit-pivot section runs the same elimination on representative
matrices -- bar-resolution coboundaries of cyclic groups (the
fill-in-heavy workload the compiled kernel exists for) and random sparse
matrices -- on both backends, checks that the results agree, and prints a
timing table.  It is skipped when the compiled backend is not built.

Usage: python3 benchmarks/bench_kernels.py [--heavy]
"""

import argparse
import random
import time

from u4class.groups import cyclic_group, orientation_characters
from u4class.kernels import BACKEND, gf2, unit_pivot_phase
from u4class.linalg import _remainder_snf
from u4class.modules import trivial_integers, twisted_integers
from u4class.resolutions import BarResolution


def bar_coboundary(order, degree, twisted=False):
    group = cyclic_group(order)
    module = twisted_integers(orientation_characters(group)[0]) \
        if twisted else trivial_integers(group)
    return BarResolution(group, degree).coboundary_matrix(module, degree)


def random_sparse(nrows, ncols, nnz, seed):
    rng = random.Random(seed)
    seen = {}
    # mostly units so the post-elimination remainder (and its dense SNF
    # used for the agreement check) stays small
    pool = [-1, 1] * 9 + [-3, -2, 2, 3]
    while len(seen) < nnz:
        seen[(rng.randrange(nrows), rng.randrange(ncols))] = \
            rng.choice(pool)
    rows, cols, vals = zip(*((r, c, v) for (r, c), v in seen.items()))
    from u4class.linalg import IntMatrix
    return IntMatrix(nrows, ncols, rows, cols, vals)


def run(name, m, mod2=False):
    results = {}
    for backend in ("pure", "compiled"):
        t0 = time.perf_counter()
        npiv, rr, rc, rv = unit_pivot_phase(
            m.nrows, m.ncols, m.rows, m.cols, m.vals, mod2=mod2,
            backend=backend)
        elapsed = time.perf_counter() - t0
        # neither the pivot count nor the remainder is canonical on its
        # own; the invariant is pivots-as-ones plus the remainder's SNF,
        # and a dense bigint SNF is only tractable for small remainders
        snf = tuple([1] * npiv + _remainder_snf(rr, rc, rv)) \
            if len(rv) <= 2000 else None
        results[backend] = (elapsed, snf)
    (tp, ip), (tc, ic) = results["pure"], results["compiled"]
    if ip is not None and ic is not None:
        assert ip == ic, f"{name}: backends disagree"
        checked = "ok"
    else:
        checked = "timing only"
    speedup = tp / tc if tc > 0 else float("inf")
    print(f"{name:<34} {m.nrows:>7}x{m.ncols:<7} nnz={m.nnz:<8} "
          f"pure {tp:8.3f}s  compiled {tc:8.3f}s  x{speedup:<5.1f} "
          f"[{checked}]", flush=True)


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
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--heavy", action="store_true",
                        help="include the larger C10 coboundary cases")
    args = parser.parse_args()

    for order in (6, 8, 10):
        run_gf2(f"bar C{order} delta^4 (GF(2))", bar_coboundary(order, 4))

    if BACKEND != "compiled":
        print("unit-pivot comparison skipped: compiled backend "
              "unavailable; build the extension first (python3 setup.py "
              "build_ext --inplace)")
        return
    print(f"active default backend: {BACKEND}")

    run("random 300x300 (5% fill)", random_sparse(300, 300, 4500, seed=7))
    run("random 600x400 (2% fill)", random_sparse(600, 400, 4800, seed=8))
    for order, degree in ((6, 3), (6, 4), (8, 3)):
        run(f"bar C{order} delta^{degree} (Z)",
            bar_coboundary(order, degree))
        run(f"bar C{order} delta^{degree} (Z_w)",
            bar_coboundary(order, degree, twisted=True))
        run(f"bar C{order} delta^{degree} (mod 2)",
            bar_coboundary(order, degree), mod2=True)
    if args.heavy:
        run("bar C8 delta^4 (Z)", bar_coboundary(8, 4))
        run("bar C8 delta^4 (mod 2)", bar_coboundary(8, 4), mod2=True)


if __name__ == "__main__":
    main()
