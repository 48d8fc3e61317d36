"""Pure-Python sparse elimination: the unit-pivot phase.

This is the arbitrary-precision implementation of the unit-pivot phase;
entries are Python ints, so no input can overflow it.  Every integer
Smith form starts here on the whole matrix (``linalg._snf_diagonal``):
in (co)homology over the bar resolution, the generator cut of a
coboundary (``Resolution.cocycle_rows``).  It works over Z only: a GF(2)
rank goes to ``gf2.rank`` instead (see ``linalg.mod2_rank``).
"""

import heapq

__all__ = ["unit_pivot_phase"]


def unit_pivot_phase(nrows, ncols, row_idx, col_idx, values):
    """Clear +-1 pivots from a sparse integer matrix by unimodular operations.

    Parameters
    ----------
    nrows, ncols : int
        Matrix shape.
    row_idx, col_idx, values : sequences
        Triplet form of the matrix.  Duplicate positions are not allowed.

    Returns
    -------
    (npivots, rem_rows, rem_cols, rem_values)
        Number of eliminated pivots plus the triplets of the remaining
        submatrix.  Rank and invariant factors of the input equal npivots
        (as many 1s) plus those of the remainder.

    Each step picks a +-1 entry, clears its column with row operations and
    then drops its row and column; the implicit column operations clearing
    the pivot row only touch the dropped row, so invariant factors are
    preserved.  Pivots are chosen Markowitz-style (small row, then small
    column) to limit fill-in.
    """
    rows = {}
    cols = {}
    for r, c, v in zip(row_idx, col_idx, values):
        if not v:
            continue
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

    heap = []
    for r, d in rows.items():
        heapq.heappush(heap, (len(d), r))

    npivots = 0
    while heap:
        _, r = heapq.heappop(heap)
        prow = rows.get(r)
        if prow is None:
            continue
        best = None
        for c, v in prow.items():
            if v == 1 or v == -1:
                score = len(cols[c])
                if best is None or score < best[0]:
                    best = (score, c)
        if best is None:
            continue
        _, pc = best
        u = prow[pc]

        del rows[r]
        for cc in prow:
            cols[cc].discard(r)

        for rr in list(cols[pc]):
            row2 = rows[rr]
            f = row2[pc] * u  # u is its own inverse
            for cc, vv in prow.items():
                nv = row2.get(cc, 0) - f * vv
                if nv:
                    if cc not in row2:
                        cols[cc].add(rr)
                    row2[cc] = nv
                elif cc in row2:
                    del row2[cc]
                    cols[cc].discard(rr)
            if row2:
                heapq.heappush(heap, (len(row2), rr))
            else:
                del rows[rr]
        npivots += 1

    rem_rows, rem_cols, rem_vals = [], [], []
    for r, d in rows.items():
        for c, v in d.items():
            rem_rows.append(r)
            rem_cols.append(c)
            rem_vals.append(v)
    return npivots, rem_rows, rem_cols, rem_vals
