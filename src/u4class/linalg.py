"""Exact integer and mod-2 matrix algebra.

Everything downstream (cohomology, spectral sequences, classification)
reduces to the functions here: Smith normal form, kernels, and homology
subquotients, all exact over the integers.  Some steps run in int64, each
only where a bound checked first proves that no entry can leave the int64
range, and fall back to Python integers otherwise: ``IntMatrix``
canonicalisation, which sums repeated positions in int64 while the
largest |value| times the number of values is at most ``_INT64_SAFE``;
``IntMatrix`` products, which go through scipy while the inner dimension
times both largest |entries| is at most ``_INT64_SAFE`` and otherwise
form every product in Python integers and sum them with the
canonicaliser; and the lattice echelon behind ``integer_kernel`` and
``ColumnLattice`` and the Smith form of the remainder the unit-pivot
phase leaves, which check a bound before every row (or column) operation
and go on in Python integers once one fails.  Both go through one
dense two-row step (``_two_row_step``): the Smith form for every step,
the echelon for its gcd steps, failing bounds and Python-int arrays.
The echelon subtracts a multiple of a pivot row in place, and every step
of it reads and writes only the live window of its two rows, the
columns that can hold a nonzero.
The integer stack works over Z alone: a Smith form is the unit-pivot
phase (``kernels.unit_pivot_phase``, Python integers throughout) followed
by the dense remainder.  A GF(2) rank runs on ``kernels.gf2`` alone, the
GF(2) engine of the ring code too, from the column masks of the matrix.

An ``IntMatrix`` holds its canonical triplets in read-only numpy arrays,
with int64 values when every value lies within +-``_INT64_SAFE`` and
Python integers (dtype=object) otherwise, and each step above reads
those arrays directly.  The canonicaliser sorts once, stably, on the
int64 position key row * ncols + col, so an ``IntMatrix`` refuses a shape
whose nrows * ncols exceeds 2^63 - 1 before any sort runs.
Its ``rows``, ``cols`` and ``vals`` are list views, built afresh on every
call, for the pure-Python unit-pivot phase and for callers that walk a
small matrix entry by entry.  ``mod2_rank`` memoises the GF(2) rank of a
lone matrix on it; a Z/2 (co)homology count does not call it, as it
ranks each cut once in a chain that the resolution memoises
(``Resolution.mod2_coboundary_rank``).  The Smith diagonal is not
memoised: above degree 0 a (co)homology call eliminates one cut of d_in
alone, so one matrix is seldom eliminated twice.  The module keeps no
cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .abelian import AbelianGroup

__all__ = [
    "AbelianGroup",
    "IntMatrix",
    "SmithForm",
    "smith_normal_form",
    "rank",
    "check_composition",
    "homology_at",
    "mod2_rank",
    "integer_kernel",
    "ColumnLattice",
]

# every int64 intermediate is proven to stay within this magnitude
_INT64_SAFE = 2**62
# the largest nrows * ncols of an IntMatrix: its canonicaliser sorts the
# positions on the int64 key row * ncols + col
_KEY_MAX = 2**63 - 1
# packed uint8 block behind IntMatrix.mod2_column_masks; 16 MB built the
# top-degree masks of C10 and D5 no faster (C10: 17 vs 11 ms) and raised
# the peak RSS of their degree-4 ring and inflation checks (88.4 vs 85.5 MB)
_MASK_BLOCK_BYTES = 2**21


# ---------------------------------------------------------------------------
# Sparse integer matrices


class IntMatrix:
    """Immutable sparse integer matrix in canonical triplet form.

    The triplets are held in three read-only numpy arrays, sorted by (row,
    column), with no repeated position and no zero value.  Rows and
    columns are int64; values are int64 when every value lies within
    +-``_INT64_SAFE`` and Python ints (dtype=object) otherwise, so the
    dtype depends only on the values.  Triplets passed in any order are
    canonicalised by one stable sort on the int64 key row * ncols + col
    (``_canonical_triplets``), so the shape must have nrows * ncols at most
    2^63 - 1; a larger one raises ValueError.  ``arrays`` returns the three
    arrays; ``rows``, ``cols`` and ``vals`` build a fresh list of Python
    ints on every call, for callers that walk the entries one by one.

    With ``canonical=True`` the triplets must already be canonical; arrays
    passed so are taken over, not copied, and made read-only.
    ``_rank2`` memoises the GF(2) rank; equality ignores it.  Products
    (``matmul``) are the one step that goes through scipy.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_cols", "_vals", "_rank2")

    def __init__(self, nrows, ncols, rows=(), cols=(), vals=(), *,
                 canonical=False):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        if self.nrows * self.ncols > _KEY_MAX:
            raise ValueError(f"a {self.nrows} x {self.ncols} matrix has "
                             "more positions than int64 keys")
        if canonical:
            r = np.asarray(rows, dtype=np.int64)
            c = np.asarray(cols, dtype=np.int64)
            v = _value_array(vals)
        else:
            r, c, v = _canonical_triplets(self.nrows, self.ncols,
                                          rows, cols, vals)
        # int64 sums of the canonicaliser are within _INT64_SAFE already
        if canonical or v.dtype == object:
            fits = _array_max_abs(v) <= _INT64_SAFE
            v = v.astype(np.int64 if fits else object, copy=False)
        for a in (r, c, v):
            a.flags.writeable = False
        self._rows, self._cols, self._vals = r, c, v
        self._rank2 = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(nrows, ncols):
        return IntMatrix(nrows, ncols)

    @staticmethod
    def identity(n):
        rng = np.arange(n)
        return IntMatrix(n, n, rng, rng, np.ones(n, dtype=np.int64),
                         canonical=True)

    @staticmethod
    def from_dense(rows):
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        ri, ci, vi = [], [], []
        for i, row in enumerate(rows):
            if len(row) != nc:
                raise ValueError("ragged dense matrix")
            for j, v in enumerate(row):
                if v:
                    ri.append(i)
                    ci.append(j)
                    vi.append(int(v))
        return IntMatrix(nr, nc, ri, ci, vi, canonical=True)

    # -- basic queries ------------------------------------------------------

    @property
    def arrays(self):
        """The read-only (rows, cols, vals) arrays."""
        return self._rows, self._cols, self._vals

    @property
    def rows(self):
        return self._rows.tolist()

    @property
    def cols(self):
        return self._cols.tolist()

    @property
    def vals(self):
        return self._vals.tolist()

    @property
    def nnz(self):
        return self._vals.size

    @property
    def is_zero(self):
        return not self._vals.size

    def to_dense(self):
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for r, c, v in zip(self.rows, self.cols, self.vals):
            out[r][c] = v
        return out

    def max_abs(self):
        return _array_max_abs(self._vals)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix)
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and np.array_equal(self._rows, other._rows)
                and np.array_equal(self._cols, other._cols)
                and np.array_equal(self._vals, other._vals))

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    # -- structural ops -----------------------------------------------------

    def transpose(self):
        return IntMatrix(self.ncols, self.nrows, self._cols, self._rows,
                         self._vals)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(
            self.nrows, self.ncols + other.ncols,
            np.concatenate((self._rows, other._rows)),
            np.concatenate((self._cols, other._cols + self.ncols)),
            np.concatenate((self._vals, other._vals)))

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        if not self.nnz or not other.nnz:
            return IntMatrix.zeros(self.nrows, other.ncols)
        fast = self._matmul_scipy(other)
        if fast is not None:
            return fast
        # past the int64 bound: every product in Python ints, summed by the
        # canonicaliser (other's rows are sorted, being canonical)
        outer, inner = _sorted_join(other._rows, self._cols)
        return IntMatrix(
            self.nrows, other.ncols, self._rows[outer], other._cols[inner],
            self._vals[outer].astype(object)
            * other._vals[inner].astype(object))

    def _matmul_scipy(self, other):
        # int64 product is exact when a crude bound on entry growth holds
        inner = max(1, self.ncols)
        bound = inner * max(1, self.max_abs()) * max(1, other.max_abs())
        if bound > _INT64_SAFE:
            return None
        c = self._csr() @ other._csr()
        c.sort_indices()
        rows = np.repeat(np.arange(self.nrows), np.diff(c.indptr))
        keep = c.data != 0
        return IntMatrix(self.nrows, other.ncols, rows[keep],
                         c.indices[keep], c.data[keep], canonical=True)

    def _csr(self):
        """The matrix as a scipy CSR matrix (int64 values only); canonical
        order is already CSR order."""
        from scipy import sparse
        indptr = np.searchsorted(self._rows, np.arange(self.nrows + 1))
        return sparse.csr_matrix((self._vals, self._cols, indptr),
                                 shape=(self.nrows, self.ncols))

    # -- mod-2 views --------------------------------------------------------

    def mod2_column_masks(self):
        """Columns as GF(2) bit integers (bit i = row i).

        The odd entries are sorted by column.  A block of columns at a time,
        each entry ORs bit ``row & 7`` into byte ``row >> 3`` of its column
        in a zeroed uint8 block of at most ``_MASK_BLOCK_BYTES`` (one column,
        if a column is longer), by ``np.bitwise_or.at``; the block's bytes
        are read into one integer per nonempty column.  Beyond the block it
        holds a few arrays of length nnz.
        """
        out = [0] * self.ncols
        rows, cols, vals = self.arrays
        odd = (vals & 1).astype(bool)
        if not odd.all():
            rows, cols = rows[odd], cols[odd]
        if not cols.size:
            return out
        order = np.argsort(cols)
        rows, cols = rows[order], cols[order]
        # first entry of each nonempty column (np.unique would import
        # numpy.ma, ~20 ms, on its first call)
        heads = np.ones(cols.size, dtype=bool)
        heads[1:] = cols[1:] != cols[:-1]
        width = (self.nrows + 7) // 8
        step = max(1, _MASK_BLOCK_BYTES // width)
        start = 0
        while start < cols.size:
            first = int(cols[start])
            stop = int(np.searchsorted(cols, first + step))
            span = int(cols[stop - 1]) - first + 1
            r = rows[start:stop]
            block = np.zeros((span, width), dtype=np.uint8)
            np.bitwise_or.at(block, (cols[start:stop] - first, r >> 3),
                             (1 << (r & 7)).astype(np.uint8))
            packed = block.tobytes()
            for c in cols[start:stop][heads[start:stop]].tolist():
                at = (c - first) * width
                out[c] = int.from_bytes(packed[at:at + width], "little")
            start = stop
        return out


def _value_array(vals):
    """Values as an int64 array, or as Python ints (dtype=object) when one
    does not fit in int64."""
    try:
        return np.asarray(vals, dtype=np.int64)
    except OverflowError:
        return np.array([int(x) for x in vals], dtype=object)


def _canonical_triplets(nrows, ncols, rows, cols, vals):
    """Triplets (lists, or arrays of one shape) as flat arrays sorted by
    (row, column), with repeated positions summed and zero sums dropped.

    The positions are sorted once, stably, on the int64 key row * ncols +
    col, which the shape check of ``IntMatrix`` keeps inside int64.  The
    canonical triplets are unique, so the sort chosen cannot change them; a
    stable one is timsort, which merges presorted runs in close to linear
    time, and an assembled coboundary arrives as one run per face
    (``Resolution._hom_matrix``).  Broadcast views are read in place, never
    copied.  The sums run in int64 when the largest |value| times the
    number of values is at most ``_INT64_SAFE``, so that no partial sum can
    leave int64, and in Python ints (dtype=object) otherwise.
    """
    try:
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
    except OverflowError:
        raise ValueError("entry out of range") from None
    v = _value_array(vals)
    if not r.shape == c.shape == v.shape:
        raise ValueError("triplet lengths differ")
    # as uint64 a negative index wraps past every bound
    if r.size and (r.view(np.uint64).max() >= nrows
                   or c.view(np.uint64).max() >= ncols):
        raise ValueError("entry out of range")
    keys = r * ncols
    keys += c
    keys, v = keys.ravel(), v.ravel()
    if _array_max_abs(v) * v.size > _INT64_SAFE:
        v = v.astype(object)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    v = v[order]
    del order
    # fold every later entry of a repeated key into the run's first entry
    later = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    if later.size:
        np.add.at(v, np.searchsorted(keys, keys[later]), v[later])
    keep = v != 0
    keep[later] = False
    if not keep.all():
        keys, v = keys[keep], v[keep]
    r = keys // ncols
    keys -= r * ncols                # the sorted copy, now the columns
    return r, keys, v


def _sorted_join(keys, probes):
    """Index pairs (outer, inner) with keys[inner] == probes[outer], for
    keys sorted ascending: outer runs over the probes in order, and inner
    over each probe's run of equal keys."""
    start = np.searchsorted(keys, probes, side="left")
    count = np.searchsorted(keys, probes, side="right") - start
    outer = np.repeat(np.arange(probes.size), count)
    inner = (np.arange(outer.size) + start[outer]
             - np.repeat(np.cumsum(count) - count, count))
    return outer, inner


def _array_max_abs(a):
    """Largest |entry| of an int64 or object array, as a Python int."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithForm:
    """Smith diagonal d_1 | d_2 | ..., zeros last."""

    diagonal: tuple[int, ...]

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d)

    @property
    def nontrivial(self):
        return tuple(d for d in self.diagonal if d > 1)


def _snf_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """Smith diagonal of m, zeros last: the unit-pivot phase
    (``kernels.unit_pivot_phase``) clears the +-1 pivots of m by unimodular
    steps, and the remainder it leaves goes to ``_remainder_snf``."""
    npiv, rr, rc, rv = kernels.unit_pivot_phase(m.nrows, m.ncols, m.rows,
                                                m.cols, m.vals)
    diag = [1] * npiv + _remainder_snf(rr, rc, rv)
    diag += [0] * (min(m.nrows, m.ncols) - len(diag))
    return tuple(diag)


def smith_normal_form(m: IntMatrix) -> SmithForm:
    return SmithForm(_snf_diagonal(m))


def rank(m: IntMatrix) -> int:
    return sum(1 for d in _snf_diagonal(m) if d)


def _remainder_snf(rr, rc, rv):
    """Nonzero Smith diagonal of the remainder left by the unit phase,
    reduced as a dense array over its nonempty rows and columns: int64
    when every entry is within ``_INT64_SAFE``, Python ints (dtype=object)
    otherwise."""
    if not rv:
        return []
    rmap = {r: i for i, r in enumerate(sorted(set(rr)))}
    cmap = {c: j for j, c in enumerate(sorted(set(rc)))}
    fits = max(map(abs, rv)) <= _INT64_SAFE
    a = np.zeros((len(rmap), len(cmap)), dtype=np.int64 if fits else object)
    a[[rmap[r] for r in rr], [cmap[c] for c in rc]] = rv
    return _smith_diagonal(a)


def _gcdex(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _row_bounds(a):
    """Largest |entry| of each row of an int64 array, as a list; None for
    an object array, whose steps need no bound."""
    if a.dtype == object:
        return None
    return np.maximum(a.max(axis=1, initial=0),
                      -a.min(axis=1, initial=0)).tolist()


def _two_row_step(a, bound, p, i, c, pair=None, end=None):
    """One unimodular step on rows p and i of a 2-D integer array, both
    zero left of column c and, given ``end``, from column ``end`` on;
    returns (array, bound).

    The step is (p, i) <- (x p + y i, u p + v i) for pair = (x, y, u, v),
    on columns c to ``end`` alone (to the last column by default).  By
    default it clears a[i, c] against the pivot s = a[p, c]: with
    t = a[i, c], by row i -= (t // s) p when s divides t, otherwise by the
    extended-gcd pair (x p + y i, (s/g) i - (t/g) p), which leaves
    g = gcd(s, t) > 0 in the pivot row.  Given a transpose view, it acts on
    columns.

    ``bound`` carries an upper bound on the largest |entry| of every row
    of an int64 array (None for an object array); the step's new entries,
    bounded by its coefficients times those, may not exceed
    ``_INT64_SAFE``.  When the carried bounds fail, the two rows' true
    maxima are taken; when those fail too, the array is promoted to Python
    ints (dtype=object) and the step runs there, so the answer never
    depends on which arithmetic ran.
    """
    if pair is None:
        s, t = int(a[p, c]), int(a[i, c])
        if t % s == 0:
            pair = 1, 0, -(t // s), 1
        else:
            g, x, y = _gcdex(s, t)
            pair = x, y, -(t // g), s // g
    x, y, u, v = pair
    piv, row = a[p, c:end], a[i, c:end]
    if bound is not None:
        bp, bi = bound[p], bound[i]
        grown = (abs(x) * bp + abs(y) * bi, abs(u) * bp + abs(v) * bi)
        if max(grown) > _INT64_SAFE:
            bp, bi = int(np.abs(piv).max()), int(np.abs(row).max())
            grown = (abs(x) * bp + abs(y) * bi, abs(u) * bp + abs(v) * bi)
        if max(grown) > _INT64_SAFE:
            a, bound = a.astype(object), None
            piv, row = a[p, c:end], a[i, c:end]
        else:
            bound[p], bound[i] = grown
    if y:
        a[p, c:end], a[i, c:end] = x * piv + y * row, u * piv + v * row
    else:
        row += u * piv
    return a, bound


def _clear_first_column(a):
    """Clear a[1:, 0] against the pivot a[0, 0] by ``_two_row_step``;
    returns the array, promoted if a step needed it."""
    below = a[1:, 0].nonzero()[0]
    if below.size:
        bound = _row_bounds(a)
        for i in (below + 1).tolist():
            a, bound = _two_row_step(a, bound, 0, i, 0)
    return a


def _smith_diagonal(a):
    """Nonzero Smith diagonal of a 2-D int64 or object array, worked in
    place.

    The pivot is the smallest nonzero |entry|, the first in row-major
    order, moved to the corner and made positive.  Its column and then its
    row are cleared by ``_two_row_step``, on the rows and then on the
    transpose view, until both stay clear (a gcd step on one dirties the
    other, but strictly divides the pivot, so this ends).  If the pivot
    does not divide some entry of the block below and right of it, the
    first row holding one is added to the pivot row and the clearing
    resumes; otherwise the pivot is final and the block is reduced next.
    The pivots come out in divisibility order.
    """
    diag = []
    while a.size:
        r, c = a.nonzero()
        if not r.size:
            break
        k = int(np.abs(a[r, c]).argmin())
        r, c = int(r[k]), int(c[k])
        if r:
            a[[0, r]] = a[[r, 0]]
        if c:
            a[:, [0, c]] = a[:, [c, 0]]
        if a[0, 0] < 0:
            a[0] = -a[0]
        while True:
            a = _clear_first_column(a)
            a = _clear_first_column(a.T).T
            if np.count_nonzero(a[1:, 0]):
                continue
            p = int(a[0, 0])
            if p == 1 or a.shape[0] == 1 or a.shape[1] == 1:
                break
            offends = (a[1:, 1:] % p != 0).any(axis=1)
            if not offends.any():
                break
            a, _ = _two_row_step(a, _row_bounds(a), 0,
                                 1 + int(offends.argmax()), 0, (1, 1, 0, 1))
        diag.append(int(a[0, 0]))
        a = a[1:, 1:]
    return diag


# ---------------------------------------------------------------------------
# Homology of complexes


def check_composition(d_in: IntMatrix, d_out: IntMatrix) -> None:
    """Raise ValueError unless d_in maps into the free module d_out maps
    out of and d_out . d_in = 0."""
    if d_out.ncols != d_in.nrows:
        raise ValueError("chain position mismatch")
    if not d_out.matmul(d_in).is_zero:
        raise ValueError("composition d_out . d_in is nonzero")


def homology_at(d_in: IntMatrix, d_out: IntMatrix) -> AbelianGroup:
    """ker(d_out)/im(d_in) at a position of free modules.

    d_in maps into Z^c, d_out maps out of Z^c.  The composition is checked.
    Rank is c - rank(d_out) - rank(d_in), so both are eliminated over Z;
    torsion equals the nontrivial invariant factors of d_in, since
    ker(d_out) is a direct summand containing im(d_in) and Z^c / ker(d_out)
    is free.  A caller that knows the group is finite needs only that
    torsion (see ``cohomology``).
    """
    check_composition(d_in, d_out)
    sf = smith_normal_form(d_in)
    free = d_in.nrows - rank(d_out) - sf.rank
    return AbelianGroup.from_cyclic_orders(
        [0] * free + list(sf.nontrivial))


# ---------------------------------------------------------------------------
# Mod-2 interface


def mod2_rank(m: IntMatrix) -> int:
    """Rank over GF(2), memoised on m: ``gf2.rank`` of its column masks,
    which read Python-int values exactly.  A (co)homology count ranks its
    cuts through ``Resolution.mod2_coboundary_rank`` instead, which
    passes over the columns the degree below pins.
    """
    if m._rank2 is None:
        m._rank2 = kernels.gf2.rank(m.mod2_column_masks())
    return m._rank2


# ---------------------------------------------------------------------------
# Lattice echelon


def _lattice_array(m: IntMatrix, cols, width):
    """Array whose row k holds column cols[k] of m, zero-padded to
    ``width``; cols must include every column holding an entry.  It has
    m's value dtype: int64 when every entry is within ``_INT64_SAFE``,
    Python ints (dtype=object) otherwise."""
    rows, mcols, vals = m.arrays
    a = np.zeros((len(cols), width), dtype=vals.dtype)
    if m.nnz:
        where = np.zeros(m.ncols, dtype=np.int64)
        where[cols] = np.arange(len(cols))
        a[where[mcols], rows] = vals
    return a


def _echelon(a, ends=None):
    """Row-echelon the rows of a 2-D integer array in order by unimodular
    row operations; returns (array, {pivot column: row index}).

    Each row in turn is reduced at its leading nonzero column c against
    the pivot row p already holding c, which leaves a gcd of p[c] and
    row[c] in the pivot row and 0 in the row.  A row whose leading column
    holds no pivot yet becomes its pivot; a row that vanishes stays zero.

    A step reads and writes only the live window of its two rows: columns
    c to e, e the larger of the two rows' ends.  Row k is zero from
    ``ends[k]`` on (from the last column by default), and a row's end
    grows to e when a step writes it.  Each pivot value is carried beside
    its row, not read back.  A step that subtracts a multiple of the pivot
    row under a passing carried bound runs in place; a gcd step, a failing
    bound and an object array go through ``_two_row_step``.  The array is
    worked in int64 under the carried row bounds and promoted to Python
    ints (dtype=object) once one fails, so the answer never depends on
    which arithmetic ran.
    """
    bound = _row_bounds(a)
    ends = [a.shape[1]] * a.shape[0] if ends is None else list(ends)
    pivots = {}         # pivot column: (row, pivot value)
    for i in range(a.shape[0]):
        c, e = 0, ends[i]
        while c < e:
            t = a.item(i, c)
            if not t:
                c += int((a[i, c:e] != 0).argmax())
                t = a.item(i, c)
                if not t:
                    break
            if c not in pivots:
                pivots[c] = i, t
                ends[i] = e
                break
            p, s = pivots[c]
            e = max(e, ends[p])
            q, r = divmod(t, s)
            if r or bound is None or \
                    abs(q) * bound[p] + bound[i] > _INT64_SAFE:
                if r:
                    g, x, y = _gcdex(s, t)
                    pair = x, y, -(t // g), s // g
                    pivots[c] = p, g
                    ends[p] = e
                else:
                    pair = 1, 0, -q, 1
                a, bound = _two_row_step(a, bound, p, i, c, pair, e)
            else:
                bound[i] += abs(q) * bound[p]
                row, piv = a[i, c:e], a[p, c:e]
                if q == 1:
                    row -= piv
                elif q == -1:
                    row += piv
                else:
                    row -= q * piv
            c += 1
    return a, {c: p for c, (p, _) in pivots.items()}


def integer_kernel(m: IntMatrix) -> list[list[int]]:
    """Saturated basis of the integral kernel of m, as coordinate vectors
    of length m.ncols; suitable for tall sparse matrices.  Row-echelons
    [m^T | I] with ``_echelon``.  Row k, column k of m with its identity
    1 at m.nrows + k, ends at that 1, so each step on row k reads and
    writes only the live window from its pivot column through column
    m.nrows + k, never the identity columns right of it: the cost is the
    sum of the steps' window widths, at most m.nrows + k + 1 for a step
    on row k.  The kernel is the rows whose pivot lies in the identity
    part.  The array holds m.ncols x (m.nrows + m.ncols) cells, 8 bytes
    each in int64, so callers bound that product."""
    n = m.ncols
    a = _lattice_array(m, np.arange(n), m.nrows + n)
    a[np.arange(n), m.nrows + np.arange(n)] = 1
    a, pivots = _echelon(a, range(m.nrows + 1, m.nrows + n + 1))
    free = sorted(p for c, p in pivots.items() if c >= m.nrows)
    return a[free, m.nrows:].tolist()


class ColumnLattice:
    """Membership tests against the lattice spanned by a matrix's columns,
    via a one-time row echelon (``_echelon``) of the transpose."""

    def __init__(self, m: IntMatrix):
        self.nrows = m.nrows
        # the nonempty columns, in order (not np.unique, which imports
        # numpy.ma on its first call)
        used = np.zeros(m.ncols, dtype=bool)
        used[m.arrays[1]] = True
        a, pivots = _echelon(
            _lattice_array(m, np.flatnonzero(used), m.nrows))
        # (pivot column, pivot, the row's nonzero (column, value) pairs)
        self._pivot_rows = []
        for c in sorted(pivots):
            row = a[pivots[c]]
            nz = np.flatnonzero(row)
            self._pivot_rows.append(
                (c, int(row[c]), list(zip(nz.tolist(), row[nz].tolist()))))

    def reduce(self, vec):
        """Remainder of vec after integral reduction by the lattice."""
        vec = list(vec)
        for c, v, entries in self._pivot_rows:
            if vec[c]:
                if vec[c] % v:
                    break
                q = vec[c] // v
                for cc, rv in entries:
                    vec[cc] -= q * rv
        return vec

    def contains(self, vec):
        return not any(self.reduce(vec))
