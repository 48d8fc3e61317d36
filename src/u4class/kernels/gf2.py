"""GF(2) linear algebra on column vectors packed into Python integers.

Bit i of a column integer is row i.  Arbitrary-size XOR on Python ints is
already implemented in C, so this module has no compiled twin.

The echelon pivots each column on its highest set bit, read in O(1) as
``vec.bit_length() - 1``; a lowest-bit pivot would cost a pass over the
whole width per lookup, and every reduction step clears the top bit, so
the vector being reduced also gets shorter as it goes.  No answer depends
on the pivot rule: the rank, the ``insert`` results, the kernel basis and
``coordinates`` are determined by the sequence of inserted columns alone.

A caller that knows a column lies in the span of the columns before it
may skip it (``Echelon.skip`` in its place): it keeps its place in the
combination bits but is neither reduced nor given a kernel vector.
Since a dependent column stores nothing, the rank, pivots, stored
columns, combinations and ``coordinates`` are those of inserting it, and
the kernel is the full kernel less the skipped columns' vectors.
Skipping a column that is not dependent is the caller's error, and is
not detected.  A rank alone needs no combinations: ``pivots`` returns
the highest bits of an echelon, one per dimension of the span, passing
over a given set of columns, and ``rank`` counts them.

Skip lemma, in order form.  Let delta' and delta be GF(2) matrices with
delta delta' = 0, so the rows of delta' are the coordinates that the
columns of delta are indexed by.  Let delta'_R keep the rows of delta' in
a set R of those coordinates, and P be the highest bits of an echelon of
delta'_R.  Order the columns of delta with every coordinate outside R
first, then those in R in the order of the rows of delta'_R.  Then each
column p in P is the sum of columns before it: the column space of
delta'_R is the R-part of im delta', so some b in im delta' has an R-part
whose top bit is p, and delta b = 0 makes column p the sum of the other
columns in b's support, each outside R or in R below p.  By induction
along the order, the columns outside P span what all the columns span.
That span, so its rank and its set of highest bits, does not depend on
the order the columns are reduced in: a rank may skip P and reduce the
rest in their own order.  |P| is the rank of delta'_R.  The relation
holds on any rows of delta, so delta may be cut to some of its rows too.
With R every coordinate the order is the natural one, so each p in P
lies in the span of the columns before it, as ``Echelon.skip`` asks, and
P is the pivot set of delta' (``cohomology.BarMod2Complex``).  With R the
rows of a generator cut, P is the pivot set of that cut, and only the
rank is read (``resolutions.Resolution.mod2_coboundary_rank``).
"""

__all__ = ["Echelon", "pivots", "rank", "kernel"]


class Echelon:
    """Incremental column echelon form with combination tracking.

    Columns are added in order; ``combos[j]`` records, as a bitmask over the
    inserted columns, which input columns sum to pivot column j.  Kernel
    vectors come out in insertion (lexicographic) order, which keeps every
    downstream basis choice reproducible.

    Each stored column is keyed by its highest set bit.  The outputs do not
    depend on that choice: a column enlarges the span exactly when it is
    independent of the columns before it, the kernel vector of a dependent
    column j is the unique sum of e_j and earlier independent columns, and
    a vector in the span has unique coordinates in the independent columns.

    A column known to be dependent may be skipped (``skip``): the echelon
    is then that of inserting it, less its kernel vector.
    """

    def __init__(self, columns=()):
        self.pivots = {}  # highest set bit -> index into self.cols
        self.cols = []
        self.combos = []
        self.kernel = []
        self.ninserted = 0
        for c in columns:
            self.insert(c)

    def _reduce(self, vec, combo):
        pivots, cols, combos = self.pivots, self.cols, self.combos
        while vec:
            k = pivots.get(vec.bit_length() - 1)
            if k is None:
                break
            vec ^= cols[k]
            combo ^= combos[k]
        return vec, combo

    def insert(self, vec):
        """Add one column; returns True if it enlarged the span."""
        combo = 1 << self.ninserted
        self.ninserted += 1
        vec, combo = self._reduce(vec, combo)
        if vec:
            self.pivots[vec.bit_length() - 1] = len(self.cols)
            self.cols.append(vec)
            self.combos.append(combo)
            return True
        self.kernel.append(combo)
        return False

    def skip(self):
        """Take the place of a column known to lie in the span of the
        columns before it: its combination bit is used, and nothing else
        changes, so its kernel vector is left out.  Not checked."""
        self.ninserted += 1

    @property
    def rank(self):
        return len(self.cols)

    def coordinates(self, vec):
        """Combination of inserted columns equal to vec, or None."""
        vec, combo = self._reduce(vec, 0)
        return None if vec else combo


def pivots(columns, skip=()):
    """The highest bits of an echelon of ``columns``, one bit per
    dimension of their span, so a set whose size is their rank and which
    depends on the span alone.  The columns whose index is in ``skip`` are
    passed over: together they must add nothing to the span of the
    others (the skip lemma above), which is not checked.  No combination
    is tracked."""
    tops = {}   # highest set bit -> the reduced column keyed by it
    for j, vec in enumerate(columns):
        if j in skip:
            continue
        while vec:
            top = vec.bit_length() - 1
            other = tops.get(top)
            if other is None:
                tops[top] = vec
                break
            vec ^= other
    return set(tops)


def rank(columns):
    return len(pivots(columns))


def kernel(columns):
    """Kernel of the matrix with the given columns.

    Returns combination bitmasks (bit j = column j), first-lexicographic
    basis in column order.
    """
    return Echelon(columns).kernel
