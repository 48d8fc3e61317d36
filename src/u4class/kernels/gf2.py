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
not detected.
"""

__all__ = ["Echelon", "rank", "kernel"]


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


def rank(columns):
    return Echelon(columns).rank


def kernel(columns):
    """Kernel of the matrix with the given columns.

    Returns combination bitmasks (bit j = column j), first-lexicographic
    basis in column order.
    """
    return Echelon(columns).kernel
