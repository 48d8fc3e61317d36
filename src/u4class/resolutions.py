"""Truncated free resolutions of the trivial module over the group ring.

Four constructions: the normalized bar resolution (any group), the
2-periodic resolution (cyclic groups), tensor products of resolutions
(direct products), and a resolution relabeled along a group isomorphism
(abelian groups without product structure, onto a tensor resolution of
their cyclic factors).  All but the bar one keep abelian and
direct-product groups of order up to ~100 inside the feasibility bound
that the bar resolution would blow.

Each construction gives its boundaries in one array form (see
``Resolution``) and counts them in closed form (``face_count``), so
matrix assembly refuses an oversized matrix before any face is built;
the bar resolution computes its own faces, so it stays an independent
check on the others.  ``Resolution`` alone turns that form into
coboundary matrices for any module, reads a chain matrix as the
transposed coboundary of the dual action, and checks d d = 0.  Only
``BarResolution`` knows how its tuples are numbered, and with it the cut
of a coboundary to the rows that cut out its kernel, those of the tuples
that start with a generator (``BarResolution.cocycle_rows``).  GF(2)
ranks of the cuts form one chain, each degree passing over the columns
that the echelon one degree down pins (``mod2_coboundary_rank``).
"""

from __future__ import annotations

import os
from functools import cached_property

import numpy as np

from .errors import FeasibilityError
from .groups import FiniteGroup
from .kernels import gf2
from .linalg import (_INT64_SAFE, IntMatrix, _array_max_abs,
                     _sorted_join)
from .modules import GModule

__all__ = [
    "FeasibilityError",
    "Resolution",
    "BarResolution",
    "PeriodicResolution",
    "TensorResolution",
    "RelabeledResolution",
    "default_resolution",
    "max_generators",
]

_ENV_BOUND = "U4CLASS_MAX_GENERATORS"
_DEFAULT_BOUND = 10**6
# Matrix assembly refuses more than this many entries (boundary entries
# times ngens^2) per generator of the bound.  The generator count alone
# lets bar D5 through to degree 6, whose 3.4M-entry chain matrix the
# elimination grows past memory; the largest matrix the tests assemble
# has 1.3M entries (bar C10 with a rank-2 module).
_ENTRIES_PER_GENERATOR = 2
# bytes of one entry's int64 (row, column, value) triplet: GF(2) column
# masks may take as many bytes as the triplets of the largest matrix
# assembly allows (48 MB at the default bound)
_TRIPLET_BYTES = 24


def max_generators() -> int:
    value = os.environ.get(_ENV_BOUND)
    return int(value) if value else _DEFAULT_BOUND


class Resolution:
    """Truncated free resolution: modules F_0..F_{N+1} over Z[G] with
    boundaries d_n: F_n -> F_{n-1} for 1 <= n <= N+1.

    boundary(n) gives d_n as four int64 arrays of equal length: row
    generator of F_{n-1}, column generator of F_n, group element and
    coefficient.  Column generator c maps to the sum of coefficient *
    element * (row generator) over its entries; repeated (row, column,
    element) triples add up.  Every matrix over a module is assembled from
    these arrays by ``_hom_matrix``.
    """

    def __init__(self, group: FiniteGroup, degree: int, ranks):
        self.group = group
        self.degree = degree
        self.ranks = ranks
        # coboundary matrices memoised by coboundary_matrix, the bar
        # resolution's cuts by cocycle_rows, and the GF(2) (rank, pins)
        # of each cut by mod2_coboundary_rank
        self._cob_cache = {}

    def rank(self, n):
        return self.ranks[n] if 0 <= n <= self.degree + 1 else 0

    def boundary(self, n):
        raise NotImplementedError

    # -- matrix assembly ----------------------------------------------------

    def coboundary_matrix(self, module: GModule, n) -> IntMatrix:
        """delta^n: Hom(F_n, M) -> Hom(F_{n+1}, M) as an integer matrix on
        generator coordinates (relations are the caller's concern).

        The matrix depends on the module only through its action, so it
        is memoised per (module.actions, n): Z and Z/2 share one matrix,
        and ``chain_matrix`` reads the same memo under the dual's actions,
        which for Z, Z_w, Z/2 and Z[G] are their own.  Every row is
        assembled.  A Z/2 (co)homology count ranks ``cocycle_rows``
        instead (``mod2_coboundary_rank``), and integer torsion over a
        free module reads its Smith form; on the bar resolution that is a
        cut with a slot of its own, which Z and Z/2 share as well."""
        if n < 0:
            return IntMatrix.zeros(self.rank(0) * module.ngens, 0)
        cache = self._cob_cache
        key = (module.actions, n)
        if key not in cache:
            cache[key] = self._hom_matrix(
                self._bounded_boundary(n + 1, module), module,
                self.rank(n + 1), self.rank(n))
        return cache[key]

    def cocycle_rows(self, module: GModule, n) -> IntMatrix:
        """Rows of delta^n with the kernel of delta^n, over any
        coefficients, so with its rank over any field too, and, when the
        module's action is a homomorphism, with its row lattice over Z, so
        its Smith diagonal less zeros: all of them (``coboundary_matrix``)
        unless a resolution knows a cut.  Its rows are the coordinates of
        delta^(n + 1)'s columns that a GF(2) rank of delta^(n + 1) may
        pass over by its pins (``mod2_coboundary_rank``)."""
        return self.coboundary_matrix(module, n)

    def chain_matrix(self, module: GModule, n) -> IntMatrix:
        """d_n tensored with M: (M x F_n)_G -> (M x F_{n-1})_G, read as the
        transpose of delta^(n-1) over ``module.dual()``.  A face
        (r, c, g, v) adds v A_(g^-1) to block (r, c) of d_n x M, and
        v A_(g^-1)^T, the dual action of g, to block (c, r) of the dual's
        coboundary; so the two are transposes, with the same entry bound
        and, over a field, the same rank."""
        return self.coboundary_matrix(module.dual(), n - 1).transpose()

    def face_count(self, n):
        """len(boundary(n)), counted without building the arrays."""
        raise NotImplementedError

    def _bounded_boundary(self, n, module):
        """boundary(n) once the matrix it assembles to, ngens^2 entries per
        face, is within _ENTRIES_PER_GENERATOR entries per generator of
        the bound; else FeasibilityError before any face is built."""
        self._check_entries(self.face_count(n), module)
        return self.boundary(n)

    def _check_entries(self, nfaces, module):
        entries = nfaces * module.ngens ** 2
        limit = _ENTRIES_PER_GENERATOR * max_generators()
        if entries > limit:
            raise FeasibilityError(
                f"a {self.group.name} matrix of {entries} entries exceeds "
                f"the bound {limit} ({_ENTRIES_PER_GENERATOR} entries per "
                f"allowed generator; set {_ENV_BOUND} to raise it)")

    def check_mask_bytes(self, m: IntMatrix) -> IntMatrix:
        """m, once its GF(2) column masks (``IntMatrix.mod2_column_masks``,
        a bit per cell) fit in the bytes that the entry bound allows the
        int64 triplets of an assembled matrix; else FeasibilityError
        before any mask is built."""
        self._check_mask_shape(m.nrows, m.ncols)
        return m

    def mod2_cocycle_rows(self, module: GModule, n) -> IntMatrix:
        """``cocycle_rows(module, n)`` for a count over GF(2), refused
        from its shape before it is assembled: past the entry bound first,
        then when its column masks would pass the mask bound
        (``check_mask_bytes``).  ``mod2_coboundary_rank`` calls it before
        it ranks any lower degree, so a refused cut builds none."""
        if n >= 0:
            row_gens, nfaces = self._cut_size(n)
            self._check_entries(nfaces, module)
            k = module.ngens
            self._check_mask_shape(row_gens * k, self.rank(n) * k)
        return self.cocycle_rows(module, n)

    def _cut_size(self, n):
        """Row generators and faces of ``cocycle_rows(., n)``, n >= 0,
        counted without building it: all of delta^n here."""
        return self.rank(n + 1), self.face_count(n + 1)

    def mod2_coboundary_rank(self, module: GModule, n) -> int:
        """Rank of delta^n over GF(2), for a module whose action is a
        homomorphism modulo 2, read off ``mod2_cocycle_rows(module, n)``,
        so refused from that cut's shape before any lower cut is built.
        The ranks form one chain: the cut of delta^n is reduced once,
        passing over the columns that the echelon of the cut of
        delta^(n-1) pins, its highest bits read as columns of delta^n
        (``_cut_rows_as_columns``); they add nothing to the span (the skip
        lemma in ``kernels.gf2``, with R the rows of that cut).  Each
        degree's (rank, pins) is memoised in ``_cob_cache`` per
        (module.actions, n, "gf2"), beside the cut."""
        return self._mod2_echelon(module, n)[0]

    def _mod2_echelon(self, module, n):
        if n < 0:
            return 0, frozenset()
        cache = self._cob_cache
        key = (module.actions, n, "gf2")
        if key not in cache:
            cut = self.mod2_cocycle_rows(module, n)
            pinned = self._cut_rows_as_columns(
                self._mod2_echelon(module, n - 1)[1], n - 1, module.ngens)
            pins = gf2.pivots(cut.mod2_column_masks(), pinned)
            cache[key] = (len(pins), pins)
        return cache[key]

    def _cut_rows_as_columns(self, rows, n, k):
        """Rows of ``cocycle_rows(., n)`` over k generators, as the columns
        of delta^(n + 1) of the same generators: the same numbers when the
        cut keeps every row."""
        return rows

    def _check_mask_shape(self, nrows, ncols):
        nbytes = ncols * ((nrows + 7) // 8)
        limit = _TRIPLET_BYTES * _ENTRIES_PER_GENERATOR * max_generators()
        if nbytes > limit:
            raise FeasibilityError(
                f"the GF(2) column masks of a {self.group.name} matrix "
                f"({nrows} x {ncols}) take {nbytes} bytes, past the "
                f"bound {limit} ({_TRIPLET_BYTES} bytes per allowed entry; "
                f"set {_ENV_BOUND} to raise it)")

    def _hom_matrix(self, faces, module, nrow_gens, ncol_gens):
        """The coboundary matrix of ``faces``, the four arrays of a
        ``boundary``, over ``module``.  Face (row r, column c, element g,
        coefficient v) adds v times the action matrix of g to the
        ngens x ngens block (c, r).  Chain matrices are coboundaries of
        the dual action, transposed (``chain_matrix``).

        Each face array is dropped once read, so a caller that passes a
        ``boundary`` it does not keep lets the assembly peak at a few
        arrays of the face count: the block rows and columns reach the
        canonicaliser as broadcast views.  The faces are runs sorted by
        block row, one per face of a tuple on the bar resolution, which
        the canonicaliser's stable sort merges."""
        # a boundary's column generator is a coboundary's row, and back
        cols, rows, elems, coeffs = faces
        del faces
        k = module.ngens
        acts = np.array(module.actions).reshape(self.group.order, k, k)
        if acts.dtype != np.int64 or \
                _array_max_abs(coeffs) * _array_max_abs(acts) > _INT64_SAFE:
            acts, coeffs = acts.astype(object), coeffs.astype(object)
        vals = acts[elems]
        del elems
        vals *= coeffs[:, None, None]
        del coeffs
        i = np.arange(k, dtype=np.int64)
        block_rows = np.broadcast_to(rows[:, None, None] * k + i[:, None],
                                     vals.shape)
        del rows
        block_cols = np.broadcast_to(cols[:, None, None] * k + i,
                                     vals.shape)
        del cols
        return IntMatrix(nrow_gens * k, ncol_gens * k, block_rows,
                         block_cols, vals)

    # -- verification -------------------------------------------------------

    def verify(self):
        """Check d d = 0 in all available degrees and the augmentation."""
        for n in range(2, self.degree + 2):
            self._dd_check(n)
        # augmentation: eps(d_1 e) = 0 for every generator of F_1
        _, cols, _, coeffs = self.boundary(1)
        if not IntMatrix(1, self.rank(1), np.zeros_like(cols), cols,
                         coeffs).is_zero:
            raise ValueError("augmentation of d_1 is nonzero")
        if self.rank(0) < 1:
            raise ValueError("augmentation cannot surject")
        return True

    def _dd_check(self, n):
        """d_{n-1} d_n = 0 over the group ring: an entry (r1, c, g1, v1) of
        d_n and an entry (s, r1, g2, v2) of d_{n-1} give the term
        v1 v2 (g1 g2) at generator s of F_{n-2}, and all terms must
        cancel."""
        r1, c1, g1, v1 = self.boundary(n)
        r2, c2, g2, v2 = self.boundary(n - 1)
        order = np.argsort(c2, kind="stable")
        r2, c2, g2, v2 = r2[order], c2[order], g2[order], v2[order]
        outer, inner = _sorted_join(c2, r1)
        m = self.group.order
        elems = self.group.mul[g1[outer], g2[inner]]
        terms = IntMatrix(self.rank(n - 2) * m, self.rank(n),
                          r2[inner] * m + elems, c1[outer],
                          _exact_product(v1[outer], v2[inner]))
        if not terms.is_zero:
            raise ValueError(f"d_{n-1} d_{n} != 0")


def _exact_product(a, b):
    """Elementwise a * b, in Python ints when int64 could overflow."""
    if _array_max_abs(a) * _array_max_abs(b) > _INT64_SAFE:
        a, b = a.astype(object), b.astype(object)
    return a * b


# ---------------------------------------------------------------------------
# Periodic resolution for cyclic groups


class PeriodicResolution(Resolution):
    """All ranks 1; boundaries alternate t-1 and the norm element."""

    def __init__(self, group: FiniteGroup, degree: int):
        if not group.is_cyclic:
            raise ValueError(f"{group.name} is not cyclic")
        super().__init__(group, degree, [1] * (degree + 2))
        self.generator = group.cyclic_generator()

    def boundary(self, n):
        if not 1 <= n <= self.degree + 1:
            raise ValueError(f"no boundary in degree {n}")
        if n % 2 == 1:
            elems = np.array([self.generator, 0], dtype=np.int64)
            coeffs = np.array([1, -1], dtype=np.int64)
        else:
            # the norm element: every element of G, in index order
            elems = np.arange(self.group.order, dtype=np.int64)
            coeffs = np.ones(self.group.order, dtype=np.int64)
        zeros = np.zeros(len(elems), dtype=np.int64)
        return zeros, zeros, elems, coeffs

    def face_count(self, n):
        """t - 1 in odd degrees, the norm element in even ones."""
        return 2 if n % 2 else self.group.order


# ---------------------------------------------------------------------------
# Normalized bar resolution


class BarResolution(Resolution):
    """Normalized inhomogeneous bar resolution; rank (|G|-1)^n in degree n.

    Generators of F_n are the tuples [g_1|...|g_n] of nonidentity
    elements, numbered big-endian in base |G|-1 with digit g_i - 1.
    ``tuples`` and ``number`` own this numbering; cochain code reads and
    writes tuples through them.  ``boundary`` works on the digits of the
    numbers instead, without building the tuples, and the tests check its
    faces against ones built tuple by tuple through ``number``.
    """

    def __init__(self, group: FiniteGroup, degree: int):
        m = group.order
        total = sum((m - 1)**n for n in range(degree + 2))
        bound = max_generators()
        if total > bound:
            raise FeasibilityError(
                f"bar resolution of {group.name} to degree {degree} needs "
                f"{total} generators (bound {bound}; set {_ENV_BOUND} to "
                "raise it)")
        super().__init__(group, degree,
                         [(m - 1)**n for n in range(degree + 2)])

    def _place_values(self, n):
        return (self.group.order - 1) ** np.arange(n - 1, -1, -1,
                                                   dtype=np.int64)

    def tuples(self, n, index=None):
        """The tuples [g_1|...|g_n] of the degree-n generators numbered by
        ``index`` (all of them by default), one row of elements each."""
        if index is None:
            index = np.arange(self.rank(n), dtype=np.int64)
        index = np.asarray(index, dtype=np.int64)
        return index[:, None] // self._place_values(n) \
            % (self.group.order - 1) + 1

    def number(self, elements):
        """Generator numbers of tuples given as rows of nonidentity
        elements; the inverse of ``tuples``."""
        elements = np.asarray(elements, dtype=np.int64)
        return (elements - 1) @ self._place_values(elements.shape[-1])

    def face_count(self, n, firsts=None):
        """len(boundary(n, firsts)) in closed form.  Each tuple has n + 1
        faces less one per inner product g_i g_{i+1} that is the identity,
        and such a pair leaves g_{i+1} no choice.  Every first entry heads
        as many faces: with q = |G|-1, (n+1) q^(n-1) - (n-1) q^(n-2) each,
        so 2 q^n + (n-1)(q^n - q^(n-1)) for all q of them (the default)."""
        if firsts is None:
            firsts = range(1, self.group.order)
        return len(firsts) * ((n + 1) * self.rank(n - 1)
                              - (n - 1) * self.rank(n - 2))

    def cocycle_rows(self, module: GModule, n) -> IntMatrix:
        """The rows of delta^n that cut out its kernel: those of the tuples
        [s|...] with s in S = ``group.generating_set()``, one block of
        (|G|-1)^n rows per s, stacked in ascending order of s.  It is
        assembled from those tuples' faces alone (``boundary(n + 1, S)``),
        checked against the entry bound first, and memoised in
        ``_cob_cache`` per (module.actions, n, "cut"), beside the full
        matrix.  For a cyclic group S = (1,), the first block; for n < 0,
        the empty delta^-1 of ``Resolution``.

        Lemma (Brown, *Cohomology of Groups*, III.1).  Let S, a subset of
        G without 1, generate G.  A normalized cochain u = delta f
        vanishes iff it vanishes on every tuple [s|...] with s in S.

        Proof.  delta u = 0.  For a in S, b != 1 and a tuple t, the value
        of delta u on [a|b|t] is a u(b, t) - u(ab, t) + (terms whose first
        entry is a), where u(ab, t) = 0 when ab = 1 as u is normalized.
        If u vanishes on every [s|...], the last terms vanish and
        u(ab, t) = a u(b, t).  Every g != 1 is a word s_1...s_k in S (G is
        finite, so inverses are positive powers), and induction on k gives
        u(g, t) = s_1...s_(k-1) u(s_k, t) = 0.  Only delta delta = 0 and
        normalization were used, so the lemma holds over any coefficients
        and for any action.

        The same induction, read as an identity in f, writes each row
        block [g|t] of delta^n as an integer combination of the blocks
        [s_i|...], with the action matrices as coefficients, when the
        action is a homomorphism (A_ab = A_a A_b): so for any free module,
        while a presented one acts so only modulo its relations.  The cut
        then has the row lattice of delta^n, so its nonzero Smith
        diagonal, which integer (co)homology reads off it.  The greedy S
        puts every g outside S in the group generated by the s in S with
        s < g, so each of its rows is a combination of earlier rows of S
        blocks: between two generators as after the last.  The lower
        coboundaries need all their rows, since their columns span the
        coboundaries."""
        if n < 0:
            return super().cocycle_rows(module, n)
        cache = self._cob_cache
        key = (module.actions, n, "cut")
        if key not in cache:
            row_gens, nfaces = self._cut_size(n)
            self._check_entries(nfaces, module)
            cache[key] = self._hom_matrix(
                self.boundary(n + 1, self._firsts), module, row_gens,
                self.rank(n))
        return cache[key]

    @cached_property
    def _firsts(self):
        """S, chosen once: a count over GF(2) sizes the cut on every call,
        and the greedy choice walks closures of the group."""
        return self.group.generating_set()

    def _cut_size(self, n):
        """The |S| blocks of (|G|-1)^n rows and their faces."""
        return (len(self._firsts) * self.rank(n),
                self.face_count(n + 1, self._firsts))

    def _cut_rows_as_columns(self, rows, n, k):
        """Block b of the cut's rows, the (|G|-1)^n tuples [s|...] for the
        b-th s of S, is the range of delta^(n + 1)'s columns that s heads,
        shifted by (s - 1 - b) blocks."""
        block = self.rank(n) * k
        shifts = [(s - 1 - b) * block for b, s in enumerate(self._firsts)]
        if not any(shifts):
            return rows
        return {r + shifts[r // block] for r in rows}

    def boundary(self, n, firsts=None):
        """The faces of [g_1|...|g_n]: g_1 [g_2|...|g_n], then
        (-1)^i [...|g_i g_{i+1}|...] for 0 < i < n (dropped when the
        product is the identity), then (-1)^n [g_1|...|g_{n-1}].

        With ``firsts``, an ascending tuple of nonidentity elements (all
        of them by default), only the tuples with g_1 in firsts get faces,
        and column c is the c-th of them in numbering order: block b of
        (|G|-1)^(n-1) columns holds the tuples [firsts[b]|...].  For
        firsts = (1, ..., k) the columns are the tuples' own numbers.

        Each face's number comes from the digits of its tuple's number t
        (see the class docstring): the first face drops the first digit
        (t mod q^(n-1), q = |G|-1), the last drops the last (t div q), and
        face i merges digits i-1 and i into the one of g_i g_{i+1} through
        ``group.mul``.  The faces are written into four preallocated
        arrays as n + 1 runs, face 0 first, each in ascending column
        order."""
        if not 1 <= n <= self.degree + 1:
            raise ValueError(f"no boundary in degree {n}")
        q = self.group.order - 1
        lead = q ** (n - 1)              # place value of g_1's digit
        if firsts is None:
            firsts = range(1, q + 1)
        heads = np.asarray(firsts, dtype=np.int64) - 1
        col = np.arange(len(firsts) * lead, dtype=np.int64)
        # column c is the tuple [firsts[c div lead]|...]
        tup = (heads[:, None] * lead
               + np.arange(lead, dtype=np.int64)).ravel()
        # above[j]: the number of the first j digits, t div q^(n-j)
        above = [tup // q ** (n - j) for j in range(n)] + [tup]
        # products of nonidentity elements, by digit
        table = self.group.mul[1:, 1:]
        rows, cols, elems, coeffs = (
            np.empty(self.face_count(n, firsts), dtype=np.int64)
            for _ in range(4))
        stop = col.size
        rows[:stop] = tup - above[1] * lead
        elems[:stop] = above[1] + 1
        cols[:stop] = col
        coeffs[:stop] = 1
        elems[stop:] = 0
        for i in range(1, n):
            place = q ** (n - 1 - i)     # place value of digit i
            prod = table[above[i] - above[i - 1] * q,
                         above[i + 1] - above[i] * q]
            keep = np.flatnonzero(prod)
            start, stop = stop, stop + keep.size
            # digits 0..i-2, the product's digit, digits i+1..n-1
            rows[start:stop] = (
                (above[i - 1][keep] * q + prod[keep] - 1) * place
                + tup[keep] - above[i + 1][keep] * place)
            cols[start:stop] = keep
            coeffs[start:stop] = (-1) ** i
        rows[stop:] = above[n - 1]
        cols[stop:] = col
        coeffs[stop:] = (-1) ** n
        return rows, cols, elems, coeffs


# ---------------------------------------------------------------------------
# Tensor product of resolutions


class TensorResolution(Resolution):
    """Tensor of resolutions of the factors of a direct product group.

    Generators in degree n are triples (i, a, b) with a, b generators of the
    factor resolutions in degrees i and n-i; the boundary is
    d(x o y) = dx o y + (-1)^i x o dy with coefficients embedded along the
    product index (ga, gb) -> ga * |B| + gb.
    """

    def __init__(self, res_a: Resolution, res_b: Resolution,
                 group: FiniteGroup):
        if group.product_factors is None:
            raise ValueError("group was not built as a direct product")
        fa, fb = group.product_factors
        if fa.order != res_a.group.order or fb.order != res_b.group.order:
            raise ValueError("factor resolutions do not match the product")
        self.res_a = res_a
        self.res_b = res_b
        degree = min(res_a.degree, res_b.degree)
        # generator (i, a, b) of degree n sits at
        # offsets[n][i] + a * rank_B(n - i) + b
        self._offsets = []
        for n in range(degree + 2):
            sizes = [res_a.rank(i) * res_b.rank(n - i) for i in range(n + 1)]
            self._offsets.append(np.cumsum([0] + sizes).tolist())
        super().__init__(group, degree, [off[-1] for off in self._offsets])

    def boundary(self, n):
        """The faces dx o y then (-1)^i x o dy for i = 0..n, each factor
        face met by every generator of the other factor: a run of
        (face, generator) pairs per factor boundary.  The runs are written
        into four preallocated arrays of ``face_count(n)``, the run of the
        factor boundary with the most faces first, and that boundary is
        built before the arrays, so the peak is the output and one factor
        boundary."""
        if not 1 <= n <= self.degree + 1:
            raise ValueError(f"no boundary in degree {n}")
        res_a, res_b = self.res_a, self.res_b
        here, below = self._offsets[n], self._offsets[n - 1]
        nb = res_b.group.order
        # (faces of the factor boundary, dx o y or not, the factor, its
        # degree, degree i of x, generators of the other factor, start of
        # the run), in face order
        runs, stop = [], 0
        for i in range(n + 1):
            for dx, side, d, ngens in ((True, res_a, i, res_b.rank(n - i)),
                                       (False, res_b, n - i, res_a.rank(i))):
                if d >= 1:
                    nfaces = side.face_count(d)
                    runs.append((nfaces, dx, side, d, i, ngens, stop))
                    stop += nfaces * ngens
        runs.sort(key=lambda run: -run[0])
        faces = runs[0][2].boundary(runs[0][3])
        out = tuple(np.empty(stop, dtype=np.int64) for _ in range(4))
        for _, dx, side, d, i, ngens, start in runs:
            r, c, g, v = faces or side.boundary(d)
            faces = None
            # each product is written in place, with no temporary of the
            # run's size
            if dx:
                # dx o y: (i, a, b) -> (i - 1, a', b), element (ga, 0)
                rows, cols, elems, coeffs = (
                    arr[start:start + r.size * ngens].reshape(r.size, ngens)
                    for arr in out)
                b = np.arange(ngens)
                np.multiply(r[:, None], ngens, out=rows)
                rows += below[i - 1] + b
                np.multiply(c[:, None], ngens, out=cols)
                cols += here[i] + b
                np.multiply(g[:, None], nb, out=elems)
                coeffs[:] = v[:, None]
            else:
                # (-1)^i x o dy: (i, a, b) -> (i, a, b'), element (0, gb)
                rows, cols, elems, coeffs = (
                    arr[start:start + ngens * r.size].reshape(ngens, r.size)
                    for arr in out)
                a = np.arange(ngens)[:, None]
                rows[:] = r
                rows += below[i] + a * res_b.rank(d - 1)
                cols[:] = c
                cols += here[i] + a * res_b.rank(d)
                elems[:] = g
                np.multiply(v, (-1) ** i, out=coeffs)
            # freed before the next factor boundary is built
            del r, c, g, v
        return out

    def face_count(self, n):
        """dx o y and x o dy: each face of one factor in degree i meets
        every generator of the other in degree n - i."""
        a, b = self.res_a, self.res_b
        return sum(a.face_count(i) * b.rank(n - i)
                   + a.rank(n - i) * b.face_count(i) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# Transport along an isomorphism


class RelabeledResolution(Resolution):
    """A resolution transported along a group isomorphism.

    Boundaries of the inner resolution with every group element relabeled
    by the isomorphism; lets abelian groups without direct-product provenance
    (e.g. extracted subgroups) reuse periodic/tensor resolutions.
    """

    def __init__(self, inner: Resolution, group: FiniteGroup, iso):
        iso = np.asarray(iso, dtype=np.int64)
        if len(iso) != group.order or inner.group.order != group.order:
            raise ValueError("isomorphism table has the wrong size")
        if sorted(iso.tolist()) != list(range(group.order)) or iso[0] != 0:
            raise ValueError("relabeling is not a bijection fixing 0")
        if not np.array_equal(iso[inner.group.mul],
                              group.mul[np.ix_(iso, iso)]):
            raise ValueError("relabeling is not an isomorphism")
        super().__init__(group, inner.degree, list(inner.ranks))
        self.inner = inner
        self._iso = iso

    def boundary(self, n):
        rows, cols, elems, coeffs = self.inner.boundary(n)
        return rows, cols, self._iso[elems], coeffs

    def face_count(self, n):
        return self.inner.face_count(n)


def _abelian_tensor_resolution(group: FiniteGroup,
                               degree: int) -> Resolution:
    from .groups import abelian_cyclic_decomposition, cyclic_group
    gens, table = abelian_cyclic_decomposition(group)
    orders = [group.element_order(g) for g in gens]
    product = cyclic_group(orders[0])
    for o in orders[1:]:
        product = product.direct_product(cyclic_group(o))
    return RelabeledResolution(default_resolution(product, degree),
                               group, table)


# ---------------------------------------------------------------------------
# Resolution policy


def default_resolution(group: FiniteGroup, degree: int) -> Resolution:
    """Periodic for cyclic groups, tensor across direct products, a
    relabeled tensor resolution for other abelian groups, bar otherwise
    (subject to the feasibility bound)."""
    if group.is_cyclic:
        return PeriodicResolution(group, degree)
    if group.product_factors is not None:
        fa, fb = group.product_factors
        return TensorResolution(default_resolution(fa, degree),
                                default_resolution(fb, degree), group)
    if group.is_abelian:
        return _abelian_tensor_resolution(group, degree)
    return BarResolution(group, degree)
