"""Shared test oracles, independent of the library's own linear algebra.

The Smith-form oracle runs on sympy.  The homology oracle does its own
extended-gcd integer elimination and enumerates the subquotient element by
element, so agreement with the library is a genuinely two-route check.
``record_composition_checks`` is a spy on the (co)homology dispatch.
``reference_echelon`` is the lattice echelon done plainly, full width,
for comparing with ``linalg._echelon`` step for step.
"""

import itertools
import math

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from u4class import linalg
from u4class.linalg import AbelianGroup, IntMatrix


def bar_rows_starting_with(res, module, n, firsts):
    """The rows of the bar delta^n at the degree-(n + 1) tuples [s|...],
    s in the ascending ``firsts``, one block of (|G|-1)^n tuples per s,
    assembled from ``boundary(n + 1, firsts)`` as
    ``BarResolution.cocycle_rows`` assembles its own generator blocks."""
    return res._hom_matrix(res.boundary(n + 1, firsts), module,
                           len(firsts) * res.rank(n), res.rank(n))


def to_sympy(m: IntMatrix) -> sympy.Matrix:
    return sympy.Matrix(m.to_dense()) if m.nrows and m.ncols else \
        sympy.zeros(m.nrows, m.ncols)


def oracle_invariant_factors(m: IntMatrix):
    """Nonzero diagonal of the Smith form, via sympy."""
    if m.nrows == 0 or m.ncols == 0:
        return []
    d = sympy_snf(to_sympy(m), domain=sympy.ZZ)
    out = []
    for i in range(min(m.nrows, m.ncols)):
        v = abs(int(d[i, i]))
        if v:
            out.append(v)
    out.sort()
    return out


def _combine_rows(r1, r2, col):
    """Unimodular 2-row combination making r2[col] = 0."""
    a, b = r1[col], r2[col]
    x, y, g = sympy.gcdex(a, b)  # a*x + b*y = g
    g, x, y = int(g), int(x), int(y)
    n1 = [x * p + y * q for p, q in zip(r1, r2)]
    n2 = [(b // g) * p - (a // g) * q for p, q in zip(r1, r2)]
    return n1, n2


def saturated_kernel_basis(a_dense, nrows, ncols):
    """Basis of {x in Z^ncols : A x = 0} (automatically saturated).

    Row-reduces [A^T | I] by unimodular operations; rows whose A^T part
    vanishes carry a kernel basis in their identity part.
    """
    rows = []
    for j in range(ncols):
        left = [a_dense[i][j] for i in range(nrows)]
        right = [int(t == j) for t in range(ncols)]
        rows.append(left + right)
    pivot_rows = []
    for col in range(nrows):
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            n1, n2 = _combine_rows(live[0], live[1], col)
            rows[rows.index(live[0])] = n1
            rows[rows.index(live[1])] = n2
            live = [r for r in rows if r[col]]
        if live:
            pivot_rows.append(live[0])
            rows.remove(live[0])
    return [r[nrows:] for r in rows]


def _lower_triangular_basis(cols, k):
    """Lower-triangular positive-diagonal basis of a full-rank lattice."""
    work = [list(c) for c in cols]
    basis = []
    for i in range(k):
        live = [c for c in work if c[i]]
        while len(live) > 1:
            n1, n2 = _combine_rows(live[0], live[1], i)
            work[work.index(live[0])] = n1
            work[work.index(live[1])] = n2
            live = [c for c in work if c[i]]
        if not live:
            raise ValueError("oracle needs a finite quotient")
        piv = live[0]
        if piv[i] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        work.remove(live[0])
    return basis


def oracle_homology(d_in: IntMatrix, d_out: IntMatrix) -> dict:
    """ker(d_out)/im(d_in) as a dict of element-order counts.

    Only valid when the quotient is finite and of order <= ~10^5.
    """
    c = d_in.nrows
    kb = saturated_kernel_basis(d_out.to_dense(), d_out.nrows, c)
    k = len(kb)
    if k == 0:
        return {1: 1}
    # express image columns in the kernel basis (exact rational solve,
    # integrality is guaranteed by saturation and asserted)
    kmat = sympy.Matrix([[kb[j][i] for j in range(k)] for i in range(c)])
    coords = []
    for col in d_in.transpose().to_dense():
        sol = (kmat.T * kmat).solve(kmat.T * sympy.Matrix(col))
        assert kmat * sol == sympy.Matrix(col), "image outside kernel"
        vals = [sympy.Rational(x) for x in sol]
        assert all(x.q == 1 for x in vals), "non-integral kernel coordinates"
        coords.append([int(x) for x in vals])
    if not coords:
        raise ValueError("oracle needs a finite quotient")
    basis = _lower_triangular_basis(coords, k)
    diag = [basis[i][i] for i in range(k)]
    if math.prod(diag) > 100000:
        raise ValueError("oracle quotient too large")

    def reduce_vec(v):
        v = list(v)
        for i in range(k):
            q = v[i] // diag[i]
            if q:
                for t in range(i, k):
                    v[t] -= q * basis[i][t]
        return tuple(v)

    # canonical representatives fill the box given by the diagonal
    reps = [()]
    for d in diag:
        reps = [r + (x,) for r in reps for x in range(d)]
    zero = tuple([0] * k)
    counts = {}
    for el in reps:
        acc = el
        o = 1
        while acc != zero:
            acc = reduce_vec([a + b for a, b in zip(acc, el)])
            o += 1
        counts[o] = counts.get(o, 0) + 1
    return counts


def group_counts(g: AbelianGroup) -> dict:
    """How many elements of the finite group g have each order; an
    isomorphism invariant that determines finite abelian groups."""
    counts = {}
    for el in itertools.product(*(range(d) for d in g.torsion)):
        o = 1
        for x, d in zip(el, g.torsion):
            o = math.lcm(o, d // math.gcd(d, x))
        counts[o] = counts.get(o, 0) + 1
    return counts


def random_unimodular(rng, n, steps=12):
    """Random unimodular matrix as a product of elementary operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for t in range(n):
            m[i][t] += q * m[j][t]
    return m


def record_composition_checks(monkeypatch):
    """The list of (d_in, d_out) pairs, one per call, that ``cohomology``
    and ``homology`` check above degree 0, filled as they run."""
    from u4class import cohomology
    pairs, check = [], cohomology.check_composition

    def checking(d_in, d_out):
        pairs.append((d_in, d_out))
        return check(d_in, d_out)

    monkeypatch.setattr(cohomology, "check_composition", checking)
    return pairs


def _gcdex(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0, by the extended
    Euclidean algorithm, signs fixed at the end."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def reference_echelon(a):
    """Row echelon of a copy of the 2-D integer array a, as
    ``linalg._echelon`` runs it but with no windows and no carried pivot
    values; returns (array, {pivot column: row index}).

    Each row in turn is cleared at its leading column c against the pivot
    row p holding c: row -= (t // s) p when the pivot s = a[p, c] divides
    t = a[i, c], else (p, i) <- (x p + y i, (s/g) i - (t/g) p).  Both rows
    are rewritten from column c to the last.  An int64 array carries a
    bound on each row's largest |entry|; a step whose bounds would pass
    ``linalg._INT64_SAFE`` takes the two rows' true maxima instead, and if
    those fail too the array becomes Python ints (dtype=object) for good.
    """
    a = a.copy()
    safe = linalg._INT64_SAFE
    bound = None if a.dtype == object else \
        [max((abs(int(x)) for x in row), default=0) for row in a]
    pivots = {}
    for i in range(a.shape[0]):
        c = 0
        while True:
            c += int((a[i, c:] != 0).argmax())
            if not a[i, c]:
                break
            p = pivots.setdefault(c, i)
            if p == i:
                break
            s, t = int(a[p, c]), int(a[i, c])
            if t % s == 0:
                x, y, u, v = 1, 0, -(t // s), 1
            else:
                g, x, y = _gcdex(s, t)
                u, v = -(t // g), s // g
            if bound is not None:
                grown = (abs(x) * bound[p] + abs(y) * bound[i],
                         abs(u) * bound[p] + abs(v) * bound[i])
                if max(grown) > safe:
                    bp = max(abs(int(z)) for z in a[p])
                    bi = max(abs(int(z)) for z in a[i])
                    grown = (abs(x) * bp + abs(y) * bi,
                             abs(u) * bp + abs(v) * bi)
                if max(grown) > safe:
                    a, bound = a.astype(object), None
                else:
                    bound[p], bound[i] = grown
            piv, row = a[p, c:].copy(), a[i, c:].copy()
            a[p, c:] = x * piv + y * row
            a[i, c:] = u * piv + v * row
    return a, pivots
