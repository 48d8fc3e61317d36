"""Group cohomology and homology with module coefficients, the mod-2
cohomology ring with cup products, and inflation along surjections.

Free coefficients give a complex of free abelian groups; Z/2
coefficients (modulus 2 on every generator) give one of GF(2) vector
spaces.  Any other module M = Z^k / f Z^r is presented by its moduli:
the relation map f sends the j-th of the r generators with a modulus to
m_i e_i (see ``GModule``), so f is injective.  M runs through a mapping
cone (Weibel, *An Introduction to Homological Algebra*, 1.5):

- Write C_k^n = Hom(F_n, Z^k) and C_r^n = Hom(F_n, Z^r), and f: C_r -> C_k
  for the relation map on every generator.  As F_n is free,
  Hom(F_n, M) = C_k^n / f C_r^n.
- delta_k is the coboundary for the actions A_g on Z^k.  A_g preserves
  im f, so delta_r = f^-1 delta_k f follows by exact division from the
  matrices already held, and delta_k f = f delta_r.
- A is a homomorphism only modulo f, so delta_k delta_k need not vanish
  (for D5's q = 2 module, g acts by -4 and delta delta = [[15]]); its
  columns lie in im f, and h = -f^-1(delta_k^n delta_k^(n-1)) follows by
  exact division.  The homotopy h closes the cone.

H^n(G; M) is then the homology of the position of free modules

    C_k^(n-1) + C_r^n  --d_in-->  C_k^n + C_r^(n+1)  --d_out-->  C_k^(n+1)

    d_in = [[delta_k^(n-1), f^n], [h, -delta_r^n]]
    d_out = [delta_k^n | f^(n+1)]

A cycle (x, y) has y = -f^-1 delta_k x, so the cycles are the x whose
coboundary lies in im f, and the boundaries are im delta_k + im f: the
cocycles and coboundaries of Hom(F, M).  The full cone's next term also
has a C_r^(n+2) row; as f is injective it adds no condition and is left
out.  The check d_out d_in = 0 is the identity f h = -delta_k delta_k
together with delta_k f = f delta_r.  Homology runs the same way on the
chain matrices, with d_r = f^-1 d_k f and f_(n-1) going out.  A chain
matrix d_n x M is the transposed coboundary delta^(n-1) of the dual
action g -> A_(g^-1)^T (``GModule.dual``), and a Z/2 (co)homology count
ranks the generator cut of that coboundary (``Resolution.cocycle_rows``),
whose rank over GF(2) is the full one's.

At a position of free abelian groups, Z^c between d_in and d_out, the
homology has free rank c - rank(d_out) - rank(d_in) and torsion the
nontrivial invariant factors of d_in.  For n >= 1 and finitely generated
M, |G| kills H^n(G; M) and H_n(G; M) (Brown, *Cohomology of Groups*,
III.10.2), so the free rank is 0 and rank(d_out) = c - rank(d_in): the
group is the torsion of d_in alone, and d_out is formed only for the
composition check.  Degree 0, where M^G and M_G may have free rank,
eliminates both (``homology_at``).  For free coefficients that torsion is
read off the generator cut of d_in, delta^(n-1) or the dual's delta^n
(``Resolution.cocycle_rows``).  The action of a free module is a
homomorphism, so every row of the full matrix is an integer combination
of the cut's rows (the lemma there): the two have one row lattice, so one
nontrivial Smith diagonal.  A presented module acts as a homomorphism
only modulo f, so the lemma fails for it and its cone keeps the full d_in.

Cup products use the Alexander-Whitney diagonal on the normalized bar
complex.  Mod-2 cochains in degree n are stored as bit integers over the
(|G|-1)^n nonidentity tuples, so a cup product is a shifted OR and all
reductions go through the GF(2) echelon kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import AbelianGroup
from .groups import FiniteGroup, GroupHom
from .kernels import gf2
from .linalg import (IntMatrix, check_composition, homology_at, mod2_rank,
                     smith_normal_form)
from .modules import GModule, mod2_integers, trivial_integers
from .resolutions import (BarResolution, FeasibilityError, Resolution,
                          default_resolution, max_generators)

__all__ = ["cohomology", "homology", "mod2_ring", "inflation_map",
           "CohomologyRingSlice", "InflationMap", "mod2_dimensions"]


# ---------------------------------------------------------------------------
# Integer (co)homology with GModule coefficients


def _cone(module: GModule, d_in: IntMatrix, d_out: IntMatrix,
          rank_here: int, rank_next: int) -> tuple[IntMatrix, IntMatrix]:
    """The mapping cone's (d_in, d_out) at a presented position (see the
    module docstring).  d_in and d_out act on generators; the resolution
    has rank_here generators at this position and rank_next at the next.
    The lifted differential from here to the next is f^-1 (d_out f)."""
    p = module.relation_preimage(d_out.matmul(d_in))
    if p is None:
        raise ValueError("composition nonzero modulo relations")
    f_here = module.relation_map(rank_here)
    d_lift = module.relation_preimage(d_out.matmul(f_here))
    if d_lift is None:
        raise ValueError("action does not respect relations")
    top = d_in.hstack(f_here)
    low = p.hstack(d_lift)  # the row [h, -d_lift], negated
    rows, cols, vals = top.arrays
    low_rows, low_cols, low_vals = low.arrays
    cone_in = IntMatrix(top.nrows + low.nrows, top.ncols,
                        np.concatenate((rows, low_rows + top.nrows)),
                        np.concatenate((cols, low_cols)),
                        np.concatenate((vals, -low_vals)), canonical=True)
    return cone_in, d_out.hstack(module.relation_map(rank_next))


def cohomology(group: FiniteGroup, module: GModule, n: int,
               resolution: Resolution | None = None) -> AbelianGroup:
    """H^n(G; M) in invariant-factor form."""
    return _homology_in_degree(group, module, n, resolution, cochains=True)


def homology(group: FiniteGroup, module: GModule, n: int,
             resolution: Resolution | None = None) -> AbelianGroup:
    """H_n(G; M) in invariant-factor form."""
    return _homology_in_degree(group, module, n, resolution, cochains=False)


def _homology_in_degree(group, module, n, resolution, cochains):
    """Degree n of Hom_G(F, M) (cochains) or of F x_G M: the differential
    d_in into degree n comes from degree n - 1 (n + 1 for chains) and d_out
    goes to n + 1 (n - 1).  Mod-2 free modules take the GF(2) count
    dim - rank(out) - rank(in), every summand Z/2, on the
    ``Resolution.cocycle_rows`` of delta^n and delta^(n-1): each has the
    kernel, so the rank, of the full delta.  For chains they are those of
    the dual module, as d_(n+1) and d_n over M are the transposes of its
    delta^n and delta^(n-1) (``Resolution.chain_matrix``) and transposing
    keeps the rank.  Each is refused from its shape, past the entry bound
    or with column masks past the mask bound, before it is assembled
    (``Resolution.mod2_cocycle_rows``).  Free and presented modules, the
    latter through the mapping cone, give a position of free abelian
    groups.  In degree 0 that takes ``homology_at``.  Above it the group
    is finite (see the module docstring), so it is the torsion of d_in;
    d_out is only checked to compose to zero with it, and for a free
    module the torsion is the Smith form of the cut of d_in, the same
    matrix the mod-2 count ranks.  The resolution and the module must be
    over ``group``: the same object or an equal multiplication table."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    res = resolution if resolution is not None \
        else default_resolution(group, n)
    for over in (res.group, module.group):
        if over is not group and not np.array_equal(over.mul, group.mul):
            raise ValueError(f"resolution and module must be over "
                             f"{group.name}, not {over.name}")
    # the matrix from the degree-(n + 1) boundary, the larger, comes
    # first, so an oversized request is refused before the other is built
    coeffs = module if cochains else module.dual()
    if module.is_mod2_free:
        ranks = [mod2_rank(res.mod2_cocycle_rows(coeffs, m))
                 for m in (n, n - 1)]
        return AbelianGroup.from_cyclic_orders(
            [2] * (res.rank(n) * module.ngens - sum(ranks)))
    if cochains:
        d_out = res.coboundary_matrix(module, n)
        d_in = res.coboundary_matrix(module, n - 1)
    else:
        d_in = res.chain_matrix(module, n + 1)
        d_out = res.chain_matrix(module, n)
    if not module.is_free:
        d_in, d_out = _cone(module, d_in, d_out, res.rank(n),
                            res.rank(n + 1 if cochains else n - 1))
    if n == 0:
        return homology_at(d_in, d_out)
    check_composition(d_in, d_out)
    if module.is_free:
        # d_in is delta^(n-1), or the dual's delta^n transposed
        d_in = res.cocycle_rows(coeffs, n - 1 if cochains else n)
    return AbelianGroup.from_cyclic_orders(smith_normal_form(d_in).nontrivial)


# ---------------------------------------------------------------------------
# Mod-2 bar cochain complex


class BarMod2Complex:
    """Normalized bar cochains of a finite group over GF(2), as bit masks
    whose bit i is the value on the tuple numbered i by ``BarResolution``.

    The bar complex is that of Brown, *Cohomology of Groups* (GTM 87),
    III.1.  Its top coboundary is stored over the rows that
    ``BarResolution.cocycle_rows`` cuts: the rows [s|...] of the greedy
    generating set S, and a normalized coboundary vanishes iff it
    vanishes on those (the lemma there), so the kernel is that of the
    full top coboundary, which is never built.  An echelon's kernel
    depends on that subspace alone (the dependent columns and each one's
    unique kernel vector), so bases, labels and coordinates are the same
    as over all rows.

    One ``gf2.Echelon`` per coboundary delta^n, fed its columns in order,
    spans delta^n C^n = B^(n+1), and extended by the degree-(n+1) basis it
    gives the coordinates of a class in that basis; so the lower
    coboundaries keep all their rows.  The degree-n basis is the echelon's
    kernel, once it skips (``gf2.Echelon.skip``) the columns of delta^n
    that the echelon of delta^(n-1) pivots on.

    Skip lemma.  Let D be the dependent columns j of delta^n, each with
    the kernel vector k_j = e_j + (earlier independent columns): a basis
    of Z^n = ker delta^n, as j is its highest bit.  Let P be the pivots
    of the echelon of delta^(n-1), the highest bits of a basis of B^n.
    (1) P lies in D: an element e_p + (lower bits) of B^n is a cocycle
    (delta delta = 0, Brown III.1), so column p of delta^n is the sum of
    columns below it.  (2) Extending that echelon by the k_j in order,
    k_j enlarges it iff j is in D less P: with E_j the span of
    e_0..e_j, B + (Z meet E_j) is spanned by B and the k_i with i <= j,
    and as B lies in Z its dimension is dim B + dim(Z meet E_j) -
    dim(B meet E_j), which steps by [j in D] - [j in P] at j.  So the
    first lexicographic basis of Z^n modulo B^n, chosen by inserting
    every k_j and keeping those that enlarge, is the k_j for j in D
    less P: the kernel of the echelon that skips P, which (1) allows.
    A skipped column is never reduced, and it held most of the
    reduction steps (656 of C10's 6561 top cut columns, 81,000 of
    85,400 steps).  Each basis vector must still enlarge the extended
    echelon, and a failure raises.  Coordinates are those of the
    independent columns, so dropping the dependent k_j from the
    extension changes the positions of the basis in it, not a
    coordinate.
    """

    def __init__(self, group: FiniteGroup, max_degree: int):
        self.group = group
        self.max_degree = max_degree
        self.res = BarResolution(group, max_degree)
        free = trivial_integers(group)
        # columns of delta^n as masks over the degree-(n+1) tuples, those
        # of the top delta over the cut rows only; that cut has the most
        # faces and cells, so it is bounded, from its shape, and assembled
        # first
        top = self.res.mod2_cocycle_rows(free, max_degree)
        self._delta = [self.res.coboundary_matrix(free, n).mod2_column_masks()
                       for n in range(max_degree)]
        self._delta.append(top.mod2_column_masks())
        # per degree n: the basis, and the echelon of delta^(n-1) extended
        # by it with the positions at which the basis went in
        self._basis, self._classes = [], []
        below = gf2.Echelon()   # delta^-1 = 0
        for n, cols in enumerate(self._delta):
            # the columns that below pivots on depend on earlier ones
            # (lemma)
            ech, pinned = gf2.Echelon(), below.pivots
            for j, c in enumerate(cols):
                if j in pinned:
                    ech.skip()
                else:
                    ech.insert(c)
            positions = []
            for z in ech.kernel:
                positions.append(below.ninserted)
                if not below.insert(z):
                    raise AssertionError(
                        f"a degree-{n} basis vector of {group.name} lies "
                        "in the coboundaries")
            self._basis.append(ech.kernel)
            self._classes.append((below, positions))
            below = ech

    def rank(self, n):
        return self.res.rank(n)

    def is_cocycle(self, n, mask):
        """Whether a degree-n cochain mask has zero coboundary; in the top
        degree this is tested on the cut rows alone (see the lemma)."""
        cols = self._delta[n]
        out = 0
        while mask:
            top = mask.bit_length() - 1
            out ^= cols[top]
            mask ^= 1 << top
        return not out

    def basis(self, n):
        """Chosen cohomology basis: first lexicographic cocycle kernel
        vectors surviving reduction by coboundaries."""
        return self._basis[n]

    def dimension(self, n):
        return len(self.basis(n))

    def coordinates(self, n, mask):
        """Coordinates of a cocycle's class in the chosen basis."""
        if not self.is_cocycle(n, mask):
            raise ValueError("not a cocycle")
        ech, positions = self._classes[n]
        combo = ech.coordinates(mask)
        if combo is None:
            raise ValueError("cocycle outside the computed span")
        return tuple((combo >> p) & 1 for p in positions)

    def cup(self, p, q, a, b):
        """Alexander-Whitney cup of cochain masks: value on a (p+q)-tuple
        is the product of a on the front p and b on the back q entries."""
        if p == 0:
            return b if a & 1 else 0
        if q == 0:
            return a if b & 1 else 0
        shift = self.rank(q)
        out = 0
        while a:
            top = a.bit_length() - 1
            out |= b << (top * shift)
            a ^= 1 << top
        return out

    def tuple_label(self, n, idx):
        if n == 0:
            return "1"
        elements = self.res.tuples(n, [idx])[0].tolist()
        return "[" + "|".join(str(g) for g in elements) + "]"

    def basis_labels(self, n):
        return tuple(self.tuple_label(n, (m & -m).bit_length() - 1)
                     for m in self.basis(n))


# ---------------------------------------------------------------------------
# Ring slice


@dataclass(frozen=True)
class CohomologyRingSlice:
    """Mod-2 cohomology of a group through a degree range, with cup
    products as basis-indexed structure constants."""

    group_name: str
    max_degree: int
    dimensions: tuple
    labels: tuple              # per degree, tuple of basis labels
    products: dict             # (p, q) -> tuple[i][j] of coordinate tuples

    def to_json(self):
        return {
            "group": self.group_name,
            "max_degree": self.max_degree,
            "dimensions": list(self.dimensions),
            "labels": [list(ls) for ls in self.labels],
            "products": {
                f"{p},{q}": [[list(c) for c in row] for row in tensor]
                for (p, q), tensor in sorted(self.products.items())},
        }


def mod2_ring(group: FiniteGroup, max_degree: int = 4) -> \
        CohomologyRingSlice:
    """Dimensions and cup products of H^*(G; Z/2) up to max_degree."""
    cx = BarMod2Complex(group, max_degree)
    dims = tuple(cx.dimension(n) for n in range(max_degree + 1))
    labels = tuple(cx.basis_labels(n) for n in range(max_degree + 1))
    products = {}
    for p in range(max_degree + 1):
        for q in range(max_degree + 1 - p):
            tensor = []
            for a in cx.basis(p):
                row = []
                for b in cx.basis(q):
                    row.append(cx.coordinates(p + q, cx.cup(p, q, a, b)))
                tensor.append(tuple(row))
            products[(p, q)] = tuple(tensor)
    slice_ = CohomologyRingSlice(group.name, max_degree, dims, labels,
                                 products)
    _check_ring_axioms(slice_)
    return slice_


def _check_ring_axioms(s: CohomologyRingSlice):
    n = s.max_degree
    # unit
    if s.dimensions[0] != 1:
        raise AssertionError("H^0 must be one-dimensional")
    for q in range(n + 1):
        for j in range(s.dimensions[q]):
            e = tuple(int(t == j) for t in range(s.dimensions[q]))
            if s.products[(0, q)][0][j] != e or s.products[(q, 0)][j][0] != e:
                raise AssertionError("unit does not act as identity")
    # commutativity (mod 2, so no signs)
    for (p, q), tensor in s.products.items():
        for i in range(s.dimensions[p]):
            for j in range(s.dimensions[q]):
                if tensor[i][j] != s.products[(q, p)][j][i]:
                    raise AssertionError("cup product not commutative")
    # associativity on all in-range triples
    for p in range(n + 1):
        for q in range(n + 1 - p):
            for r in range(n + 1 - p - q):
                _check_associativity(s, p, q, r)


def _check_associativity(s, p, q, r):
    dp, dq, dr = s.dimensions[p], s.dimensions[q], s.dimensions[r]
    dim = s.dimensions[p + q + r]
    # (ab)c sums the products x c over the basis x selected by ab, and
    # a(bc) the products a y over the basis y selected by bc
    times_c = [[row[k] for row in s.products[(p + q, r)]] for k in range(dr)]
    for i in range(dp):
        a_times = s.products[(p, q + r)][i]
        for j in range(dq):
            for k in range(dr):
                left = _xor_selected(times_c[k], s.products[(p, q)][i][j],
                                     dim)
                right = _xor_selected(a_times, s.products[(q, r)][j][k], dim)
                if left != right:
                    raise AssertionError("cup product not associative")


def _xor_selected(vectors, coords, dim):
    """XOR of the length-dim coordinate tuples vectors[t] over the t with
    coords[t] set."""
    acc = [0] * dim
    for vec, bit in zip(vectors, coords):
        if bit:
            for u, b2 in enumerate(vec):
                acc[u] ^= b2
    return tuple(acc)


# ---------------------------------------------------------------------------
# Mod-2 Betti numbers without the bar resolution


def mod2_dimensions(group: FiniteGroup, max_degree: int) -> tuple:
    """dim H^n(G; Z/2) for n <= max_degree via the default resolution."""
    res = default_resolution(group, max_degree)
    z2 = mod2_integers(group)
    return tuple(len(cohomology(group, z2, n, res).torsion)
                 for n in range(max_degree + 1))


# ---------------------------------------------------------------------------
# Inflation


@dataclass(frozen=True)
class InflationMap:
    """Per-degree matrices H^n(P; Z/2) -> H^n(G; Z/2) for a surjection
    G -> P, in the chosen cochain bases."""

    source_name: str
    target_name: str
    max_degree: int
    source_dimensions: tuple
    target_dimensions: tuple
    matrices: tuple            # per degree, tuple of rows over GF(2)
    route: str                 # "bar" or "closed-form"
    ring_checked: str

    def is_isomorphism(self, n):
        rows = self.matrices[n]
        if self.source_dimensions[n] != self.target_dimensions[n]:
            return False
        d = self.target_dimensions[n]
        if d == 0:
            return True
        cols = [sum((rows[i][j] & 1) << i for i in range(len(rows)))
                for j in range(d)]
        return gf2.rank(cols) == d

    def isomorphism_degrees(self):
        return tuple(n for n in range(self.max_degree + 1)
                     if self.is_isomorphism(n))

    def to_json(self):
        return {
            "source": self.source_name,
            "target": self.target_name,
            "max_degree": self.max_degree,
            "source_dimensions": list(self.source_dimensions),
            "target_dimensions": list(self.target_dimensions),
            "matrices": [[list(r) for r in m] for m in self.matrices],
            "route": self.route,
            "isomorphism_degrees": list(self.isomorphism_degrees()),
        }


def inflation_map(phi: GroupHom, max_degree: int = 4) -> InflationMap:
    """Inflation H^*(P; Z/2) -> H^*(G; Z/2) along a surjection phi: G -> P.

    Uses explicit cochain pullback on bar resolutions when both fit the
    feasibility bound; for larger sources with P of order 2 it falls back
    to the closed-form product cocycles: the pullbacks of P's bar classes
    [1|...|1] -> 1, which are cocycles since phi is a verified
    homomorphism and nonzero since each pairs to 1 with [s|...|s], s an
    order-2 preimage of P's generator.  Only P's bar complex is built.
    """
    if not phi.is_surjective:
        raise ValueError("inflation requires a surjective homomorphism")
    try:
        return _inflation_bar(phi, max_degree)
    except FeasibilityError:
        return _inflation_closed_form(phi, max_degree)


def _inflation_bar(phi, max_degree):
    src = BarMod2Complex(phi.source, max_degree)
    tgt = BarMod2Complex(phi.target, max_degree)
    matrices = []
    pulled = []   # per degree, pullback masks of the target basis
    for n in range(max_degree + 1):
        cols = []
        masks = []
        for b in tgt.basis(n):
            mask = _pullback_cochain(phi, src, tgt, n, b)
            masks.append(mask)
            cols.append(src.coordinates(n, mask))
        pulled.append(masks)
        dim_g = src.dimension(n)
        rows = tuple(tuple(col[i] for col in cols) for i in range(dim_g))
        matrices.append(rows)
    _check_ring_map(phi, src, tgt, pulled, max_degree)
    dims_g = tuple(src.dimension(n) for n in range(max_degree + 1))
    dims_p = tuple(tgt.dimension(n) for n in range(max_degree + 1))
    return InflationMap(phi.source.name, phi.target.name, max_degree,
                        dims_g, dims_p, tuple(matrices), "bar",
                        "all basis pairs")


def _pullback_cochain(phi, src, tgt, n, mask):
    """phi^* of a degree-n cochain mask on the target: on a source tuple,
    the mask's bit at the image tuple, and 0 where the image holds the
    identity (the cochains are normalized)."""
    if n == 0:
        return mask & 1
    image = np.asarray(phi.mapping, dtype=np.int64)[src.res.tuples(n)]
    keep = image.all(axis=1)
    width = (tgt.rank(n) + 7) // 8
    bits = np.unpackbits(np.frombuffer(mask.to_bytes(width, "little"),
                                       dtype=np.uint8), bitorder="little")
    out = np.zeros(src.rank(n), dtype=np.uint8)
    out[keep] = bits[tgt.res.number(image[keep])]
    return int.from_bytes(np.packbits(out, bitorder="little").tobytes(),
                          "little")


def _check_ring_map(phi, src, tgt, pulled, max_degree):
    for p in range(max_degree + 1):
        for q in range(max_degree + 1 - p):
            for i, a in enumerate(tgt.basis(p)):
                for j, b in enumerate(tgt.basis(q)):
                    cup_then_pull = _pullback_cochain(
                        phi, src, tgt, p + q, tgt.cup(p, q, a, b))
                    pull_then_cup = src.cup(p, q, pulled[p][i],
                                            pulled[q][j])
                    lhs = src.coordinates(p + q, cup_then_pull)
                    rhs = src.coordinates(p + q, pull_then_cup)
                    if lhs != rhs:
                        raise AssertionError(
                            "inflation is not a ring map")


def _inflation_closed_form(phi, max_degree):
    group = phi.source
    target = phi.target
    if target.order != 2:
        raise FeasibilityError(
            f"bar resolution of {group.name} exceeds the bound and the "
            "closed-form route needs a target of order 2")
    chi = tuple(phi.mapping)
    s = next((g for g in range(group.order)
              if chi[g] == 1 and group.element_order(g) == 2), None)
    if s is None:
        raise FeasibilityError(
            "no order-2 element maps onto the target generator")
    dims_g = mod2_dimensions(group, max_degree)
    tgt = BarMod2Complex(target, max_degree)
    dims_p = tuple(tgt.dimension(n) for n in range(max_degree + 1))
    matrices = []
    for n in range(max_degree + 1):
        # P's class in degree n is the cocycle [1|...|1] -> 1, and the
        # product cochain chi(g_1)...chi(g_n) on G is its pullback chi^*.
        # chi is a homomorphism (``GroupHom`` checks G's whole table) and
        # the bar construction is functorial (Brown, III.1), so chi^*
        # commutes with the coboundary and the pullback is a cocycle of G.
        # It pairs to chi(s)^n = 1 against the cycle [s|...|s], so its
        # class is nonzero in every degree.
        if tgt.basis(n) != [1] or not tgt.is_cocycle(n, 1):
            raise AssertionError(f"degree-{n} class of {target.name} is "
                                 "not the product cocycle")
        if dims_g[n] == 1:
            matrices.append(((1,),))
        elif dims_g[n] == 0:
            raise FeasibilityError(
                f"H^{n} of {group.name} vanishes; inflation target "
                "coordinates are undefined")
        else:
            raise FeasibilityError(
                f"H^{n} of {group.name} has dimension {dims_g[n]}; "
                "coordinates need a bar resolution")
    return InflationMap(group.name, target.name, max_degree, dims_g,
                        dims_p, tuple(matrices), "closed-form",
                        "closed-form product identity")
