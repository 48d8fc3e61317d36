"""Finite groups as multiplication tables, with the decomposition machinery
for an odd-order normal subgroup with 2-group quotient.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import FeasibilityError, ParseError
from .specs import CYCLIC_RE, DIHEDRAL_RE, PERM_RE, split_product

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "Character2",
    "OddDecomposition",
    "ParseError",
    "parse_group",
    "orientation_characters",
    "odd_normal_complement",
    "conjugation_action",
    "abelian_cyclic_decomposition",
]


_UNSET = object()   # FiniteGroup._odd_decomposition before it is computed

# Largest group order whose multiplication table is built.  Tables are
# stored whole in int32 (67 MB at 4096, 1.6 GB for C20000), so a larger
# group is refused before any of it is allocated.  Tests and the catalog
# stay at or below order 300, and building D2048 peaks at about 110 MB.
_MAX_ORDER = 4096
# Light's test compares blocks of this many table cells at a time; D2048
# built in 0.36 s with 2**16 against 0.67 s with 2**20 and 0.76 s with
# 2**22, and peaked at 111 MB with either of the first two
_CHECK_BLOCK_CELLS = 2**16


class FiniteGroup:
    """Finite group on indices 0..order-1 with 0 the identity.

    The multiplication table is stored whole (target scale is order <= ~300;
    ``cyclic_group``, ``dihedral_group`` and ``direct_product`` refuse
    orders above ``_MAX_ORDER``).
    Construction checks the identity and the inverses on the full table,
    and associativity by Light's test on a generating set (see
    ``_check_associative``).
    """

    __slots__ = ("order", "mul", "name", "inverse_table", "_orders",
                 "_power_table", "product_factors", "_odd_decomposition")

    def __init__(self, mul, name, *, product_factors=None):
        self.mul = np.asarray(mul, dtype=np.int32)
        self.order = int(self.mul.shape[0])
        self.name = name
        # direct-product provenance (A, B) with index a*|B| + b, if built so
        self.product_factors = product_factors
        self._validate()
        zeros = self.mul == 0
        lacking = np.flatnonzero(zeros.sum(axis=1) != 1)
        if len(lacking):
            raise ValueError(f"{name}: element {lacking[0]} lacks a unique "
                             "inverse")
        self.inverse_table = zeros.argmax(axis=1).astype(np.int32)
        self._orders = None
        self._power_table = None
        self._odd_decomposition = _UNSET

    def _validate(self):
        n = self.order
        if self.mul.shape != (n, n):
            raise ValueError("multiplication table not square")
        if self.mul.min() < 0 or self.mul.max() >= n:
            raise ValueError("table entries out of range")
        if not (np.array_equal(self.mul[0], np.arange(n))
                and np.array_equal(self.mul[:, 0], np.arange(n))):
            raise ValueError("element 0 is not the identity")
        self._check_associative(self.generating_set())

    def _check_associative(self, gens):
        """Raise unless the table is associative, by Light's test
        (Clifford & Preston, The Algebraic Theory of Semigroups I, 1961,
        section 1.2).

        The elements a with (xa)y = x(ay) for all x, y form a submagma
        that holds the identity.  So if every generator passes and the
        left-normed words in the generators (``closure``) cover the table,
        every element passes.  Costs O(n^2 |gens|) against n^3 for all
        triples, one generator and one block of rows x at a time, so two
        blocks of ``_CHECK_BLOCK_CELLS`` cells are live beside the table;
        needs only an identity and in-range entries.
        """
        if len(self.closure(gens)) != self.order:
            raise ValueError("generators do not generate the table")
        step = max(1, _CHECK_BLOCK_CELLS // self.order)
        for a in gens:
            for lo in range(0, self.order, step):
                rows = self.mul[lo:lo + step]
                # (x, y) -> (xa)y against x(ay)
                if not np.array_equal(self.mul[rows[:, a]],
                                      rows[:, self.mul[a]]):
                    raise ValueError("multiplication table not associative")

    # -- basic queries ------------------------------------------------------

    def _powers_of_all(self):
        """Column k-1 holds a^k in row a, up to at least the order of a;
        kept on the group.

        Each round doubles the columns by a^(m+j) = a^m a^j until every
        row has reached the identity."""
        if self._power_table is None:
            powers = np.arange(self.order)[:, None]
            while not (powers == 0).any(axis=1).all():
                powers = np.hstack(
                    [powers, self.mul[powers[:, -1:], powers]])
            self._power_table = powers
        return self._power_table

    def powers(self, a):
        """a^0, a^1, ..., a^(o-1) for o the order of a: the cyclic subgroup
        of a in exponent order, so the discrete log of x to the base a is
        the position of x in it."""
        o = self.element_order(a)
        return np.concatenate(([0], self._powers_of_all()[a, :o - 1]))

    def element_orders(self):
        """Order of every element, as an int array indexed by element."""
        if self._orders is None:
            self._orders = (self._powers_of_all() == 0).argmax(axis=1) + 1
        return self._orders

    def element_order(self, a):
        return int(self.element_orders()[a])

    @property
    def is_abelian(self):
        return np.array_equal(self.mul, self.mul.T)

    @property
    def is_cyclic(self):
        return bool((self.element_orders() == self.order).any())

    def cyclic_generator(self):
        full = np.flatnonzero(self.element_orders() == self.order)
        if not len(full):
            raise ValueError(f"{self.name} is not cyclic")
        return int(full[0])

    # -- subgroup / quotient machinery --------------------------------------

    def closure(self, gens):
        """Sorted element set generated by the given indices: the identity
        and every left-normed word in them, by breadth-first search.

        The search reads only the gens' columns of the table, as lists.
        Its cost is |closure| x |gens| list lookups, so callers keep gens
        short (``_greedy_generators``).  For such gens it measured 4-7x
        faster than numpy rounds over the table at orders 6 to 298, whose
        fixed cost per round dominates on small groups.
        """
        columns = self.mul[:, list(gens)].T.tolist()
        seen = [False] * self.order
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = []
            for column in columns:
                for a in frontier:
                    b = column[a]
                    if not seen[b]:
                        seen[b] = True
                        nxt.append(b)
            frontier = nxt
        return tuple(a for a, s in enumerate(seen) if s)

    def _greedy_generators(self, candidates):
        """(gens, span): each candidate, in the given order, that lies
        outside the closure of the ones chosen before it, and the closure
        of them all, which is the closure of every candidate."""
        gens = []
        span = (0,)
        member = {0}
        for a in candidates:
            if a not in member:
                gens.append(a)
                span = self.closure(gens)
                member = set(span)
        return tuple(gens), span

    def generating_set(self):
        """Generators chosen greedily: each element, in index order, that
        lies outside the closure of the ones chosen before it."""
        return self._greedy_generators(range(1, self.order))[0]

    def _members(self, elements):
        """The element set as a sorted index array and a membership mask."""
        member = np.zeros(self.order, dtype=bool)
        member[list(elements)] = True
        return np.flatnonzero(member), member

    def is_subgroup(self, elements):
        s, member = self._members(elements)
        return bool(member[0] and member[self.mul[np.ix_(s, s)]].all())

    def is_normal(self, elements):
        s, member = self._members(elements)
        conj = self.mul[self.mul[:, s], self.inverse_table[:, None]]
        return bool(member[conj].all())

    def subgroup(self, elements, name=None):
        """Materialize a subgroup; returns (FiniteGroup, embedding hom).

        Element 0 of the subgroup is the identity; the rest keep their
        ambient sorted order.
        """
        elements = tuple(sorted(set(elements)))
        if not self.is_subgroup(elements):
            raise ValueError("not a subgroup")
        order_map = [0] + [e for e in elements if e]
        k = len(order_map)
        index_of = np.zeros(self.order, dtype=np.int32)
        index_of[order_map] = np.arange(k)
        mul = index_of[self.mul[np.ix_(order_map, order_map)]]
        sub = FiniteGroup(mul, name or f"subgroup{k}of{self.name}")
        embed = GroupHom(sub, self, tuple(order_map))
        return sub, embed

    def quotient(self, normal_elements, name=None):
        """Quotient by a normal subgroup; returns (FiniteGroup, projection,
        coset representatives).  Cosets are represented by their least
        element; the identity coset comes first.
        """
        s = set(normal_elements)
        if not self.is_subgroup(s) or not self.is_normal(s):
            raise ValueError("not a normal subgroup")
        # row a of mul[:, s] is the coset aN; its least element is the
        # representative, and scanning a upwards meets each coset first
        # at that element, so the cosets are numbered by representative
        least = self.mul[:, sorted(s)].min(axis=1)
        reps = np.flatnonzero(least == np.arange(self.order))
        number = np.zeros(self.order, dtype=np.int32)
        number[reps] = np.arange(len(reps))
        coset_of = number[least]
        quo = FiniteGroup(coset_of[self.mul[np.ix_(reps, reps)]],
                          name or f"{self.name}/N")
        proj = GroupHom(self, quo, tuple(coset_of.tolist()))
        return quo, proj, tuple(reps.tolist())

    def direct_product(self, other, name=None):
        """Direct product with index (a, b) -> a * |other| + b."""
        n, m = self.order, other.order
        name = name or f"{self.name}x{other.name}"
        _check_order(n * m, name)
        mul = self.mul.repeat(m, axis=0).repeat(m, axis=1)
        mul *= m
        mul += np.tile(other.mul, (n, n))
        return FiniteGroup(mul, name, product_factors=(self, other))

    def commutator_square_subgroup(self):
        """Closure of all commutators and squares; the quotient is the
        largest elementary abelian 2-quotient."""
        candidates = np.zeros(self.order, dtype=bool)
        candidates[np.diagonal(self.mul)] = True
        # (ab)(ba)^-1 for all a, b
        candidates[self.mul[self.mul, self.inverse_table[self.mul.T]]] = True
        return self._greedy_generators(np.flatnonzero(candidates).tolist())[1]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by its full image table."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.source.order:
            raise ValueError("mapping length mismatch")
        if self.mapping[0] != 0:
            raise ValueError("identity not preserved")
        src = self.source.mul
        tgt = self.target.mul
        m = np.asarray(self.mapping, dtype=np.int32)
        if not np.array_equal(m[src], tgt[np.ix_(m, m)]):
            raise ValueError("not a homomorphism")

    @classmethod
    def _unchecked(cls, source, target, mapping):
        """The homomorphism of a mapping checked before on these groups,
        rebuilt without checking the table again."""
        hom = cls.__new__(cls)
        for name, value in (("source", source), ("target", target),
                            ("mapping", mapping)):
            object.__setattr__(hom, name, value)
        return hom

    def __call__(self, a):
        return self.mapping[a]

    @property
    def is_surjective(self):
        return len(set(self.mapping)) == self.target.order


def _check_order(order, name):
    if order > _MAX_ORDER:
        raise FeasibilityError(f"{name} has order {order}; multiplication "
                               f"tables are built up to order {_MAX_ORDER}")


def cyclic_group(n, name=None):
    name = name or f"C{n}"
    _check_order(n, name)
    idx = np.arange(n, dtype=np.int32)
    mul = idx[:, None] + idx
    mul %= n
    return FiniteGroup(mul, name)


C2 = cyclic_group(2)


@dataclass(frozen=True)
class Character2:
    """Surjection onto the order-2 cyclic group, as w1-type sign data."""

    hom: GroupHom

    def __post_init__(self):
        if self.hom.target.order != 2:
            raise ValueError("target is not the order-2 group")
        if not self.hom.is_surjective:
            raise ValueError("character is not surjective")

    @staticmethod
    def from_values(group, values, target=None):
        return Character2(GroupHom(group, target or C2, tuple(values)))

    @property
    def group(self):
        return self.hom.source

    def value(self, a):
        return self.hom.mapping[a]

    @property
    def values(self):
        return self.hom.mapping

    def __str__(self):
        return "".join(str(v) for v in self.values)


@dataclass(frozen=True)
class OddDecomposition:
    """G as extension of a 2-group P by an odd-order normal subgroup K."""

    group: FiniteGroup
    kernel: FiniteGroup
    embed: GroupHom
    quotient: FiniteGroup
    project: GroupHom
    coset_reps: tuple[int, ...]


# ---------------------------------------------------------------------------
# Parsing


def parse_group(spec: str) -> FiniteGroup:
    """Parse a group expression.

    Grammar: ``Cn`` (cyclic), ``Dn`` (dihedral of order 2n),
    ``AxB``/``A×B`` (direct product), ``perm[(1 2 3)(4 5), ...]``
    (permutation generators, cycles on positive integers).  The product
    is split by ``specs.split_product``, and the factors are built left
    to right.
    """
    parts = split_product(spec)
    group = _parse_factor(parts[0])
    for part in parts[1:]:
        group = group.direct_product(_parse_factor(part))
    return group


def _parse_factor(spec):
    m = CYCLIC_RE.match(spec)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ParseError("cyclic order must be >= 1")
        return cyclic_group(n)
    m = DIHEDRAL_RE.match(spec)
    if m:
        return dihedral_group(int(m.group(1)))
    m = PERM_RE.match(spec)
    if m:
        return permutation_group(m.group(1))
    raise ParseError(f"cannot parse group spec {spec!r}")


def dihedral_group(n, name=None):
    """Dihedral group of order 2n: rotations r^i and reflections r^i s,
    indexed i + n*j with j the reflection bit."""
    if n < 1:
        raise ParseError("dihedral parameter must be >= 1")
    name = name or f"D{n}"
    _check_order(2 * n, name)
    # r^i1 s^j1 * r^i2 s^j2 = r^(i1 +- i2) s^(j1 + j2), minus if j1 = 1;
    # the first n indices are the rotations (j = 0), the last n the
    # reflections, and the table is built in place in int32
    i = np.arange(2 * n, dtype=np.int32) % n
    mul = np.multiply.outer(np.repeat(np.int32([1, -1]), n), i)
    mul += i[:, None]
    mul %= n
    mul[:n, n:] += n
    mul[n:, :n] += n
    return FiniteGroup(mul, name)


def permutation_group(body: str) -> FiniteGroup:
    """Group generated by permutations in cycle notation."""
    gens = _parse_perm_generators(body)
    if not gens:
        raise ParseError("no permutation generators given")
    degree = max(len(g) for g in gens)
    gens = [tuple(g) + tuple(range(len(g), degree)) for g in gens]
    ident = tuple(range(degree))
    elements = {ident: 0}
    order_list = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in elements:
                    if len(elements) == 400:
                        raise ParseError("generated group too large")
                    elements[q] = len(order_list)
                    order_list.append(q)
                    nxt.append(q)
        frontier = nxt
    # reindex: identity first, remaining elements sorted for determinism
    order_list = [ident] + sorted(p for p in order_list if p != ident)
    index = {p: i for i, p in enumerate(order_list)}
    size = len(order_list)
    mul = [[index[tuple(a[b[i]] for i in range(degree))]
            for b in order_list] for a in order_list]
    return FiniteGroup(mul, f"perm[{body.strip()}] (order {size})")


def _parse_perm_generators(body):
    gens = []
    pos = 0
    body = body.strip()
    while pos < len(body):
        ch = body[pos]
        if ch in ", ":
            pos += 1
            continue
        if ch != "(":
            raise ParseError(f"unexpected character {ch!r} in permutation")
        cycles = []
        while pos < len(body) and body[pos] == "(":
            end = body.find(")", pos)
            if end < 0:
                raise ParseError("unbalanced parenthesis in permutation")
            inner = body[pos + 1:end].replace(",", " ").split()
            try:
                cycle = [int(x) for x in inner]
            except ValueError as exc:
                raise ParseError(f"bad cycle {body[pos:end + 1]!r}") from exc
            if len(set(cycle)) != len(cycle) or any(x < 1 for x in cycle):
                raise ParseError(f"invalid cycle {body[pos:end + 1]!r}")
            cycles.append(cycle)
            pos = end + 1
        degree = max((x for c in cycles for x in c), default=0)
        perm = list(range(degree))
        moved = set()
        for cycle in cycles:
            for x in cycle:
                if x - 1 in moved:
                    raise ParseError("cycles in one generator overlap")
                moved.add(x - 1)
            for i, x in enumerate(cycle):
                perm[x - 1] = cycle[(i + 1) % len(cycle)] - 1
        gens.append(tuple(perm))
    return gens


# ---------------------------------------------------------------------------
# Characters and decomposition


def orientation_characters(group: FiniteGroup) -> list[Character2]:
    """All surjections G -> Z/2, i.e. candidate first Stiefel-Whitney data.

    There are 2^r - 1 of them where r is the 2-rank of the abelianization.
    Returned sorted by value table for determinism.
    """
    comm_sq = group.commutator_square_subgroup()
    quo, proj, _ = group.quotient(comm_sq)
    # quo is elementary abelian of order 2^r; give it GF(2) coordinates
    coords = {0: 0}
    basis = []
    for q in range(quo.order):
        if q in coords:
            continue
        bit = 1 << len(basis)
        basis.append(q)
        for known, vec in list(coords.items()):
            coords[int(quo.mul[known, q])] = vec | bit
    r = len(basis)
    out = []
    for functional in range(1, 1 << r):
        values = tuple(
            bin(functional & coords[proj(a)]).count("1") & 1
            for a in range(group.order))
        out.append(Character2.from_values(group, values))
    out.sort(key=lambda ch: ch.values)
    return out


def odd_normal_complement(group: FiniteGroup) -> OddDecomposition | None:
    """Decompose G as odd-order normal K with 2-group quotient P, if
    possible.

    Any such K must contain every odd-order element (their image in a
    2-group is trivial), so K exists iff the odd-order elements form a
    subgroup of full odd part; that K is then unique and automatically
    normal, making the spec's maximal-order tie-break vacuous.  The result
    is memoised on the group (``_OddMemo``), so every caller shares one
    kernel and quotient, and one decomposition while any caller holds it.
    """
    memo = group._odd_decomposition
    if memo is _UNSET:
        decomp = _find_odd_decomposition(group)
        group._odd_decomposition = None if decomp is None \
            else _OddMemo(decomp)
        return decomp
    return None if memo is None else memo.decomposition(group)


class _OddMemo:
    """A group's odd decomposition as its memo keeps it: every part but
    the group itself, and a weak reference to the decomposition last
    handed out.  The decomposition refers to the group (``group``,
    ``embed.target``, ``project.source``), so a memo that held it would
    make a reference cycle, and a dropped group would keep its tables until
    the cyclic collector ran.  A decomposition no caller holds any more is
    rebuilt from the parts, its homomorphisms unchecked since they were
    checked when first built."""

    __slots__ = ("kernel", "embedding", "quotient", "projection",
                 "coset_reps", "last")

    def __init__(self, decomp: OddDecomposition):
        self.kernel = decomp.kernel
        self.embedding = decomp.embed.mapping
        self.quotient = decomp.quotient
        self.projection = decomp.project.mapping
        self.coset_reps = decomp.coset_reps
        self.last = weakref.ref(decomp)

    def decomposition(self, group: FiniteGroup) -> OddDecomposition:
        decomp = self.last()
        if decomp is None:
            decomp = OddDecomposition(
                group, self.kernel,
                GroupHom._unchecked(self.kernel, group, self.embedding),
                self.quotient,
                GroupHom._unchecked(group, self.quotient, self.projection),
                self.coset_reps)
            self.last = weakref.ref(decomp)
        return decomp


def _find_odd_decomposition(group):
    n = group.order
    odd_part = n
    while odd_part % 2 == 0:
        odd_part //= 2
    odd_elements = tuple(
        np.flatnonzero(group.element_orders() % 2 == 1).tolist())
    if len(odd_elements) != odd_part:
        return None
    if not group.is_subgroup(odd_elements):
        return None
    kernel, embed = group.subgroup(odd_elements, name=f"K({group.name})")
    quotient, project, reps = group.quotient(odd_elements,
                                             name=f"P({group.name})")
    return OddDecomposition(group, kernel, embed, quotient, project, reps)


def conjugation_action(decomp: OddDecomposition) -> list[GroupHom]:
    """For each coset representative g, the automorphism k -> g k g^-1 of K,
    expressed in K's own indexing.  Representatives fix the inner-ambiguity
    convention: the action is well defined up to inner automorphisms of K.
    """
    mul = decomp.group.mul
    k_group = decomp.kernel
    embed = list(decomp.embed.mapping)
    amb_index = np.full(decomp.group.order, -1)
    amb_index[embed] = np.arange(k_group.order)
    reps = list(decomp.coset_reps)
    # row g: the images g k g^-1 of the kernel elements k, in K's indexing
    images = amb_index[mul[mul[np.ix_(reps, embed)],
                           decomp.group.inverse_table[reps][:, None]]]
    if (images < 0).any():
        raise ValueError("kernel is not normal")
    return [GroupHom(k_group, k_group, tuple(row))
            for row in images.tolist()]


def abelian_cyclic_decomposition(group: FiniteGroup):
    """(gens, table): elements generating cyclic subgroups whose internal
    direct sum is the whole abelian group (first generator of maximal
    order), and the element with each mixed-radix exponent vector.

    Uses the classical basis construction: an element of maximal order
    spans a direct summand, and generators of the quotient lift to
    generators of the same order.  Entry d_1 o_2...o_r + ... + d_r of
    ``table`` (o_i the order of gens[i], last generator least significant)
    is gens[0]^d_1 ... gens[r-1]^d_r; it is the index of
    (d_1, ..., d_r) in C_o_1 x ... x C_o_r built by ``direct_product``.
    The table is checked to be a bijection before returning.
    """
    if not group.is_abelian:
        raise ValueError(f"{group.name} is not abelian")

    def decompose(g):
        if g.order == 1:
            return []
        gen = int(g.element_orders().argmax())
        cyclic = g.powers(gen)
        e = len(cyclic)
        quo, _, reps = g.quotient(cyclic)
        out = [gen]
        for qgen, k in decompose(quo):
            h0 = reps[qgen]
            h0_powers = g.powers(h0)
            m = cyclic.tolist().index(h0_powers[k % len(h0_powers)])
            # k divides m because e is the exponent of g, so the lift can
            # be corrected to have order exactly k
            if m % k:
                raise AssertionError("maximal-order summand lift failed")
            out.append(int(g.mul[h0, cyclic[(-(m // k)) % e]]))
        return [(h, g.element_order(h)) for h in out]

    gens = tuple(h for h, _ in decompose(group))
    table = np.zeros(1, dtype=np.int32)
    for h in gens:
        table = group.mul[table[:, None], group.powers(h)].ravel()
    seen = np.zeros(group.order, dtype=bool)
    seen[table] = True
    if seen.sum() != len(table):
        raise AssertionError("cyclic decomposition is not direct")
    if len(table) != group.order:
        raise AssertionError("cyclic decomposition does not span")
    return gens, table


def is_inner_automorphism(k_group: FiniteGroup, auto: GroupHom) -> bool:
    mul = k_group.mul
    # row w: the conjugation i -> w i w^-1
    conjugations = mul[mul, k_group.inverse_table[:, None]]
    return bool((conjugations == np.asarray(auto.mapping)).all(axis=1).any())
