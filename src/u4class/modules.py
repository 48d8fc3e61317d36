"""Modules over the integral group ring: presented abelian groups with an
integer-matrix action of the group, including sign-twisted integers.
"""

from __future__ import annotations

import numpy as np

from .groups import Character2, FiniteGroup
from .linalg import AbelianGroup, IntMatrix

__all__ = ["GModule", "trivial_integers", "twisted_integers",
           "mod2_integers", "module_from_abelian_group"]


class GModule:
    """Z^ngens modulo relation columns, with one action matrix per group
    element (dense row-major tuples; generators are small here).

    The relation matrix R is diagonal up to order: each column has one
    nonzero entry, each in a row of its own, so R is injective and a
    vector lies in its column lattice iff each entry is divisible by the
    relation on its row (and vanishes on a row with none).  The actions
    need to be a homomorphism only modulo R, and must preserve R's
    column lattice.
    """

    __slots__ = ("group", "ngens", "relations", "actions", "lifted")

    def __init__(self, group: FiniteGroup, ngens: int, relations: IntMatrix,
                 actions, *, validate=True):
        self.group = group
        self.ngens = ngens
        self.relations = relations
        self.actions = tuple(tuple(tuple(row) for row in a) for a in actions)
        if validate:
            self._validate()
        # the relation lattice Z^r (r = relations.ncols) with g acting by
        # A'_g = R^-1 A_g R, so that A_g R = R A'_g; lifted once per
        # module (``Resolution.coboundary_matrix`` memoises by the action
        # tuples, not by this object).  Where A is a homomorphism
        # only modulo R, A' is none either: the mapping cone in
        # ``cohomology`` never composes two of its coboundaries
        self.lifted = self._lift() if relations.ncols else None

    def _validate(self):
        rel = self.relations
        if rel.nrows != self.ngens:
            raise ValueError("relation matrix has wrong height")
        if sorted(rel.cols) != list(range(rel.ncols)) or \
                len(set(rel.rows)) != rel.ncols:
            raise ValueError("relation matrix is not diagonal: each column "
                             "needs one nonzero entry, in a row of its own")
        if len(self.actions) != self.group.order:
            raise ValueError("one action matrix per group element required")
        ident = tuple(tuple(int(i == j) for j in range(self.ngens))
                      for i in range(self.ngens))
        if self.actions[0] != ident:
            raise ValueError("identity must act as the identity matrix")
        if not self.ngens:
            return
        mul = self.group.mul.tolist()
        diffs = []
        for g in range(self.group.order):
            for h in range(self.group.order):
                prod = _matmat(self.actions[g], self.actions[h])
                gh = self.actions[mul[g][h]]
                diffs.append([[x - y for x, y in zip(pr, qr)]
                              for pr, qr in zip(prod, gh)])
        if self.relation_preimage(_side_by_side(diffs)) is None:
            raise ValueError("action is not a homomorphism")

    def relation_preimage(self, m: IntMatrix) -> IntMatrix | None:
        """The matrix x with f x = m, for f the relation matrix repeated
        down the diagonal once per ngens rows of m, or None when a column
        of m lies outside the column lattice of f.  R is diagonal, so each
        entry of m is divided exactly by the relation on its row."""
        k, r = self.ngens, self.relations.ncols
        rel_rows, rel_cols, rel_vals = self.relations.arrays
        column = np.full(k, -1, dtype=np.int64)
        column[rel_rows] = rel_cols
        divisor = np.zeros(k, dtype=rel_vals.dtype)
        divisor[rel_rows] = rel_vals
        rows, cols, vals = m.arrays
        block, gen = np.divmod(rows, k)
        if (column[gen] < 0).any():
            return None
        d = divisor[gen]
        if (vals % d).any():
            return None
        return IntMatrix(m.nrows // k * r, m.ncols, block * r + column[gen],
                         cols, vals // d)

    def _lift(self):
        r = self.relations.ncols
        rel = self.relations.to_dense()
        acted = self.relation_preimage(
            _side_by_side([_matmat(a, rel) for a in self.actions]))
        if acted is None:
            raise ValueError("action does not respect relations")
        dense = acted.to_dense()
        actions = [[row[g * r:(g + 1) * r] for row in dense]
                   for g in range(self.group.order)]
        return GModule(self.group, r, IntMatrix.zeros(r, 0), actions,
                       validate=False)

    # -- structure queries --------------------------------------------------

    @property
    def is_free(self):
        return self.relations.ncols == 0

    @property
    def is_mod2_free(self):
        """Every generator has relation +-2: a free Z/2-module, so
        (co)homology can be computed over GF(2)."""
        rel = self.relations
        return rel.ncols == self.ngens and all(abs(v) == 2 for v in rel.vals)


def _side_by_side(blocks):
    """Dense matrices of equal height, side by side, as one IntMatrix."""
    return IntMatrix.from_dense([[x for b in blocks for x in b[i]]
                                 for i in range(len(blocks[0]))])


def _matmat(a, b):
    n = len(a)
    m = len(b[0]) if b else 0
    k = len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def trivial_integers(group: FiniteGroup) -> GModule:
    actions = [((1,),)] * group.order
    return GModule(group, 1, IntMatrix.zeros(1, 0), actions, validate=False)


def twisted_integers(character: Character2) -> GModule:
    """The integers with the group acting through the sign
    (-1)^character."""
    actions = [((-1 if v else 1,),) for v in character.values]
    return GModule(character.group, 1, IntMatrix.zeros(1, 0), actions,
                   validate=False)


def mod2_integers(group: FiniteGroup) -> GModule:
    actions = [((1,),)] * group.order
    return GModule(group, 1, IntMatrix.from_dense([[2]]), actions,
                   validate=False)


def module_from_abelian_group(group: FiniteGroup, ab: AbelianGroup,
                              sign_character: Character2 | None = None,
                              action_matrices=None) -> GModule:
    """Present an abelian group (one generator per summand) as a GModule.

    action_matrices optionally gives the matrix for each group element; the
    sign character, if any, multiplies every action by (-1)^value.
    """
    k = ab.rank + len(ab.torsion)
    nt = len(ab.torsion)
    relations = IntMatrix(k, nt, [ab.rank + i for i in range(nt)],
                          list(range(nt)), list(ab.torsion))
    ident = [[int(i == j) for j in range(k)] for i in range(k)]
    actions = []
    for g in range(group.order):
        base = action_matrices[g] if action_matrices is not None else ident
        sign = -1 if sign_character is not None and \
            sign_character.value(g) else 1
        actions.append([[sign * x for x in row] for row in base])
    return GModule(group, k, relations, actions)
