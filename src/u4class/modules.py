"""Modules over the integral group ring: abelian groups presented by one
modulus per generator, with an integer-matrix action of the group,
including sign-twisted integers.
"""

from __future__ import annotations

import numpy as np

from .groups import Character2, FiniteGroup
from .abelian import AbelianGroup
from .linalg import IntMatrix

__all__ = ["GModule", "trivial_integers", "twisted_integers",
           "mod2_integers", "module_from_abelian_group"]


class GModule:
    """Z^ngens modulo m_i e_i for each generator i with modulus
    m_i = moduli[i] > 0 (0 leaves generator i free), with one action
    matrix per group element (dense row-major tuples; generators are small
    here).

    The relation map f (``relation_map``) sends the j-th generator with a
    modulus to m_i e_i, so f is injective and a vector lies in im f iff
    each entry is divisible by its row's modulus (and vanishes on a free
    row).  The actions need to be a homomorphism only modulo f, and must
    preserve im f.
    """

    __slots__ = ("group", "moduli", "actions")

    def __init__(self, group: FiniteGroup, moduli, actions, *,
                 validate=True):
        self.group = group
        self.moduli = tuple(int(m) for m in moduli)
        self.actions = tuple(tuple(tuple(row) for row in a) for a in actions)
        if validate:
            self._validate()

    @property
    def ngens(self):
        return len(self.moduli)

    def _validate(self):
        if any(m < 0 for m in self.moduli):
            raise ValueError("moduli must be nonnegative")
        if len(self.actions) != self.group.order:
            raise ValueError("one action matrix per group element required")
        k = self.ngens
        ident = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        if self.actions[0] != ident:
            raise ValueError("identity must act as the identity matrix")
        if not k:
            return
        # Python ints, exact for any entries; the matrices are small
        acts = np.array(self.actions, dtype=object).reshape(
            self.group.order, k, k)
        # A_g A_h - A_gh for every pair, and A_g f on the generators
        prods = acts[:, None] @ acts[None, :] - acts[self.group.mul]
        if not self._in_image(prods):
            raise ValueError("action is not a homomorphism")
        if not self._in_image(acts * np.array(self.moduli)):
            raise ValueError("action does not respect relations")

    def _in_image(self, a):
        """Whether every column of the stacked k-row matrices a lies in
        im f: row i divisible by m_i, and zero where m_i = 0."""
        m = np.array(self.moduli)[:, None]
        return not np.where(m > 0, a % np.maximum(m, 1), a).any()

    def relation_map(self, copies: int) -> IntMatrix:
        """f repeated down the diagonal ``copies`` times: column j of each
        block, for the j-th generator i with a modulus, is m_i e_i."""
        k = self.ngens
        moduli = np.array(self.moduli, dtype=np.int64)
        gens = np.flatnonzero(moduli)
        r = len(gens)
        shift = np.repeat(np.arange(copies, dtype=np.int64), r) * k
        return IntMatrix(copies * k, copies * r, np.tile(gens, copies) + shift,
                         np.arange(copies * r), np.tile(moduli[gens], copies),
                         canonical=True)

    def relation_preimage(self, m: IntMatrix) -> IntMatrix | None:
        """The matrix x with f x = m, for f = ``relation_map`` with one
        copy per ngens rows of m, or None when a column of m lies outside
        im f.  Each entry of m is divided exactly by its row's modulus."""
        k = self.ngens
        moduli = np.array(self.moduli, dtype=np.int64)
        has = moduli > 0
        column = np.cumsum(has) - 1
        rows, cols, vals = m.arrays
        block, gen = np.divmod(rows, k)
        if not has[gen].all():
            return None
        d = moduli[gen]
        if (vals % d).any():
            return None
        r = int(has.sum())
        return IntMatrix(m.nrows // k * r, m.ncols, block * r + column[gen],
                         cols, vals // d)

    def dual(self) -> GModule:
        """The same moduli with g acting by the transpose of A_(g^-1), the
        contragredient action: d_n x_G M is the transpose of delta^(n-1)
        over it (``Resolution.chain_matrix``).  Only its action is read,
        and it need not preserve im f, so it is not validated."""
        return GModule(self.group, self.moduli,
                       (zip(*self.actions[h])
                        for h in self.group.inverse_table.tolist()),
                       validate=False)

    # -- structure queries --------------------------------------------------

    @property
    def is_free(self):
        return not any(self.moduli)

    @property
    def is_mod2_free(self):
        """Every generator has modulus 2: a free Z/2-module, so
        (co)homology can be computed over GF(2)."""
        return all(m == 2 for m in self.moduli)


def trivial_integers(group: FiniteGroup) -> GModule:
    actions = [((1,),)] * group.order
    return GModule(group, (0,), actions, validate=False)


def twisted_integers(character: Character2) -> GModule:
    """The integers with the group acting through the sign
    (-1)^character."""
    actions = [((-1 if v else 1,),) for v in character.values]
    return GModule(character.group, (0,), actions, validate=False)


def mod2_integers(group: FiniteGroup) -> GModule:
    actions = [((1,),)] * group.order
    return GModule(group, (2,), actions, validate=False)


def module_from_abelian_group(group: FiniteGroup, ab: AbelianGroup,
                              sign_character: Character2 | None = None,
                              action_matrices=None) -> GModule:
    """Present an abelian group (one generator per summand) as a GModule.

    action_matrices optionally gives the matrix for each group element; the
    sign character, if any, multiplies every action by (-1)^value.
    """
    k = ab.rank + len(ab.torsion)
    ident = [[int(i == j) for j in range(k)] for i in range(k)]
    actions = []
    for g in range(group.order):
        base = action_matrices[g] if action_matrices is not None else ident
        sign = -1 if sign_character is not None and \
            sign_character.value(g) else 1
        actions.append([[sign * x for x in row] for row in base])
    return GModule(group, (0,) * ab.rank + tuple(ab.torsion), actions)
