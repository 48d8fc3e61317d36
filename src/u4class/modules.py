"""Modules over the integral group ring: presented abelian groups with an
integer-matrix action of the group, including sign-twisted integers.
"""

from __future__ import annotations

from .groups import Character2, FiniteGroup, GroupHom
from .linalg import AbelianGroup, IntMatrix, solve

__all__ = ["GModule", "TwistedIntegers", "trivial_integers",
           "twisted_integers", "mod2_integers", "module_from_abelian_group",
           "pullback_module"]


class GModule:
    """Z^ngens modulo relation columns, with one action matrix per group
    element (dense row-major tuples; generators are small here)."""

    __slots__ = ("group", "ngens", "relations", "actions")

    def __init__(self, group: FiniteGroup, ngens: int, relations: IntMatrix,
                 actions, *, validate=True):
        self.group = group
        self.ngens = ngens
        self.relations = relations
        self.actions = tuple(tuple(tuple(row) for row in a) for a in actions)
        if validate:
            self._validate()

    def _validate(self):
        if self.relations.nrows != self.ngens:
            raise ValueError("relation matrix has wrong height")
        if len(self.actions) != self.group.order:
            raise ValueError("one action matrix per group element required")
        ident = tuple(tuple(int(i == j) for j in range(self.ngens))
                      for i in range(self.ngens))
        if self.actions[0] != ident:
            raise ValueError("identity must act as the identity matrix")
        for g in range(self.group.order):
            for h in range(self.group.order):
                prod = _matmat(self.actions[g], self.actions[h])
                gh = self.actions[self.group.multiply(g, h)]
                if not self._equal_mod_relations(prod, gh):
                    raise ValueError("action is not a homomorphism")
        # action preserves the relation lattice
        if self.relations.ncols:
            rel_dense = self.relations.to_dense()
            for g in range(self.group.order):
                acted = _matmat(self.actions[g], rel_dense)
                for j in range(self.relations.ncols):
                    col = [acted[i][j] for i in range(self.ngens)]
                    if solve(self.relations, col) is None:
                        raise ValueError(
                            "action does not respect relations")

    def _equal_mod_relations(self, a, b):
        if tuple(tuple(r) for r in a) == tuple(tuple(r) for r in b):
            return True
        if not self.relations.ncols:
            return False
        diff = [[a[i][j] - b[i][j] for i in range(self.ngens)]
                for j in range(self.ngens)]  # columns of the difference
        return all(solve(self.relations, col) is not None for col in diff)

    # -- structure queries --------------------------------------------------

    @property
    def is_free(self):
        return self.relations.ncols == 0

    @property
    def is_rank_one_free(self):
        return self.is_free and self.ngens == 1

    @property
    def is_mod2_free(self):
        """Relations are exactly 2 x identity: a free Z/2-module, so
        (co)homology can be computed over GF(2)."""
        rel = self.relations
        return (rel.ncols == self.ngens
                and rel.rows == list(range(self.ngens))
                and rel.cols == list(range(self.ngens))
                and all(abs(v) == 2 for v in rel.vals))

    def rank_one_signs(self):
        """For a free rank-1 module, the +-1 scalar by which each element
        acts."""
        if not self.is_rank_one_free:
            raise ValueError("not free of rank 1")
        return tuple(a[0][0] for a in self.actions)

    @property
    def is_elementary_two(self):
        """Is the underlying group (Z/2)^ngens with relations 2*I?"""
        from .linalg import smith_normal_form
        if self.relations.ncols == 0:
            return self.ngens == 0
        sf = smith_normal_form(self.relations)
        return sf.rank == self.ngens and sf.nontrivial == (2,) * self.ngens

    def underlying_group(self) -> AbelianGroup:
        from .linalg import smith_normal_form
        sf = smith_normal_form(self.relations)
        return AbelianGroup.from_cyclic_orders(
            [0] * (self.ngens - sf.rank) + list(sf.nontrivial))


class TwistedIntegers(GModule):
    """The integers with a group acting through the sign (-1)^character."""

    __slots__ = ("character",)

    def __init__(self, character: Character2):
        group = character.group
        actions = [((1 if character.value(g) == 0 else -1,),)
                   for g in range(group.order)]
        super().__init__(group, 1, IntMatrix.zeros(1, 0), actions,
                         validate=False)
        self.character = character


def _matmat(a, b):
    n = len(a)
    m = len(b[0]) if b else 0
    k = len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def trivial_integers(group: FiniteGroup) -> GModule:
    actions = [((1,),)] * group.order
    return GModule(group, 1, IntMatrix.zeros(1, 0), actions, validate=False)


def twisted_integers(character: Character2) -> TwistedIntegers:
    return TwistedIntegers(character)


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


def pullback_module(phi: GroupHom, module: GModule) -> GModule:
    """Module over the source of phi, acting through phi."""
    if module.group is not phi.target and \
            module.group.order != phi.target.order:
        raise ValueError("module not over the target of the homomorphism")
    actions = [module.actions[phi(g)] for g in range(phi.source.order)]
    out = GModule(phi.source, module.ngens, module.relations, actions,
                  validate=False)
    if isinstance(module, TwistedIntegers):
        values = tuple(module.character.value(phi(g))
                       for g in range(phi.source.order))
        if 1 in values:
            return TwistedIntegers(
                Character2.from_values(phi.source, values,
                                       module.character.hom.target))
    return out
