"""Decide whether the conjugation action of the 2-group quotient on the
cohomology of the odd normal complement is trivial, and whether the Thom
spectrum simplification therefore applies.

Abelian kernels get an exact verdict: the action on degree-2 integral
cohomology is the dual of conjugation, so it is trivial in every degree
exactly when conjugation is trivial (inner automorphisms always act
trivially).  Nonabelian kernels get a bounded verdict from explicit chain
maps on the bar resolution, never an overclaim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FeasibilityError
from .groups import FiniteGroup, GroupHom, OddDecomposition, \
    conjugation_action, is_inner_automorphism, odd_normal_complement
from .linalg import ColumnLattice, integer_kernel

__all__ = ["ActionVerdict", "HypothesisReport", "check_action_trivial",
           "thom_simplification_applicable", "action_witness_in_degree"]

# a cocycle extraction whose lattice array (``integer_kernel``) would
# exceed this many cells, 80 MB in int64, is not attempted; the verdict
# degrades to a bounded one instead of stalling
_WITNESS_CELL_CAP = 10**7


@dataclass(frozen=True)
class ActionVerdict:
    kind: str                       # proved_trivial | proved_nontrivial
    #                                 | trivial_up_to
    degree: int | None = None       # witness degree if nontrivial
    witness: str | None = None      # moved class, chosen-basis coordinates
    acting_element: int | None = None
    checked_up_to: int | None = None
    notes: tuple = ()

    def to_json(self):
        out = {"kind": self.kind}
        if self.degree is not None:
            out["degree"] = self.degree
        if self.witness is not None:
            out["witness"] = self.witness
        if self.acting_element is not None:
            out["acting_element"] = self.acting_element
        if self.checked_up_to is not None:
            out["checked_up_to"] = self.checked_up_to
        if self.notes:
            out["notes"] = list(self.notes)
        return out


@dataclass(frozen=True)
class HypothesisReport:
    group_name: str
    has_decomposition: bool
    kernel_order: int | None
    quotient_order: int | None
    verdict: ActionVerdict | None
    applicable: bool
    conclusion: str
    notes: tuple = field(default_factory=tuple)

    def to_json(self):
        return {
            "group": self.group_name,
            "has_decomposition": self.has_decomposition,
            "kernel_order": self.kernel_order,
            "quotient_order": self.quotient_order,
            "verdict": self.verdict.to_json() if self.verdict else None,
            "applicable": self.applicable,
            "conclusion": self.conclusion,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Induced action on integral cohomology via bar chain maps


def _pullback_vector(res, alpha: GroupHom, n, vec):
    """(alpha^-1)^* z for an integer degree-n cochain vector z on the
    ``BarResolution`` res.  An automorphism permutes the tuples, and the
    coordinate of z at t moves to alpha(t), so the result is z alpha^-1.
    Verdicts and witnesses are those of alpha^*: the bar resolution is
    functorial, so alpha^* and its inverse (alpha^-1)^* both preserve the
    coboundaries, and each fixes exactly the classes the other fixes."""
    out = np.zeros(len(vec), dtype=object)
    out[res.number(np.asarray(alpha.mapping)[res.tuples(n)])] = vec
    return out.tolist()


def _check_witness_cells(kernel: FiniteGroup, n):
    """Raise FeasibilityError unless the degree-n cocycle extraction stays
    within ``_WITNESS_CELL_CAP``: ``integer_kernel`` of the |S| (|K|-1)^n
    rows of ``BarResolution.cocycle_rows`` by (|K|-1)^n columns allocates
    (|K|-1)^n x (|S| (|K|-1)^n + (|K|-1)^n) cells, S the greedy
    generating set of K.  The largest it admits is the order-39 kernel
    C13 : C3 in degree 2, with S = (1, 3): 1444 x 4332 cells (50 MB)."""
    cols = (kernel.order - 1) ** n
    blocks = len(kernel.generating_set())
    cells = cols * (blocks * cols + cols)
    if cells > _WITNESS_CELL_CAP:
        raise FeasibilityError(
            f"degree {n} cocycle extraction needs {cells} kernel cells "
            f"(cap {_WITNESS_CELL_CAP})")


def action_witness_in_degree(kernel: FiniteGroup, alphas: list[GroupHom],
                             n):
    """The first automorphism in alphas that moves a class of H^n(K; Z),
    as (its index, a moved cocycle generator), or None.

    Generators are a saturated integral basis of the degree-n cocycles;
    alpha fixes every class iff it fixes each generator's class, tested by
    lattice membership of alpha^*(z) - z among the coboundaries.  The cap
    (``_WITNESS_CELL_CAP``) is checked first; the resolution, the basis
    and the coboundary lattice are then built once for all of alphas.

    The basis is ``integer_kernel`` of ``res.cocycle_rows``, the rows of
    delta^n at the tuples [s|...] with s in S, the greedy generating set,
    and it is the very list that the full delta^n gives.  Row operations
    keep every linear relation among the columns of [M^T | I], and each
    row of M = delta^n at a tuple [g|...] with g outside S is a
    combination of earlier rows of S blocks (the lemma at
    ``BarResolution.cocycle_rows`` and the greedy choice of S).  So its
    column of M^T is zero in any row whose earlier entries are all zero,
    and it never holds a leading entry.  The two-row steps, which read the
    leading column alone, the free rows and the basis are the same; only
    the cut columns, carried along, are gone.  The coboundary lattice
    keeps all of delta^(n-1).

    ``resolutions`` and ``modules`` are imported here, not at module
    level: only the bar witness needs them, so a report that never
    reaches it (``classify C6``, say) does not load them.
    """
    from .modules import trivial_integers
    from .resolutions import BarResolution
    _check_witness_cells(kernel, n)
    res = BarResolution(kernel, n)
    free = trivial_integers(kernel)
    cocycles = integer_kernel(res.cocycle_rows(free, n))
    boundaries = ColumnLattice(res.coboundary_matrix(free, n - 1))
    for index, alpha in enumerate(alphas):
        for z in cocycles:
            moved = _pullback_vector(res, alpha, n, z)
            diff = [a - b for a, b in zip(moved, z)]
            if not boundaries.contains(diff):
                return index, z
    return None


# ---------------------------------------------------------------------------
# Verdicts


def check_action_trivial(group: FiniteGroup, decomp: OddDecomposition,
                         max_degree: int = 4) -> ActionVerdict:
    """Verdict on the action of the quotient on H^*(BK; Z)."""
    kernel = decomp.kernel
    autos = conjugation_action(decomp)
    identity = tuple(range(kernel.order))
    if all(a.mapping == identity for a in autos):
        return ActionVerdict("proved_trivial",
                             notes=("conjugation is the identity on the "
                                    "odd kernel",))
    if all(is_inner_automorphism(kernel, a) for a in autos):
        return ActionVerdict("proved_trivial",
                             notes=("conjugation is inner; inner "
                                    "automorphisms act trivially on group "
                                    "cohomology",))
    nontrivial = [(i, a) for i, a in enumerate(autos)
                  if a.mapping != identity]
    if kernel.is_abelian:
        # exact: the action on H^2(BK; Z) = Hom(K, Q/Z) is the dual of
        # conjugation, which is faithful on automorphisms of an abelian
        # group; a nontrivial conjugation therefore moves a degree-2 class
        i, alpha = nontrivial[0]
        rep = decomp.coset_reps[i]
        witness = None
        # the explicit bar witness is optional corroboration; only attempt
        # it while the degree-2 cocycle extraction stays cheap
        if (kernel.order - 1) ** 3 <= 10000:
            try:
                found = action_witness_in_degree(kernel, [alpha], 2)
                if found is not None:
                    witness = _describe_class(found[1])
            except FeasibilityError:
                pass
        if witness is None:
            witness = ("dual of the nontrivial conjugation on "
                       "Hom(K, Q/Z)")
        return ActionVerdict("proved_nontrivial", degree=2, witness=witness,
                             acting_element=rep,
                             notes=("abelian kernel: verdict exact in all "
                                    "degrees",))
    # nonabelian kernel: bounded chain-map verdict
    checked = 0
    notes = []
    for n in range(1, max_degree + 1):
        try:
            found = action_witness_in_degree(
                kernel, [a for _, a in nontrivial], n)
        except FeasibilityError as exc:
            notes.append(f"stopped before degree {n}: {exc}")
            break
        if found is not None:
            k, z = found
            return ActionVerdict(
                "proved_nontrivial", degree=n, witness=_describe_class(z),
                acting_element=decomp.coset_reps[nontrivial[k][0]])
        checked = n
    return ActionVerdict("trivial_up_to", checked_up_to=checked,
                         notes=tuple(notes) or
                         ("nonabelian kernel: triviality certified only "
                          "in the checked range",))


def _describe_class(vec):
    terms = [f"{v}*e{t}" for t, v in enumerate(vec) if v]
    return " + ".join(terms[:6]) + (" + ..." if len(terms) > 6 else "")


def thom_simplification_applicable(group: FiniteGroup,
                                   max_degree: int = 4) -> HypothesisReport:
    """Combined report: decomposition, action verdict, and whether bordism
    over the group reduces to its 2-group quotient for unorientable
    bundles pulled back from the quotient."""
    decomp = odd_normal_complement(group)
    if decomp is None:
        return HypothesisReport(
            group.name, False, None, None, None, False,
            "no odd normal complement: the group does not split as an "
            "odd-order normal subgroup with a 2-group quotient")
    if decomp.kernel.order == 1:
        verdict = ActionVerdict("proved_trivial",
                                notes=("trivial kernel",))
        return HypothesisReport(
            group.name, True, 1, decomp.quotient.order, verdict, True,
            "identity reduction: the group is already a 2-group")
    verdict = check_action_trivial(group, decomp, max_degree)
    applicable = verdict.kind == "proved_trivial"
    if applicable:
        conclusion = (
            f"applicable: for any unorientable virtual bundle over the "
            f"classifying space of the order-{decomp.quotient.order} "
            f"quotient, the Thom spectra of the pullback and the quotient "
            f"bundle are equivalent, so bordism computations reduce to "
            f"the quotient")
    elif verdict.kind == "proved_nontrivial":
        conclusion = ("not applicable: the quotient acts nontrivially on "
                      "the cohomology of the kernel")
    else:
        conclusion = (f"undetermined: action trivial up to degree "
                      f"{verdict.checked_up_to}, which does not certify "
                      f"the hypothesis in all degrees")
    return HypothesisReport(group.name, True, decomp.kernel.order,
                            decomp.quotient.order, verdict, applicable,
                            conclusion)
