"""Spectral sequence E2 pages: Lyndon-Hochschild-Serre pages for the
extension by the odd normal complement, and Atiyah-Hirzebruch pages over
bordism coefficient tables.

No differentials are ever computed.  Collapse is certified only "for
degree reasons": every differential touching the requested diagonal in
range has zero source or zero target.  Otherwise the report states an
order upper bound only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import AbelianGroup
from .bordism import bordism_group
from .cohomology import cohomology, homology
from .groups import Character2, FiniteGroup, OddDecomposition, \
    conjugation_action
from .modules import module_from_abelian_group, trivial_integers, \
    twisted_integers

__all__ = ["E2Page", "DiagonalReport", "lhs_e2_page",
           "change_coefficients", "twisted_thom_homology", "ahss_e2_page",
           "diagonal_report"]

_ZERO = AbelianGroup(0, ())


@dataclass(frozen=True)
class E2Page:
    kind: str                  # "LHS-cohomological" | "AHSS-homological"
    max_total: int
    entries: dict              # (p, q) -> AbelianGroup
    notes: dict = field(default_factory=dict)
    flags: tuple = ()

    def entry(self, p, q):
        if p < 0 or q < 0:
            return _ZERO
        return self.entries.get((p, q), _ZERO)

    def to_json(self):
        return {
            "kind": self.kind,
            "max_total": self.max_total,
            "entries": {f"{p},{q}": self.entry(p, q).to_json()
                        for (p, q) in sorted(self.entries)},
            "notes": {f"{p},{q}": n
                      for (p, q), n in sorted(self.notes.items())},
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class DiagonalReport:
    total_degree: int
    entries: tuple             # ((p, q), AbelianGroup) surviving candidates
    order_bound: int
    collapse_certified: bool
    reasons: tuple

    def to_json(self):
        return {
            "total_degree": self.total_degree,
            "entries": [{"p": p, "q": q, "group": g.to_json()}
                        for (p, q), g in self.entries],
            "order_bound": self.order_bound,
            "collapse_certified": self.collapse_certified,
            "reasons": list(self.reasons),
        }


# ---------------------------------------------------------------------------
# LHS


def _kernel_cohomology_module(decomp: OddDecomposition, q,
                              twist: Character2, exponents):
    """H^q(K; Z) as a module over the quotient: conjugation-induced
    action, twisted by the sign character.  exponents is None when
    conjugation fixes K pointwise, else for each coset representative the
    a with t -> t^a on the cyclic K = <t>."""
    if q == 0:
        return twisted_integers(twist)
    kernel = decomp.kernel
    hq = cohomology(kernel, trivial_integers(kernel), q)
    # t -> t^a acts on H^{2k}(C_m; Z) = Z/m as multiplication by a^k; odd
    # cohomology vanishes
    if exponents is None or q % 2 == 1 or hq.order() == 1:
        return module_from_abelian_group(decomp.quotient, hq,
                                         sign_character=twist)
    mats = [[[pow(a, q // 2, kernel.order)]] for a in exponents]
    return module_from_abelian_group(decomp.quotient, hq,
                                     sign_character=twist,
                                     action_matrices=mats)


def _conjugation_exponents(decomp: OddDecomposition, autos):
    """For each automorphism t -> t^a of the cyclic kernel <t>, the
    exponent a: the position of the image of t among t's powers."""
    kernel = decomp.kernel
    if not kernel.is_cyclic:
        raise NotImplementedError(
            "nontrivial conjugation action on the cohomology of a non-cyclic "
            "kernel is outside the supported page constructions")
    gen = kernel.cyclic_generator()
    logs = kernel.powers(gen).tolist()
    return [logs.index(auto(gen)) for auto in autos]


def lhs_e2_page(decomp: OddDecomposition, twist: Character2,
                max_total: int = 5) -> E2Page:
    """E2 of the extension: entry (p, q) = H^p(P; H^q(K; Z) twisted).

    When conjugation acts nontrivially the closed-form simplification of
    the page does not apply; the page is still built with the actual
    action and the mismatch is flagged.
    """
    if twist.group.order != decomp.quotient.order:
        raise ValueError("twist character must live on the quotient")
    autos = conjugation_action(decomp)
    identity = tuple(range(decomp.kernel.order))
    nontrivial = any(a.mapping != identity for a in autos)
    entries, notes = {}, {}
    flags = []
    exponents = None
    for q in range(max_total + 1):
        # H^0(K; Z) = Z carries no action; it shows from row 1 on
        if q == 1 and nontrivial:
            exponents = _conjugation_exponents(decomp, autos)
            flags.append(
                "conjugation acts nontrivially on kernel cohomology; the "
                "trivial-action page formula does not apply, entries use "
                "the actual action")
        module = _kernel_cohomology_module(decomp, q, twist, exponents)
        for p in range(max_total + 1 - q):
            entries[(p, q)] = cohomology(decomp.quotient, module, p)
            notes[(p, q)] = (f"H^{p}(quotient; H^{q}(kernel; Z) twisted "
                             "by the orientation character)")
    return E2Page("LHS-cohomological", max_total, entries, notes,
                  tuple(flags))


# ---------------------------------------------------------------------------
# Coefficients and AHSS


def change_coefficients(h: AbelianGroup, a: AbelianGroup,
                        h_prev: AbelianGroup | None = None) -> AbelianGroup:
    """H_p(X; A) from integral homology: (H_p tensor A) + Tor(H_{p-1}, A).

    h is H_p(X; Z); h_prev is H_{p-1}(X; Z) (omit for the p = 0 case).
    """
    out = h.tensor(a)
    if h_prev is not None:
        out = out.direct_sum(h_prev.tor(a))
    return out


def twisted_thom_homology(group: FiniteGroup,
                          character: Character2 | None,
                          n: int) -> AbelianGroup:
    """Reduced degree-n homology of the rank-zero twisted Thom object:
    H_n(BG; Z_w) by the degree-preserving Thom isomorphism; for a trivial
    twist (character None) this is untwisted reduced homology."""
    if character is None:
        if n == 0:
            return _ZERO
        return homology(group, trivial_integers(group), n)
    return homology(group, twisted_integers(character), n)


def ahss_e2_page(homology_of_x, structure: str,
                 max_total: int = 5) -> E2Page:
    """E2 of the Atiyah-Hirzebruch spectral sequence: entry (p, q) =
    H_p(X; Omega_q) assembled by universal coefficients.

    homology_of_x maps a degree to the integral homology of X; structure
    names a bordism coefficient table, or "point" for the point spectrum.
    The top degree, the costliest and the one a feasibility bound refuses
    first, is computed first.
    """
    integral = [homology_of_x(p) for p in range(max_total, -1, -1)][::-1]
    entries, notes = {}, {}
    for q in range(max_total + 1):
        if structure == "point":
            omega = AbelianGroup(1, ()) if q == 0 else _ZERO
            citation = "point spectrum: Omega_0 = Z only"
        else:
            entry = bordism_group(structure, q)
            omega, citation = entry.group, entry.citation
        for p in range(max_total + 1 - q):
            prev = integral[p - 1] if p >= 1 else None
            entries[(p, q)] = change_coefficients(integral[p], omega, prev)
            notes[(p, q)] = (f"H_{p}(X; Omega_{q}^{structure}) "
                             f"[{citation}]")
    return E2Page("AHSS-homological", max_total, entries, notes)


# ---------------------------------------------------------------------------
# Diagonal reports


def _differentials_touching(n, max_r):
    """All (source, target) bidegrees of d_r, r >= 2, with source or
    target on the homological total-degree-n diagonal."""
    out = []
    for r in range(2, max_r + 1):
        for p in range(n + 1):
            q = n - p
            # out of the diagonal: d_r: (p, q) -> (p - r, q + r - 1)
            out.append(((p, q), (p - r, q + r - 1)))
            # into the diagonal: d_r: (p + r, q - r + 1) -> (p, q)
            out.append(((p + r, q - r + 1), (p, q)))
    return out


def diagonal_report(page: E2Page, n: int) -> DiagonalReport:
    """Order bound and degree-reasons collapse status for total degree n.

    For a homological page differentials run d_r: (p, q) ->
    (p - r, q + r - 1); for a cohomological page the roles of source and
    target swap, which the zero-source/zero-target criterion absorbs.
    """
    if page.max_total < n + 1:
        raise ValueError("page range must exceed the diagonal degree")
    diag = [((p, n - p), page.entry(p, n - p)) for p in range(n + 1)]
    surviving = tuple(e for e in diag if e[1].order() != 1)
    bound = 1
    for _, g in surviving:
        order = g.order()
        if order is None:
            bound = None   # an infinite entry gives no finite bound
            break
        bound *= order
    reasons = []
    collapse = True
    for src, tgt in _differentials_touching(n, max_r=page.max_total + 1):
        if page.entry(*src).order() == 1:
            continue
        if page.entry(*tgt).order() == 1:
            continue
        collapse = False
        reasons.append(f"d: {src} -> {tgt} has nonzero source and target; "
                       "collapse not certified for degree reasons")
    if collapse:
        reasons = [f"every differential touching total degree {n} in "
                   "range has zero source or zero target"]
    return DiagonalReport(n, surviving, bound, collapse, tuple(reasons))
