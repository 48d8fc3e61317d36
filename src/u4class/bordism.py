"""Low-degree bordism coefficient groups and Thom-spectrum
identifications for the normal 1-types of groups with odd normal
complement.

All table values are literature data, never recomputed here; every entry
carries its citation.  The tangential-versus-normal pin swap (MPin+- is
weakly equivalent to MTPin-+) is recorded on each identification because
dropping it silently flips the almost-spin classifications.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbelianGroup

__all__ = ["CoefficientEntry", "ThomIdentification", "bordism_group",
           "coefficient_table", "structures", "identify_thom",
           "SMOOTH_STRUCTURES", "TOP_STRUCTURES", "FLAVORS"]


@dataclass(frozen=True)
class CoefficientEntry:
    structure: str
    degree: int
    group: AbelianGroup
    citation: str

    def to_json(self):
        return {"structure": self.structure, "degree": self.degree,
                "group": self.group.to_json(), "citation": self.citation}


def _z(rank=0, *torsion):
    return AbelianGroup(rank, tuple(torsion))


_THOM = "Thom, Quelques proprietes globales des varietes " \
    "differentiables, Comment. Math. Helv. 28 (1954)"
_ABP = "Anderson-Brown-Peterson, Pin cobordism and related topics, " \
    "Comment. Math. Helv. 44 (1969) [ABP69]"
_ABP_SPIN = "Anderson-Brown-Peterson, The structure of the Spin " \
    "cobordism ring, Ann. of Math. 86 (1967); low degrees due to Milnor"
_KT = "Kirby-Taylor, Pin structures on low-dimensional manifolds, " \
    "Geometry of low-dimensional manifolds 2 (1990) [KT90]"
_KT_PLUS = _KT + "; eta-invariant identification of the Z/16 due to " \
    "Stolz, Exotic structures on 4-manifolds detected by spectral " \
    "invariants, Invent. Math. 94 (1988)"
_FQ = "Freedman-Quinn, Topology of 4-Manifolds, Princeton Univ. Press " \
    "(1990)"
_TOP_SPIN4 = _FQ + "; Omega_4 detected by signature and the " \
    "Kirby-Siebenmann triangulation obstruction"
_TOP_PIN = _KT + " together with " + _FQ + \
    "; topological pin bordism via the smooth groups and the " \
    "triangulation obstruction"
_TOP4 = "derived from the Atiyah-Hirzebruch spectral sequence over " \
    "H_*(BZ/2; Z_w) with STop coefficients (" + _FQ + "); detected by " \
    "the Stiefel-Whitney numbers w_2^2, w_4 and the Kirby-Siebenmann " \
    "obstruction"

# structure name -> degree -> (group, citation)
_TABLES = {
    "O": {0: (_z(0, 2), _THOM), 1: (_z(), _THOM), 2: (_z(0, 2), _THOM),
          3: (_z(), _THOM), 4: (_z(0, 2, 2), _THOM), 5: (_z(), _THOM)},
    "SO": {0: (_z(1), _THOM), 1: (_z(), _THOM), 2: (_z(), _THOM),
           3: (_z(), _THOM), 4: (_z(1), _THOM), 5: (_z(), _THOM)},
    "Spin": {0: (_z(1), _ABP_SPIN), 1: (_z(0, 2), _ABP_SPIN),
             2: (_z(0, 2), _ABP_SPIN), 3: (_z(), _ABP_SPIN),
             4: (_z(1), _ABP_SPIN), 5: (_z(), _ABP_SPIN)},
    "Pin+": {0: (_z(0, 2), _ABP), 1: (_z(), _KT), 2: (_z(0, 2), _KT),
             3: (_z(0, 2), _KT), 4: (_z(0, 16), _KT_PLUS),
             5: (_z(), _KT)},
    "Pin-": {0: (_z(0, 2), _ABP), 1: (_z(0, 2), _KT), 2: (_z(0, 8), _KT),
             3: (_z(), _KT), 4: (_z(), _KT), 5: (_z(), _KT)},
    "STop": {0: (_z(1), _FQ), 1: (_z(), _FQ), 2: (_z(), _FQ),
             3: (_z(), _FQ), 4: (_z(1, 2), _TOP_SPIN4),
             5: (_z(), _FQ + "; vanishes as in the smooth case")},
    "TopSpin": {0: (_z(1), _FQ), 1: (_z(0, 2), _FQ), 2: (_z(0, 2), _FQ),
                3: (_z(), _FQ), 4: (_z(1, 2), _TOP_SPIN4)},
    "TopPin+": {0: (_z(0, 2), _TOP_PIN), 1: (_z(), _TOP_PIN),
                2: (_z(0, 2), _TOP_PIN), 3: (_z(0, 2), _TOP_PIN),
                4: (_z(0, 2, 8), _TOP_PIN + "; RP^4 generates the Z/8 "
                    "factor")},
    "TopPin-": {0: (_z(0, 2), _TOP_PIN), 1: (_z(0, 2), _TOP_PIN),
                2: (_z(0, 8), _TOP_PIN), 3: (_z(), _TOP_PIN),
                4: (_z(0, 2), _TOP_PIN + "; generated by the E8 "
                    "manifold")},
    "Top": {0: (_z(0, 2), _THOM + "; unchanged topologically in degree 0"),
            1: (_z(), _TOP4), 2: (_z(0, 2), _TOP4), 3: (_z(), _TOP4),
            4: (_z(0, 2, 2, 2), _TOP4)},
}

SMOOTH_STRUCTURES = ("O", "SO", "Spin", "Pin+", "Pin-")
TOP_STRUCTURES = ("STop", "TopSpin", "TopPin+", "TopPin-", "Top")


def structures():
    return SMOOTH_STRUCTURES + TOP_STRUCTURES


def bordism_group(structure: str, degree: int) -> CoefficientEntry:
    try:
        table = _TABLES[structure]
    except KeyError:
        raise KeyError(f"unknown bordism structure {structure!r}; "
                       f"known: {', '.join(structures())}") from None
    try:
        group, citation = table[degree]
    except KeyError:
        raise KeyError(f"degree {degree} not tabulated for "
                       f"{structure}") from None
    return CoefficientEntry(structure, degree, group, citation)


def coefficient_table(structure: str) -> list:
    if structure not in _TABLES:
        raise KeyError(f"unknown bordism structure {structure!r}")
    return [bordism_group(structure, d) for d in sorted(_TABLES[structure])]


# ---------------------------------------------------------------------------
# Thom identifications for the three normal 1-types

FLAVORS = ("almost-spin-pin+", "almost-spin-pin-", "totally-non-spin")

_SWAP_NOTE = ("tangential/normal swap: the Thom spectrum of the normal "
              "pin bundle computes tangential bordism of the opposite "
              "pin type (MPin+- weakly equivalent to MTPin-+)")

_IDENTIFICATIONS = {
    # (category, flavor) -> (structure computing tangential bordism, note,
    # citation)
    ("smooth", "almost-spin-pin+"): (
        "Pin-", "normal pin+ data (w2(nu) = 0), realized by the line "
        "bundle sigma; " + _SWAP_NOTE,
        "MSpin smashed with the Thom space of sigma - 1 over BZ/2 is "
        "MTPin-; smooth pin bordism per " + _KT),
    ("smooth", "almost-spin-pin-"): (
        "Pin+", "normal pin- data (w2(nu) = p*x^2), realized by 3 sigma; "
        + _SWAP_NOTE,
        "MSpin smashed with the Thom space of 3(sigma - 1) over BZ/2 is "
        "MTPin+; smooth pin bordism per " + _KT),
    ("smooth", "totally-non-spin"): (
        "O", "totally non-spin: no pin condition survives",
        "MSO smashed with the Thom space of sigma - 1 over BZ/2 splits "
        "as MO; unoriented bordism per " + _THOM),
    ("top", "almost-spin-pin+"): (
        "TopPin-", "normal pin+ data (w2(nu) = 0); " + _SWAP_NOTE,
        "MTopSpin smashed with the Thom space of sigma - 1 is "
        "MTTopPin-; topological pin bordism per " + _TOP_PIN),
    ("top", "almost-spin-pin-"): (
        "TopPin+", "normal pin- data (w2(nu) = p*x^2); " + _SWAP_NOTE,
        "MTopSpin smashed with the Thom space of 3(sigma - 1) is "
        "MTTopPin+; topological pin bordism per " + _TOP_PIN),
    ("top", "totally-non-spin"): (
        "Top", "totally non-spin: no pin condition survives",
        "MTop splits as MSTop smashed with the Thom space of sigma - 1; "
        + _FQ),
}


@dataclass(frozen=True)
class ThomIdentification:
    category: str
    flavor: str
    structure: str
    swap_note: str
    citation: str

    def to_json(self):
        return {"category": self.category, "flavor": self.flavor,
                "structure": self.structure, "swap_note": self.swap_note,
                "citation": self.citation}


def identify_thom(category: str, flavor: str,
                  report=None) -> ThomIdentification:
    """Bordism structure computing Omega_4 of the given normal 1-type.

    Requires a passing hypothesis report when one is supplied: the
    identification only holds when the odd kernel is invisible to the
    Thom spectrum.
    """
    if report is not None and not report.applicable:
        raise ValueError(
            f"Thom identification unavailable: {report.conclusion}")
    key = (category, flavor)
    if key not in _IDENTIFICATIONS:
        raise KeyError(f"unknown category/flavor {key}")
    structure, note, citation = _IDENTIFICATIONS[key]
    return ThomIdentification(category, flavor, structure, note, citation)
