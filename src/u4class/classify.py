"""Stable classification tables: normal 1-types for a qualifying group,
automorphism orbits on the degree-4 bordism group, and the resulting
class tables with complete invariant labels.

Tables are generated, never hardcoded: the class list is the orbit set of
the tabulated bordism group under the recorded automorphism action, so
the headline counts (9/1/4 smooth, 10/2/8 topological) must emerge from
the pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import AbelianGroup
from .bordism import FLAVORS, ThomIdentification, bordism_group, \
    identify_thom
from .errors import HypothesisFailure
from .groups import FiniteGroup
from .hypothesis import HypothesisReport, thom_simplification_applicable

__all__ = ["HypothesisFailure", "NormalOneType", "OrbitStructure",
           "StableClass", "ClassificationTable", "CATEGORIES",
           "enumerate_normal_one_types", "aut_orbits", "stable_classes",
           "classify_group", "classification_json", "smooth_to_top_pin"]

CATEGORIES = ("smooth", "top")

# structures whose degree-4 classes carry a pin+ type eta-style invariant,
# on which bundle automorphisms act by negation
_NEGATION_STRUCTURES = {"Pin+", "TopPin+"}

_BUNDLE_NOTES = {
    "almost-spin-pin+": ("realized by the line bundle sigma over the "
                         "order-2 quotient (w2(nu) = 0)"),
    "almost-spin-pin-": ("realized by 3 sigma over the order-2 quotient "
                         "(w2(nu) = p*x^2)"),
    "totally-non-spin": "no bundle reduction: w2 nonzero on both flavors",
}

_COMPLETENESS = {
    ("smooth", "almost-spin-pin-"): (
        "the reduced eta invariant is a complete stable diffeomorphism "
        "invariant of the pin+ tangential type; its image in "
        "(Z/16)/(x ~ -x) labels the classes"),
    ("smooth", "almost-spin-pin+"): (
        "the pin- tangential degree-4 bordism group vanishes, so there "
        "is a single stable diffeomorphism class"),
    ("smooth", "totally-non-spin"): (
        "the Stiefel-Whitney numbers w_2^2 and w_4 are a complete stable "
        "diffeomorphism invariant; the bundle automorphism action is "
        "trivial"),
    ("top", "almost-spin-pin-"): (
        "the codimension-2 pin- invariant S in (Z/8)/(x ~ -x) together "
        "with the triangulation obstruction ks is a complete stable "
        "homeomorphism invariant"),
    ("top", "almost-spin-pin+"): (
        "the triangulation obstruction ks detects the two stable "
        "homeomorphism classes"),
    ("top", "totally-non-spin"): (
        "ks, w_4 and w_2^2 are together a complete stable homeomorphism "
        "invariant; the bundle automorphism action is trivial"),
}

# invariant coordinate names per (category, flavor), matching the torsion
# coordinate order of the tabulated bordism group
_COORDINATES = {
    ("smooth", "almost-spin-pin-"): ("eta",),
    ("smooth", "almost-spin-pin+"): (),
    ("smooth", "totally-non-spin"): ("w2sq", "w4"),
    ("top", "almost-spin-pin-"): ("ks", "s"),
    ("top", "almost-spin-pin+"): ("ks",),
    ("top", "totally-non-spin"): ("ks", "w2sq", "w4"),
}


@dataclass(frozen=True)
class NormalOneType:
    category: str
    flavor: str
    group_name: str
    bundle_note: str
    identification: ThomIdentification

    @property
    def structure(self):
        return self.identification.structure

    def to_json(self):
        return {"category": self.category, "flavor": self.flavor,
                "group": self.group_name, "bundle_note": self.bundle_note,
                "identification": self.identification.to_json()}


@dataclass(frozen=True)
class OrbitStructure:
    structure: str
    group: AbelianGroup
    action: str                # "negation" | "trivial"
    orbits: tuple              # tuple of orbits, each a tuple of tuples

    @property
    def count(self):
        return len(self.orbits)

    def to_json(self):
        return {"structure": self.structure, "group": self.group.to_json(),
                "action": self.action,
                "orbits": [[list(x) for x in orbit]
                           for orbit in self.orbits]}


@dataclass(frozen=True)
class StableClass:
    label: str
    representative: tuple
    orbit: tuple
    invariants: dict

    def to_json(self):
        return {"label": self.label,
                "representative": list(self.representative),
                "orbit": [list(x) for x in self.orbit],
                "invariants": dict(self.invariants)}


@dataclass(frozen=True)
class ClassificationTable:
    normal_type: NormalOneType
    bordism: AbelianGroup
    orbit_structure: OrbitStructure
    classes: tuple
    completeness: str
    citations: tuple

    @property
    def count(self):
        return len(self.classes)

    def to_json(self):
        return {"flavor": self.normal_type.flavor,
                "structure": self.normal_type.structure,
                "bordism": self.bordism.to_json(),
                "orbits": self.orbit_structure.to_json()["orbits"],
                "action": self.orbit_structure.action,
                "classes": [c.to_json() for c in self.classes],
                "count": self.count,
                "completeness": self.completeness,
                "citations": list(self.citations)}


def enumerate_normal_one_types(group: FiniteGroup, category: str,
                               report: HypothesisReport | None = None
                               ) -> list[NormalOneType]:
    """The three normal 1-types of a qualifying group.

    Requires the reduction hypothesis: |G| = 2 mod 4 with odd normal
    complement acting invisibly, so the types only see the order-2
    quotient.  A failing report raises HypothesisFailure with the report
    attached.
    """
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}; "
                         f"expected one of {CATEGORIES}")
    if report is None:
        report = thom_simplification_applicable(group)
    if not report.applicable:
        raise HypothesisFailure(report)
    if group.order % 4 != 2:
        raise HypothesisFailure(HypothesisReport(
            group.name, report.has_decomposition, report.kernel_order,
            report.quotient_order, report.verdict, False,
            f"group order {group.order} is not 2 mod 4", report.notes))
    out = []
    for flavor in FLAVORS:
        ident = identify_thom(category, flavor, report)
        out.append(NormalOneType(category, flavor, group.name,
                                 _BUNDLE_NOTES[flavor], ident))
    return out


def aut_orbits(structure: str, group: AbelianGroup) -> OrbitStructure:
    """Orbits of the bundle-automorphism action on a finite bordism group.

    Pin+ type structures carry the negation action x ~ -x (on Z/16 and on
    the Z/8 coordinate of Z/2 + Z/8; negation on 2-torsion coordinates is
    the identity anyway); all other structures act trivially.  The orbit
    count is cross-checked against the Burnside count for the involution.
    """
    if group.rank:
        raise ValueError("orbit enumeration requires a finite group")
    torsion = group.torsion
    elements = list(itertools.product(*(range(t) for t in torsion)))
    negate = structure in _NEGATION_STRUCTURES
    seen = set()
    orbits = []
    for x in elements:
        if x in seen:
            continue
        orbit = {x}
        if negate:
            orbit.add(tuple((-c) % t for c, t in zip(x, torsion)))
        orbits.append(tuple(sorted(orbit)))
        seen.update(orbit)
    if negate:
        fixed = sum(1 for x in elements
                    if all((-c) % t == c for c, t in zip(x, torsion)))
        burnside = (len(elements) + fixed) // 2
    else:
        burnside = len(elements)
    if len(orbits) != burnside:
        raise AssertionError("orbit count disagrees with Burnside count")
    if sum(len(o) for o in orbits) != len(elements):
        raise AssertionError("orbits do not partition the group")
    return OrbitStructure(structure, group,
                          "negation" if negate else "trivial",
                          tuple(orbits))


def _invariants_for(category, flavor, rep, torsion):
    names = _COORDINATES[(category, flavor)]
    if len(names) != len(rep):
        raise AssertionError("coordinate names do not match the bordism "
                             "group presentation")
    out = {}
    for name, value, t in zip(names, rep, torsion):
        if name == "eta":
            out["eta_prime"] = min(value, 16 - value)
        elif name == "s":
            out["s_prime"] = min(value, 8 - value)
        else:
            out[name] = value
    return out


def _label(invariants):
    if not invariants:
        return "unique"
    return ",".join(f"{k}={v}" for k, v in invariants.items())


def stable_classes(normal_type: NormalOneType) -> ClassificationTable:
    """The stable equivalence classes of the given normal 1-type: orbits
    of the degree-4 bordism group under bundle automorphisms, each with
    its canonical invariant label."""
    entry = bordism_group(normal_type.structure, 4)
    orbit_structure = aut_orbits(normal_type.structure, entry.group)
    torsion = entry.group.torsion
    classes = []
    for orbit in orbit_structure.orbits:
        rep = min(orbit)
        inv = _invariants_for(normal_type.category, normal_type.flavor,
                              rep, torsion)
        classes.append(StableClass(_label(inv), rep, orbit, inv))
    labels = [c.label for c in classes]
    if len(set(labels)) != len(labels):
        raise AssertionError("invariant labels are not pairwise distinct")
    key = (normal_type.category, normal_type.flavor)
    return ClassificationTable(
        normal_type, entry.group, orbit_structure, tuple(classes),
        _COMPLETENESS[key],
        (entry.citation, normal_type.identification.citation))


def classify_group(group: FiniteGroup, category: str,
                   report: HypothesisReport | None = None
                   ) -> list[ClassificationTable]:
    """The stable classes of the three normal 1-types; pass the group's
    hypothesis report if already built."""
    types = enumerate_normal_one_types(group, category, report)
    return [stable_classes(t) for t in types]


def classification_json(group: FiniteGroup, category: str,
                        tables: list[ClassificationTable] | None = None
                        ) -> dict:
    """The tables of ``classify_group`` as JSON; pass them if already
    built."""
    if tables is None:
        tables = classify_group(group, category)
    return {"group": group.name, "category": category,
            "types": [t.to_json() for t in tables]}


def smooth_to_top_pin(k: int) -> tuple:
    """The smooth-to-topological comparison on the pin+ tangential type:
    Z/16 -> Z/2 + Z/8 (coordinates ks, S), k -> (0, k mod 8).

    Surjects onto the Z/8 factor and never hits ks = 1, so the class of
    the E8 manifold is not in the image.
    """
    return (0, k % 8)
