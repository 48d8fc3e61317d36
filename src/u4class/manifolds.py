"""Symbolic calculus of named generator 4-manifolds: invariant vectors
and stable-equivalence verdicts for connected-sum expressions.

Connected-sum additivity of every listed invariant is a library axiom:
M # N is bordant to the disjoint union M u N, so bordism invariants add.
Comparisons trust the caller's declaration that both expressions carry
the declared category and structure (flagged in every verdict); only the
stored definedness flags are checked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ManifoldError

__all__ = ["ManifoldError", "ManifoldExpr", "InvariantVector",
           "EquivalenceVerdict", "parse_manifold", "generator_invariants",
           "invariant_vector", "stably_equivalent", "GENERATORS",
           "STRUCTURES"]

GENERATORS = ("RP4", "Q", "RP2xRP2", "E8", "S4", "S2xS2")
_BASES = ("RP4", "Q", "RP2xRP2")
_SUMMANDS = ("S2xS2", "E8", "S4")
_SIGNED = ("RP4", "Q")
STRUCTURES = ("pin+", "pin-", "none")

# eta in Z/16 for the smooth pin+ tangential type, per pin structure sign;
# the two pin+ structures on RP4 map to +-1 and the two on Q to +-9
# (eta computed analytically in the literature, imported as data)
_ETA = {("RP4", "+"): 1, ("RP4", "-"): 15,
        ("Q", "+"): 9, ("Q", "-"): 7,
        ("S4", "+"): 0, ("S4", "-"): 0,
        ("S2xS2", "+"): 0, ("S2xS2", "-"): 0}

# S in Z/8 for the topological pin+ tangential type: the image k mod 8 of
# eta under the comparison Z/16 -> Z/8 on the smoothable generators
# (``classify.smooth_to_top_pin``), with S(RP4) a generator; E8
# contributes 0 (not in the comparison image)
_S_INV = {**{key: eta % 8 for key, eta in _ETA.items()},
          ("E8", "+"): 0, ("E8", "-"): 0}

# triangulation obstruction (topological category only)
_KS = {"RP4": 0, "Q": 0, "RP2xRP2": 0, "E8": 1, "S4": 0, "S2xS2": 0}

# Stiefel-Whitney numbers (w2sq, w4); RP4 and RP2xRP2 derived from total
# Stiefel-Whitney class arithmetic, E8 from its even intersection form
# (w2 = 0) and Euler characteristic 10 (w4 = chi mod 2 = 0), Q shares
# the homotopy type of RP4
_SW = {"RP4": (0, 1), "Q": (0, 1), "RP2xRP2": (1, 1), "E8": (0, 0),
       "S4": (0, 0), "S2xS2": (0, 0)}


_TERM_RE = re.compile(r"^(RP4|RP2xRP2|Q|E8|S4|S2xS2)(?:\(([+-])\))?$")


@dataclass(frozen=True)
class ManifoldExpr:
    """Connected sum of named generators; at most one non-simply-connected
    base, remaining summands simply connected (or E8)."""

    terms: tuple          # (name, sign or None) in input order
    text: str

    @property
    def base(self):
        for name, _ in self.terms:
            if name in _BASES:
                return name
        return None

    def __str__(self):
        return self.text


def parse_manifold(text: str) -> ManifoldExpr:
    parts = [p.strip() for p in text.split("#")]
    if not parts or any(not p for p in parts):
        raise ManifoldError(f"malformed manifold expression {text!r}")
    terms = []
    for part in parts:
        m = _TERM_RE.match(part)
        if not m:
            raise ManifoldError(
                f"unknown generator {part!r}; known: "
                + ", ".join(GENERATORS))
        name, sign = m.group(1), m.group(2)
        if sign is not None and name not in _SIGNED:
            raise ManifoldError(
                f"{name} does not carry a pin structure sign tag")
        terms.append((name, sign))
    bases = [n for n, _ in terms if n in _BASES]
    if len(bases) > 1:
        raise ManifoldError(
            "at most one non-simply-connected base is allowed, got "
            + ", ".join(bases))
    canonical = " # ".join(n + (f"({s})" if s else "")
                           for n, s in terms)
    return ManifoldExpr(tuple(terms), canonical)


@dataclass(frozen=True)
class InvariantVector:
    """Bordism invariants with definedness flags tied to the declared
    category and structure."""

    category: str
    structure: str
    eta: int | None           # Z/16, smooth pin+ only
    s_inv: int | None         # Z/8, topological pin+ only
    ks: int | None            # Z/2, topological only
    w2sq: int                 # Z/2
    w4: int                   # Z/2

    @property
    def eta_prime(self):
        return None if self.eta is None else min(self.eta, 16 - self.eta)

    @property
    def s_prime(self):
        return None if self.s_inv is None else min(self.s_inv,
                                                   8 - self.s_inv)

    def to_json(self):
        return {"category": self.category, "structure": self.structure,
                "eta": self.eta, "eta_prime": self.eta_prime,
                "s_inv": self.s_inv, "s_prime": self.s_prime,
                "ks": self.ks, "w2sq": self.w2sq, "w4": self.w4}


def _check_category_structure(category, structure):
    if category not in ("smooth", "top"):
        raise ManifoldError(f"unknown category {category!r}")
    if structure not in STRUCTURES:
        raise ManifoldError(f"unknown structure {structure!r}; "
                            f"expected one of {STRUCTURES}")


def generator_invariants(name: str, sign: str | None, category: str,
                         structure: str) -> InvariantVector:
    """Invariant vector of a single named generator in the declared
    category and structure."""
    _check_category_structure(category, structure)
    if name not in GENERATORS:
        raise ManifoldError(f"unknown generator {name!r}")
    if name == "E8" and category == "smooth":
        raise ManifoldError(
            "the E8 manifold exists only topologically; smooth "
            "invariants are undefined")
    if sign is not None and name not in _SIGNED:
        raise ManifoldError(f"{name} carries no pin structure sign")
    # sign tags only influence the pin+ invariants; elsewhere they are
    # carried but inert
    sign = sign or "+"
    eta = s_inv = ks = None
    if structure == "pin+":
        if category == "smooth":
            if (name, sign) not in _ETA:
                raise ManifoldError(
                    f"{name} does not admit a pin+ structure; eta is "
                    "undefined")
            eta = _ETA[(name, sign)]
        else:
            if (name, sign) not in _S_INV:
                raise ManifoldError(
                    f"{name} does not admit a topological pin+ "
                    "structure; S is undefined")
            s_inv = _S_INV[(name, sign)]
    if category == "top":
        ks = _KS[name]
    w2sq, w4 = _SW[name]
    return InvariantVector(category, structure, eta, s_inv, ks, w2sq, w4)


def invariant_vector(expr: ManifoldExpr, category: str,
                     structure: str) -> InvariantVector:
    """Componentwise sum of the generator vectors: every listed invariant
    is additive under connected sum (M # N is bordant to M u N)."""
    vectors = [generator_invariants(name, sign, category, structure)
               for name, sign in expr.terms]

    def add(field, modulus):
        values = [getattr(v, field) for v in vectors]
        if any(v is None for v in values):
            return None
        return sum(values) % modulus

    return InvariantVector(
        category, structure,
        add("eta", 16), add("s_inv", 8), add("ks", 2),
        add("w2sq", 2), add("w4", 2))


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    category: str
    structure: str
    left: InvariantVector
    right: InvariantVector
    witness: tuple            # (invariant, left value, right value, agree)
    trust_note: str

    def to_json(self):
        return {"equivalent": self.equivalent, "category": self.category,
                "structure": self.structure,
                "left": self.left.to_json(),
                "right": self.right.to_json(),
                "witness": [{"invariant": n, "left": a, "right": b,
                             "agree": ok}
                            for n, a, b, ok in self.witness],
                "trust_note": self.trust_note}


_TRUST_NOTE = ("comparison assumes both expressions carry the declared "
               "category/structure and share a normal 1-type; only "
               "stored definedness flags are verified")


def stably_equivalent(e1: ManifoldExpr, e2: ManifoldExpr, category: str,
                      structure: str) -> EquivalenceVerdict:
    """Stable equivalence within the declared normal 1-type: the complete
    invariants agree up to the bundle-automorphism orbit identification
    (eta and S compared through their +- orbit representatives)."""
    v1 = invariant_vector(e1, category, structure)
    v2 = invariant_vector(e2, category, structure)
    witness = []
    # orbit-folded invariants first, then the direct ones
    for name in ("eta_prime", "s_prime"):
        a, b = getattr(v1, name), getattr(v2, name)
        if a is not None or b is not None:
            witness.append((name, a, b, a == b))
    for name in ("ks", "w2sq", "w4"):
        a, b = getattr(v1, name), getattr(v2, name)
        if a is not None or b is not None:
            witness.append((name, a, b, a == b))
    equivalent = all(ok for _, _, _, ok in witness)
    return EquivalenceVerdict(equivalent, category, structure, v1, v2,
                              tuple(witness), _TRUST_NOTE)
