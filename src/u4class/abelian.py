"""Finitely generated abelian groups in invariant-factor form, the value
type of every (co)homology, bordism and spectral-page answer.

Standard library only, so a layer that needs the type alone (``bordism``
and the ``tables`` command) loads no numpy.  ``linalg`` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

__all__ = ["AbelianGroup"]


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus torsion chain.

    Torsion coefficients are >= 2 and form a divisibility chain
    d_1 | d_2 | ... | d_k.
    """

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"torsion coefficient {d} < 2")
            if prev is not None and d % prev:
                raise ValueError("torsion coefficients not a divisor chain")
            prev = d

    @staticmethod
    def from_cyclic_orders(orders) -> "AbelianGroup":
        """Normalize a direct sum of cyclic groups (0 means Z) to invariant
        factors."""
        free = 0
        primary = {}  # prime -> list of exponents
        for m in orders:
            m = abs(m)
            if m == 0:
                free += 1
                continue
            if m == 1:
                continue
            for p, e in _factorize(m):
                primary.setdefault(p, []).append(e)
        depth = max((len(v) for v in primary.values()), default=0)
        factors = [1] * depth
        for p, exps in primary.items():
            exps.sort(reverse=True)
            for i, e in enumerate(exps):
                factors[i] *= p**e
        factors.reverse()  # ascending divisibility
        return AbelianGroup(free, tuple(factors))

    def order(self) -> int | None:
        """Group order, or None if infinite."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def exponent(self) -> int | None:
        if self.rank:
            return None
        return self.torsion[-1] if self.torsion else 1

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup.from_cyclic_orders(
            [0] * (self.rank + other.rank) + list(self.torsion)
            + list(other.torsion))

    def tensor(self, other: "AbelianGroup") -> "AbelianGroup":
        """Tensor product over Z."""
        orders = [0] * (self.rank * other.rank)
        orders += list(self.torsion) * other.rank
        orders += list(other.torsion) * self.rank
        for a in self.torsion:
            for b in other.torsion:
                orders.append(gcd(a, b))
        return AbelianGroup.from_cyclic_orders(orders)

    def tor(self, other: "AbelianGroup") -> "AbelianGroup":
        """Torsion product Tor_1(self, other)."""
        return AbelianGroup.from_cyclic_orders(
            [gcd(a, b) for a in self.torsion for b in other.torsion])

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _factorize(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out
