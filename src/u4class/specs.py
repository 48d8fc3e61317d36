"""The syntax of group expressions: the split of a product into its
factors and the patterns of a single factor.

Standard library only, so the command line can refuse a malformed
product (``classify C2xx``) before it loads numpy and the group layer.
``groups.parse_group`` builds each factor from this split.
"""

from __future__ import annotations

import re

from .errors import ParseError

__all__ = ["CYCLIC_RE", "DIHEDRAL_RE", "PERM_RE", "split_product"]

CYCLIC_RE = re.compile(r"^C(\d+)$")
DIHEDRAL_RE = re.compile(r"^D(\d+)$")
PERM_RE = re.compile(r"^perm\[(.*)\]$")


def split_product(spec: str) -> list[str]:
    """The stripped factors of ``AxB``/``A×B``, split outside brackets; a
    spec without a product is its own single factor.  ParseError for an
    empty spec or an empty factor."""
    spec = spec.strip()
    if not spec:
        raise ParseError("empty group spec")
    parts = []
    depth = 0
    cur = []
    for ch in spec:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if depth == 0 and (ch == "x" or ch == "×"):
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    if any(not p.strip() for p in parts):
        raise ParseError(f"malformed product expression {spec!r}")
    return [p.strip() for p in parts]
