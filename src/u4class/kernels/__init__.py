"""Elimination kernels: the unit-pivot phase and GF(2) linear algebra.

``unit_pivot_phase`` is the arbitrary-precision pure-Python engine in
``pure``, over Z only; ``linalg`` hands it each matrix whole and reduces
the remainder it leaves densely.  ``gf2`` is the one GF(2) engine, and
ranks a matrix's column masks.
"""

from . import gf2, pure
from .pure import unit_pivot_phase

# perfbench records this in its environment probe
BACKEND = "pure"
# perfbench reads this: its environment probe and its overflow-fallback
# counter look for a compiled twin here, and there is none
_fast = None

__all__ = ["BACKEND", "gf2", "pure", "unit_pivot_phase"]
