"""Cohomology engine: module coefficients, mod-2 rings, inflation.

Oracles: 2-periodic resolutions for cyclic groups, the polynomial ring
H^*(BZ/2; Z/2) = F2[x], Maschke vanishing for odd order, and agreement of
independently computed Betti numbers.
"""

import hashlib
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import u4class
from u4class.cohomology import (BarMod2Complex, _pullback_cochain,
                                inflation_map,
                                mod2_dimensions, mod2_ring, cohomology,
                                homology)
from u4class.groups import Character2, GroupHom, cyclic_group, \
    odd_normal_complement, orientation_characters, parse_group
from u4class.linalg import AbelianGroup, IntMatrix, mod2_rank, \
    smith_normal_form
from u4class.modules import (GModule, mod2_integers,
                             module_from_abelian_group, trivial_integers,
                             twisted_integers)
from u4class.kernels import gf2
from u4class.resolutions import BarResolution, FeasibilityError

from helpers import bar_rows_starting_with, record_composition_checks


def w_module(spec):
    g = parse_group(spec)
    return g, twisted_integers(orientation_characters(g)[0])


class TestCohomology:
    def test_twisted_c2(self):
        g, m = w_module("C2")
        names = [str(cohomology(g, m, n)) for n in range(6)]
        assert names == ["0", "Z/2", "0", "Z/2", "0", "Z/2"]

    def test_c3_integral(self):
        g = parse_group("C3")
        z = trivial_integers(g)
        assert str(cohomology(g, z, 1)) == "0"
        assert str(cohomology(g, z, 2)) == "Z/3"

    def test_twisted_c6(self):
        g, m = w_module("C6")
        names = [str(cohomology(g, m, n)) for n in range(1, 5)]
        assert names == ["Z/2", "0", "Z/2", "0"]

    def test_presented_coefficients(self):
        g = parse_group("C2")
        m2 = mod2_integers(g)
        assert [str(cohomology(g, m2, n)) for n in range(5)] == ["Z/2"] * 5

    def test_two_torsion_law(self):
        for spec in ["C2", "C6", "C10"]:
            g, m = w_module(spec)
            for n in range(1, 5):
                h = cohomology(g, m, n)
                assert h.rank == 0
                assert all(t in (1, 2) for t in h.torsion) or not h.torsion

    def test_maschke_vanishing(self):
        for spec in ["C3", "C5", "C7", "C9", "C3xC3", "C11", "C13", "C15"]:
            g = parse_group(spec)
            z = trivial_integers(g)
            for n in range(1, 4):
                h = cohomology(g, z, n)
                assert h.rank == 0
                assert all(g.order % t == 0 for t in h.torsion)
            assert mod2_dimensions(g, 3) == (1, 0, 0, 0)


class TestGroupMismatch:
    """The resolution and the module must be over the group asked for."""

    def test_resolution_of_another_group(self):
        c4 = parse_group("C4")
        res = BarResolution(parse_group("C2xC2"), 2)
        with pytest.raises(ValueError, match="must be over C4, not C2xC2"):
            cohomology(c4, trivial_integers(c4), 2, res)
        assert str(cohomology(c4, trivial_integers(c4), 2,
                              BarResolution(c4, 2))) == "Z/4"

    def test_module_of_another_group(self):
        c3, c6 = parse_group("C3"), parse_group("C6")
        for degree in (cohomology, homology):
            with pytest.raises(ValueError, match="must be over C3, not C6"):
                degree(c3, trivial_integers(c6), 1)

    def test_equal_table_accepted(self):
        g, h = parse_group("D3"), parse_group("D3")
        assert g is not h
        assert str(cohomology(g, trivial_integers(h), 2,
                              BarResolution(h, 2))) == "Z/2"


class TestHomology:
    def test_twisted_c2(self):
        g, m = w_module("C2")
        names = [str(homology(g, m, n)) for n in range(5)]
        assert names == ["Z/2", "0", "Z/2", "0", "Z/2"]

    def test_coinvariants(self):
        for spec in ["C2", "C6", "D3"]:
            g = parse_group(spec)
            assert str(homology(g, trivial_integers(g), 0)) == "Z"

    def test_h1_c3(self):
        g = parse_group("C3")
        assert str(homology(g, trivial_integers(g), 1)) == "Z/3"

    def test_presented_homology_mod2(self):
        g = parse_group("C2")
        m2 = mod2_integers(g)
        assert [str(homology(g, m2, n)) for n in range(4)] == ["Z/2"] * 4

    @pytest.mark.parametrize("spec", [f"C{k}" for k in range(1, 13)]
                             + ["D3", "D5"])
    def test_mod2_homology_over_bar(self, spec):
        # homology ranks the cuts of the dual's coboundaries: the same
        # counts as cohomology over bar and as the default resolution
        g = parse_group(spec)
        res, z2 = BarResolution(g, 4), mod2_integers(g)
        for n in range(5):
            got = homology(g, z2, n, res)
            assert got == cohomology(g, z2, n, res) == homology(g, z2, n), n

    def test_d5_degree_four_over_bar(self):
        # torsion of the cuts of the dual's delta^4 (13122 x 6561); the
        # full chain matrices (6561 x 59049) are only checked to compose
        g, zw = w_module("D5")
        res = BarResolution(g, 4)
        assert str(homology(g, trivial_integers(g), 4, res)) == "0"
        assert str(homology(g, zw, 4, res)) == "Z/2"

    @staticmethod
    def _involution_module(g):
        # moduli (2, 2); a reflection acts by [[1, 0], [1, -1]], whose
        # dual [[1, 1], [0, -1]] differs
        flip = orientation_characters(g)[0]
        acts = [[[1, 0], [1, -1]] if flip.value(h) else [[1, 0], [0, 1]]
                for h in range(g.order)]
        return module_from_abelian_group(g, AbelianGroup(0, (2, 2)),
                                         action_matrices=acts)

    @staticmethod
    def _augmentation_ideal(g):
        # the ideal of Z/2[G] on the e_g = g - 1, g != 1, where
        # h e_g = e_hg - e_h (e_1 = 0); for C2xC2 it is not self-dual,
        # so its homology is not its cohomology
        k = g.order - 1
        acts = []
        for h in range(g.order):
            a = [[0] * k for _ in range(k)]
            for j in range(1, g.order):
                if g.mul[h, j]:
                    a[g.mul[h, j] - 1][j - 1] += 1
                if h:
                    a[h - 1][j - 1] -= 1
            acts.append(a)
        return GModule(g, (2,) * k, acts)

    @pytest.mark.parametrize("spec, make", [
        ("D3", "_involution_module"), ("C2xC2", "_augmentation_ideal")])
    def test_mod2_homology_of_a_non_symmetric_action(self, spec, make):
        # homology ranks cuts of the dual module's coboundaries.  Two
        # routes: the cut count against the GF(2) ranks of the full chain
        # matrices.
        g = parse_group(spec)
        m = getattr(self, make)(g)
        assert m.is_mod2_free and m.dual().actions != m.actions
        res = BarResolution(g, 3)
        for n in range(4):
            full = [mod2_rank(res.chain_matrix(m, k)) for k in (n + 1, n)]
            want = res.rank(n) * m.ngens - sum(full)
            assert homology(g, m, n, res).torsion == (2,) * want, n

class TestMod2Ring:
    def test_c2_polynomial_ring(self):
        s = mod2_ring(parse_group("C2"), 4)
        assert s.dimensions == (1, 1, 1, 1, 1)
        # x^p cup x^q is the generator in degree p+q throughout the range
        for p in range(5):
            for q in range(5 - p):
                assert s.products[(p, q)][0][0] == (1,)

    def test_c3_trivial(self):
        s = mod2_ring(parse_group("C3"), 3)
        assert s.dimensions == (1, 0, 0, 0)

    def test_c6_matches_c2(self):
        s = mod2_ring(parse_group("C6"), 4)
        assert s.dimensions == (1, 1, 1, 1, 1)
        for p in range(5):
            for q in range(5 - p):
                assert s.products[(p, q)][0][0] == (1,)

    def test_non_associative_products_rejected(self):
        import dataclasses
        from u4class import cohomology as cohomology_module
        s = mod2_ring(parse_group("C2"), 4)
        cohomology_module._check_ring_axioms(s)
        # x^2 x^2 := 0 keeps the table unital and commutative, but then
        # (x x) x^2 = 0 while x (x x^2) = x x^3 = x^4
        products = dict(s.products)
        products[(2, 2)] = (((0,),),)
        with pytest.raises(AssertionError, match="not associative"):
            cohomology_module._check_ring_axioms(
                dataclasses.replace(s, products=products))

    def test_klein_four_dimensions(self):
        s = mod2_ring(parse_group("C2xC2"), 4)
        # polynomial ring on two degree-1 classes
        assert s.dimensions == (1, 2, 3, 4, 5)

    def test_d3_dimensions(self):
        s = mod2_ring(parse_group("D3"), 3)
        # H^*(D3; Z/2) = H^*(C2; Z/2) since the 3-part is invisible mod 2
        assert s.dimensions == (1, 1, 1, 1)

    def test_determinism(self):
        a = mod2_ring(parse_group("C2xC2"), 3)
        b = mod2_ring(parse_group("C2xC2"), 3)
        assert a == b

    def test_json_round_trip_fields(self):
        s = mod2_ring(parse_group("C2"), 2)
        data = s.to_json()
        assert data["dimensions"] == [1, 1, 1]
        assert data["group"] == "C2"


def _bar_masks(group, degree):
    """(matrix, full mod-2 column masks, rows per first tuple entry) of
    the bar delta^n for each n <= degree."""
    res = BarResolution(group, degree)
    free = trivial_integers(group)
    out = []
    for n in range(degree + 1):
        m = res.coboundary_matrix(free, n)
        out.append((m, m.mod2_column_masks(), (group.order - 1) ** n))
    return out


def _rows_starting_with(masks, firsts, block):
    """The bits of each mask on the rows [s|...], s in firsts, stacked in
    that order; read off the full masks bit by bit."""
    low = (1 << block) - 1
    return [sum(((c >> ((s - 1) * block)) & low) << (i * block)
                for i, s in enumerate(firsts)) for c in masks]


def _row_blocks(m, firsts, block):
    """The rows of m in blocks of ``block`` rows, block s - 1 for each s
    in firsts, stacked in that order."""
    position = np.full(m.nrows, -1)
    for i, s in enumerate(firsts):
        position[(s - 1) * block:s * block] = np.arange(i * block,
                                                        (i + 1) * block)
    rows, cols, vals = m.arrays
    keep = position[rows] >= 0
    return IntMatrix(len(firsts) * block, m.ncols, position[rows[keep]],
                     cols[keep], vals[keep])


def _cut_modules(group):
    """Z, Z/2, and where the group has an orientation character w, Z_w and
    the two-generator module (Z/2 + Z/4)_w."""
    out = [trivial_integers(group), mod2_integers(group)]
    chars = orientation_characters(group)
    if chars:
        out.append(twisted_integers(chars[0]))
        out.append(module_from_abelian_group(
            group, AbelianGroup(0, (2, 4)), sign_character=chars[0]))
    return out


class TestGeneratorRowsLemma:
    """A normalized coboundary vanishes iff it vanishes on the tuples that
    start with a generator, so the kernel of the generator rows of every
    bar delta^n is the kernel of delta^n."""

    SPECS = tuple(f"C{n}" for n in range(1, 11)) + \
        ("D3", "D4", "D5", "C2xC2", "C2xC4")

    def test_generator_rows_have_the_full_kernel(self):
        for spec in self.SPECS:
            g = parse_group(spec)
            gens = g.generating_set()
            for n, (_, full, block) in enumerate(_bar_masks(g, 4)):
                part = _rows_starting_with(full, gens, block)
                assert gf2.kernel(part) == gf2.kernel(full), (spec, n)

    @pytest.mark.parametrize("spec, firsts", [
        ("D3", (3,)), ("C2xC2", (1,)), ("C6", (3,))])
    def test_non_generating_rows_lose_the_kernel(self, spec, firsts):
        g = parse_group(spec)
        assert g.closure(firsts) != tuple(range(g.order))
        assert any(gf2.kernel(_rows_starting_with(full, firsts, block))
                   != gf2.kernel(full)
                   for _, full, block in _bar_masks(g, 4))

    CUTS = [(spec, None) for spec in SPECS] + [
        ("D3", 3), ("C2xC2", 1), ("C6", 3)]

    @pytest.mark.parametrize("spec, blocks", CUTS, ids=[
        spec if blocks is None else f"{spec}-{blocks}"
        for spec, blocks in CUTS])
    def test_restricted_assembly_is_the_row_cut(self, spec, blocks):
        """The rows assembled from the faces of the tuples [s|...] alone
        are those rows of the full delta^n: ``cocycle_rows`` for s in the
        generating set, and ``boundary(n + 1, range(1, blocks + 1))`` for
        prefixes that do and do not generate."""
        g = parse_group(spec)
        for module in _cut_modules(g):
            k = module.ngens
            res = BarResolution(g, 4)
            for n in range(5):
                if blocks is None:
                    part = res.cocycle_rows(module, n)
                    firsts = g.generating_set()
                else:
                    firsts = range(1, blocks + 1)
                    part = bar_rows_starting_with(res, module, n, firsts)
                full = res.coboundary_matrix(module, n)
                assert part == _row_blocks(full, firsts, res.rank(n) * k), \
                    (spec, k, n)

    @pytest.mark.parametrize("spec", ["C6", "D3"])
    def test_restricted_and_full_in_either_order(self, spec):
        """The cut and the full delta^n agree in either order of assembly
        and each has a cache slot of its own: after either order the cache
        holds exactly those two, and a repeat call returns the same
        object, never the other one."""
        g = parse_group(spec)
        gens = g.generating_set()
        free = trivial_integers(g)
        full_key, cut_key = (free.actions, 4), (free.actions, 4, "cut")
        pairs = []
        for restricted_first in (True, False):
            res = BarResolution(g, 4)
            cache = res._cob_cache
            if restricted_first:
                part = res.cocycle_rows(free, 4)
                assert list(cache) == [cut_key] and cache[cut_key] is part
                full = res.coboundary_matrix(free, 4)
            else:
                full = res.coboundary_matrix(free, 4)
                assert list(cache) == [full_key] and cache[full_key] is full
                part = res.cocycle_rows(free, 4)
            assert set(cache) == {full_key, cut_key}
            assert cache[full_key] is full and cache[cut_key] is part
            for _ in range(2):
                assert res.cocycle_rows(free, 4) is part
                assert res.coboundary_matrix(free, 4) is full
            assert len(cache) == 2
            assert (part.nrows, part.ncols) == \
                (len(gens) * res.rank(4), res.rank(4))
            assert (full.nrows, full.ncols) == (res.rank(5), res.rank(4))
            assert part.nrows < full.nrows
            assert part == _row_blocks(full, gens, res.rank(4))
            pairs.append((part, full))
        assert pairs[0] == pairs[1]
        # the full top coboundary is never assembled for the complex
        cx = BarMod2Complex(g, 4)
        assert sorted(key[1:] for key in cx.res._cob_cache) == \
            [(0,), (1,), (2,), (3,), (4, "cut")]

    RANK_SPECS = [(f"C{n}", 4) for n in range(2, 9)] + \
        [("D3", 4), ("C2xC2", 4), ("D5", 3)]

    @pytest.mark.parametrize("spec, top", RANK_SPECS,
                             ids=[spec for spec, _ in RANK_SPECS])
    def test_cut_has_the_full_gf2_rank(self, spec, top):
        """The cut delta^n, ranked as cohomology ranks it (``mod2_rank``),
        has the GF(2) rank of the full delta^n, for Z/2 and, where the
        group has an orientation character, Z_w."""
        g = parse_group(spec)
        modules = [mod2_integers(g)]
        chars = orientation_characters(g)
        if chars:
            modules.append(twisted_integers(chars[0]))
        res = BarResolution(g, top)
        for module in modules:
            for n in range(top + 1):
                full = res.coboundary_matrix(module, n)
                cut = res.cocycle_rows(module, n)
                assert cut.nrows < full.nrows or g.order == 2
                assert mod2_rank(cut) == gf2.rank(full.mod2_column_masks()), \
                    (spec, module.moduli, n)

    @staticmethod
    def _free_modules(g):
        """Z, and where g has an orientation character w, Z_w and Z^2 with
        w acting by [[1, 0], [1, -1]], whose dual acts by its transpose."""
        out = [trivial_integers(g)]
        chars = orientation_characters(g)
        if chars:
            flip = [[1, 0], [1, -1]]
            acts = [flip if chars[0].value(h) else [[1, 0], [0, 1]]
                    for h in range(g.order)]
            out += [twisted_integers(chars[0]),
                    module_from_abelian_group(g, AbelianGroup(2, ()),
                                              action_matrices=acts)]
        return out

    @staticmethod
    def _smith(m):
        return tuple(d for d in smith_normal_form(m).diagonal if d)

    INTEGER_SPECS = ([(f"C{k}", 4) for k in range(2, 9)]
                     + [(f"C{k}", 3) for k in range(9, 13)]
                     + [("D3", 4), ("C2xC2", 4), ("D4", 3), ("D5", 3),
                        ("C2xC4", 3)])

    @pytest.mark.parametrize("spec, top", INTEGER_SPECS,
                             ids=[spec for spec, _ in INTEGER_SPECS])
    def test_cut_has_the_full_smith_diagonal(self, spec, top):
        """Over free coefficients, whose action is a homomorphism, each
        row block [g|t] of delta^n is an integer combination of the cut's
        (the lemma of ``BarResolution.cocycle_rows``), so the cut has the
        row lattice, hence the nonzero Smith diagonal, of delta^n: the
        torsion that integer (co)homology reads off it.  The same holds
        over the dual module, which chains read; for Z and Z_w it acts
        as the module does, so its matrices are the same objects."""
        g = parse_group(spec)
        res = BarResolution(g, top)
        compared, modules = set(), self._free_modules(g)[:2]
        for module in modules:
            for coeffs in (module, module.dual()):
                for n in range(top + 1):
                    cut = res.cocycle_rows(coeffs, n)
                    if id(cut) in compared:
                        continue
                    compared.add(id(cut))
                    full = res.coboundary_matrix(coeffs, n)
                    assert cut.nrows < full.nrows or g.order == 2
                    assert self._smith(cut) == self._smith(full), \
                        (spec, coeffs.actions[1], n)
        assert len(compared) == (top + 1) * len(modules)

    @pytest.mark.parametrize("spec", ["D3", "C2xC2", "C6"])
    def test_cut_smith_diagonal_of_a_non_symmetric_action(self, spec):
        """The same for Z^2 with a reflection acting by [[1, 0], [1, -1]]:
        its dual is another module, with another cut."""
        g = parse_group(spec)
        module = self._free_modules(g)[2]
        dual = module.dual()
        assert dual.actions != module.actions
        res = BarResolution(g, 3)
        for coeffs in (module, dual):
            for n in range(4):
                assert self._smith(res.cocycle_rows(coeffs, n)) == \
                    self._smith(res.coboundary_matrix(coeffs, n)), n

    @pytest.mark.parametrize("spec, firsts", [
        ("D3", (3,)), ("C6", (3,)), ("C2xC2", (1,))])
    def test_non_generating_rows_lose_the_smith_diagonal(self, spec, firsts):
        """Rows [s|...] for s in a set that does not generate change the
        rank or the torsion of delta^1 over Z, and of some delta^n,
        n <= 2, over Z_w."""
        g = parse_group(spec)
        assert g.closure(firsts) != tuple(range(g.order))
        res = BarResolution(g, 2)
        z, zw = self._free_modules(g)[:2]
        changed = {module: [
            self._smith(bar_rows_starting_with(res, module, n, firsts))
            != self._smith(res.coboundary_matrix(module, n))
            for n in range(3)] for module in (z, zw)}
        assert changed[z][1] and any(changed[zw]), changed

    @pytest.mark.parametrize("spec", ["C6", "D3"])
    def test_integer_torsion_reads_only_cuts(self, monkeypatch, spec):
        """Over bar, H^n and H_n with Z, Z_w and the reflection module,
        n = 1..4, hand ``smith_normal_form`` only the cut of delta^(n-1)
        (cochains) or of the dual's delta^n (chains), while the
        composition check still gets the full d_in and d_out; the answers
        are those of the default resolution."""
        from u4class import cohomology as engine
        pairs = record_composition_checks(monkeypatch)
        eliminated, snf = [], engine.smith_normal_form

        def eliminating(m):
            eliminated.append(m)
            return snf(m)
        monkeypatch.setattr(engine, "smith_normal_form", eliminating)
        g = parse_group(spec)
        res = BarResolution(g, 4)
        for module in self._free_modules(g):
            for n in range(1, 5):
                for degree in (cohomology, homology):
                    want = degree(g, module, n)
                    eliminated.clear()
                    pairs.clear()
                    got = degree(g, module, n, res)
                    assert got == want, (module.actions[1], n, degree)
                    if degree is cohomology:
                        coeffs, m = module, n - 1
                        full = [res.coboundary_matrix(module, k)
                                for k in (n - 1, n)]
                    else:
                        coeffs, m = module.dual(), n
                        full = [res.chain_matrix(module, k)
                                for k in (n + 1, n)]
                    cut = res.cocycle_rows(coeffs, m)
                    assert cut is not res.coboundary_matrix(coeffs, m)
                    assert len(eliminated) == 1 and eliminated[0] is cut
                    (d_in, d_out), = pairs
                    assert [d_in, d_out] == full

    @pytest.mark.parametrize("spec", ["C6", "D3", "C10"])
    def test_top_degree_cocycle_check_keeps_its_strength(self, spec):
        g = parse_group(spec)
        top = 4
        cx = BarMod2Complex(g, top)
        masks = _bar_masks(g, top)
        full = masks[top][1]
        nonzero = [t for t in range(cx.rank(top)) if full[t]][:50]
        assert len(nonzero) == 50
        for t in nonzero:
            with pytest.raises(ValueError, match="not a cocycle"):
                cx.coordinates(top, 1 << t)
        # a representative plus a coboundary keeps its class
        below = masks[top - 1][1]
        coboundary = below[0] ^ below[len(below) // 2] ^ below[-1]
        assert coboundary
        for i, rep in enumerate(cx.basis(top)):
            unit = tuple(int(j == i) for j in range(cx.dimension(top)))
            assert cx.coordinates(top, rep) == unit
            assert cx.coordinates(top, rep ^ coboundary) == unit


def _mod2_complex_inserting_every_column(group, degree):
    """The mod-2 bar complex built without the skip, over the full
    coboundaries: each degree's echelon takes every column of delta^n,
    and its kernel, every cocycle k_j, is filtered through the echelon
    of delta^(n-1), keeping the k_j that enlarge it.  Per degree: the
    basis, that extended echelon with the basis positions in it, the
    pivots of the echelon of delta^(n-1), and the columns of delta^n."""
    out = []
    below = gf2.Echelon()
    for _, cols, _ in _bar_masks(group, degree):
        ech = gf2.Echelon(cols)
        pinned = set(below.pivots)
        reps, positions = [], []
        for z in ech.kernel:
            pos = below.ninserted
            if below.insert(z):
                reps.append(z)
                positions.append(pos)
        out.append((reps, below, positions, pinned, cols))
        below = ech
    return out


class TestMod2SkipOracle:
    """``BarMod2Complex`` skips the columns of delta^n that the echelon of
    delta^(n-1) pivots on and keeps its echelon's kernel as the basis.
    The complex that inserts every column and filters the kernel gives
    the same bases, labels and coordinates."""

    SPECS = [(f"C{n}", 4) for n in range(2, 9)] + \
        [("D3", 4), ("D4", 4), ("C2xC2", 4), ("C2xC4", 4),
         ("C2xC2xC2", 4)]

    @pytest.mark.parametrize("spec, top", SPECS)
    def test_matches_inserting_every_column(self, spec, top):
        g = parse_group(spec)
        cx = BarMod2Complex(g, top)
        oracle = _mod2_complex_inserting_every_column(g, top)
        rng = random.Random(spec)
        for n, (reps, ech, positions, pinned, cols) in enumerate(oracle):
            assert cx.basis(n) == reps, n
            assert cx.basis_labels(n) == tuple(
                cx.tuple_label(n, (m & -m).bit_length() - 1) for m in reps)
            # the kernel of the echelon that skips the pinned columns is
            # the basis, with no vector to spare
            ech_skipping = gf2.Echelon()
            for j, c in enumerate(cols):
                if j in pinned:
                    ech_skipping.skip()
                else:
                    ech_skipping.insert(c)
            assert len(ech_skipping.kernel) == cx.dimension(n) == \
                len(reps), n
            # a class plus a coboundary: a random sum of basis vectors
            # and of columns of delta^(n-1)
            lower = oracle[n - 1][4] if n else []
            for _ in range(5):
                mask = 0
                for v in reps + lower:
                    if rng.random() < 0.5:
                        mask ^= v
                combo = ech.coordinates(mask)
                assert cx.coordinates(n, mask) == \
                    tuple((combo >> p) & 1 for p in positions)
        for p in range(top + 1):
            for q in range(top + 1 - p):
                reps, ech, positions, _, _ = oracle[p + q]
                for a in cx.basis(p):
                    for b in cx.basis(q):
                        cup = cx.cup(p, q, a, b)
                        combo = ech.coordinates(cup)
                        assert cx.coordinates(p + q, cup) == tuple(
                            (combo >> k) & 1 for k in positions), (p, q)


class TestMod2Dimensions:
    def test_matches_bar_complex(self):
        for spec in ["C2", "C4", "C6", "C2xC2", "D3"]:
            g = parse_group(spec)
            cx = BarMod2Complex(g, 3)
            bar_dims = tuple(cx.dimension(n) for n in range(4))
            assert mod2_dimensions(g, 3) == bar_dims, spec

    def test_large_cyclic(self):
        # periodic route: C18 mod-2 cohomology matches C2
        assert mod2_dimensions(parse_group("C18"), 4) == (1, 1, 1, 1, 1)


class TestInflation:
    def test_identity(self):
        g = parse_group("C2")
        ident = GroupHom(g, g, tuple(range(2)))
        inf = inflation_map(ident, 3)
        assert inf.isomorphism_degrees() == (0, 1, 2, 3)
        assert all(m == ((1,),) for m in inf.matrices)

    def test_non_surjective_rejected(self):
        g = parse_group("C2")
        with pytest.raises(ValueError):
            inflation_map(GroupHom(g, g, (0, 0)), 2)

    def test_c6_to_c2(self):
        d = odd_normal_complement(parse_group("C6"))
        inf = inflation_map(d.project, 4)
        assert inf.route == "bar"
        assert inf.isomorphism_degrees() == (0, 1, 2, 3, 4)

    def test_d5_to_c2(self):
        d = odd_normal_complement(parse_group("D5"))
        inf = inflation_map(d.project, 4)
        assert inf.route == "bar"
        assert inf.isomorphism_degrees() == (0, 1, 2, 3, 4)

    def test_large_group_closed_form(self):
        d = odd_normal_complement(parse_group("C3xC6"))
        inf = inflation_map(d.project, 4)
        assert inf.route == "closed-form"
        assert inf.isomorphism_degrees() == (0, 1, 2, 3, 4)

    def test_closed_form_matches_bar_when_both_work(self, monkeypatch):
        # force the closed-form route on a group the bar can also handle
        d = odd_normal_complement(parse_group("C10"))
        bar = inflation_map(d.project, 3)
        monkeypatch.setenv("U4CLASS_MAX_GENERATORS", "100")
        closed = inflation_map(d.project, 3)
        assert bar.route == "bar" and closed.route == "closed-form"
        assert bar.source_dimensions == closed.source_dimensions
        assert bar.isomorphism_degrees() == closed.isomorphism_degrees()

    @pytest.mark.parametrize("spec, max_degree", [
        ("C6", 4), ("C10", 4), ("D3", 4), ("D5", 4), ("C3xC6", 3)])
    def test_product_cochain_is_pulled_back_cocycle(self, spec, max_degree):
        # the closed-form route's certificate, re-verified on G's side:
        # the product cochain over every tuple is phi^* of P's class
        # [1|...|1] -> 1, and a cocycle of G
        phi = odd_normal_complement(parse_group(spec)).project
        src = BarMod2Complex(phi.source, max_degree)
        tgt = BarMod2Complex(phi.target, max_degree)
        chi = np.asarray(phi.mapping, dtype=bool)
        for n in range(max_degree + 1):
            bits = chi[src.res.tuples(n)].all(axis=1)
            mask = int.from_bytes(
                np.packbits(bits, bitorder="little").tobytes(), "little")
            assert tgt.basis(n) == [1], (spec, n)
            assert mask == _pullback_cochain(phi, src, tgt, n, 1), (spec, n)
            assert src.is_cocycle(n, mask), (spec, n)

    def test_closed_form_loads_no_numpy_random(self):
        # a fresh interpreter, since this one may have loaded numpy.random
        src = os.path.dirname(os.path.dirname(u4class.__file__))
        code = ("import sys\n"
                "from u4class.cohomology import inflation_map\n"
                "from u4class.groups import odd_normal_complement, "
                "parse_group\n"
                "phi = odd_normal_complement(parse_group('C3xC6')).project\n"
                "assert inflation_map(phi, 4).route == 'closed-form'\n"
                "print('numpy.random' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("spec, order, degrees", [
        # degree 2 has equal dimensions but inflation is zero there
        ("C4", 2, (0, 1)),
        # H^1 of C2xC2 has dimension 2 against C2's 1
        ("C2xC2", 2, (0,)),
        # every degree is zero-dimensional on both sides but degree 0
        ("C1", 1, (0, 1, 2))])
    def test_isomorphism_degrees(self, spec, order, degrees):
        g = parse_group(spec)
        phi = GroupHom(g, cyclic_group(order),
                       tuple(i % order for i in range(g.order)))
        assert inflation_map(phi, 2).isomorphism_degrees() == degrees

    @pytest.mark.parametrize("spec, order, message", [
        ("C3xC6", 3, "needs a target of order 2"),
        ("C4xC9", 2, "no order-2 element maps onto the target generator"),
        ("C2xC2xC5", 2, "H\\^1 of C2xC2xC5 has dimension 2")])
    def test_closed_form_refusals(self, monkeypatch, spec, order, message):
        # each source is too large for the bar route at the default bound;
        # the projection reads the first factor, index // (|G| / |A|)
        monkeypatch.delenv("U4CLASS_MAX_GENERATORS", raising=False)
        g = parse_group(spec)
        first = parse_group(spec.split("x")[0]).order
        phi = GroupHom(g, cyclic_group(order), tuple(
            i // (g.order // first) % order for i in range(g.order)))
        with pytest.raises(FeasibilityError, match=message):
            inflation_map(phi, 4)

    def test_pullback_of_twisted_module_consistency(self):
        # sanity: cohomology of the pulled-back orientation module matches
        # the quotient's in low degrees for C6 -> C2
        d = odd_normal_complement(parse_group("C6"))
        ch = orientation_characters(d.quotient)[0]
        tw_p = twisted_integers(ch)
        tw_g = twisted_integers(Character2.from_values(
            d.project.source,
            [ch.value(d.project(g)) for g in range(d.project.source.order)]))
        for n in range(5):
            a = cohomology(d.quotient, tw_p, n)
            b = cohomology(d.project.source, tw_g, n)
            assert a == b


def _loop_pullback_cochain(phi, n, mask):
    """phi^* of a target cochain mask, tuple by tuple: decode each source
    tuple from its base |G|-1 digits, map it, and read the mask at the
    image's number, unless the image holds the identity."""
    if n == 0:
        return mask & 1
    bs, bt = phi.source.order - 1, phi.target.order - 1
    out = 0
    for idx in range(bs ** n):
        rest, image = idx, []
        for _ in range(n):
            image.append(phi(rest % bs + 1))
            rest //= bs
        if 0 in image:
            continue
        tgt = 0
        for g in reversed(image):
            tgt = tgt * bt + g - 1
        if (mask >> tgt) & 1:
            out |= 1 << idx
    return out


class TestCochainPullback:
    @pytest.mark.parametrize("spec", ["C6", "C10", "D3", "D5"])
    def test_basis_and_cups_match_tuple_loop(self, spec):
        phi = odd_normal_complement(parse_group(spec)).project
        src = BarMod2Complex(phi.source, 4)
        tgt = BarMod2Complex(phi.target, 4)
        masks = [(n, b) for n in range(5) for b in tgt.basis(n)]
        masks += [(p + q, tgt.cup(p, q, a, b)) for p in range(5)
                  for q in range(5 - p) for a in tgt.basis(p)
                  for b in tgt.basis(q)]
        for n, mask in masks:
            assert _pullback_cochain(phi, src, tgt, n, mask) == \
                _loop_pullback_cochain(phi, n, mask), (n, mask)

    @pytest.mark.parametrize("order, quotient", [(6, 3), (8, 4)])
    def test_random_masks_match_tuple_loop(self, order, quotient):
        # targets with more than one tuple per degree, so the image
        # numbers are read at many positions
        g, p = cyclic_group(order), cyclic_group(quotient)
        phi = GroupHom(g, p, tuple(i % quotient for i in range(order)))
        src, tgt = BarMod2Complex(g, 3), BarMod2Complex(p, 3)
        rng = random.Random(order)
        for n in range(4):
            for _ in range(5):
                mask = rng.getrandbits(tgt.rank(n))
                assert _pullback_cochain(phi, src, tgt, n, mask) == \
                    _loop_pullback_cochain(phi, n, mask), (n, mask)


# sha256 of json.dumps(to_json(), sort_keys=True) for mod2_ring(G, 4) and
# for inflation_map(odd_normal_complement(G).project, 4) onto the order-2
# quotient, recorded with the lowest-bit GF(2) pivot and the per-entry
# mod-2 mask loop that the current code replaced
_ANSWER_PINS = {
    ("ring", "C2"):
        "defcfce7d7e4db81a8010c992a8dabeafa7c5a653bd6149f23a6e91c63d4e70f",
    ("ring", "C6"):
        "ebf307f4e03ee70e31fceade160b03e79cc9c259136675d8f477bd50881d2593",
    ("ring", "C10"):
        "a0dfeb9b99011de0c897e373beda71f0fa98893de1064beeea434dc0584471e7",
    ("ring", "D3"):
        "a66e60ffe7508c8bf9145ffd475480564a630cad3af70be0eac14368440ca904",
    ("ring", "D4"):
        "4e2a03a9f6bf9a7de109b6142873d0b045a64af89d3da7bf64dacdd8dd0770bd",
    ("inflation", "C6"):
        "922a252a2b60e539f5a9c4d936bbf9a087fbf94a0f1058784ad892ad744ec769",
    ("inflation", "C10"):
        "28740984468686dc468ae25902cdd920290c0b22ecfd2e88dd82f4abbcadf89a",
    ("inflation", "D5"):
        "dacdd507fd9f2cd129226bfa42c95e210098b867ab4261e441739ac16b93ba29",
}


class TestAnswerPins:
    @pytest.mark.parametrize("kind, spec", list(_ANSWER_PINS),
                             ids=[f"{k}-{s}" for k, s in _ANSWER_PINS])
    def test_answer_pinned(self, kind, spec):
        group = parse_group(spec)
        if kind == "ring":
            answer = mod2_ring(group, 4)
        else:
            answer = inflation_map(odd_normal_complement(group).project, 4)
            assert answer.route == "bar"
        payload = json.dumps(answer.to_json(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == \
            _ANSWER_PINS[(kind, spec)]


def test_relation_map_against_copy_loop():
    g = parse_group("C6")
    ident = [[[int(i == j) for j in range(3)] for i in range(3)]] * 6
    for module in [module_from_abelian_group(g, ab) for ab in (
            AbelianGroup(0, (3,)), AbelianGroup(1, (2, 4)),
            AbelianGroup(2))] + [GModule(g, (3, 0, 4), ident)]:
        k = module.ngens
        gens = [i for i, m in enumerate(module.moduli) if m]
        r = len(gens)
        for copies in (0, 1, 3):
            rows = [c * k + i for c in range(copies) for i in gens]
            vals = [module.moduli[i] for _ in range(copies) for i in gens]
            f = module.relation_map(copies)
            assert f == IntMatrix(copies * k, copies * r, rows,
                                  list(range(copies * r)), vals)
            assert module.relation_preimage(f) == \
                IntMatrix.identity(copies * r)
