"""Hypothesis checker: action triviality and Thom-spectrum applicability.

Oracles: duality of the conjugation action on degree-2 cohomology for
abelian kernels (multiplication by a on H^2(C_m; Z) = Z/m for t -> t^a),
and the cross-module invariant that applicability implies inflation is an
isomorphism through degree 4.
"""

import itertools
import random

import numpy as np
import pytest

from u4class.cohomology import inflation_map
from u4class.errors import FeasibilityError
from u4class.groups import FiniteGroup, GroupHom, conjugation_action, \
    odd_normal_complement, parse_group
from u4class.hypothesis import (_pullback_vector, action_witness_in_degree,
                                check_action_trivial,
                                thom_simplification_applicable)
from u4class.linalg import integer_kernel
from u4class.modules import trivial_integers
from u4class.resolutions import BarResolution

from helpers import bar_rows_starting_with

C7_SEMI_C6 = "perm[(1 2 3 4 5 6 7), (2 3 5)(4 7 6), (2 7)(3 6)(4 5)]"
# order 78: the nonabelian kernel C13 : C3, inverted by the quotient
C13_SEMI_C6 = ("perm[(1 2 3 4 5 6 7 8 9 10 11 12 13), "
               "(2 4 10)(3 7 6)(5 13 11)(8 9 12), "
               "(2 13)(3 12)(4 11)(5 10)(6 9)(7 8)]")


class TestActionWitness:
    def test_identity_moves_nothing(self):
        k = parse_group("C5")
        ident = GroupHom(k, k, tuple(range(5)))
        assert action_witness_in_degree(k, [ident], 2) is None

    def test_inversion_on_c5_moves_degree_two(self):
        k = parse_group("C5")
        inv = GroupHom(k, k, tuple(k.inverse_table.tolist()))
        assert action_witness_in_degree(k, [inv], 2) is not None

    def test_power_automorphism_matches_dual_formula(self):
        # t -> t^a acts as multiplication by a on H^2(C_m; Z) = Z/m, so a
        # witness exists exactly when a != 1 mod m
        for m, a in [(5, 2), (5, 4), (7, 2), (7, 6), (9, 4), (15, 2)]:
            k = parse_group(f"C{m}")
            gen = k.cyclic_generator()
            # the automorphism sending each x to x^a
            mapping = []
            for x in range(k.order):
                y = 0
                for _ in range(a):
                    y = int(k.mul[y, x])
                mapping.append(y)
            alpha = GroupHom(k, k, tuple(mapping))
            witness = action_witness_in_degree(k, [alpha], 2)
            assert (witness is not None) == (a % m != 1), (m, a)

    def test_odd_degree_unmoved_for_cyclic(self):
        # H^1 and H^3 of an odd cyclic group vanish or are fixed
        k = parse_group("C5")
        inv = GroupHom(k, k, tuple(k.inverse_table.tolist()))
        assert action_witness_in_degree(k, [inv], 1) is None

    def test_index_of_first_moving_automorphism(self):
        k = parse_group("C5")
        ident = GroupHom(k, k, tuple(range(5)))
        inv = GroupHom(k, k, tuple(k.inverse_table.tolist()))
        index, z = action_witness_in_degree(k, [ident, inv, inv], 2)
        assert index == 1
        assert (0, z) == action_witness_in_degree(k, [inv], 2)

    def test_basis_and_lattice_built_once(self, monkeypatch):
        from u4class import hypothesis, resolutions
        calls = []

        def counted(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for module, name in ((hypothesis, "integer_kernel"),
                             (hypothesis, "ColumnLattice"),
                             (resolutions, "BarResolution")):
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        k = parse_group("C5")
        ident = GroupHom(k, k, tuple(range(5)))
        assert action_witness_in_degree(k, [ident] * 3, 2) is None
        assert sorted(calls) == ["BarResolution", "ColumnLattice",
                                 "integer_kernel"]

    def test_cap_checked_before_the_resolution(self, monkeypatch):
        from u4class import resolutions

        def unbuilt(*args):
            raise AssertionError("resolution built past the cap")

        monkeypatch.setattr(resolutions, "BarResolution", unbuilt)
        k = _odd_kernel(C13_SEMI_C6)
        ident = GroupHom(k, k, tuple(range(k.order)))
        with pytest.raises(FeasibilityError, match="9032809152"):
            action_witness_in_degree(k, [ident], 3)


def _odd_kernel(spec):
    return odd_normal_complement(parse_group(spec)).kernel


_PREFIX_KERNELS = [(f"C{m}", n) for m in range(3, 22) for n in (1, 2)] + [
    ("C3xC3", 1), ("C3xC3", 2),
    ("K(D3xC5)", 2), ("K(D5xC3)", 2), ("K(D3xC7)", 2), ("K(D7xC3)", 2),
    ("K(C7_SEMI_C6)", 1), ("K(C7_SEMI_C6)", 2)]


def _prefix_group(name):
    if name.startswith("K("):
        spec = name[2:-1]
        return _odd_kernel(C7_SEMI_C6 if spec == "C7_SEMI_C6" else spec)
    return parse_group(name)


class TestCocycleRows:
    """The witness basis comes from the rows [s|...], s in the greedy
    generating set S, of delta^n; it must be the full kernel's, list for
    list."""

    @pytest.mark.parametrize("name, n", _PREFIX_KERNELS)
    def test_prefix_kernel_is_the_full_kernel(self, name, n):
        k = _prefix_group(name)
        res = BarResolution(k, n)
        free = trivial_integers(k)
        prefix = res.cocycle_rows(free, n)
        full = res.coboundary_matrix(free, n)
        assert prefix.nrows == len(k.generating_set()) * res.rank(n) \
            <= full.nrows
        assert integer_kernel(prefix) == integer_kernel(full)

    def test_kernels_with_two_generators(self):
        # the products' kernels need the rows of a second generator
        for name in ("C3xC3", "K(D3xC5)", "K(D5xC3)", "K(D3xC7)",
                     "K(D7xC3)", "K(C7_SEMI_C6)"):
            assert _prefix_group(name).generating_set() != (1,), name

    @pytest.mark.parametrize("name", ["C21", "C3xC3", "K(D3xC7)",
                                      "K(C7_SEMI_C6)"])
    def test_prefix_rows_generate(self, name):
        # S generates K, and every g outside S lies in the group that the
        # s in S below g generate, so the rows of block g combine rows of
        # earlier S blocks
        k = _prefix_group(name)
        gens = k.generating_set()
        assert k.closure(gens) == tuple(range(k.order))
        for g in set(range(1, k.order)) - set(gens):
            assert g in k.closure([s for s in gens if s < g]), g

    def test_witness_memory(self):
        # D3xC7's kernel C3 x C7 has S = (1, 7): the cut keeps 2 of the 20
        # blocks of delta^2, 800 rows where the prefix to 7 kept 2800, and
        # the traced peak of the witness fell from 11.3 MB to about 4.2
        import tracemalloc
        decomp = odd_normal_complement(parse_group("D3xC7"))
        k = decomp.kernel
        assert k.generating_set() == (1, 7)
        res = BarResolution(k, 2)
        assert res.cocycle_rows(trivial_integers(k), 2).nrows == \
            len(k.generating_set()) * res.rank(2) == 800
        identity = tuple(range(k.order))
        alpha = next(a for a in conjugation_action(decomp)
                     if a.mapping != identity)
        tracemalloc.start()
        try:
            found = action_witness_in_degree(k, [alpha], 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found is not None
        assert peak < 6 * 10**6

    @pytest.mark.parametrize("name, n", [("C3xC3", 1), ("C3xC3", 2),
                                         ("K(D5xC3)", 2)])
    def test_rows_that_do_not_generate_change_the_kernel(self, name, n):
        k = _prefix_group(name)
        assert k.generating_set() == (1, 3)
        assert k.closure([1]) != tuple(range(k.order))
        res = BarResolution(k, n)
        free = trivial_integers(k)
        assert integer_kernel(bar_rows_starting_with(res, free, n, (1,))) \
            != integer_kernel(res.coboundary_matrix(free, n))


def _loop_pullback_vector(group, alpha, n, vec):
    """alpha^* of an integer cochain vector, tuple by tuple: decode each
    tuple from its base |G|-1 digits, map it, and add its coordinate at
    the image's number."""
    base = group.order - 1
    out = [0] * len(vec)
    for idx, v in enumerate(vec):
        rest, digits = idx, []
        for _ in range(n):
            digits.append(rest % base)
            rest //= base
        tgt = 0
        for d in reversed(digits):
            tgt = tgt * base + (alpha(d + 1) - 1)
        out[tgt] += v
    return out


def _automorphisms(group):
    """Every automorphism, found by sending the generating set to each
    tuple of nonidentity elements and walking the Cayley graph."""
    gens = group.generating_set()
    mul = group.mul.tolist()
    out = []
    for images in itertools.product(range(1, group.order), repeat=len(gens)):
        mapping, frontier, consistent = {0: 0}, [0], True
        while frontier:
            e = frontier.pop()
            for g, x in zip(gens, images):
                e2 = mul[e][g]
                f2 = mul[mapping[e]][x]
                if e2 not in mapping:
                    mapping[e2] = f2
                    frontier.append(e2)
                consistent &= mapping[e2] == f2
        if consistent and len(set(mapping.values())) == group.order:
            out.append(GroupHom(group, group,
                                tuple(mapping[a] for a in range(group.order))))
    return out


class TestPullbackVector:
    @pytest.mark.parametrize("spec, count", [("C5", 4), ("C7", 6),
                                             ("C3xC3", 48)])
    def test_matches_tuple_loop(self, spec, count):
        k = parse_group(spec)
        autos = _automorphisms(k)
        assert len(autos) == count
        rng = random.Random(count)
        for n in (1, 2, 3):
            res = BarResolution(k, n)
            for alpha in autos:
                vec = [rng.randint(-9, 9) for _ in range(res.rank(n))]
                assert _pullback_vector(res, alpha, n, vec) == \
                    _loop_pullback_vector(k, alpha, n, vec)


class TestCheckActionTrivial:
    def test_c6_trivial(self):
        g = parse_group("C6")
        v = check_action_trivial(g, odd_normal_complement(g))
        assert v.kind == "proved_trivial"

    def test_c3xc2_trivial(self):
        g = parse_group("C3xC2")
        v = check_action_trivial(g, odd_normal_complement(g))
        assert v.kind == "proved_trivial"

    def test_d5_nontrivial_degree_two(self):
        g = parse_group("D5")
        v = check_action_trivial(g, odd_normal_complement(g))
        assert v.kind == "proved_nontrivial"
        assert v.degree == 2
        assert v.witness
        assert v.acting_element is not None

    def test_abelian_two_mod_four_always_trivial(self):
        for spec in ["C2", "C6", "C10", "C14", "C18", "C22", "C26", "C30",
                     "C34", "C38", "C42", "C46", "C50", "C3xC6", "C5xC10",
                     "C2xC25"]:
            g = parse_group(spec)
            assert g.is_abelian and g.order % 4 == 2
            v = check_action_trivial(g, odd_normal_complement(g))
            assert v.kind == "proved_trivial", spec

    def test_nonabelian_bounded_verdict(self):
        g = parse_group(C7_SEMI_C6)
        assert g.order == 42
        d = odd_normal_complement(g)
        assert d is not None and not d.kernel.is_abelian
        v = check_action_trivial(g, d)
        # inversion on the 7-part first moves cohomology in degree 6, so
        # the bounded check finds nothing and must not overclaim
        assert v.kind == "trivial_up_to"
        assert v.checked_up_to >= 2


    def test_order_39_kernel_reaches_degree_two(self):
        # the cap bounds the cells integer_kernel allocates for the
        # generator rows of delta^n: in degree 2, with S = (1, 3),
        # 38^2 x (2 * 38^2 + 38^2) = 6,255,408
        g = parse_group(C13_SEMI_C6)
        d = odd_normal_complement(g)
        assert d.kernel.order == 39 and not d.kernel.is_abelian
        assert max(d.kernel.generating_set()) == 3
        v = check_action_trivial(g, d)
        assert v.kind == "trivial_up_to" and v.checked_up_to == 2
        assert v.notes == ("stopped before degree 3: degree 3 cocycle "
                           "extraction needs 9032809152 kernel cells "
                           "(cap 10000000)",)


class TestApplicability:
    def test_c6(self):
        r = thom_simplification_applicable(parse_group("C6"))
        assert r.applicable
        assert r.kernel_order == 3 and r.quotient_order == 2
        assert "reduce" in r.conclusion

    def test_c2_identity_reduction(self):
        r = thom_simplification_applicable(parse_group("C2"))
        assert r.applicable and r.kernel_order == 1

    def test_d5_not_applicable(self):
        r = thom_simplification_applicable(parse_group("D5"))
        assert not r.applicable
        assert r.verdict.kind == "proved_nontrivial"

    def test_a4_no_decomposition(self):
        r = thom_simplification_applicable(
            parse_group("perm[(1 2 3), (1 2)(3 4)]"))
        assert not r.has_decomposition and not r.applicable

    def test_nonabelian_undetermined(self):
        r = thom_simplification_applicable(parse_group(C7_SEMI_C6))
        assert not r.applicable
        assert r.verdict.kind == "trivial_up_to"
        assert "undetermined" in r.conclusion

    def test_inner_conjugation_applicable(self):
        # F21 x C2 with (0, 1), index 1, swapped for (k0, 1), index
        # 2 k0 + 1: the least element of the odd kernel's other coset is
        # then (k0, 1), and k0 is not central (F21 has trivial centre), so
        # conjugation by it is a nontrivial inner automorphism of F21
        f21 = parse_group("perm[(1 2 3 4 5 6 7), (2 3 5)(4 7 6)]")
        assert f21.order == 21
        k0 = 1
        assert any(f21.mul[k0, x] != f21.mul[x, k0] for x in range(21))
        mul = f21.direct_product(parse_group("C2")).mul
        swap = np.arange(42)
        swap[[1, 2 * k0 + 1]] = [2 * k0 + 1, 1]
        g = FiniteGroup(swap[mul[np.ix_(swap, swap)]], "F21xC2'")
        d = odd_normal_complement(g)
        assert d.kernel.order == 21 and d.coset_reps == (0, 1)
        r = thom_simplification_applicable(g)
        assert r.verdict.kind == "proved_trivial"
        assert r.verdict.notes == ("conjugation is inner; inner "
                                   "automorphisms act trivially on group "
                                   "cohomology",)
        assert r.applicable

    def test_json_shape(self):
        data = thom_simplification_applicable(parse_group("C6")).to_json()
        assert data["applicable"] is True
        assert data["verdict"]["kind"] == "proved_trivial"

    def test_applicable_implies_inflation_isomorphism(self):
        for spec in ["C6", "C10", "C18", "C3xC6"]:
            g = parse_group(spec)
            r = thom_simplification_applicable(g)
            assert r.applicable, spec
            inf = inflation_map(odd_normal_complement(g).project, 4)
            assert inf.isomorphism_degrees() == (0, 1, 2, 3, 4), spec
