"""Group parsing, characters, and odd-normal-complement decomposition."""

import numpy as np
import pytest

from u4class import groups
from u4class.groups import (Character2, ParseError, conjugation_action,
                            is_inner_automorphism, odd_normal_complement,
                            orientation_characters, parse_group)


class TestParsing:
    def test_cyclic(self):
        g = parse_group("C2")
        assert g.order == 2 and g.is_abelian

    def test_product(self):
        g = parse_group("C3xC2")
        assert g.order == 6 and g.is_abelian and g.is_cyclic

    def test_dihedral_and_perm_model_agree(self):
        d5 = parse_group("D5")
        p5 = parse_group("perm[(1 2 3 4 5), (2 5)(3 4)]")
        assert d5.order == 10 == p5.order
        assert not d5.is_abelian and not p5.is_abelian
        d5_orders = sorted(d5.element_order(a) for a in range(10))
        p5_orders = sorted(p5.element_order(a) for a in range(10))
        assert d5_orders == p5_orders

    def test_unicode_product(self):
        assert parse_group("C3×C5").order == 15

    def test_parse_failures(self):
        for bad in ["", "C", "Cx", "xC2", "E8", "perm[(1 1 2)]",
                    "perm[(1 2)(2 3)]", "perm[]"]:
            with pytest.raises(ParseError):
                parse_group(bad)

    def test_axioms_checked_on_full_table(self):
        bad = [[0, 1], [1, 1]]
        with pytest.raises(ValueError):
            groups.FiniteGroup(bad, "broken")

    def test_random_parsed_groups_satisfy_axioms(self):
        # associativity / identity / inverse asserted on the full table
        for spec in ["C7", "D4", "C2xC2", "perm[(1 2 3), (1 2)]"]:
            g = parse_group(spec)
            n = g.order
            assert np.array_equal(g.mul[g.mul], g.mul[:, g.mul])
            for a in range(n):
                assert g.multiply(0, a) == a
                assert g.multiply(a, g.inverse(a)) == 0


class TestOrientationCharacters:
    def test_spec_examples(self):
        assert orientation_characters(parse_group("C3")) == []
        chars = orientation_characters(parse_group("C6"))
        assert len(chars) == 1
        assert len(chars[0].kernel()) == 3
        assert len(orientation_characters(parse_group("C2xC2"))) == 3

    def test_count_matches_two_rank_brute_force(self):
        # 2^r - 1 characters, r the 2-rank of the abelianization; compare
        # with brute-force enumeration of all maps to {0,1}
        for spec in ["C2", "C4", "C6", "D3", "D4", "C2xC4", "D5", "C12",
                     "perm[(1 2 3), (1 2)]"]:
            g = parse_group(spec)
            brute = 0
            if g.order <= 24:
                for mask in range(1, 1 << (g.order - 1)):
                    vals = [0] + [(mask >> (i - 1)) & 1
                                  for i in range(1, g.order)]
                    if 1 not in vals:
                        continue
                    if all(vals[g.multiply(a, b)] == (vals[a] + vals[b]) % 2
                           for a in range(g.order) for b in range(g.order)):
                        brute += 1
            assert len(orientation_characters(g)) == brute

    def test_deterministic_order(self):
        a = [c.values for c in orientation_characters(parse_group("C2xC2"))]
        b = [c.values for c in orientation_characters(parse_group("C2xC2"))]
        assert a == b == sorted(a)


class TestOddNormalComplement:
    def test_c6(self):
        d = odd_normal_complement(parse_group("C6"))
        assert d is not None
        assert d.kernel.order == 3 and d.quotient.order == 2

    def test_d5(self):
        d = odd_normal_complement(parse_group("D5"))
        assert d is not None
        assert d.kernel.order == 5 and d.kernel.is_cyclic
        assert d.quotient.order == 2

    def test_a4_has_none(self):
        a4 = parse_group("perm[(1 2 3), (1 2)(3 4)]")
        assert a4.order == 12
        assert odd_normal_complement(a4) is None

    def test_two_mod_four_always_succeeds(self):
        for spec in ["C2", "C6", "C10", "D3", "D5", "C14", "C3xC6",
                     "D7", "C18", "C2xC25"]:
            g = parse_group(spec)
            assert g.order % 4 == 2
            d = odd_normal_complement(g)
            assert d is not None
            assert d.kernel.order == g.order // 2
            assert d.kernel.order % 2 == 1
            assert d.quotient.order == 2

    def test_embedding_and_projection_are_homs(self):
        d = odd_normal_complement(parse_group("D5"))
        assert d.embed.source is d.kernel
        assert d.project.is_surjective
        assert set(d.project.kernel_elements()) == \
            {d.embed(i) for i in range(d.kernel.order)}


class TestConjugationAction:
    def test_c6_trivial(self):
        d = odd_normal_complement(parse_group("C6"))
        autos = conjugation_action(d)
        assert all(a.mapping == tuple(range(3)) for a in autos)

    def test_c3xc2_trivial(self):
        d = odd_normal_complement(parse_group("C3xC2"))
        autos = conjugation_action(d)
        assert all(a.mapping == tuple(range(3)) for a in autos)

    def test_d5_inversion(self):
        d = odd_normal_complement(parse_group("D5"))
        autos = conjugation_action(d)
        nontrivial = [a for a in autos if a.mapping != tuple(range(5))]
        assert len(nontrivial) == 1
        inv = nontrivial[0]
        k = d.kernel
        assert all(inv(i) == k.inverse(i) for i in range(5))
        assert not is_inner_automorphism(k, inv)


class TestSubgroupQuotient:
    def test_quotient_of_d3_by_rotations(self):
        d3 = parse_group("D3")
        rotations = tuple(a for a in range(6) if d3.element_order(a) in (1, 3))
        q, proj, reps = d3.quotient(rotations)
        assert q.order == 2
        assert len(reps) == 2

    def test_rejects_non_subgroups(self):
        d3 = parse_group("D3")
        rotations = [a for a in range(6) if d3.element_order(a) in (1, 3)]
        r = rotations[1]
        s = next(a for a in range(6) if d3.element_order(a) == 2)
        for bad in ({0, r, s}, set(rotations) - {0}, {r}, set()):
            with pytest.raises(ValueError, match="not a subgroup"):
                d3.subgroup(bad)
            with pytest.raises(ValueError, match="not a normal subgroup"):
                d3.quotient(bad)
        # a reflection generates a subgroup of order 2 that is not normal
        sub, _ = d3.subgroup({0, s})
        assert sub.order == 2
        with pytest.raises(ValueError, match="not a normal subgroup"):
            d3.quotient({0, s})

    def test_subgroup_and_normality_match_enumeration(self):
        from itertools import combinations
        for spec in ("D3", "C2xC2", "C4"):
            g = parse_group(spec)
            n = g.order
            for size in range(n + 1):
                for subset in combinations(range(n), size):
                    s = set(subset)
                    closed = 0 in s and all(g.multiply(a, b) in s
                                            for a in s for b in s)
                    normal = all(g.conjugate(x, k) in s
                                 for x in range(n) for k in s)
                    assert g.is_subgroup(subset) == closed, (spec, s)
                    assert g.is_normal(subset) == normal, (spec, s)

    def test_character_pullback_values(self):
        g = parse_group("C6")
        ch = orientation_characters(g)[0]
        assert [ch.value(a) for a in range(6)] == \
            [g.element_order(a) % 2 == 0 and 1 or 0 for a in range(6)] or \
            sum(ch.values) == 3
        # odd-order elements always map to 0
        for a in range(6):
            if g.element_order(a) % 2 == 1:
                assert ch.value(a) == 0


class TestGeneratingSet:
    SPECS = ("C1", "C2", "C6", "C10", "D3", "D4", "D5", "C2xC2", "C2xC4",
             "C3xC6")

    def test_generates_and_each_element_is_new(self):
        for spec in self.SPECS:
            g = parse_group(spec)
            gens = g.generating_set()
            assert g.closure(gens) == tuple(range(g.order)), spec
            for i, a in enumerate(gens):
                assert a not in g.closure(gens[:i]), (spec, i)

    def test_cyclic_groups(self):
        for n in range(2, 13):
            assert groups.cyclic_group(n).generating_set() == (1,), n
        assert groups.cyclic_group(1).generating_set() == ()

    def test_two_generators(self):
        for spec in ("D3", "D4", "C2xC2"):
            assert len(parse_group(spec).generating_set()) == 2, spec
