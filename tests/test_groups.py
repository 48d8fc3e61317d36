"""Group parsing, characters, and odd-normal-complement decomposition."""

import os
import subprocess
import sys

import numpy as np
import pytest

from u4class import groups
from u4class.cli import builtin_catalog_specs
from u4class.errors import FeasibilityError
from u4class.groups import (Character2, GroupHom, ParseError,
                            conjugation_action, cyclic_group,
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

    def test_permutation_group_refused_at_its_401st_element(self):
        cycle = " ".join(str(i) for i in range(1, 402))
        with pytest.raises(ParseError, match="too large"):
            parse_group(f"perm[({cycle})]")

    def test_axioms_checked_on_full_table(self):
        bad = [[0, 1], [1, 1]]
        with pytest.raises(ValueError):
            groups.FiniteGroup(bad, "broken")

    def test_random_parsed_groups_satisfy_axioms(self):
        # construction proves associativity by Light's test on a generating
        # set; recheck it here on all triples, with identity and inverses
        for spec in ["C7", "D4", "C2xC2", "perm[(1 2 3), (1 2)]"]:
            g = parse_group(spec)
            n = g.order
            assert np.array_equal(g.mul[g.mul], g.mul[:, g.mul])
            for a in range(n):
                assert g.mul[0, a] == a
                assert g.mul[a, g.inverse_table[a]] == 0


class TestOrderBound:
    """Groups above ``groups._MAX_ORDER`` are refused before their
    multiplication table is allocated."""

    @pytest.mark.parametrize("spec", ["C4097", "D2049", "C64xC65",
                                      "C2xC2xC1025"])
    def test_refused(self, spec):
        with pytest.raises(FeasibilityError, match="order 4"):
            parse_group(spec)

    def test_c20000_refused_under_an_address_space_limit(self):
        # its int32 table alone would take 1.6 GB, so under a 1 GiB
        # limit the refusal must come before any of it is allocated
        src = os.path.dirname(os.path.dirname(groups.__file__))
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from u4class.cli import main\n"
                "sys.exit(main(['classify', 'C20000']))\n")
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 1, out.stderr
        assert "C20000 has order 20000" in out.stderr

    def test_d2048_table_peak_memory(self):
        # VmHWM of a fresh interpreter (ru_maxrss would keep the peak of
        # the test process) that builds the largest dihedral table: its
        # int64 temporaries and two (n, |gens|, n) associativity tensors
        # took 652 MB; built in int32 and checked one generator at a time,
        # about 240 MB; checked a block of rows at a time, about 110 MB
        # for its 67 MB table
        src = os.path.dirname(os.path.dirname(groups.__file__))
        code = ("from u4class.groups import parse_group\n"
                "assert parse_group('D2048').order == 4096\n"
                "print(open('/proc/self/status').read()"
                ".split('VmHWM:')[1].split()[0])\n")
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert int(out.stdout) < 160 * 1024      # VmHWM is in kB

    @pytest.mark.parametrize("n", range(1, 40))
    def test_tables_match_the_closed_form(self, n):
        # i + j mod n, and r^i1 s^j1 r^i2 s^j2 = r^(i1 +- i2) s^(j1 + j2)
        # on index i + n j, evaluated in int64
        idx = np.arange(n)
        assert np.array_equal(cyclic_group(n).mul,
                              (idx[:, None] + idx) % n)
        j, i = np.divmod(np.arange(2 * n), n)
        rot = (i[:, None] + (1 - 2 * j)[:, None] * i) % n
        want = rot + n * ((j[:, None] + j) % 2)
        assert np.array_equal(groups.dihedral_group(n).mul, want)


class TestOrientationCharacters:
    def test_spec_examples(self):
        assert orientation_characters(parse_group("C3")) == []
        chars = orientation_characters(parse_group("C6"))
        assert len(chars) == 1
        assert chars[0].values.count(0) == 3
        assert len(orientation_characters(parse_group("C2xC2"))) == 3

    def test_count_matches_two_rank_brute_force(self):
        # 2^r - 1 characters, r the 2-rank of the abelianization; compare
        # with brute-force enumeration of all maps to {0,1}
        for spec in ["C2", "C4", "C6", "D3", "D4", "C2xC4", "D5", "C12",
                     "perm[(1 2 3), (1 2)]"]:
            g = parse_group(spec)
            mul = g.mul.tolist()
            brute = 0
            if g.order <= 24:
                for mask in range(1, 1 << (g.order - 1)):
                    vals = [0] + [(mask >> (i - 1)) & 1
                                  for i in range(1, g.order)]
                    if 1 not in vals:
                        continue
                    if all(vals[mul[a][b]] == (vals[a] + vals[b]) % 2
                           for a in range(g.order) for b in range(g.order)):
                        brute += 1
            assert len(orientation_characters(g)) == brute

    def test_deterministic_order(self):
        a = [c.values for c in orientation_characters(parse_group("C2xC2"))]
        b = [c.values for c in orientation_characters(parse_group("C2xC2"))]
        assert a == b == sorted(a)


class TestGroupHom:
    """``GroupHom`` checks its table against the source's whole
    multiplication table; the closed-form inflation certificate rests on
    that check."""

    def test_accepts_reduction_mod_two(self):
        phi = GroupHom(cyclic_group(4), cyclic_group(2), (0, 1, 0, 1))
        assert phi.is_surjective

    def test_rejects_non_homomorphism(self):
        with pytest.raises(ValueError, match="not a homomorphism"):
            GroupHom(cyclic_group(4), cyclic_group(2), (0, 1, 1, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length mismatch"):
            GroupHom(cyclic_group(4), cyclic_group(2), (0, 1, 0))

    def test_rejects_moving_identity(self):
        with pytest.raises(ValueError, match="identity not preserved"):
            GroupHom(cyclic_group(2), cyclic_group(2), (1, 0))

    def test_character_from_values(self):
        c4 = cyclic_group(4)
        assert Character2.from_values(c4, (0, 1, 0, 1)).values == \
            (0, 1, 0, 1)
        with pytest.raises(ValueError, match="not a homomorphism"):
            Character2.from_values(c4, (0, 1, 1, 0))
        with pytest.raises(ValueError,
                           match="character is not surjective"):
            Character2.from_values(c4, (0, 0, 0, 0))


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
        assert {a for a, b in enumerate(d.project.mapping) if b == 0} == \
            {d.embed(i) for i in range(d.kernel.order)}

    @pytest.mark.parametrize("spec", ["D15", "C6", "D3xC5",
                                      "perm[(1 2 3 4 5), (2 5)(3 4)]",
                                      "perm[(1 2 3), (1 2)(3 4)]"])
    def test_dropped_group_leaves_nothing_for_the_collector(self, spec):
        # the memo on the group holds no reference back to it, so the
        # group, its table and its decomposition go as soon as the last
        # caller drops them, with the cyclic collector off
        import gc
        import weakref
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            g = parse_group(spec)
            d = odd_normal_complement(g)
            kernel = d and d.kernel
            table, decomp = weakref.ref(g.mul), d and weakref.ref(d)
            del d
            again = odd_normal_complement(g)
            if again is not None:
                # rebuilt from the memo, not recomputed or re-checked
                assert decomp() is None and again.kernel is kernel
                assert again.group is g and again.embed.target is g
                assert again.project.source is g
                assert again.embed.source is kernel
                assert odd_normal_complement(g) is again
                decomp = weakref.ref(again)
            del g, again, kernel
            assert table() is None
            assert decomp is None or decomp() is None
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_rebuilt_decomposition_checks_nothing(self, monkeypatch):
        g = parse_group("D15")
        first = odd_normal_complement(g)
        embed, project = first.embed.mapping, first.project.mapping
        del first

        def refuse(self):
            raise AssertionError("a homomorphism was checked again")
        monkeypatch.setattr(GroupHom, "__post_init__", refuse)
        monkeypatch.setattr(groups, "_find_odd_decomposition", refuse)
        d = odd_normal_complement(g)
        assert d.embed.mapping == embed and d.project.mapping == project


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
        assert all(inv(i) == k.inverse_table[i] for i in range(5))
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
            mul = g.mul.tolist()
            inv = loop_inverses(mul)
            for size in range(n + 1):
                for subset in combinations(range(n), size):
                    s = set(subset)
                    closed = 0 in s and all(mul[a][b] in s
                                            for a in s for b in s)
                    normal = all(loop_conjugate(mul, inv, x, k) in s
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


def unchecked_table(mul):
    """A FiniteGroup shell around a table, skipping construction's checks,
    so that the associativity check can be run on a non-group."""
    g = object.__new__(groups.FiniteGroup)
    g.mul = np.asarray(mul, dtype=np.int32)
    g.order = len(g.mul)
    return g


def swapped_cyclic_loop(n):
    """The table of C_n (n even) with the intercalate at rows and columns
    1 and 1 + n/2 swapped: a Latin square with identity 0, so a loop."""
    mul = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    a, b = 1, 1 + n // 2
    mul[a, a], mul[a, b] = mul[a, b], mul[a, a]
    mul[b, a], mul[b, b] = mul[b, b], mul[b, a]
    return mul


def associative_on_all_triples(mul):
    mul = np.asarray(mul)
    return np.array_equal(mul[mul], mul[:, mul])


class TestLightAssociativity:
    """Construction checks associativity by Light's test on a generating
    set S plus a check that S generates the table."""

    @pytest.mark.parametrize("n", [6, 8])
    def test_loops_are_latin_with_identity_and_not_associative(self, n):
        mul = swapped_cyclic_loop(n)
        assert all(sorted(row) == list(range(n)) for row in mul.tolist())
        assert all(sorted(col) == list(range(n)) for col in mul.T.tolist())
        assert list(mul[0]) == list(mul[:, 0]) == list(range(n))
        assert not associative_on_all_triples(mul)

    @pytest.mark.parametrize("n", [6, 8])
    def test_loop_rejected_with_generating_set(self, n):
        mul = swapped_cyclic_loop(n)
        gens = unchecked_table(mul).generating_set()
        with pytest.raises(ValueError, match="not associative"):
            unchecked_table(mul)._check_associative(gens)
        with pytest.raises(ValueError, match="not associative"):
            groups.FiniteGroup(mul, f"loop{n}")

    @pytest.mark.parametrize("n", [6, 8])
    def test_loop_rejected_with_builder_style_list(self, n):
        # the first generator, n/2, is associative with every pair of
        # elements; only the second one, 1, exposes the loop
        mul = swapped_cyclic_loop(n)
        half = n // 2
        assert np.array_equal(mul[mul[:, half]], mul[:, mul[half]])
        with pytest.raises(ValueError, match="not associative"):
            unchecked_table(mul)._check_associative([half, 1])

    def test_generators_missing_an_element_raise(self):
        # 1 passes Light's test and generates {0, 1}; the table is not
        # associative, but only through 2, which the list does not reach
        mul = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
        assert not associative_on_all_triples(mul)
        table = unchecked_table(mul)
        assert table.closure([1]) == (0, 1)
        with pytest.raises(ValueError, match="do not generate"):
            table._check_associative([1])
        with pytest.raises(ValueError, match="not associative"):
            table._check_associative(table.generating_set())

    @pytest.mark.parametrize("cells", [1, 3 * 8, 5 * 8, 2**16])
    def test_blocks_cover_every_row(self, monkeypatch, cells):
        # C8 with one entry of its last row changed: for the generator 1
        # only the rows x = 6, 7 fail, so a check that skipped the last,
        # partial block of rows would pass it
        monkeypatch.setattr(groups, "_CHECK_BLOCK_CELLS", cells)
        mul = (np.arange(8)[:, None] + np.arange(8)) % 8
        mul[7, 4] = 0
        failing = (mul[mul[:, 1]] != mul[:, mul[1]]).any(axis=1)
        assert np.flatnonzero(failing).tolist() == [6, 7]
        with pytest.raises(ValueError, match="not associative"):
            unchecked_table(mul)._check_associative((1,))
        for spec, gens in (("C8", [1]), ("D6", [1, 6]), ("C2xC4", [1, 4])):
            parse_group(spec)._check_associative(gens)

    def test_groups_pass_with_builder_style_lists(self):
        for spec, gens in (("C12", [1]), ("D6", [1, 6]), ("C2xC4", [1, 4])):
            g = parse_group(spec)
            g._check_associative(gens)
            assert associative_on_all_triples(g.mul)


# ---------------------------------------------------------------------------
# The vectorised group layer against the per-element loops it replaced,
# restated here on the table as Python lists.

EQUIVALENCE_SPECS = builtin_catalog_specs(100) + [
    "perm[(1 2 3), (1 2)(3 4)]", "perm[(1 2 3 4 5), (2 5)(3 4)]"]


def loop_dihedral(n):
    mul = [[0] * (2 * n) for _ in range(2 * n)]
    for i1 in range(n):
        for j1 in range(2):
            for i2 in range(n):
                for j2 in range(2):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % n
                    j = (j1 + j2) % 2
                    mul[i1 + n * j1][i2 + n * j2] = i + n * j
    return mul


def loop_inverses(mul):
    return [row.index(0) for row in mul]


def loop_element_order(mul, a):
    x, o = a, 1
    while x:
        x = mul[x][a]
        o += 1
    return o


def loop_closure(mul, gens):
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = mul[a][g]
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return tuple(sorted(seen))


def loop_subgroup(mul, elements):
    order_map = [0] + [e for e in sorted(set(elements)) if e]
    index_of = {e: i for i, e in enumerate(order_map)}
    k = len(order_map)
    return [[index_of[mul[order_map[i]][order_map[j]]] for j in range(k)]
            for i in range(k)], tuple(order_map)


def loop_quotient(mul, normal_elements):
    s = set(normal_elements)
    coset_of = {}
    reps = []
    for a in range(len(mul)):
        if a in coset_of:
            continue
        coset = sorted(mul[a][k] for k in s)
        for b in coset:
            coset_of[b] = len(reps)
        reps.append(coset[0])
    q = len(reps)
    table = [[coset_of[mul[reps[i]][reps[j]]] for j in range(q)]
             for i in range(q)]
    return table, tuple(coset_of[a] for a in range(len(mul))), tuple(reps)


def loop_commutator_square(mul):
    inv = loop_inverses(mul)
    n = len(mul)
    gens = {mul[a][a] for a in range(n)}
    for a in range(n):
        for b in range(n):
            gens.add(mul[mul[a][b]][inv[mul[b][a]]])
    return loop_closure(mul, sorted(gens))


def loop_conjugate(mul, inv, g, k):
    return mul[mul[g][k]][inv[g]]


def loop_conjugation_action(decomp):
    mul = decomp.group.mul.tolist()
    inv = loop_inverses(mul)
    embed = decomp.embed.mapping
    amb_index = {a: i for i, a in enumerate(embed)}
    return [tuple(amb_index[loop_conjugate(mul, inv, g, e)] for e in embed)
            for g in decomp.coset_reps]


def loop_is_inner(mul, mapping):
    inv = loop_inverses(mul)
    n = len(mul)
    return any(all(mapping[i] == loop_conjugate(mul, inv, w, i)
                   for i in range(n)) for w in range(n))


class TestLoopEquivalence:
    def test_dihedral_tables(self):
        for n in range(1, 51):
            assert groups.dihedral_group(n).mul.tolist() == \
                loop_dihedral(n), n

    @pytest.mark.parametrize("spec", EQUIVALENCE_SPECS)
    def test_group_queries(self, spec):
        g = parse_group(spec)
        mul = g.mul.tolist()
        n = g.order
        assert g.inverse_table.tolist() == loop_inverses(mul)
        assert [g.element_order(a) for a in range(n)] == \
            [loop_element_order(mul, a) for a in range(n)]
        for gens in ([n - 1], g.generating_set(), [n // 2, n // 3]):
            assert g.closure(gens) == loop_closure(mul, gens)
        comm_sq = g.commutator_square_subgroup()
        assert comm_sq == loop_commutator_square(mul)
        normals = [comm_sq]
        decomp = groups.odd_normal_complement(g)
        if decomp is not None:
            normals.append(tuple(decomp.embed.mapping))
            assert [h.mapping for h in groups.conjugation_action(decomp)] \
                == loop_conjugation_action(decomp)
            k_mul = decomp.kernel.mul.tolist()
            for auto in groups.conjugation_action(decomp):
                assert is_inner_automorphism(decomp.kernel, auto) == \
                    loop_is_inner(k_mul, auto.mapping)
        for normal in normals:
            sub, embed = g.subgroup(normal)
            table, order_map = loop_subgroup(mul, normal)
            assert sub.mul.tolist() == table
            assert embed.mapping == order_map
            quo, proj, reps = g.quotient(normal)
            table, projection, loop_reps = loop_quotient(mul, normal)
            assert quo.mul.tolist() == table
            assert proj.mapping == projection
            assert reps == loop_reps

    def test_odd_decomposition_is_computed_once(self):
        for spec in ("C6", "D5", "C3xC6", "D3xC5",
                     "perm[(1 2 3 4 5), (2 5)(3 4)]"):
            g = parse_group(spec)
            d = groups.odd_normal_complement(g)
            assert groups.odd_normal_complement(g) is d
            fresh = groups.odd_normal_complement(parse_group(spec))
            assert fresh is not d
            assert d.group is g and fresh.group is not g
            assert d.kernel.mul.tolist() == fresh.kernel.mul.tolist()
            assert d.quotient.mul.tolist() == fresh.quotient.mul.tolist()
            assert d.embed.mapping == fresh.embed.mapping
            assert d.project.mapping == fresh.project.mapping
            assert d.coset_reps == fresh.coset_reps
        a4 = parse_group("perm[(1 2 3), (1 2)(3 4)]")
        assert groups.odd_normal_complement(a4) is None
        assert groups.odd_normal_complement(a4) is None


def loop_powers(mul, a):
    out, x = [], 0
    while True:
        out.append(x)
        x = mul[x][a]
        if x == 0:
            return out


class TestPowers:
    """``FiniteGroup.powers`` against repeated multiplication."""

    @pytest.mark.parametrize("spec", ["C1", "C12", "D5", "C3xC6", "C298",
                                      "D149", "D3xC49"])
    def test_every_element_against_loop(self, spec):
        g = parse_group(spec)
        mul = g.mul.tolist()
        for a in range(g.order):
            assert g.powers(a).tolist() == loop_powers(mul, a), (spec, a)
            assert len(g.powers(a)) == g.element_order(a)

    def test_table_is_built_once(self):
        g = parse_group("D5")
        g.powers(1)
        table = g._power_table
        g.powers(6)
        g.element_orders()
        assert g._power_table is table
