"""Bordism coefficient tables, Thom identifications, and spectral pages.

Oracles: literature values for the coefficient groups, the periodic
resolution for twisted homology, and the cross-validation that the
degree-reasons order bounds reproduce the tabulated degree-4 groups.
"""

import pytest

from u4class.bordism import (FLAVORS, bordism_group, coefficient_table,
                             identify_thom, structures)
from u4class.groups import odd_normal_complement, orientation_characters, \
    parse_group
from u4class.hypothesis import thom_simplification_applicable
from u4class.linalg import AbelianGroup
from u4class.spectral import (ahss_e2_page, change_coefficients,
                              diagonal_report, lhs_e2_page,
                              twisted_thom_homology)


def quotient_twist(decomp):
    return orientation_characters(decomp.quotient)[0]


class TestBordismTables:
    def test_degree_four_values(self):
        assert str(bordism_group("Pin+", 4).group) == "Z/16"
        assert str(bordism_group("Pin-", 4).group) == "0"
        assert str(bordism_group("Top", 4).group) == "Z/2 + Z/2 + Z/2"
        assert str(bordism_group("O", 4).group) == "Z/2 + Z/2"
        assert str(bordism_group("TopPin+", 4).group) == "Z/2 + Z/8"
        assert str(bordism_group("TopPin-", 4).group) == "Z/2"
        assert str(bordism_group("STop", 4).group) == "Z + Z/2"

    def test_citations_nonempty(self):
        for s in structures():
            for entry in coefficient_table(s):
                assert entry.citation.strip()

    def test_unknown_keys(self):
        with pytest.raises(KeyError):
            bordism_group("Pin*", 4)
        with pytest.raises(KeyError):
            bordism_group("Top", 9)

    def test_identifications(self):
        smooth = {f: identify_thom("smooth", f).structure for f in FLAVORS}
        assert smooth == {"almost-spin-pin+": "Pin-",
                          "almost-spin-pin-": "Pin+",
                          "totally-non-spin": "O"}
        top = {f: identify_thom("top", f).structure for f in FLAVORS}
        assert top == {"almost-spin-pin+": "TopPin-",
                       "almost-spin-pin-": "TopPin+",
                       "totally-non-spin": "Top"}

    def test_swap_note_recorded(self):
        for category in ("smooth", "top"):
            for flavor in FLAVORS[:2]:
                ident = identify_thom(category, flavor)
                assert "swap" in ident.swap_note

    def test_refuses_failing_report(self):
        report = thom_simplification_applicable(parse_group("D5"))
        with pytest.raises(ValueError):
            identify_thom("smooth", "almost-spin-pin+", report)
        report = thom_simplification_applicable(parse_group("C6"))
        assert identify_thom("smooth", "totally-non-spin",
                             report).structure == "O"


class TestLHS:
    def test_c6_row_zero(self):
        d = odd_normal_complement(parse_group("C6"))
        page = lhs_e2_page(d, quotient_twist(d), 5)
        row = [str(page.entry(p, 0)) for p in range(5)]
        assert row == ["0", "Z/2", "0", "Z/2", "0"]

    def test_c6_column_zero_vanishes(self):
        d = odd_normal_complement(parse_group("C6"))
        page = lhs_e2_page(d, quotient_twist(d), 5)
        for q in range(5):
            assert str(page.entry(0, q)) == "0"

    def test_c2_concentrated_in_row_zero(self):
        d = odd_normal_complement(parse_group("C2"))
        page = lhs_e2_page(d, quotient_twist(d), 4)
        for (p, q), g in page.entries.items():
            if q > 0:
                assert g.order() == 1, (p, q)

    def test_entries_two_torsion_for_passing_groups(self):
        for spec in ["C2", "C6", "C10", "C3xC6"]:
            d = odd_normal_complement(parse_group(spec))
            page = lhs_e2_page(d, quotient_twist(d), 5)
            for (p, q), g in page.entries.items():
                if p >= 1:
                    assert g.exponent() in (1, 2), (spec, p, q)
                if p == 0:
                    assert g.order() == 1, (spec, q)

    def test_nontrivial_action_flagged(self):
        d = odd_normal_complement(parse_group("D5"))
        page = lhs_e2_page(d, quotient_twist(d), 4)
        assert page.flags
        assert "nontrivially" in page.flags[0]

    def test_conjugation_worked_out_once_per_page(self, monkeypatch):
        from u4class import spectral
        calls = []
        original = spectral.conjugation_action
        monkeypatch.setattr(spectral, "conjugation_action",
                            lambda d: calls.append(d) or original(d))
        d = odd_normal_complement(parse_group("D5"))
        lhs_e2_page(d, quotient_twist(d), 5)
        assert len(calls) == 1

    def test_non_cyclic_kernel_with_action_refused_from_row_one(self):
        # (C3 x C3) x| C2 with the involution inverting both factors
        d = odd_normal_complement(
            parse_group("perm[(1 2 3), (4 5 6), (2 3)(5 6)]"))
        assert d.kernel.order == 9 and not d.kernel.is_cyclic
        page = lhs_e2_page(d, quotient_twist(d), 0)
        assert list(page.entries) == [(0, 0)] and not page.flags
        with pytest.raises(NotImplementedError, match="non-cyclic"):
            lhs_e2_page(d, quotient_twist(d), 1)


class TestChangeCoefficients:
    def test_examples(self):
        z2 = AbelianGroup(0, (2,))
        assert str(change_coefficients(z2, AbelianGroup(1, (2,)))) == \
            "Z/2 + Z/2"
        assert change_coefficients(z2, AbelianGroup(1, ())) == z2
        assert str(change_coefficients(AbelianGroup(1, ()),
                                       AbelianGroup(0, (16,)))) == "Z/16"

    def test_tor_term(self):
        z2 = AbelianGroup(0, (2,))
        # H_p = 0 but Tor(H_{p-1}, Z/2) contributes
        out = change_coefficients(AbelianGroup(0, ()), z2, z2)
        assert str(out) == "Z/2"


class TestTwistedThomHomology:
    def test_c2(self):
        g = parse_group("C2")
        w = orientation_characters(g)[0]
        vals = [str(twisted_thom_homology(g, w, n)) for n in range(5)]
        assert vals == ["Z/2", "0", "Z/2", "0", "Z/2"]

    def test_trivial_character_reduced(self):
        g = parse_group("C2")
        assert twisted_thom_homology(g, None, 0).order() == 1
        assert str(twisted_thom_homology(g, None, 1)) == "Z/2"

    def test_reduction_invariance(self):
        c2 = parse_group("C2")
        w2 = orientation_characters(c2)[0]
        for spec in ["C6", "C10", "C3xC6"]:
            g = parse_group(spec)
            w = orientation_characters(g)[0]
            # the twisted homology only sees the 2-group quotient
            for n in range(5):
                assert twisted_thom_homology(g, w, n) == \
                    twisted_thom_homology(c2, w2, n), (spec, n)


def thom_c2_homology():
    g = parse_group("C2")
    w = orientation_characters(g)[0]
    return lambda n: twisted_thom_homology(g, w, n)


class TestAHSS:
    def test_stop_page_diagonal_four(self):
        page = ahss_e2_page(thom_c2_homology(), "STop", 5)
        assert str(page.entry(4, 0)) == "Z/2"
        assert str(page.entry(0, 4)) == "Z/2 + Z/2"
        for p in (1, 2, 3):
            assert page.entry(p, 4 - p).order() == 1

    def test_so_page_diagonal_four(self):
        page = ahss_e2_page(thom_c2_homology(), "SO", 5)
        assert str(page.entry(4, 0)) == "Z/2"
        assert str(page.entry(0, 4)) == "Z/2"

    def test_point_spectrum(self):
        page = ahss_e2_page(thom_c2_homology(), "point", 4)
        h = thom_c2_homology()
        for p in range(5):
            assert page.entry(p, 0) == h(p)
        for q in range(1, 5):
            for p in range(5 - q):
                assert page.entry(p, q).order() == 1

    def test_missing_degree_errors(self):
        with pytest.raises(KeyError):
            ahss_e2_page(thom_c2_homology(), "Top", 5)

    def test_top_degree_first(self):
        # the top degree is the one a feasibility bound refuses, so it is
        # asked for before the cheaper ones; the page is unchanged
        h, asked = thom_c2_homology(), []

        def spy(n):
            asked.append(n)
            return h(n)
        page = ahss_e2_page(spy, "STop", 5)
        assert asked == [5, 4, 3, 2, 1, 0]
        assert page.entries == ahss_e2_page(h, "STop", 5).entries


class TestDiagonalReport:
    def test_stop_order_eight_collapse(self):
        page = ahss_e2_page(thom_c2_homology(), "STop", 5)
        rep = diagonal_report(page, 4)
        assert rep.order_bound == 8
        assert rep.collapse_certified
        # cross-validation against the tabulated topological group
        assert bordism_group("Top", 4).group.order() == 8

    def test_so_order_four_collapse(self):
        page = ahss_e2_page(thom_c2_homology(), "SO", 5)
        rep = diagonal_report(page, 4)
        assert rep.order_bound == 4
        assert rep.collapse_certified
        assert bordism_group("O", 4).group.order() == 4

    def test_empty_diagonal(self):
        page = ahss_e2_page(thom_c2_homology(), "STop", 5)
        rep = diagonal_report(page, 3)
        assert rep.order_bound == 1
        assert not rep.entries

    def test_range_precondition(self):
        page = ahss_e2_page(thom_c2_homology(), "STop", 4)
        with pytest.raises(ValueError):
            diagonal_report(page, 4)

    def test_json_shapes(self):
        page = ahss_e2_page(thom_c2_homology(), "SO", 5)
        data = page.to_json()
        assert data["kind"] == "AHSS-homological"
        rep = diagonal_report(page, 4).to_json()
        assert rep["order_bound"] == 4
