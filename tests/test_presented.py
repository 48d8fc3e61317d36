"""(Co)homology with presented coefficients: Z/m, trivial, sign-twisted,
or with a generator acting by t -> t^a.

Oracles: the universal coefficient theorem against free coefficients,
agreement of the bar and periodic resolutions, full elimination of the
differential that positive degrees leave alone, and sha256 pins of the
extension pages whose entries are built from such modules.
"""

import hashlib
import json

import pytest

from u4class import linalg
from u4class.cli import main
from u4class.cohomology import cohomology, homology
from u4class.groups import orientation_characters, parse_group
from u4class.linalg import AbelianGroup
from u4class.modules import (module_from_abelian_group, trivial_integers,
                             twisted_integers)
from u4class.resolutions import (BarResolution, PeriodicResolution,
                                 default_resolution)

from helpers import record_composition_checks


def _free_coefficients(group):
    """(Z or Z_w, the sign character or None): Z, and Z twisted by the
    first orientation character when there is one."""
    out = [(trivial_integers(group), None)]
    chars = orientation_characters(group)
    if chars:
        out.append((twisted_integers(chars[0]), chars[0]))
    return out


@pytest.mark.parametrize("spec, top", [
    ("C2", 3), ("C3", 3), ("C4", 3), ("C6", 3), ("C2xC2", 3), ("D3", 1)])
def test_universal_coefficients(spec, top):
    """H^n(G; A_w) = H^n(G; Z_w) x A + Tor(H^{n+1}(G; Z_w), A) and
    H_n(G; A_w) = H_n(G; Z_w) x A + Tor(H_{n-1}(G; Z_w), A), as the
    (co)chains of A_w = Z_w x A are those of Z_w tensored with A."""
    g = parse_group(spec)
    for free, w in _free_coefficients(g):
        coh = [cohomology(g, free, n) for n in range(top + 2)]
        hom = [AbelianGroup()] + [homology(g, free, n)
                                  for n in range(top + 1)]
        for m in (2, 3, 4, 6):
            a = AbelianGroup(0, (m,))
            module = module_from_abelian_group(g, a, sign_character=w)
            for n in range(top + 1):
                assert cohomology(g, module, n) == \
                    coh[n].tensor(a).direct_sum(coh[n + 1].tor(a)), (w, m, n)
                assert homology(g, module, n) == \
                    hom[n + 1].tensor(a).direct_sum(hom[n].tor(a)), (w, m, n)


def _power_module(group, m, a):
    """Z/m with the cyclic generator's e-th power acting by a^e mod m."""
    gen = group.cyclic_generator()
    mats, x = [None] * group.order, 0
    for e in range(group.order):
        mats[x] = [[pow(a, e, m)]]
        x = int(group.mul[x, gen])
    return module_from_abelian_group(group, AbelianGroup(0, (m,)),
                                     action_matrices=mats)


# (group, m, a, top degree): a^|G| = 1 mod m but a is not +-1 mod m, so
# on the generator Z the action is a homomorphism only modulo m
@pytest.mark.parametrize("spec, m, a, top", [
    ("C2", 15, 4, 4), ("C2", 8, 3, 4), ("C4", 5, 2, 3), ("C6", 7, 3, 2),
    ("C6", 7, 3, 3), ("C4", 5, 2, 4), ("C6", 7, 3, 4)])
def test_power_action_bar_matches_periodic(spec, m, a, top):
    g = parse_group(spec)
    module = _power_module(g, m, a)
    bar, periodic = BarResolution(g, top), PeriodicResolution(g, top)
    for n in range(top + 1):
        assert cohomology(g, module, n, bar) == \
            cohomology(g, module, n, periodic), n
        assert homology(g, module, n, bar) == \
            homology(g, module, n, periodic), n


def test_power_action_homology_degree_four():
    g = parse_group("C6")
    module = _power_module(g, 7, 3)
    assert homology(g, module, 4, BarResolution(g, 4)) == \
        homology(g, module, 4, PeriodicResolution(g, 4))


def test_d3_degree_four_universal_coefficients():
    g = parse_group("D3")
    res = BarResolution(g, 5)
    z, a = trivial_integers(g), AbelianGroup(0, (4,))
    module = module_from_abelian_group(g, a)
    coh = [cohomology(g, z, n, res) for n in (4, 5)]
    hom = [homology(g, z, n, res) for n in (3, 4)]
    assert cohomology(g, module, 4, res) == \
        coh[0].tensor(a).direct_sum(coh[1].tor(a)) == AbelianGroup(0, (2,))
    assert homology(g, module, 4, res) == \
        hom[1].tensor(a).direct_sum(hom[0].tor(a)) == AbelianGroup(0, (2,))


def _theorem_modules(group):
    """Z, Z_w where there is an orientation character, Z/4, Z/2 + Z/4,
    and Z/7 with t -> t^3 on a cyclic group of order divisible by 6."""
    out = [module for module, _ in _free_coefficients(group)]
    out += [module_from_abelian_group(group, AbelianGroup(0, torsion))
            for torsion in ((4,), (2, 4))]
    if group.is_cyclic and group.order % 6 == 0:
        out.append(_power_module(group, 7, 3))
    return out


@pytest.mark.parametrize("spec", [
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "D3", "D5", "C2xC2",
    "C3xC6"])
def test_positive_degrees_are_finite(monkeypatch, spec):
    """For n >= 1, |G| kills H^n(G; M) and H_n(G; M), so at the position
    Z^c of the composition check rank(d_out) = c - rank(d_in).  Checked
    by full elimination in degrees 1..4 of the default resolution
    (periodic or tensor) of an abelian group, and of the bar resolution
    in the degrees n with (|G|-1)^(n+1) <= 250: beyond that a presented
    module's cone d_out takes seconds to eliminate."""
    g = parse_group(spec)
    pairs = record_composition_checks(monkeypatch)
    bar_top = max((n for n in range(1, 5)
                   if (g.order - 1) ** (n + 1) <= 250), default=0)
    resolutions = [(BarResolution(g, bar_top), bar_top)] if bar_top else []
    if g.is_abelian:
        resolutions.append((default_resolution(g, 4), 4))
    for res, top in resolutions:
        for module in _theorem_modules(g):
            for n in range(1, top + 1):
                for degree in (cohomology, homology):
                    pairs.clear()
                    degree(g, module, n, res)
                    (d_in, d_out), = pairs
                    assert linalg.rank(d_out) == \
                        d_in.nrows - linalg.rank(d_in), \
                        (type(res).__name__, degree.__name__, n)


# sha256 of the sorted-key JSON of `lhs G --format json` without its
# timing; the D5 and D15 pages have entries with t -> t^a actions
_LHS_PINS = {
    "D5":
        "13b0f207c589e2a7592acc22c73b7057038bdb6795a76d98521530aee8b76055",
    "D15":
        "b7521a0845a878f61c0890fb71fc556f151e9801df0088058bd9251ab6084018",
    "C10":
        "182cbfa69aab136f72c5871449bd225044b800d6cada03607754b7db1a4deb2c",
    "C3xC6":
        "908ecd1386be1ed6ff5b28a7e41984a9faeafcc90faae4ccfe97bb31b2832b9c",
}


@pytest.mark.parametrize("spec", list(_LHS_PINS))
def test_lhs_page_pinned(capsys, spec):
    assert main(["lhs", spec, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    payload.pop("timing")
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == _LHS_PINS[spec]
