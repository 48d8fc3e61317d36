"""Manifold generator invariants and stable equivalence.

Oracles: total Stiefel-Whitney class polynomial arithmetic over GF(2)
for the characteristic numbers of the projective generators, and the Wu
relation on the even intersection form for the E8 values.
"""

import pytest

from u4class.manifolds import (ManifoldError, generator_invariants,
                               invariant_vector, parse_manifold,
                               stably_equivalent)


# -- GF(2) polynomial oracle -------------------------------------------------
# one- and two-variable truncated polynomials as dicts exponent -> coeff


def poly_mul(a, b, trunc):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x < t for x, t in zip(e, trunc)):
                out[e] = out.get(e, 0) ^ (ca & cb)
    return {e: c for e, c in out.items() if c}


def poly_pow(a, n, trunc):
    out = {tuple(0 for _ in trunc): 1}
    for _ in range(n):
        out = poly_mul(out, a, trunc)
    return out


class TestStiefelWhitneyOracle:
    def test_rp4(self):
        # w(RP4) = (1 + a)^5 in Z/2[a]/(a^5)
        w = poly_pow({(0,): 1, (1,): 1}, 5, (5,))
        w2 = w.get((2,), 0)
        w4 = w.get((4,), 0)
        w2sq = poly_mul({(2,): w2} if w2 else {}, {(2,): w2} if w2 else {},
                        (5,))
        assert w2 == 0 and w4 == 1
        v = generator_invariants("RP4", None, "smooth", "none")
        assert (v.w2sq, v.w4) == (0 if not w2sq else 1, w4) == (0, 1)

    def test_rp2xrp2(self):
        # w = (1 + a + a^2)(1 + b + b^2) in Z/2[a,b]/(a^3, b^3)
        trunc = (3, 3)
        wa = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
        wb = {(0, 0): 1, (0, 1): 1, (0, 2): 1}
        w = poly_mul(wa, wb, trunc)
        w2 = {e: c for e, c in w.items() if sum(e) == 2}
        w2sq = poly_mul(w2, w2, trunc)
        w4_number = w.get((2, 2), 0)
        w2sq_number = w2sq.get((2, 2), 0)
        assert (w2sq_number, w4_number) == (1, 1)
        v = generator_invariants("RP2xRP2", None, "smooth", "none")
        assert (v.w2sq, v.w4) == (w2sq_number, w4_number)

    def test_e8_via_wu(self):
        # E8 Cartan matrix mod 2; the characteristic element v satisfies
        # v.x = x.x for all x, and w2sq = v.v
        cartan = [[2, -1, 0, 0, 0, 0, 0, 0],
                  [-1, 2, -1, 0, 0, 0, 0, 0],
                  [0, -1, 2, -1, 0, 0, 0, 0],
                  [0, 0, -1, 2, -1, 0, 0, 0],
                  [0, 0, 0, -1, 2, -1, 0, -1],
                  [0, 0, 0, 0, -1, 2, -1, 0],
                  [0, 0, 0, 0, 0, -1, 2, 0],
                  [0, 0, 0, 0, -1, 0, 0, 2]]
        diag = [cartan[i][i] % 2 for i in range(8)]
        assert diag == [0] * 8   # even form: v = 0 works
        v = generator_invariants("E8", None, "top", "none")
        assert v.w2sq == 0       # v.v = 0
        # w4 = Euler characteristic mod 2; chi = 2 + rank = 10
        assert v.w4 == (2 + 8) % 2 == 0
        assert v.ks == 1


class TestGeneratorValues:
    def test_eta_values(self):
        assert generator_invariants("RP4", "+", "smooth", "pin+").eta == 1
        assert generator_invariants("RP4", "-", "smooth", "pin+").eta == 15
        assert generator_invariants("Q", "+", "smooth", "pin+").eta == 9
        assert generator_invariants("Q", "-", "smooth", "pin+").eta == 7

    def test_s_generator(self):
        assert generator_invariants("RP4", "+", "top", "pin+").s_inv == 1

    def test_s_is_the_image_of_eta(self):
        # S = eta mod 8 under the comparison Z/16 -> Z/2 + Z/8 on every
        # generator with a smooth pin+ structure; E8, not smoothable, has
        # S = 0
        from u4class.classify import smooth_to_top_pin
        for name, sign in [("RP4", "+"), ("RP4", "-"), ("Q", "+"),
                           ("Q", "-"), ("S4", None), ("S2xS2", None)]:
            eta = generator_invariants(name, sign, "smooth", "pin+").eta
            assert generator_invariants(name, sign, "top", "pin+").s_inv \
                == smooth_to_top_pin(eta)[1], (name, sign)
        assert generator_invariants("E8", None, "top", "pin+").s_inv == 0

    def test_null_bordant_generators(self):
        for name in ("S4", "S2xS2"):
            v = generator_invariants(name, None, "top", "pin+")
            assert (v.s_inv, v.ks, v.w2sq, v.w4) == (0, 0, 0, 0)

    def test_definedness_flags(self):
        v = generator_invariants("RP4", None, "smooth", "pin+")
        assert v.eta is not None and v.s_inv is None and v.ks is None
        v = generator_invariants("RP4", None, "top", "pin+")
        assert v.eta is None and v.s_inv is not None and v.ks == 0
        v = generator_invariants("RP4", None, "smooth", "none")
        assert v.eta is None and v.s_inv is None

    def test_incompatibilities(self):
        with pytest.raises(ManifoldError):
            generator_invariants("E8", None, "smooth", "none")
        with pytest.raises(ManifoldError):
            generator_invariants("RP2xRP2", None, "smooth", "pin+")
        with pytest.raises(ManifoldError):
            generator_invariants("E8", "+", "top", "none")
        # sign tags are inert outside pin+ rather than an error
        v = generator_invariants("RP4", "-", "smooth", "none")
        assert v.eta is None


class TestParsing:
    def test_expression(self):
        e = parse_manifold("RP4(+) # S2xS2 # S2xS2")
        assert e.terms == (("RP4", "+"), ("S2xS2", None), ("S2xS2", None))
        assert e.base == "RP4"
        assert str(e) == "RP4(+) # S2xS2 # S2xS2"

    def test_rejections(self):
        for bad in ("RP4 # Q", "E8(+)", "X4", "", "RP4 ##"):
            with pytest.raises(ManifoldError):
                parse_manifold(bad)


class TestAdditivity:
    def test_s2xs2_contributes_nothing(self):
        e = parse_manifold("RP4(+) # S2xS2")
        assert invariant_vector(e, "smooth", "pin+").eta == 1

    def test_rp4_plus_e8(self):
        v = invariant_vector(parse_manifold("RP4 # E8"), "top", "pin+")
        assert (v.ks, v.s_inv) == (1, 1)

    def test_s4_identity(self):
        for text in ("RP4", "Q(-)", "RP2xRP2", "E8 # S2xS2"):
            a = invariant_vector(parse_manifold(text), "top", "none")
            b = invariant_vector(parse_manifold(text + " # S4"),
                                 "top", "none")
            assert a == b

    def test_s4_alone_zero(self):
        v = invariant_vector(parse_manifold("S4"), "top", "pin+")
        assert (v.s_inv, v.ks, v.w2sq, v.w4) == (0, 0, 0, 0)


class TestStableEquivalence:
    def test_flagship_smooth(self):
        v = stably_equivalent(parse_manifold("RP4"), parse_manifold("Q"),
                              "smooth", "pin+")
        assert not v.equivalent
        entry = next(w for w in v.witness if w[0] == "eta_prime")
        assert entry[1:] == (1, 7, False)

    def test_flagship_top(self):
        v = stably_equivalent(parse_manifold("RP4"), parse_manifold("Q"),
                              "top", "pin+")
        assert v.equivalent
        names = {w[0] for w in v.witness}
        assert {"s_prime", "ks"} <= names

    def test_orbit_symmetry(self):
        v = stably_equivalent(parse_manifold("RP4(+)"),
                              parse_manifold("RP4(-)"), "smooth", "pin+")
        assert v.equivalent   # eta 1 vs 15, same +- orbit

    def test_stabilization(self):
        for cat, struct in (("smooth", "pin+"), ("top", "none")):
            v = stably_equivalent(parse_manifold("Q"),
                                  parse_manifold("Q # S2xS2"),
                                  cat, struct)
            assert v.equivalent

    def test_trust_note_present(self):
        v = stably_equivalent(parse_manifold("S4"), parse_manifold("S4"),
                              "top", "none")
        assert "assumes" in v.trust_note
        assert v.to_json()["trust_note"]


class TestIndependenceMatrix:
    def test_rank_three(self):
        rows = []
        for name in ("RP4", "RP2xRP2", "E8"):
            v = generator_invariants(name, None, "top", "none")
            rows.append((v.w2sq, v.w4, v.ks))
        # GF(2) row reduction
        masks = [sum(b << i for i, b in enumerate(r)) for r in rows]
        basis = []
        for m in masks:
            for b in basis:
                m = min(m, m ^ b)
            if m:
                basis.append(m)
        assert len(basis) == 3
