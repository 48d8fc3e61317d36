"""Group-ring modules and truncated free resolutions.

Oracles: known cohomology/homology of small cyclic and dihedral groups, and
agreement between independent resolution constructions (bar vs periodic vs
tensor) of the same groups.
"""

import hashlib
import itertools

import numpy as np
import pytest

from u4class import resolutions
from u4class.groups import FiniteGroup, odd_normal_complement, \
    orientation_characters, parse_group
from u4class.linalg import AbelianGroup, IntMatrix, homology_at
from u4class.modules import (GModule, module_from_abelian_group,
                             mod2_integers, trivial_integers,
                             twisted_integers)
from u4class.resolutions import (BarResolution, FeasibilityError,
                                 PeriodicResolution, Resolution,
                                 TensorResolution, default_resolution)


def cohomology_groups(res, module, upto):
    out = []
    for n in range(upto + 1):
        d_in = res.coboundary_matrix(module, n - 1)
        d_out = res.coboundary_matrix(module, n)
        out.append(homology_at(d_in, d_out))
    return out


def homology_groups(res, module, upto):
    out = []
    for n in range(upto + 1):
        d_in = res.chain_matrix(module, n + 1)
        d_out = res.chain_matrix(module, n)
        out.append(homology_at(d_in, d_out))
    return out


def rank_one_signs(m):
    """The +-1 scalar by which each element acts on a free rank-1
    module."""
    assert m.is_free and m.ngens == 1
    return tuple(a[0][0] for a in m.actions)


def underlying_group(m):
    """The module's abelian group: the cokernel of its relation map."""
    return homology_at(m.relation_map(1), IntMatrix.zeros(0, m.ngens))


class TestModules:
    def test_twisted_integers_signs(self):
        g = parse_group("C2")
        ch = orientation_characters(g)[0]
        m = twisted_integers(ch)
        assert rank_one_signs(m) == (1, -1)

    def test_trivial_and_mod2(self):
        g = parse_group("C6")
        assert rank_one_signs(trivial_integers(g)) == (1,) * 6
        m2 = mod2_integers(g)
        assert not m2.is_free
        assert m2.is_mod2_free
        assert str(underlying_group(m2)) == "Z/2"

    def test_bad_action_rejected(self):
        g = parse_group("C2")
        with pytest.raises(ValueError, match="not a homomorphism"):
            # "multiplication by 2" is not an involution on Z
            GModule(g, (0,), [((1,),), ((2,),)])

    def test_action_must_respect_relations(self):
        g = parse_group("C2")
        ab = AbelianGroup(0, (4,))
        with pytest.raises(ValueError):
            # sending the Z/4 generator to 2x is not invertible mod 4
            module_from_abelian_group(g, ab,
                                      action_matrices=[[[1]], [[2]]])

    def test_moduli_validated(self):
        g = parse_group("C2")
        ident = [[[1, 0], [0, 1]]] * 2
        with pytest.raises(ValueError, match="nonnegative"):
            GModule(g, (2, -3), ident)
        with pytest.raises(ValueError, match="one action matrix"):
            GModule(g, (2, 3), ident[:1])
        with pytest.raises(ValueError, match="identity"):
            GModule(g, (2, 3), [[[0, 1], [1, 0]]] * 2)
        # any order of free and torsion generators is a presentation
        m = GModule(g, (3, 0, 2), [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]] * 2)
        assert m.ngens == 3
        assert underlying_group(m) == AbelianGroup(1, (6,))

    def test_action_must_preserve_the_relations(self):
        g = parse_group("C2")
        swap = [[0, 1], [1, 0]]
        # swapping Z/2 and Z/4 sends 4 e_2 to 4 e_1, outside 2 e_1 Z, yet
        # is an involution
        with pytest.raises(ValueError, match="does not respect relations"):
            GModule(g, (2, 4), [[[1, 0], [0, 1]], swap])
        # swapping Z/2 and Z sends 2 e_1 to 2 e_2, nonzero on a free row
        with pytest.raises(ValueError, match="does not respect relations"):
            GModule(g, (2, 0), [[[1, 0], [0, 1]], swap])
        # swapping two Z/4 summands preserves them
        m = GModule(g, (4, 4), [[[1, 0], [0, 1]], swap])
        assert underlying_group(m) == AbelianGroup(0, (4, 4))

    def test_module_from_abelian_group_shape(self):
        g = parse_group("C2")
        ab = AbelianGroup(1, (2, 4))
        m = module_from_abelian_group(g, ab)
        assert m.ngens == 3
        assert underlying_group(m) == ab


class TestBarResolution:
    def test_ranks(self):
        c2 = BarResolution(parse_group("C2"), 4)
        assert c2.ranks == [1, 1, 1, 1, 1, 1]
        c3 = BarResolution(parse_group("C3"), 2)
        assert c3.ranks == [1, 2, 4, 8]

    def test_dd_zero(self):
        for spec, deg in [("C2", 4), ("C4", 3), ("D3", 3), ("C2xC2", 3)]:
            BarResolution(parse_group(spec), deg).verify()

    def test_feasibility_bound(self):
        with pytest.raises(FeasibilityError):
            BarResolution(parse_group("C18"), 4)

    def test_feasibility_bound_env_override(self, monkeypatch):
        monkeypatch.setenv("U4CLASS_MAX_GENERATORS", "10")
        with pytest.raises(FeasibilityError):
            BarResolution(parse_group("C3"), 2)
        monkeypatch.setenv("U4CLASS_MAX_GENERATORS", "2000000")
        BarResolution(parse_group("C18"), 4)

    _CODEC_GROUPS = ["C1", "C2", "C3", "C4", "C5", "C6", "D3", "C2xC2"]

    @pytest.mark.parametrize("spec", _CODEC_GROUPS)
    def test_tuple_numbering(self, spec):
        # big-endian in base |G|-1 with digit g_i - 1: the lexicographic
        # order of the tuples of nonidentity elements
        group = parse_group(spec)
        res = BarResolution(group, 3)
        for n in range(5):
            every = res.tuples(n)
            assert every.tolist() == [list(t) for t in itertools.product(
                range(1, group.order), repeat=n)]
            assert np.array_equal(res.number(every),
                                  np.arange(res.rank(n)))
            some = np.arange(res.rank(n))[::-2]
            assert np.array_equal(res.tuples(n, some), every[some])
            assert np.array_equal(res.number(every[some]), some)

    @pytest.mark.parametrize("spec", _CODEC_GROUPS)
    def test_first_entry_blocks_follow_tuples(self, spec):
        # boundary(n, firsts) gives the full faces of the tuples with g_1
        # in firsts, the c-th of them in numbering order as column c; the
        # first k (|G|-1)^(n-1) tuples are those with g_1 <= k
        group = parse_group(spec)
        res = BarResolution(group, 3)
        odd = tuple(range(1, group.order, 2))
        for n in range(1, 5):
            full = np.stack(res.boundary(n), axis=1)
            heads = res.tuples(n)[:, 0]
            for k in range(group.order):
                assert np.array_equal(np.flatnonzero(heads <= k),
                                      np.arange(k * res.rank(n - 1)))
            for firsts in [range(1, k + 1) for k in range(group.order)] \
                    + [group.generating_set(), odd, odd[1:]]:
                take = np.flatnonzero(np.isin(heads, firsts))
                position = np.full(res.rank(n), -1)
                position[take] = np.arange(take.size)
                want = full[np.isin(full[:, 1], take)]
                want[:, 1] = position[want[:, 1]]
                part = np.stack(res.boundary(n, firsts), axis=1)
                assert sorted(map(tuple, part.tolist())) == \
                    sorted(map(tuple, want.tolist())), (n, firsts)

    @staticmethod
    def _faces_by_definition(res, n, firsts):
        """The faces of boundary(n, firsts) built tuple by tuple in plain
        Python from the multiplication table, numbered by ``number``."""
        group = res.group
        mul = group.mul.tolist()
        rest = list(itertools.product(range(1, group.order), repeat=n - 1))
        heads = range(1, group.order) if firsts is None else firsts
        faces = []
        for col, t in enumerate((h,) + r for h in heads for r in rest):
            faces.append((t[1:], col, t[0], 1))
            for i in range(1, n):
                prod = mul[t[i - 1]][t[i]]
                if prod:
                    faces.append((t[:i - 1] + (prod,) + t[i + 1:], col, 0,
                                  (-1) ** i))
            faces.append((t[:-1], col, 0, (-1) ** n))
        numbers = res.number(np.array([f[0] for f in faces],
                                      dtype=np.int64).reshape(len(faces),
                                                              n - 1))
        return sorted((int(row), col, elem, coeff) for row, (_, col, elem,
                      coeff) in zip(numbers, faces))

    @pytest.mark.parametrize("spec", _CODEC_GROUPS[1:])
    def test_faces_match_their_definition(self, spec):
        group = parse_group(spec)
        res = BarResolution(group, 3)
        odd = tuple(range(1, group.order, 2))
        for n in range(1, 5):
            for firsts in (None, group.generating_set(), odd, odd[1:]):
                got = sorted(zip(*(a.tolist()
                                   for a in res.boundary(n, firsts))))
                assert got == self._faces_by_definition(res, n, firsts), \
                    (n, firsts)


def _pin_group(spec):
    if spec == "C3xC3<C3xC6":   # no product provenance: relabeled route
        return odd_normal_complement(parse_group("C3xC6")).kernel
    return parse_group(spec)


def _pin_modules(group, regular):
    """Z, Z/2, Z_w, two- and three-generator modules whose elements outside
    the first orientation character's kernel act by a non-symmetric
    involution (so a transposed block would show), and, if asked, the
    regular module Z[G], where g and its inverse act differently unless
    g^2 = 1."""
    chars = orientation_characters(group)
    ch = chars[0] if chars else None
    flip = [bool(ch and ch.value(g)) for g in range(group.order)]
    a2 = [[[1, 0], [1, -1]] if f else [[1, 0], [0, 1]] for f in flip]
    a3 = [[[1, 0, 0], [1, -1, 0], [0, 0, -1]] if f else
          [[1, 0, 0], [0, 1, 0], [0, 0, 1]] for f in flip]
    mods = [trivial_integers(group), mod2_integers(group)]
    if ch is not None:
        mods.append(twisted_integers(ch))
    mods.append(module_from_abelian_group(group, AbelianGroup(2),
                                          action_matrices=a2))
    mods.append(module_from_abelian_group(group, AbelianGroup(1, (2, 4)),
                                          action_matrices=a3))
    if regular:
        n = group.order
        perms = [[[int(group.mul[g, j] == i) for j in range(n)]
                  for i in range(n)] for g in range(n)]
        mods.append(GModule(group, (0,) * n, perms, validate=False))
    return mods


def _update(h, m):
    h.update(repr((m.nrows, m.ncols, m.rows, m.cols, m.vals)).encode())


# sha256 per (group, resolution, degree) over every coboundary and chain
# matrix of _pin_modules, recorded with the dict-of-blocks assembly that
# the array boundaries replaced
_PINS = {
    ("C1", "default", 4):
        "dd33ebfd16737a3d03205ce0258ab9ee440edac84b80989da89008f1fb27550c",
    ("C1", "bar", 4):
        "88a9d904d0a9ab046aa7a1f926753cc4bdae8811e6f459b572fc12150706ac31",
    ("C1", "periodic", 5):
        "e20d642e6b65df10d966c9f7b9b56be4497d7ddef3cac540f06655879f682d05",
    ("C2", "default", 4):
        "667154efe8fb6d6bdeacf555bef85b8b92171e4e10f4727946effc016a2f266d",
    ("C2", "bar", 4):
        "667154efe8fb6d6bdeacf555bef85b8b92171e4e10f4727946effc016a2f266d",
    ("C2", "periodic", 5):
        "5387e1b3558403a7bb7c71b65efa01a7a5ba6ebea38fd10ebed25412a8be299a",
    ("C3", "default", 4):
        "af7f64dbd40b6490557f515e05e0c81be3d6bf33b8957863a11c3a1ea9cc8cc7",
    ("C3", "bar", 4):
        "5fb7f909efb6bf4563c300292af6bd31d2a425ee46cedf7a7d9936429fad9d49",
    ("C3", "periodic", 5):
        "5fa77003e99652418d665a6452cac97c06b903a20f017137a507907f8daa8a37",
    ("C4", "default", 4):
        "d96d8b355a1060a4b241a932af6a5c6a735a7436b30227b9da8de759d09a9ba0",
    ("C4", "bar", 4):
        "a3dfcd748a16d68bd58d6951554aca79ffb3bb5288d4421682f415d38eed3d8f",
    ("C4", "periodic", 5):
        "48a847d68c866eef297f0171ba2d4ec7d4b2bb60ac600aab73797ae8bd22692b",
    ("C5", "default", 4):
        "f07f0d13321534cb5fa09dec9f91fdeaa6c4e8e4aeaa320af91a80fc1b198567",
    ("C5", "bar", 3):
        "84e31f68385ddbe479a8cd226cf72adf31a9f72e36b400a7107c321184a90aa7",
    ("C5", "periodic", 5):
        "f1f99adfbedb06696081d7cb99b275a7fcda078560345805a2268a4c17d02ada",
    ("C6", "default", 4):
        "2b2d53327906dd4b87a906f71ed66f1999b16f6a12469459b41fa2411bff7b47",
    ("C6", "bar", 3):
        "b94fe75cfd460a731d93ca27f83ad7fe92d2e5e67c89c9307c3c4caa60888f1a",
    ("C6", "periodic", 5):
        "1ca042b6b94b121c69d923698dc778ea4fe3c259bf5c3facc352efe8ec7130ed",
    ("D3", "bar", 3):
        "66c51c35db69e6d7525fa378518919e018d9893d7e7893bfd137926e755260ab",
    ("D4", "bar", 3):
        "9515df0899173a853f3f3f685ac6de14ff7ca54f8df2cc8bc7e4bc6fd4521eb6",
    ("C2xC2", "default", 4):
        "53b99c92817bf707b76a622d5b7ab692a6dd006831b9e0d1454b6e697ba76990",
    ("C2xC2", "bar", 4):
        "2cc56ae51b1b222293b9f0e5668c1105f4e2b9daf3adbbb300c74f9c62601a7e",
    ("C2xC4", "default", 4):
        "b92dd302e55416938d513c61120e8da169a7dbe219c9a609db21abd4b1e4b08b",
    ("C2xC4", "bar", 3):
        "48003c1fad22e569ac84a965a358b5a9a8f175f5b18667f1ca3661eef1197154",
    ("C3xC6", "default", 3):
        "45244e44da868f51f70ae0b43bf60ac7b53b0148d21246061fdd81e04a589f2d",
    ("C3xC6", "bar", 2):
        "35d19976523d17cbe2ea2f24db28ace5fd0d9cf5505187369b410254a38856f5",
    ("C2xC2xC5", "default", 3):
        "434024f63109ba8fbd86b403a0a228f67d9caa741e288b457aa035e823246710",
    ("C2xC2xC5", "bar", 2):
        "ec30cdb4bf95252a6418a240221e42e8c7fb30634b1bae9f652fc131707a6007",
    ("C3xC3<C3xC6", "default", 3):
        "bc5b0c5be6612ea1e1939523a9f493d809489e7e3bcf42376fc0d82d6c51b8d1",
    ("C3xC3<C3xC6", "bar", 2):
        "1693e3d03be75c45d99e56e57e7408c128c5dc2506397ff71324d37c10b07b34",
}


class TestAssemblyPins:
    """sha256 of coboundary and chain matrices, recorded with the
    dict-of-blocks assembly that the array boundaries replaced.  repr()
    also pins that entries are Python ints."""

    @pytest.mark.parametrize("spec, kind, degree", list(_PINS))
    def test_matrices_pinned(self, spec, kind, degree):
        group = _pin_group(spec)
        make = {"default": default_resolution, "bar": BarResolution,
                "periodic": PeriodicResolution}[kind]
        res = make(group, degree)
        h = hashlib.sha256()
        # Z[G] only where F_{degree+1} x |G|^2 stays small
        regular = group.order <= 9 or kind != "bar"
        for module in _pin_modules(group, regular):
            for n in range(-1, degree + 1):
                _update(h, res.coboundary_matrix(module, n))
            for n in range(degree + 2):
                _update(h, res.chain_matrix(module, n))
        assert h.hexdigest() == _PINS[(spec, kind, degree)]

    @pytest.mark.parametrize("spec, coeff, digest", [
        ("C8", "Z",
         "8a38c0a1f59e322b3b0e8622ce2d3225c1fe67082cf43967b548bcf35b562e39"),
        ("C8", "Zw",
         "833778e395fdc0ac5c356e17b5e96deebf387877827713dbf8dac96154879416"),
        ("C12", "Zw",
         "c4eca387b75c2521f35487a98a2883fd87a06f89714c624f36016c11e75396e7"),
    ], ids=["C8-Z", "C8-Zw", "C12-Zw"])
    def test_bar_delta4_pinned(self, spec, coeff, digest):
        group = parse_group(spec)
        module = trivial_integers(group) if coeff == "Z" else \
            twisted_integers(orientation_characters(group)[0])
        h = hashlib.sha256()
        _update(h, BarResolution(group, 4).coboundary_matrix(module, 4))
        assert h.hexdigest() == digest


class TestDual:
    """``GModule.dual``: g acts by the transpose of A_(g^-1), and chain
    matrices are the dual's coboundaries, transposed."""

    @pytest.mark.parametrize("spec", ["C4", "D3", "C2xC2"])
    def test_dual_is_an_involution(self, spec):
        group = parse_group(spec)
        for module in _pin_modules(group, regular=True):
            twice = module.dual().dual()
            assert twice.actions == module.actions
            assert twice.moduli == module.moduli

    def test_self_dual_actions(self):
        # Z, Z/2, Z_w, the two involution modules, Z[G]: only the
        # non-symmetric involutions have another dual action
        group = parse_group("D3")
        mods = _pin_modules(group, regular=True)
        assert [m.dual().actions == m.actions for m in mods] == [
            True, True, True, False, False, True]

    def test_homology_reads_the_coboundary_memo(self, monkeypatch):
        from u4class.cohomology import cohomology, homology
        group = parse_group("D3")
        res, z = BarResolution(group, 3), trivial_integers(group)
        assert [str(cohomology(group, z, n, res)) for n in range(4)] == [
            "Z", "0", "Z/2", "0"]
        assembled = []
        assemble = Resolution._hom_matrix

        def spy(self, *args):
            assembled.append(args[2:])
            return assemble(self, *args)
        monkeypatch.setattr(Resolution, "_hom_matrix", spy)
        assert [str(homology(group, z, n, res)) for n in range(3)] == [
            "Z", "Z/2", "0"]
        assert assembled == []


class TestAssemblyMemory:
    """Assembly reads its faces as position keys and drops each face array
    once read, so a bar coboundary's traced peak stays within a small
    multiple of the arrays it returns (C8 and C10 delta^4 over Z peaked at
    5.4x while rows and columns were materialised, lexsorted and copied;
    about 2x with int64 keys)."""

    @pytest.mark.parametrize("spec", ["C8", "C10"])
    def test_bar_delta4_peak_within_3x_kept(self, spec):
        import tracemalloc
        group = parse_group(spec)
        module = trivial_integers(group)
        res = BarResolution(group, 4)
        tracemalloc.start()
        try:
            m = res.coboundary_matrix(module, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in m.arrays)
        assert m.nnz > 5 * 10**4
        assert peak <= 3 * kept, (peak, kept)

    @pytest.mark.parametrize("spec, n", [("D5xC3", 3), ("D3xC5", 4)])
    def test_tensor_coboundary_peak_within_3x_kept(self, spec, n):
        # broadcast, raveled and concatenated, the tensor faces took the
        # coboundary to 3.7x what it keeps; written into preallocated
        # arrays, the bar factor's faces built first, about 2.6x
        import tracemalloc
        group = parse_group(spec)
        module = trivial_integers(group)
        res = default_resolution(group, n)
        assert isinstance(res, TensorResolution)
        tracemalloc.start()
        try:
            m = res.coboundary_matrix(module, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in m.arrays)
        assert m.nnz > 10**4
        assert peak <= 3 * kept, (peak, kept)


class _Rewired(Resolution):
    """Another resolution's boundaries, passed through ``edit`` and read
    over ``group``."""

    def __init__(self, inner, group=None, edit=None):
        super().__init__(group or inner.group, inner.degree, inner.ranks)
        self.inner = inner
        self.edit = edit

    def boundary(self, n):
        arrays = self.inner.boundary(n)
        return self.edit(n, *arrays) if self.edit else arrays


class TestVerifyRejects:
    def test_unedited_passes(self):
        _Rewired(BarResolution(parse_group("D3"), 3)).verify()

    def test_flipped_face_sign(self):
        # in the bar resolution only face 0 carries a nonidentity element
        def flip_face0(n, rows, cols, elems, coeffs):
            if n == 2:
                coeffs = np.where(elems != 0, -coeffs, coeffs)
            return rows, cols, elems, coeffs
        for spec in ("C3", "D3"):
            res = _Rewired(BarResolution(parse_group(spec), 2),
                           edit=flip_face0)
            with pytest.raises(ValueError, match="d_1 d_2"):
                res.verify()

    def test_product_order_matters(self):
        # the bar resolution of the opposite group satisfies d d = 0 only
        # when g2 g1 is formed in place of g1 g2
        d3 = parse_group("D3")
        opposite = BarResolution(FiniteGroup(d3.mul.T, "D3op"), 3)
        opposite.verify()
        with pytest.raises(ValueError, match="d_1 d_2"):
            _Rewired(opposite, group=d3).verify()

    def test_nonzero_augmentation(self):
        # d_1 = t - 2 on C2 and d_n = 0 above it: d d = 0 holds, and only
        # the augmentation 1 - 2 of d_1 is wrong
        def twice(n, rows, cols, elems, coeffs):
            coeffs = np.where(elems == 0, 2 * coeffs, coeffs)
            return rows, cols, elems, coeffs if n == 1 else 0 * coeffs
        res = _Rewired(PeriodicResolution(parse_group("C2"), 3), edit=twice)
        with pytest.raises(ValueError, match="augmentation"):
            res.verify()


class TestPeriodicResolution:
    def test_requires_cyclic(self):
        with pytest.raises(ValueError):
            PeriodicResolution(parse_group("D3"), 3)

    def test_dd_zero(self):
        for spec in ["C2", "C3", "C6", "C12"]:
            PeriodicResolution(parse_group(spec), 5).verify()

    def test_known_cohomology_c2(self):
        g = parse_group("C2")
        res = PeriodicResolution(g, 4)
        names = [str(h) for h in
                 cohomology_groups(res, trivial_integers(g), 4)]
        assert names == ["Z", "0", "Z/2", "0", "Z/2"]
        tw = twisted_integers(orientation_characters(g)[0])
        names = [str(h) for h in cohomology_groups(res, tw, 4)]
        assert names == ["0", "Z/2", "0", "Z/2", "0"]

    def test_known_cohomology_c6_twisted(self):
        g = parse_group("C6")
        res = PeriodicResolution(g, 4)
        tw = twisted_integers(orientation_characters(g)[0])
        names = [str(h) for h in cohomology_groups(res, tw, 4)]
        assert names == ["0", "Z/2", "0", "Z/2", "0"]


class TestAgreementAcrossResolutions:
    def test_bar_matches_periodic(self):
        for spec in ["C2", "C3", "C4", "C6"]:
            g = parse_group(spec)
            bar = BarResolution(g, 3)
            per = PeriodicResolution(g, 3)
            mods = [trivial_integers(g), mod2_integers(g)]
            mods += [twisted_integers(ch)
                     for ch in orientation_characters(g)]
            for m in mods:
                a = [h for h in cohomology_groups(bar, m, 3)]
                b = [h for h in cohomology_groups(per, m, 3)]
                assert a == b, (spec, str(m))

    def test_homology_gives_abelianization(self):
        for spec, h1 in [("C6", "Z/6"), ("D3", "Z/2"),
                         ("C2xC2", "Z/2 + Z/2")]:
            g = parse_group(spec)
            res = default_resolution(g, 2)
            res.verify()
            hs = homology_groups(res, trivial_integers(g), 1)
            assert str(hs[0]) == "Z"
            assert str(hs[1]) == h1


class TestTensorResolution:
    def test_dd_zero_and_agreement_with_bar(self):
        g = parse_group("C2xC4")
        res = default_resolution(g, 3)
        assert isinstance(res, TensorResolution)
        res.verify()
        bar = BarResolution(g, 3)
        for m in [trivial_integers(g),
                  twisted_integers(orientation_characters(g)[0])]:
            a = [h for h in cohomology_groups(res, m, 3)]
            b = [h for h in cohomology_groups(bar, m, 3)]
            assert a == b

    def test_klein_four_cohomology(self):
        g = parse_group("C2xC2")
        res = default_resolution(g, 4)
        res.verify()
        names = [str(h) for h in
                 cohomology_groups(res, trivial_integers(g), 4)]
        # classical: H^* (Z/2 x Z/2; Z) = Z, 0, (Z/2)^2, Z/2, (Z/2)^3
        assert names == ["Z", "0", "Z/2 + Z/2", "Z/2",
                         "Z/2 + Z/2 + Z/2"]

    def test_nested_product(self):
        g = parse_group("C2xC2xC5")
        res = default_resolution(g, 2)
        res.verify()
        hs = homology_groups(res, trivial_integers(g), 1)
        assert str(hs[1]) == "Z/2 + Z/10"

    def test_large_cyclic_pair_feasible(self):
        # C5 x C10 would need 49^5 bar generators; the tensor route stays
        # tiny
        g = parse_group("C5xC10")
        res = default_resolution(g, 4)
        assert max(res.ranks) <= 6
        res.verify()

    def test_factor_mismatch_rejected(self):
        g = parse_group("C2xC3")
        ra = PeriodicResolution(parse_group("C5"), 3)
        rb = PeriodicResolution(parse_group("C3"), 3)
        with pytest.raises(ValueError):
            TensorResolution(ra, rb, g)


class TestRelabeledAbelian:
    """Subgroups lose product provenance; abelian ones must still get a
    structured resolution via the cyclic decomposition."""

    def test_decomposition_orders(self):
        from u4class.groups import abelian_cyclic_decomposition
        g = parse_group("C3xC6")
        gens, _ = abelian_cyclic_decomposition(g)
        assert sorted(g.element_order(x) for x in gens) == [3, 6]
        with pytest.raises(ValueError):
            abelian_cyclic_decomposition(parse_group("D3"))

    def test_extracted_kernel_uses_tensor_route(self):
        from u4class.groups import odd_normal_complement
        from u4class.resolutions import RelabeledResolution
        d = odd_normal_complement(parse_group("C3xC6"))
        res = default_resolution(d.kernel, 5)   # C3 x C3, order 9
        assert isinstance(res, RelabeledResolution)
        assert max(res.ranks) <= 7
        res.verify()

    def test_relabeled_matches_bar(self):
        from u4class.groups import odd_normal_complement
        d = odd_normal_complement(parse_group("C3xC6"))
        k = d.kernel
        fast = default_resolution(k, 2)
        slow = BarResolution(k, 2)
        mod = trivial_integers(k)
        for res in (fast, slow):
            res.verify()
        fast_h = homology_groups(fast, mod, 2)
        slow_h = homology_groups(slow, mod, 2)
        assert [str(h) for h in fast_h] == [str(h) for h in slow_h]


class TestDefaultPolicy:
    def test_policy(self):
        assert isinstance(default_resolution(parse_group("C12"), 3),
                          PeriodicResolution)
        assert isinstance(default_resolution(parse_group("C2xC4"), 3),
                          TensorResolution)
        assert isinstance(default_resolution(parse_group("D3"), 3),
                          BarResolution)

    def test_bound_reader(self, monkeypatch):
        monkeypatch.delenv("U4CLASS_MAX_GENERATORS", raising=False)
        assert resolutions.max_generators() == 10**6
        monkeypatch.setenv("U4CLASS_MAX_GENERATORS", "42")
        assert resolutions.max_generators() == 42


def loop_cyclic_decomposition(group):
    """The cyclic decomposition by repeated multiplication, as the group
    layer computed it before ``FiniteGroup.powers``: generators, and the
    element of each mixed-radix exponent vector (last generator least
    significant) by multiplying out every digit."""
    mul = group.mul.tolist()

    def pw(g_mul, a, n):
        x = 0
        for _ in range(n):
            x = g_mul[x][a]
        return x

    def order(g_mul, a):
        x, o = a, 1
        while x:
            x, o = g_mul[x][a], o + 1
        return o

    def decompose(g):
        if g.order == 1:
            return []
        g_mul = g.mul.tolist()
        gen = max(range(g.order), key=lambda a: order(g_mul, a))
        e = order(g_mul, gen)
        powers = [pw(g_mul, gen, i) for i in range(e)]
        log = {p: i for i, p in enumerate(powers)}
        quo, _, reps = g.quotient(tuple(sorted(powers)))
        out = [gen]
        for qgen, k in decompose(quo):
            h0 = reps[qgen]
            m = log[pw(g_mul, h0, k)]
            out.append(g_mul[h0][pw(g_mul, gen, (-(m // k)) % e)])
        return [(h, order(g_mul, h)) for h in out]

    gens, orders = zip(*decompose(group))
    iso = []
    for idx in range(group.order):
        rest, digits = idx, []
        for o in reversed(orders):
            digits.append(rest % o)
            rest //= o
        e = 0
        for g, d in zip(gens, reversed(digits)):
            e = mul[e][pw(mul, g, d)]
        iso.append(e)
    return gens, iso


def _kernel(spec):
    return odd_normal_complement(parse_group(spec)).kernel


class TestCyclicCoordinates:
    """The mixed-radix table of ``abelian_cyclic_decomposition`` is the
    relabeling of the tensor resolution, element for element."""

    GROUPS = {"C3xC6": lambda: parse_group("C3xC6"),
              "K(C3xC6)": lambda: _kernel("C3xC6"),
              "K(C6xC3)": lambda: _kernel("C6xC3"),
              "C2xC2": lambda: parse_group("C2xC2"),
              "C2xC4": lambda: parse_group("C2xC4"),
              "K(C3xC3xC2)": lambda: _kernel("C3xC3xC2")}

    @pytest.mark.parametrize("name", list(GROUPS))
    def test_table_against_loop(self, name):
        from u4class.groups import abelian_cyclic_decomposition
        group = self.GROUPS[name]()
        gens, table = abelian_cyclic_decomposition(group)
        loop_gens, iso = loop_cyclic_decomposition(group)
        assert gens == loop_gens
        assert table.tolist() == iso

    @pytest.mark.parametrize("name", ["K(C3xC6)", "K(C6xC3)",
                                      "K(C3xC3xC2)"])
    def test_relabeled_resolution_reads_the_table(self, name):
        from u4class.groups import abelian_cyclic_decomposition
        from u4class.resolutions import RelabeledResolution
        group = self.GROUPS[name]()
        res = default_resolution(group, 2)
        assert isinstance(res, RelabeledResolution)
        assert res._iso.tolist() == \
            abelian_cyclic_decomposition(group)[1].tolist()


class TestEntryBound:
    """Assembly refuses a matrix of more than two entries per generator
    of the bound, before the elimination can run out of memory."""

    def test_d5_twisted_homology_in_degree_5(self, monkeypatch):
        # the bar resolution to degree 5 has 597,871 generators, inside
        # the bound; its degree-6 chain matrix has 3,424,842 entries
        from u4class.cohomology import homology
        monkeypatch.delenv("U4CLASS_MAX_GENERATORS", raising=False)
        g = parse_group("D5")
        module = twisted_integers(orientation_characters(g)[0])
        with pytest.raises(FeasibilityError, match="3424842 entries"):
            homology(g, module, 5)

    def test_d5_refused_before_the_faces_are_built(self, monkeypatch):
        from u4class.cohomology import homology
        monkeypatch.delenv("U4CLASS_MAX_GENERATORS", raising=False)
        built = []
        boundary = BarResolution.boundary

        def spy(res, n, firsts=None):
            built.append(n)
            return boundary(res, n, firsts)
        monkeypatch.setattr(BarResolution, "boundary", spy)
        g = parse_group("D5")
        module = twisted_integers(orientation_characters(g)[0])
        with pytest.raises(FeasibilityError, match="3424842 entries"):
            homology(g, module, 5)
        assert built == []

    @staticmethod
    def _refusal_peak_kb(spec, call):
        """VmHWM of a fresh interpreter that runs ``call`` on g, the group
        of ``spec``, and ch, its first orientation character, and catches
        the refusal.  VmHWM is
        the peak of that process alone (ru_maxrss would keep the peak of
        the test process that started it)."""
        import os
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(resolutions.__file__))
        code = (
            "from u4class.cohomology import (BarMod2Complex, cohomology, "
            "homology)\n"
            "from u4class.groups import orientation_characters, "
            "parse_group\n"
            "from u4class.modules import (mod2_integers, trivial_integers, "
            "twisted_integers)\n"
            "from u4class.resolutions import FeasibilityError\n"
            f"g = parse_group({spec!r})\n"
            "ch = orientation_characters(g)[0]\n"
            "try:\n"
            f"    {call}\n"
            "except FeasibilityError:\n"
            "    print(open('/proc/self/status').read()"
            ".split('VmHWM:')[1].split()[0])\n")
        env = {k: v for k, v in os.environ.items()
               if k != "U4CLASS_MAX_GENERATORS"}
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             env={**env, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        return int(out.stdout)

    def test_d5_refusal_peak_memory(self):
        # the degree-6 faces alone took the process past 300 MB; the
        # interpreter with the package imported takes about 31 MB
        peak = self._refusal_peak_kb(
            "D5", "homology(g, twisted_integers(ch), 5)")
        assert peak < 60 * 1024      # VmHWM is in kB

    def test_d5xc3_refusal_peak_memory(self):
        # the tensor resolution built its bar D5 factor's degree-6 faces
        # before counting them (371 MB); counted first, the degree-4
        # coboundary assembled ahead of the refused one still took 79 MB
        peak = self._refusal_peak_kb(
            "D5xC3", "cohomology(g, trivial_integers(g), 5)")
        assert peak < 60 * 1024

    MASK_CALLS = {"cohomology": "cohomology(g, mod2_integers(g), 5)",
                  "homology": "homology(g, mod2_integers(g), 5)",
                  "ring": "BarMod2Complex(g, 5)"}

    @pytest.mark.parametrize("which", list(MASK_CALLS))
    def test_d5_mask_refusal(self, monkeypatch, which):
        # the cut delta^5 of D5 has 761076 entries, inside the entry
        # bound, but its GF(2) masks would take 871 MB (48 MB allowed)
        from u4class.cohomology import BarMod2Complex, cohomology, homology
        monkeypatch.delenv("U4CLASS_MAX_GENERATORS", raising=False)
        g = parse_group("D5")
        call = {"cohomology": lambda: cohomology(g, mod2_integers(g), 5),
                "homology": lambda: homology(g, mod2_integers(g), 5),
                "ring": lambda: BarMod2Complex(g, 5)}[which]
        with pytest.raises(FeasibilityError, match=r"\(118098 x 59049\) "
                           "take 871740387 bytes, past the bound 48000000"):
            call()

    @pytest.mark.parametrize("which", list(MASK_CALLS))
    def test_d5_mask_refused_before_the_faces_are_built(self, monkeypatch,
                                                        which):
        from u4class.cohomology import BarMod2Complex, cohomology, homology
        monkeypatch.delenv("U4CLASS_MAX_GENERATORS", raising=False)
        built = []
        boundary = BarResolution.boundary

        def spy(res, n, firsts=None):
            built.append(n)
            return boundary(res, n, firsts)
        monkeypatch.setattr(BarResolution, "boundary", spy)
        g = parse_group("D5")
        call = {"cohomology": lambda: cohomology(g, mod2_integers(g), 5),
                "homology": lambda: homology(g, mod2_integers(g), 5),
                "ring": lambda: BarMod2Complex(g, 5)}[which]
        with pytest.raises(FeasibilityError, match="871740387 bytes"):
            call()
        assert built == []

    def test_mod2_cut_past_both_bounds_meets_the_entry_bound(
            self, monkeypatch):
        # D3's cut delta^4 over (Z/2)^2 has 26000 entries (7812 allowed at
        # 3906 generators) and 391250 bytes of masks (187488 allowed)
        monkeypatch.setenv("U4CLASS_MAX_GENERATORS", "3906")
        g = parse_group("D3")
        module = module_from_abelian_group(
            g, AbelianGroup.from_cyclic_orders([2, 2]))
        with pytest.raises(FeasibilityError, match="26000 entries"):
            BarResolution(g, 4).mod2_cocycle_rows(module, 4)

    @pytest.mark.parametrize("which", list(MASK_CALLS))
    def test_d5_mask_refusal_peak_memory(self, which):
        # refused from the cut's shape, before the 761076-entry cut (79 MB
        # with the interpreter once assembled) or any of the 871 MB of
        # masks is built
        peak = self._refusal_peak_kb("D5", self.MASK_CALLS[which])
        assert peak < 60 * 1024

    def test_mask_bytes_just_above_and_below(self, monkeypatch):
        # 24 bytes per entry of the bound B, so 48 B bytes of masks, a
        # column taking ceil(nrows / 8) bytes
        res = BarResolution(parse_group("C2"), 1)
        monkeypatch.setenv("U4CLASS_MAX_GENERATORS", "10")
        m = IntMatrix(8 * 48, 10)
        assert res.check_mask_bytes(m) is m
        with pytest.raises(FeasibilityError, match="490 bytes"):
            res.check_mask_bytes(IntMatrix(8 * 48 + 1, 10))

    @pytest.mark.parametrize("spec, nbytes", [("C12", 26807671),
                                              ("D5", 10766601)])
    def test_top_cuts_fit_the_mask_bound(self, monkeypatch, spec, nbytes):
        # the largest cut delta^4 of the cyclic oracle and D5's
        monkeypatch.delenv("U4CLASS_MAX_GENERATORS", raising=False)
        g = parse_group(spec)
        cut = BarResolution(g, 4).cocycle_rows(trivial_integers(g), 4)
        assert cut.ncols * ((cut.nrows + 7) // 8) == nbytes
        assert BarResolution(g, 4).check_mask_bytes(cut) is cut

    @pytest.mark.parametrize("name", ["C6", "C3xC6", "D3xC5",
                                      "C3xC3<C3xC6"])
    def test_face_count_of_default_resolutions(self, name):
        # periodic; tensor; tensor over a bar factor; relabeled
        group = _kernel("C3xC6") if name == "C3xC3<C3xC6" \
            else parse_group(name)
        res = default_resolution(group, 3)
        for n in range(1, 5):
            assert res.face_count(n) == len(res.boundary(n)[3]), n

    def test_face_count_is_required(self):
        g = parse_group("C2")
        with pytest.raises(NotImplementedError):
            Resolution(g, 1, [1, 1, 1]).face_count(1)

    @pytest.mark.parametrize("spec", ["C2", "C3", "C5", "C7", "D3",
                                      "C2xC2"])
    def test_bar_face_count_closed_form(self, spec):
        g = parse_group(spec)
        res = BarResolution(g, 3)
        q = g.order - 1
        for n in range(1, 5):
            for firsts in (None, g.generating_set(), range(1, q + 1), (1,),
                           tuple(range(2, q + 1, 2))):
                want = 2 * q**n + (n - 1) * (q**n - q**(n - 1))
                if firsts is not None:
                    want = want * len(firsts) // q
                assert res.face_count(n, firsts) == want == \
                    len(res.boundary(n, firsts)[3]), (n, firsts)

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("kind", ["cochain", "chain"])
    def test_just_above_and_below(self, monkeypatch, rank, kind):
        g = parse_group("D3")
        module = module_from_abelian_group(g, AbelianGroup(rank))
        entries = len(BarResolution(g, 3).boundary(4)[3]) * rank ** 2
        limit = (entries + 1) // 2      # smallest bound with 2B >= entries

        def assemble(bound):
            res = BarResolution(g, 3)
            monkeypatch.setenv("U4CLASS_MAX_GENERATORS", str(bound))
            if kind == "cochain":
                return res.coboundary_matrix(module, 3)
            return res.chain_matrix(module, 4)

        with pytest.raises(FeasibilityError, match=f"{entries} entries"):
            assemble(limit - 1)
        m = assemble(limit)
        assert sorted((m.nrows, m.ncols)) == [125 * rank, 625 * rank]
