"""Exact linear algebra: Smith form, homology subquotients, GF(2) ops."""

import math
import random

import numpy as np
import pytest

from u4class import linalg
from u4class.kernels import gf2
from u4class.linalg import AbelianGroup, IntMatrix

from helpers import (group_counts, oracle_homology, oracle_invariant_factors,
                     random_unimodular, record_composition_checks,
                     saturated_kernel_basis)


class TestAbelianGroup:
    def test_normalization(self):
        g = AbelianGroup.from_cyclic_orders([2, 3])
        assert g == AbelianGroup(0, (6,))
        g = AbelianGroup.from_cyclic_orders([2, 2, 3])
        assert g == AbelianGroup(0, (2, 6))
        g = AbelianGroup.from_cyclic_orders([0, 4, 6])
        assert g == AbelianGroup(1, (2, 12))

    def test_divisor_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (3, 2))
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))

    def test_order_exponent(self):
        g = AbelianGroup(0, (2, 8))
        assert g.order() == 16
        assert g.exponent() == 8
        assert AbelianGroup(1).order() is None
        assert AbelianGroup().order() == 1

    def test_tensor_tor(self):
        z2 = AbelianGroup(0, (2,))
        mixed = AbelianGroup(1, (2,))
        assert z2.tensor(mixed) == AbelianGroup(0, (2, 2))
        assert z2.tor(mixed) == AbelianGroup(0, (2,))
        z = AbelianGroup(1)
        assert mixed.tensor(z) == mixed
        assert mixed.tor(z) == AbelianGroup()
        a = AbelianGroup(0, (4,))
        b = AbelianGroup(0, (6,))
        assert a.tensor(b) == AbelianGroup(0, (2,))
        assert a.tor(b) == AbelianGroup(0, (2,))

    def test_str(self):
        assert str(AbelianGroup()) == "0"
        assert str(AbelianGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
        assert str(AbelianGroup(1)) == "Z"


class TestIntMatrix:
    def test_canonicalization(self):
        m = IntMatrix(2, 2, [0, 0, 1], [0, 0, 1], [1, -1, 5])
        assert m.nnz == 1
        assert m.to_dense() == [[0, 0], [0, 5]]

    def test_matmul_paths_agree(self):
        rng = random.Random(7)
        for _ in range(20):
            a = IntMatrix.from_dense(
                [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)])
            b = IntMatrix.from_dense(
                [[rng.randint(-4, 4) for _ in range(3)] for _ in range(5)])
            fast = a.matmul(b)
            slow_dense = [[sum(a.to_dense()[i][k] * b.to_dense()[k][j]
                               for k in range(5)) for j in range(3)]
                          for i in range(4)]
            assert fast.to_dense() == slow_dense

    def test_matmul_huge_entries(self):
        big = 10**30
        a = IntMatrix.from_dense([[big]])
        b = IntMatrix.from_dense([[big]])
        assert a.matmul(b).to_dense() == [[big * big]]

    @staticmethod
    def _dict_canonical(rows, cols, vals):
        acc = {}
        for r, c, v in zip(rows, cols, vals):
            acc[(r, c)] = acc.get((r, c), 0) + v
        keys = sorted(k for k, v in acc.items() if v)
        return ([r for r, _ in keys], [c for _, c in keys],
                [acc[k] for k in keys])

    @pytest.mark.parametrize("count", [40, 511, 513, 3000])
    @pytest.mark.parametrize("scale", [3, 2**40, 2**70])
    def test_canonical_matches_dict_oracle(self, count, scale):
        rng = random.Random(count * 7 + scale % 1000)
        nrows, ncols = 9, 13
        rows, cols, vals = [], [], []
        while len(vals) < count:
            r, c = rng.randrange(nrows), rng.randrange(ncols)
            v = rng.randint(-scale, scale)
            rows.append(r)
            cols.append(c)
            vals.append(v)
            if rng.random() < 0.3:   # an exact cancellation
                rows.append(r)
                cols.append(c)
                vals.append(-v)
        expect = self._dict_canonical(rows, cols, vals)
        m = IntMatrix(nrows, ncols, rows, cols, vals)
        assert (m.rows, m.cols, m.vals) == expect
        assert all(type(v) is int for v in m.rows + m.cols + m.vals)
        if scale < 2**62:
            m = IntMatrix(nrows, ncols, np.array(rows), np.array(cols),
                          np.array(vals))
            assert (m.rows, m.cols, m.vals) == expect

    def test_int64_object_boundary(self, monkeypatch):
        safe = linalg._INT64_SAFE
        # 4 values of 2^60 at one position: bound * count is exactly 2^62
        at_bound = ([0] * 4, [1] * 4, [2**60] * 4)
        # 5 values of (2^62 + 1) / 5: bound * count is 2^62 + 1
        b = (safe + 1) // 5
        assert 5 * b == safe + 1
        past_bound = ([0] * 5, [1] * 5, [b, -b, b, b, b])
        for triplets, dtype in ((at_bound, np.int64),
                                (past_bound, object)):
            r, c, v = linalg._canonical_triplets(2, 2, *triplets)
            assert v.dtype == dtype
            expect = self._dict_canonical(*triplets)
            assert (r.tolist(), c.tolist(), v.tolist()) == expect
            assert all(type(x) is int for x in v.tolist())
        # the same triplets through the other path give the same matrix
        plain = IntMatrix(2, 2, *at_bound)
        monkeypatch.setattr(linalg, "_INT64_SAFE", safe - 1)
        assert linalg._canonical_triplets(2, 2, *at_bound)[2].dtype == object
        assert IntMatrix(2, 2, *at_bound) == plain
        assert plain.to_dense() == [[0, 2**62], [0, 0]]

    def test_canonical_rejects_bad_triplets(self):
        for rows, cols in (([2], [0]), ([-1], [0]), ([0], [3]), ([0], [-1]),
                           ([2**70], [0])):
            with pytest.raises(ValueError):
                IntMatrix(2, 3, rows, cols, [1])
        for rows, cols, vals in (([0, 1], [0], [1]), ([0], [0, 1], [1]),
                                 ([0], [0], [1, 2]), ([], [], [1])):
            with pytest.raises(ValueError):
                IntMatrix(2, 3, rows, cols, vals)

    @staticmethod
    def _lexsort_canonical(rows, cols, vals):
        """The canonical form by its definition: entries ordered by
        np.lexsort on (column, row), each run of one position summed in
        Python ints, zero sums dropped."""
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
        out = []
        for i in np.lexsort((c, r)).tolist():
            pos = (int(r[i]), int(c[i]))
            if out and out[-1][0] == pos:
                out[-1][1] += int(vals[i])
            else:
                out.append([pos, int(vals[i])])
        out = [(pos, v) for pos, v in out if v]
        return ([pos[0] for pos, _ in out], [pos[1] for pos, _ in out],
                [v for _, v in out])

    @staticmethod
    def _random_triplets(rng, count, nrows, ncols, scale, runs):
        """count entries with values in [-scale, scale], a third of them
        repeating an earlier position and a fifth of those cancelling it;
        with ``runs``, cut into that many runs each sorted by position."""
        rows, cols, vals = [], [], []
        for _ in range(count):
            if vals and rng.random() < 0.3:
                k = rng.randrange(len(vals))
                r, c = rows[k], cols[k]
                v = -vals[k] if rng.random() < 0.2 \
                    else rng.randint(-scale, scale)
            else:
                r, c = rng.randrange(nrows), rng.randrange(ncols)
                v = rng.randint(-scale, scale)
            rows.append(r)
            cols.append(c)
            vals.append(v)
        if runs:
            cuts = sorted(rng.sample(range(count + 1), runs - 1))
            entries = list(zip(rows, cols, vals))
            ordered = []
            for lo, hi in zip([0] + cuts, cuts + [count]):
                ordered += sorted(entries[lo:hi],
                                  key=lambda e: (e[0], e[1]))
            rows, cols, vals = (list(x) for x in zip(*ordered)) \
                if ordered else ([], [], [])
        return rows, cols, vals

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("count, runs", [
        (0, 0), (1, 0), (1, 1), (30, 0), (30, 1), (30, 5), (700, 0),
        (700, 1), (700, 5)])
    @pytest.mark.parametrize("scale", [1, 2**31, 2**62 + 5, 2**80])
    def test_canonical_equals_lexsort_definition(self, seed, count, runs,
                                                 scale):
        # one stable sort on row * ncols + col gives what lexsort gives;
        # runs = 0 leaves the entries unsorted, runs = 1 sorts them all
        rng = random.Random(f"{seed} {count} {runs} {scale}")
        nrows, ncols = rng.choice([(1, 1), (3, 7), (40, 25), (2, 5000)])
        rows, cols, vals = self._random_triplets(rng, count, nrows, ncols,
                                                 scale, runs)
        expect = self._lexsort_canonical(rows, cols, vals)
        inputs = [(rows, cols, vals)]
        if scale < 2**63:
            inputs.append((np.array(rows, dtype=np.int64),
                           np.array(cols, dtype=np.int64),
                           np.array(vals, dtype=np.int64)))
        for triplets in inputs:
            r, c, v = linalg._canonical_triplets(nrows, ncols, *triplets)
            assert (r.tolist(), c.tolist(), v.tolist()) == expect
            assert r.dtype == c.dtype == np.int64
            safe = linalg._array_max_abs(np.array(vals, dtype=object)) \
                * len(vals) <= linalg._INT64_SAFE
            assert v.dtype == (np.int64 if safe else object)
            assert IntMatrix(nrows, ncols, *triplets).rows == expect[0]

    def test_canonical_reads_views_in_place(self):
        # broadcast (read-only) views of one shape give what their copies
        # give, and no input array is written
        rows = np.array([[2], [0], [2]], dtype=np.int64)
        cols = np.array([[1, 3]], dtype=np.int64)
        vals = np.array([[5, 1], [2, 7], [-5, 4]], dtype=np.int64)
        r, c = np.broadcast_arrays(rows, cols)
        want = self._lexsort_canonical(r.ravel(), c.ravel(), vals.ravel())
        assert want == ([0, 0, 2], [1, 3, 3], [2, 7, 5])
        m = IntMatrix(3, 4, r, c, vals)
        assert (m.rows, m.cols, m.vals) == want
        assert m == IntMatrix(3, 4, r.ravel(), c.ravel(), vals.ravel())
        assert rows.ravel().tolist() == [2, 0, 2]
        assert cols.ravel().tolist() == [1, 3]
        assert vals.ravel().tolist() == [5, 1, 2, 7, -5, 4]
        with pytest.raises(ValueError, match="lengths differ"):
            IntMatrix(3, 4, rows, cols, vals)

    @pytest.mark.parametrize("nrows, ncols", [
        (2, 2**62 - 1),                  # 2^63 - 2: one position below
        (7, (2**63 - 1) // 7),           # 2^63 - 1, the largest key + 1
        ((2**63 - 1) // 7, 7),
        (1, 2**63 - 1),
        (2**63 - 1, 1)])
    def test_shape_at_the_key_limit(self, nrows, ncols):
        # every corner, given last first; the far corner's key is
        # nrows * ncols - 1, the largest int64 but one at the limit
        corners = [(nrows - 1, ncols - 1), (nrows - 1, 0), (0, ncols - 1),
                   (0, 0), (nrows - 1, ncols - 1)]
        rows, cols = [r for r, _ in corners], [c for _, c in corners]
        vals = [3, 1, 2, 5, 4]
        m = IntMatrix(nrows, ncols, rows, cols, vals)
        want = sorted(set(corners))
        assert list(zip(m.rows, m.cols)) == want
        assert (m.rows, m.cols, m.vals) == \
            self._lexsort_canonical(rows, cols, vals)
        t = m.transpose()
        assert list(zip(t.cols, t.rows)) == sorted(want,
                                                   key=lambda p: p[::-1])

    @pytest.mark.parametrize("nrows, ncols", [
        (2, 2**62), (2**62, 2), (1, 2**63), (2**63, 1), (2**40, 2**40),
        (3, (2**63 - 1) // 3 + 1)])
    def test_shape_past_the_key_limit(self, monkeypatch, nrows, ncols):
        def no_sort(*args):
            raise AssertionError("sorted a matrix with no int64 keys")
        monkeypatch.setattr(linalg, "_canonical_triplets", no_sort)
        for canonical in (False, True):
            with pytest.raises(ValueError, match="int64 keys"):
                IntMatrix(nrows, ncols, [nrows - 1], [ncols - 1], [1],
                          canonical=canonical)
        with pytest.raises(ValueError, match="int64 keys"):
            IntMatrix.zeros(nrows, ncols)

    def test_matmul_int64_boundary(self, monkeypatch):
        safe = linalg._INT64_SAFE
        # bound = inner * max|a| * max|b| = 2 * 2^30 * 2^31
        a = IntMatrix.from_dense([[2**30, -2**30]])
        b = IntMatrix.from_dense([[2**31], [-2**31]])
        expect = [[2**62]]
        fast = a._matmul_scipy(b)
        assert fast is not None and fast.to_dense() == expect
        assert all(type(v) is int for v in fast.vals)
        over = IntMatrix.from_dense([[2**30 + 1, -2**30]])
        assert 2 * (2**30 + 1) * 2**31 > safe
        assert over._matmul_scipy(b) is None
        assert over.matmul(b).to_dense() == [[2**62 + 2**31]]
        monkeypatch.setattr(linalg, "_INT64_SAFE", safe - 1)
        assert a._matmul_scipy(b) is None
        assert a.matmul(b) == fast

    @pytest.mark.parametrize("dense, dtype", [
        ([[0, 5, 0], [3, 0, -1]], np.int64),
        ([[0, 2**62, 0], [3, 0, -1]], np.int64),
        ([[0, 2**62 + 1, 0], [3, 0, -1]], object),
        ([[0, -2**70, 0], [3, 0, -1]], object)])
    def test_equal_across_construction_paths(self, monkeypatch, dense,
                                             dtype):
        want = IntMatrix.from_dense(dense)
        assert want.arrays[2].dtype == dtype
        rows, cols, vals = want.rows, want.cols, want.vals
        # unsorted, with the first value split in two and a cancelling pair
        half = vals[0] // 2
        plain = IntMatrix(2, 3, rows[::-1] + [rows[0], 1, 1],
                          cols[::-1] + [cols[0], 1, 1],
                          vals[:0:-1] + [vals[0] - half, half, 7, -7])
        built = {
            "plain": plain,
            "canonical": IntMatrix(2, 3, rows, cols, vals, canonical=True),
            "canonical arrays": IntMatrix(
                2, 3, np.array(rows), np.array(cols),
                np.array(vals, dtype=dtype), canonical=True),
            "matmul left": IntMatrix.identity(2).matmul(want),
            "matmul right": want.matmul(IntMatrix.identity(3)),
            "transpose twice": want.transpose().transpose(),
        }
        # the same values held in the other dtype
        monkeypatch.setattr(linalg, "_INT64_SAFE",
                            want.max_abs() - 1 if dtype == np.int64
                            else 2**63)
        other = IntMatrix(2, 3, rows, cols, vals)
        monkeypatch.undo()
        if dtype == np.int64:
            assert other.arrays[2].dtype == object
            built["object dtype"] = other
        elif max(map(abs, vals)) < 2**63:
            assert other.arrays[2].dtype == np.int64
            built["int64 dtype"] = other
        for name, m in built.items():
            assert m == want and want == m, name
            assert (m.rows, m.cols, m.vals) == (rows, cols, vals), name
        assert want != IntMatrix(2, 3, [r ^ 1 for r in rows], cols, vals)

    def test_list_views_and_read_only_arrays(self):
        for dense in ([[0, 5], [-2**70, 1]], [[0, 5], [-3, 1]]):
            m = IntMatrix.from_dense(dense)
            views = (m.rows, m.cols, m.vals)
            assert views == ([0, 1, 1], [1, 0, 1], [5, dense[1][0], 1])
            assert all(type(x) is int for view in views for x in view)
            for name, view in zip(("rows", "cols", "vals"), views):
                again = getattr(m, name)
                assert again == view and again is not view
                view.append(0)
            assert (m.rows, m.cols, m.vals) == \
                ([0, 1, 1], [1, 0, 1], [5, dense[1][0], 1])
            for a in m.arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 9
            assert m.to_dense() == dense

    def test_object_matmul_matches_dense_reference(self):
        rng = random.Random(11)

        def dense_product(a, b):
            return [[sum(x * y for x, y in zip(row, col))
                     for col in zip(*b)] for row in a]

        for _ in range(30):
            n, k, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            scale = rng.choice([2**20, 2**40, 2**70])
            a = [[rng.choice([0, rng.randint(-scale, scale)])
                  for _ in range(k)] for _ in range(n)]
            b = [[rng.choice([0, rng.randint(-scale, scale)])
                  for _ in range(p)] for _ in range(k)]
            # past the int64 bound, and entry (0, 0) cancels to zero
            a[0] = [2**70] * k
            if k > 1:
                for row in b:
                    row[0] = 0
                b[0][0], b[1][0] = 3, -3
            left, right = IntMatrix.from_dense(a), IntMatrix.from_dense(b)
            if not left.nnz or not right.nnz:
                continue
            assert left._matmul_scipy(right) is None
            out = left.matmul(right)
            assert out.to_dense() == dense_product(a, b)
            assert all(type(v) is int for v in out.vals)
        # every product cancels
        a = IntMatrix.from_dense([[2**70, 2**70]])
        b = IntMatrix.from_dense([[5, 1], [-5, -1]])
        out = a.matmul(b)
        assert out.is_zero and (out.nrows, out.ncols) == (1, 2)

    @pytest.mark.parametrize("left, right", [
        (IntMatrix.zeros(0, 1), IntMatrix.identity(1)),
        (IntMatrix.identity(3), IntMatrix.zeros(3, 2)),
        (IntMatrix.zeros(2, 3), IntMatrix.from_dense([[1], [2], [3]])),
        (IntMatrix.from_dense([[1, 2]]), IntMatrix.zeros(2, 0)),
        (IntMatrix.zeros(4, 0), IntMatrix.zeros(0, 5))])
    def test_matmul_empty_factor(self, left, right):
        out = left.matmul(right)
        assert (out.nrows, out.ncols) == (left.nrows, right.ncols)
        assert out.is_zero

    def test_matmul_empty_factor_skips_scipy(self):
        assert not _imports_in_fresh_interpreter(
            "from u4class.linalg import IntMatrix\n"
            "IntMatrix.zeros(0, 1).matmul(IntMatrix.identity(1))\n",
            "scipy")

    def test_array_paths_skip_numpy_ma(self):
        # np.unique imports numpy.ma (~20 ms) on its first call
        assert not _imports_in_fresh_interpreter(
            "from u4class import linalg\n"
            "from u4class.linalg import IntMatrix, ColumnLattice\n"
            "m = IntMatrix.from_dense([[1, 2, 0], [0, 3, 4]])\n"
            "ColumnLattice(m).contains([1, 0])\n"
            "m.mod2_column_masks()\n"
            "IntMatrix.from_dense([[2**70]]).matmul(\n"
            "    IntMatrix.from_dense([[3, 0, 1]]))\n"
            "m.hstack(m).transpose()\n"
            "linalg.smith_normal_form(IntMatrix.from_dense([[2, 4], [6, 8]]))\n",
            "numpy.ma")


def _imports_in_fresh_interpreter(code, module):
    """Whether running code in a fresh interpreter imports module."""
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    code = f"import sys\n{code}print({module!r} in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "True"


def _random_unit_rich(rng, nr, nc):
    """Sparse integer matrix, mostly +-1 entries, with empty rows and
    columns and rows repeated up to sign."""
    empty_cols = {j for j in range(nc) if rng.random() < 0.15}
    dense = [[0] * nc for _ in range(nr)]
    for row in dense:
        if rng.random() < 0.15:
            continue
        for j in range(nc):
            if j not in empty_cols and rng.random() < 0.3:
                row[j] = rng.choice([1, -1, 1, -1, 1, -1, 2, -2, 3, 6])
    for _ in range(nr // 3):
        i, j = rng.randrange(nr), rng.randrange(nr)
        dense[j] = [rng.choice([1, -1]) * x for x in dense[i]]
    return IntMatrix.from_dense(dense)


class TestSmithForm:
    def test_spec_examples(self):
        assert linalg.smith_normal_form(IntMatrix.identity(3)).diagonal == \
            (1, 1, 1)
        m = IntMatrix.from_dense([[2, 0], [0, 3]])
        assert linalg.smith_normal_form(m).diagonal == (1, 6)
        m = IntMatrix.from_dense([[-2]])
        assert linalg.smith_normal_form(m).diagonal == (2,)

    def test_idempotence_on_divisor_chain(self):
        m = IntMatrix.from_dense([[1, 0, 0], [0, 2, 0], [0, 0, 4]])
        assert linalg.smith_normal_form(m).diagonal == (1, 2, 4)

    def test_against_sympy(self):
        rng = random.Random(2)
        cases = []
        for _ in range(40):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            cases.append(IntMatrix.from_dense(
                [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]))
        # mostly unit entries, with empty rows and columns and rows
        # repeated up to sign, as the unit-pivot phase meets them
        rng = random.Random(17)
        cases += [_random_unit_rich(rng, rng.randint(1, 9),
                                    rng.randint(1, 9)) for _ in range(60)]
        cases += [IntMatrix.from_dense([[0, 2, 3], [0, -2, -3], [0, 0, 0],
                                        [0, 2, 3], [0, 4, 6]])]
        # the unit phase leaves d - c*b, at and past the int64 bound, and
        # input entries there
        b, c, safe = 2**31, 2**31 - 2, linalg._INT64_SAFE
        cases += [IntMatrix.from_dense([[1, b], [c, d]])
                  for d in (safe - c * b, safe - c * b + 1, c * b - safe)]
        cases += [IntMatrix.from_dense([[1, big], [0, 5]])
                  for big in (safe, safe + 1, -safe - 1, 2**70)]
        for m in cases:
            mine = [d for d in linalg.smith_normal_form(m).diagonal if d]
            assert mine == oracle_invariant_factors(m)

    def test_overflow_falls_back(self):
        from u4class import kernels
        # entries at and past the int64 range stay exact Python ints
        for big in (2**62, 2**64 + 3):
            npiv, rr, rc, rv = kernels.unit_pivot_phase(1, 1, [0], [0], [big])
            assert npiv == 0 and rv == [big]
            # [[1, big], [1, 0]] has Smith form (1, big): one unit pivot,
            # and big is left over
            npiv, rr, rc, rv = kernels.unit_pivot_phase(
                2, 2, [0, 0, 1], [0, 1, 0], [1, big, 1])
            assert npiv == 1 and rv == [big]
        # over GF(2) an odd bigint is a unit and an even one vanishes
        assert linalg.mod2_rank(IntMatrix(1, 1, [0], [0], [2**64 + 3])) == 1
        assert linalg.mod2_rank(IntMatrix(1, 1, [0], [0], [2**64])) == 0
        assert linalg.mod2_rank(
            IntMatrix.from_dense([[1, 2**64 + 3], [1, 0]])) == 2

    def test_one_engine(self):
        from u4class import kernels
        assert kernels.BACKEND == "pure"
        assert kernels._fast is None
        assert kernels.unit_pivot_phase is kernels.pure.unit_pivot_phase

    @staticmethod
    def _spy_steps(monkeypatch):
        """Record (dtype in, dtype out) of every shared two-row step."""
        steps = []
        step = linalg._two_row_step

        def spy(a, *args):
            before = a.dtype
            out = step(a, *args)
            steps.append((before, out[0].dtype))
            return out
        monkeypatch.setattr(linalg, "_two_row_step", spy)
        return steps

    @staticmethod
    def _random_remainder(rng, big):
        """A dense matrix of entries within +-big, near +-big or small,
        and its triplets."""
        nr, nc = rng.randint(2, 5), rng.randint(2, 5)
        dense = [[rng.choice([0, rng.randint(-9, 9), big - rng.randint(0, 9),
                              -big + rng.randint(0, 9)])
                  for _ in range(nc)] for _ in range(nr)]
        nz = [(i, j, v) for i, row in enumerate(dense)
              for j, v in enumerate(row) if v]
        return dense, [list(t) for t in zip(*nz)] if nz else [[], [], []]

    @pytest.mark.parametrize("big", [2**61, 2**62, 2**64 + 5])
    def test_remainder_huge_entries_match_oracle(self, big):
        rng = random.Random(big % 1009)
        for _ in range(25):
            dense, (rr, rc, rv) = self._random_remainder(rng, big)
            diag = linalg._remainder_snf(rr, rc, rv)
            assert all(type(d) is int for d in diag)
            assert diag == oracle_invariant_factors(
                IntMatrix.from_dense(dense))

    def test_remainder_promotes_mid_loop(self, monkeypatch):
        steps = self._spy_steps(monkeypatch)
        rng = random.Random(43)
        midway = 0
        for _ in range(20):
            dense, (rr, rc, rv) = self._random_remainder(rng, 2**61)
            steps.clear()
            assert linalg._remainder_snf(rr, rc, rv) == \
                oracle_invariant_factors(IntMatrix.from_dense(dense))
            kinds = [(a == np.int64, b == np.int64) for a, b in steps]
            if (True, False) in kinds:
                # exact int64 steps ran before the promotion, and every
                # step after it ran on Python ints
                at = kinds.index((True, False))
                midway += at > 0
                assert all(k == (False, False) for k in kinds[at + 1:])
        assert midway > 0
        # small entries never leave int64
        for _ in range(20):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = IntMatrix.from_dense(
                [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)])
            steps.clear()
            assert linalg._remainder_snf(m.rows, m.cols, m.vals) == \
                oracle_invariant_factors(m)
            assert all(a == b == np.int64 for a, b in steps)

    def test_column_step_promotion_boundary(self, monkeypatch):
        # rows (1, b), (0, e): the pivot 1 clears b by subtracting b times
        # column 0 from column 1, bounded by b + max(b, e); no other step
        # runs, and no row operation
        steps = self._spy_steps(monkeypatch)
        b = 2**61
        for e, exact in ((2**61, True), (2**61 + 1, False)):
            assert b + e == linalg._INT64_SAFE + (not exact)
            steps.clear()
            assert linalg._remainder_snf([0, 0, 1], [0, 1, 1], [1, b, e]) \
                == [1, e]
            assert steps == [(np.int64, np.int64 if exact else object)]


class TestUnimodularInvariance:
    def test_snf_invariant_under_unimodular(self):
        # acceptance criterion 9 runs 200 instances; a quick slice here
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 6)
            m = IntMatrix.from_dense(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            u = IntMatrix.from_dense(random_unimodular(rng, n))
            v = IntMatrix.from_dense(random_unimodular(rng, n))
            lhs = linalg.smith_normal_form(u.matmul(m).matmul(v)).diagonal
            assert lhs == linalg.smith_normal_form(m).diagonal


def _bar_coboundary(spec, degree):
    from u4class.groups import parse_group
    from u4class.modules import trivial_integers
    from u4class.resolutions import BarResolution
    group = parse_group(spec)
    return BarResolution(group, degree).coboundary_matrix(
        trivial_integers(group), degree)


def _random_dense(rng, nr, nc, entries):
    return [[rng.choice(entries) if rng.random() < 0.6 else 0
             for _ in range(nc)] for _ in range(nr)]


def _same_saturated_lattice(basis, other):
    """Both bases saturated, of one rank, and jointly of that rank: then
    they span the same lattice (sympy Smith forms only)."""
    k = len(basis)
    if k != len(other):
        return False
    if not k:
        return True
    ones = [1] * k
    return (oracle_invariant_factors(IntMatrix.from_dense(basis)) == ones
            and oracle_invariant_factors(IntMatrix.from_dense(other)) == ones
            and len(oracle_invariant_factors(
                IntMatrix.from_dense(basis + other))) == k)


def _oracle_contains(m, vec):
    """vec lies in the column lattice of m iff adjoining it keeps the rank
    and the product of the Smith diagonal (the index of the lattice in
    its saturation)."""
    import math
    before = oracle_invariant_factors(m)
    after = oracle_invariant_factors(m.hstack(IntMatrix.from_dense(
        [[x] for x in vec])))
    return len(before) == len(after) and \
        math.prod(before) == math.prod(after)


class TestLatticeEchelon:
    # sha256 of json.dumps(integer_kernel(bar delta^2 over Z)), recorded
    # with the dict-of-rows engine this one replaced
    @pytest.mark.parametrize("spec, shape, count, digest", [
        ("C15", (2744, 196), 14, "7909c1de31ea9495312e73b29ae2bf89"
                                 "a1af635faef98abac9340e836cc927c6"),
        ("C3xC3", (512, 64), 8, "1c931e1061c7bff1466281fb3b61096c"
                                "468d80bf49bc7ce7336fcfe2b95c55cb"),
        ("C3", (8, 4), 2, "c6baadb276a18df2e56c2762fc9177b0"
                          "e8846d860a34b1f196b034214faa55ce")],
        ids=["C15", "C3xC3", "C3"])
    def test_integer_kernel_pinned(self, spec, shape, count, digest):
        import hashlib
        import json
        m = _bar_coboundary(spec, 2)
        assert (m.nrows, m.ncols) == shape
        basis = linalg.integer_kernel(m)
        assert len(basis) == count
        assert all(type(x) is int for vec in basis for x in vec)
        assert hashlib.sha256(
            json.dumps(basis).encode()).hexdigest() == digest

    def test_gcd_branch_pinned(self):
        # bases recorded with the previous engine; each takes the
        # extended-gcd combination, which the bar matrices above never do
        for dense, want in (
                ([[4, 6, 10, 15]],
                 [[1, 1, -1, 0], [0, 5, -3, 0], [0, 0, -3, 2]]),
                ([[2, 3, 5, -7, 0], [6, -4, 9, 0, 5]],
                 [[1, 15, 6, 11, 0], [0, 1, -9, -6, 17],
                  [0, 0, -35, -25, 63]]),
                ([[6, 10, 15], [4, -6, 9]], [[90, 3, -38]])):
            assert linalg.integer_kernel(IntMatrix.from_dense(dense)) == want

    def test_witness_pinned(self):
        import hashlib
        import json
        from u4class import groups, hypothesis
        g = groups.parse_group("D3xC5")
        verdict = hypothesis.thom_simplification_applicable(g).verdict
        assert verdict.witness == \
            "1*e0 + 1*e1 + 1*e3 + 1*e4 + 1*e6 + 1*e7 + ..."
        assert verdict.acting_element == 15
        decomp = groups.odd_normal_complement(g)
        identity = tuple(range(decomp.kernel.order))
        alpha = next(a for a in groups.conjugation_action(decomp)
                     if a.mapping != identity)
        _, z = hypothesis.action_witness_in_degree(decomp.kernel,
                                                   [alpha], 2)
        assert hashlib.sha256(json.dumps(z).encode()).hexdigest() == \
            "d0c122dcdbbacce96ee80d36249e7abc1b0b2f31b5618f239645611d955ee364"

    @pytest.mark.parametrize("scale", [1, 2**45, 2**70],
                             ids=["1", "2^45", "2^70"])
    def test_dead_rows_leave_the_kernel(self, monkeypatch, scale):
        # a row of m that is a rational combination of earlier rows is a
        # column of [m^T | I] that is zero wherever the earlier ones are,
        # so it never holds a leading entry: inserting such rows after the
        # rows they combine leaves integer_kernel identical, list for list
        # (the cut of BarResolution.cocycle_rows); 2^45 promotes to Python
        # ints mid-echelon and 2^70 starts there
        calls = []
        gcdex = linalg._gcdex
        monkeypatch.setattr(linalg, "_gcdex",
                            lambda a, b: calls.append(1) or gcdex(a, b))
        rng = random.Random(37)
        for _ in range(40):
            nr, nc = rng.randint(1, 4), rng.randint(2, 7)
            dense = _random_dense(rng, nr, nc, [-6, -4, -3, -1, 1, 2, 3, 5])
            dense = [[x * scale for x in row] for row in dense]
            grown = [list(row) for row in dense]
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(1, len(grown))
                coef = [rng.randint(-3, 3) for _ in range(k)]
                row = [sum(c * grown[i][j] for i, c in enumerate(coef))
                       for j in range(nc)]
                g = math.gcd(*row)
                row = [x // g for x in row] if g else row
                grown.insert(rng.randint(k, len(grown)), row)
            want = linalg.integer_kernel(IntMatrix.from_dense(dense))
            assert linalg.integer_kernel(IntMatrix.from_dense(grown)) == want
        assert calls    # the extended-gcd combination ran

    def test_kernel_matches_oracle(self, monkeypatch):
        calls = []
        gcdex = linalg._gcdex
        monkeypatch.setattr(linalg, "_gcdex",
                            lambda a, b: calls.append(1) or gcdex(a, b))
        rng = random.Random(29)
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 7)
            dense = _random_dense(rng, nr, nc, [-6, -4, -3, -1, 1, 2, 3, 5])
            m = IntMatrix.from_dense(dense)
            basis = linalg.integer_kernel(m)
            for vec in basis:
                assert all(sum(r[j] * vec[j] for j in range(nc)) == 0
                           for r in dense)
            assert _same_saturated_lattice(
                basis, saturated_kernel_basis(dense, nr, nc))
        assert calls  # the extended-gcd combination ran

    @pytest.mark.parametrize("scale", [1, 2**20, 2**45, 2**70],
                             ids=["1", "2^20", "2^45", "2^70"])
    def test_contains_matches_oracle(self, scale):
        rng = random.Random(31)
        hits = misses = 0
        for _ in range(25):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            dense = _random_dense(rng, nr, nc, [-4, -2, -1, 1, 3, 6])
            dense = [[x * scale for x in row] for row in dense]
            m = IntMatrix.from_dense(dense)
            lattice = linalg.ColumnLattice(m)
            for _ in range(4):
                coef = [rng.randint(-3, 3) for _ in range(nc)]
                vec = [sum(r[j] * coef[j] for j in range(nc)) for r in dense]
                assert lattice.contains(vec)
                vec[rng.randrange(nr)] += rng.choice([1, 2, 3]) * scale
                want = _oracle_contains(m, vec)
                assert lattice.contains(vec) == want
                hits += want
                misses += not want
        assert hits and misses

    @staticmethod
    def _echelon_dtype(m):
        a = linalg._lattice_array(m, list(range(m.ncols)), m.nrows + m.ncols)
        assert a.dtype == np.int64
        a[range(m.ncols), range(m.nrows, m.nrows + m.ncols)] = 1
        return linalg._echelon(a)[0].dtype

    def _check_kernel(self, dense, want):
        m = IntMatrix.from_dense(dense)
        assert linalg.integer_kernel(m) == want
        assert _same_saturated_lattice(
            want, saturated_kernel_basis(dense, m.nrows, m.ncols))
        return m

    def test_int64_promotion_boundary(self):
        # columns (1, 0), (b, e), 0, (1, 0): the one step that can grow
        # clears b under the first pivot, bounded by |b| + max(|b|, |e|)
        b = 2**61
        for e, exact in ((2**61, True), (2**61 + 1, False)):
            assert b + e == linalg._INT64_SAFE + (not exact)
            m = self._check_kernel([[1, b, 0, 1], [0, e, 0, 0]],
                                   [[0, 0, 1, 0], [-1, 0, 0, 1]])
            assert (self._echelon_dtype(m) == np.int64) == exact

    def test_gcd_step_boundary(self):
        # columns (2, p), (3, q), 0: gcd(2, 3) = 1 = -2 + 3 makes the row
        # -3 (2, p) + 2 (3, q), bounded by 3|p| + 2|q|, which its entry
        # -3p + 2q reaches when p and q have opposite signs
        for p, q, exact in ((2**60, -2**59, True),
                            (2**60 + 1, -(2**59 - 1), False)):
            assert 3 * abs(p) + 2 * abs(q) == \
                linalg._INT64_SAFE + (not exact)
            m = self._check_kernel([[2, 3, 0], [p, q, 0]], [[0, 0, 1]])
            assert (self._echelon_dtype(m) == np.int64) == exact
        # the new pivot row -(2, 0) + (3, q) carries q = -2^60 from the
        # row; clearing 8 under it then needs 8 |q|, past int64
        m = self._check_kernel([[2, 3, 8], [0, -2**60, 0]], [[-4, 0, 1]])
        assert self._echelon_dtype(m) == object

    def test_true_maxima_rescue_int64(self):
        # columns (1, 0), (0, 1), (b, e): after b is cleared (bound 2^62)
        # the carried bound for clearing e is 2^62 + 2^61, past the limit;
        # the row's true maximum is 2^61, so the step stays in int64
        b = e = 2**61
        m = self._check_kernel([[1, 0, b], [0, 1, e]], [[-b, -e, 1]])
        assert self._echelon_dtype(m) == np.int64

    def test_growth_promotes_midway(self):
        # rows x_i + 2 x_{i+1} and x_{n-1} + x_n: entries of at most 2 and
        # every step subtracts 1 or 2 times a pivot row, yet the kernel
        # vector reaches 2^79; only the carried bounds see it coming
        n = 80
        dense = [[0] * (n + 1) for _ in range(n)]
        for i in range(n):
            dense[i][i], dense[i][i + 1] = 1, 1 if i == n - 1 else 2
        want = [-(-2) ** (n - 1 - i) for i in range(n)] + [1]
        m = self._check_kernel(dense, [want])
        assert self._echelon_dtype(m) == object

    def test_huge_entries_match_oracle(self):
        rng = random.Random(37)
        for big in (2**40, 2**61, 2**64):
            for _ in range(6):
                dense = [[rng.randint(-big, big) if rng.random() < 0.7
                          else 0 for _ in range(5)] for _ in range(3)]
                basis = linalg.integer_kernel(IntMatrix.from_dense(dense))
                assert all(type(x) is int for vec in basis for x in vec)
                assert _same_saturated_lattice(
                    basis, saturated_kernel_basis(dense, 3, 5))

    def test_empty_shapes(self):
        assert linalg.integer_kernel(IntMatrix(0, 2)) == [[1, 0], [0, 1]]
        assert linalg.integer_kernel(IntMatrix(3, 0)) == []
        assert linalg.integer_kernel(IntMatrix(2, 2)) == [[1, 0], [0, 1]]
        lattice = linalg.ColumnLattice(IntMatrix(2, 3))
        assert lattice.contains([0, 0]) and not lattice.contains([0, 1])


class TestHomologyAt:
    def test_spec_examples(self):
        z1 = IntMatrix.zeros(1, 0)
        m2 = IntMatrix.from_dense([[-2]])
        out = linalg.homology_at(z1, m2)
        assert out == AbelianGroup()
        h = linalg.homology_at(m2, IntMatrix.zeros(0, 1))
        assert h == AbelianGroup(0, (2,))
        h = linalg.homology_at(IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 3))
        assert h == AbelianGroup(3)

    def test_composition_checked(self):
        d_in = IntMatrix.from_dense([[1], [0]])
        d_out = IntMatrix.from_dense([[1, 0]])
        with pytest.raises(ValueError):
            linalg.homology_at(d_in, d_out)

    def test_against_enumeration_oracle(self):
        rng = random.Random(5)
        checked = 0
        while checked < 15:
            # build a valid complex: d_in = B, d_out chosen with d_out B = 0
            c = rng.randint(2, 4)
            b = IntMatrix.from_dense(
                [[rng.randint(-3, 3) for _ in range(c)] for _ in range(c)])
            ker = linalg.integer_kernel(b.transpose())
            d_out = IntMatrix.from_dense(ker) if ker \
                else IntMatrix.zeros(0, c)
            if not d_out.matmul(b).is_zero:
                continue
            h = linalg.homology_at(b, d_out)
            if h.rank or h.order() > 64:
                continue
            assert group_counts(h) == oracle_homology(b, d_out)
            checked += 1


class TestMod2:
    def test_spec_examples(self):
        assert linalg.mod2_rank(IntMatrix.zeros(2, 2)) == 0
        assert linalg.mod2_rank(IntMatrix.identity(4)) == 4
        m = IntMatrix.from_dense([[1, 1], [1, 1]])
        assert linalg.mod2_rank(m) == 1

    def test_kernel_basis(self):
        m = IntMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
        basis = gf2.kernel(m.mod2_column_masks())
        assert basis == [0b111]

    def test_gf2_echelon_coordinates(self):
        ech = gf2.Echelon([0b01, 0b10])
        assert ech.rank == 2
        assert ech.coordinates(0b11) == 0b11
        assert ech.coordinates(0b10) is not None

    def test_mod2_rank_matches_integer_rank_mod2(self):
        rng = random.Random(9)
        for _ in range(20):
            m = IntMatrix.from_dense(
                [[rng.randint(0, 1) for _ in range(5)] for _ in range(5)])
            assert linalg.mod2_rank(m) == gf2.rank(m.mod2_column_masks())

    @staticmethod
    def _dense_rank(m):
        """GF(2) rank by Gauss-Jordan elimination on the dense 0/1 array."""
        a = np.zeros((m.nrows, m.ncols), dtype=bool)
        for r, c, v in zip(m.rows, m.cols, m.vals):
            a[r, c] = v & 1
        rank = 0
        for j in range(m.ncols):
            hits = np.flatnonzero(a[rank:, j])
            if not hits.size:
                continue
            p = rank + int(hits[0])
            a[[rank, p]] = a[[p, rank]]
            below = np.flatnonzero(a[:, j])
            a[below[below != rank]] ^= a[rank]
            rank += 1
        return rank

    @staticmethod
    def _odd_leads(rng, nr, nc):
        """Sparse rows whose leading entry is +-1 or +-3 (a unit mod 2 but
        not over Z), with rows repeated up to sign or times 3."""
        entries = {}
        for i in range(nr):
            lead = rng.randrange(nc)
            entries[(i, lead)] = rng.choice([1, -1, 3, -3])
            for j in rng.sample(range(lead, nc), min(12, nc - lead)):
                if j > lead:
                    entries[(i, j)] = rng.choice([1, -1, 2, -2, 3, 5, 6])
        for _ in range(nr // 10):
            i, k = rng.randrange(nr), rng.randrange(nr)
            row = {j: v for (r, j), v in entries.items() if r == i}
            for j in [j for (r, j) in entries if r == k]:
                del entries[(k, j)]
            f = rng.choice([1, -1, 3])
            entries.update({(k, j): f * v for j, v in row.items()})
        keys = list(entries)
        return IntMatrix(nr, nc, [r for r, _ in keys], [c for _, c in keys],
                         list(entries.values()))

    def test_odd_leads_match_dense_rank(self):
        # leading entries +-3 are units mod 2 but not over Z, and rows
        # repeat up to sign or times 3
        rng = random.Random(53)
        for _ in range(6):
            m = self._odd_leads(rng, rng.randint(250, 330),
                                rng.randint(150, 260))
            assert linalg.mod2_rank(m) == self._dense_rank(m)
        # [[1, b], [c, d]] beside a unit filler, c*b one below the int64
        # bound: d - c*b is odd iff d is even
        b, c = 2**31 + 1, 2**31 - 1
        assert c * b == linalg._INT64_SAFE - 1
        fill = 5
        for d, want in ((1, 1), (-1, 1), (2, 2)):
            rows = [0, 0, 1, 1] + list(range(2, fill + 2))
            cols = [0, 1, 0, 1] + list(range(2, fill + 2))
            m = IntMatrix(fill + 2, fill + 2, rows, cols,
                          [1, b, c, d] + [1] * fill)
            assert linalg.mod2_rank(m) == fill + want == self._dense_rank(m)

    def test_d5_bar_delta4_pinned(self):
        # D5 is one of the paper's dihedral negative controls
        m = _bar_coboundary("D5", 4)
        assert (m.nrows, m.ncols) == (59049, 6561)
        assert linalg.mod2_rank(m) == 5904

    @staticmethod
    def _loop_masks(m):
        # the per-entry loop the numpy builder replaced
        out = [0] * m.ncols
        for r, c, v in zip(m.rows, m.cols, m.vals):
            if v & 1:
                out[c] ^= 1 << r
        return out

    @pytest.mark.parametrize("block", [None, 1, 3])
    def test_column_masks_match_loop(self, monkeypatch, block):
        if block is not None:   # one or a few columns per dense block
            monkeypatch.setattr(linalg, "_MASK_BLOCK_BYTES", block)
        rng = random.Random(41)
        big = [2**63, 2**63 + 1, -(2**70) - 1, 2**64 + 6]
        cases = [IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 4),
                 IntMatrix.zeros(5, 0), IntMatrix.zeros(9, 3),
                 IntMatrix.from_dense([[2, -4], [6, 0]]),
                 IntMatrix.from_dense([[2**63 + 1], [2**63], [-3]])]
        for nrows in (1, 7, 8, 13, 64, 65, 130):
            for ncols in (1, 6, 40):
                entries = {}
                for _ in range(rng.randrange(nrows * ncols // 2 + 2)):
                    # columns 4, 9, 14, ... stay empty
                    c = rng.randrange(ncols)
                    if c % 5 != 4:
                        entries[(rng.randrange(nrows), c)] = rng.choice(
                            [1, -1, 2, -2, 3, -7, 10] + big)
                keys = list(entries)
                cases.append(IntMatrix(
                    nrows, ncols, [r for r, _ in keys],
                    [c for _, c in keys], list(entries.values())))
        for m in cases:
            masks = m.mod2_column_masks()
            assert masks == self._loop_masks(m), m
            assert all(type(x) is int for x in masks)

    def test_column_masks_bar_delta4(self):
        m = _bar_coboundary("C10", 4)
        assert (m.nrows, m.ncols) == (59049, 6561)
        assert m.mod2_column_masks() == self._loop_masks(m)


class TestRankMemo:
    """GF(2) ranks are memoised on the IntMatrix, and a resolution hands
    out equal coboundaries as one matrix."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        """(matrix, mod2) for every integer elimination (mod2 False) and
        every GF(2) rank computed (mod2 True): a ``gf2.rank`` call made
        for the matrix ``mod2_rank`` was asked for."""
        from u4class import cohomology
        calls, asked = [], []
        eliminate, ask, finish = linalg._snf_diagonal, linalg.mod2_rank, \
            gf2.rank

        def eliminating(m):
            calls.append((m, False))
            return eliminate(m)

        def asking(m):
            asked.append(m)
            try:
                return ask(m)
            finally:
                asked.pop()

        def finishing(columns):
            if asked:
                calls.append((asked[-1], True))
            return finish(columns)

        monkeypatch.setattr(linalg, "_snf_diagonal", eliminating)
        monkeypatch.setattr(linalg, "mod2_rank", asking)
        monkeypatch.setattr(cohomology, "mod2_rank", asking)
        monkeypatch.setattr(gf2, "rank", finishing)
        return calls

    def test_memo_per_instance(self, eliminations):
        dense = [[2, 4, 0], [6, 3, 1]]
        a, b = IntMatrix.from_dense(dense), IntMatrix.from_dense(dense)
        assert a == b and a is not b
        for m in (a, a, b):
            assert linalg.mod2_rank(m) == 1
        # a is eliminated once mod 2; the equal b afresh
        assert [(x is a, mod2) for x, mod2 in eliminations] == [
            (True, True), (False, True)]

    @staticmethod
    def _c8():
        from u4class.groups import cyclic_group
        from u4class.modules import mod2_integers, trivial_integers
        from u4class.resolutions import BarResolution
        group = cyclic_group(8)
        return (group, BarResolution(group, 4), mod2_integers(group),
                trivial_integers(group))

    def test_z_and_z2_share_coboundaries(self):
        group, res, z2, z = self._c8()
        for n in range(5):
            assert res.coboundary_matrix(z2, n) is \
                res.coboundary_matrix(z, n), n

    @pytest.mark.parametrize("z2_first", [True, False])
    def test_coefficient_order(self, eliminations, z2_first):
        from u4class.cohomology import cohomology
        group, res, z2, z = self._c8()
        order = [z2, z] if z2_first else [z, z2]
        got = {module: cohomology(group, module, 4, res) for module in order}
        assert (str(got[z2]), str(got[z])) == ("Z/2", "Z/8")
        delta4 = res.coboundary_matrix(z, 4)
        cut4 = res.cocycle_rows(z2, 4)
        assert cut4 is not delta4 and cut4.nrows < delta4.nrows
        # H^4(C8; Z) is finite, so it is read off the cut of delta^3
        # alone, which Z shares with Z/2; the Z/2 count ranks the cut of
        # delta^4 over GF(2), once, so in either order neither arithmetic
        # eliminates the full delta^4
        assert res.cocycle_rows(z, 3) is res.cocycle_rows(z2, 3)
        assert [m for m, mod2 in eliminations if not mod2] == \
            [res.cocycle_rows(z, 3)]
        assert not any(m is delta4 for m, _ in eliminations)
        assert [m is cut4 for m, mod2 in eliminations if mod2].count(
            True) == 1
        assert not any(m is cut4 for m, mod2 in eliminations if not mod2)

    @pytest.mark.parametrize("which", ["cohomology", "homology"])
    @pytest.mark.parametrize("spec, dims", [
        ("C6", (1, 1, 1, 1, 1)), ("D3", (1, 1, 1, 1, 1)),
        ("C2xC2", (1, 2, 3, 4, 5))], ids=["C6", "D3", "C2xC2"])
    def test_mod2_cohomology_ranks_only_cuts(self, eliminations,
                                             monkeypatch, spec, dims,
                                             which):
        """Over bar, H^n(G; Z/2) and H_n(G; Z/2) for n = 0..4 assemble no
        full coboundary or chain matrix (``Resolution.coboundary_matrix``
        sees only the empty delta^-1), rank each cut delta^n over GF(2)
        exactly once, and eliminate nothing over Z.  Homology ranks the
        cuts of the dual module, which for Z/2 are the same matrices."""
        from u4class.cohomology import cohomology, homology
        from u4class.groups import parse_group
        from u4class.modules import mod2_integers
        from u4class.resolutions import BarResolution, Resolution
        count = {"cohomology": cohomology, "homology": homology}[which]
        assembled = []
        assemble = Resolution.coboundary_matrix

        def assembling(res, module, n):
            assembled.append(n)
            return assemble(res, module, n)

        monkeypatch.setattr(Resolution, "coboundary_matrix", assembling)
        group = parse_group(spec)
        res, z2 = BarResolution(group, 4), mod2_integers(group)
        got = [count(group, z2, n, res).torsion for n in range(5)]
        assert got == [(2,) * d for d in dims]
        assert assembled == [-1]
        assert all(len(key) == 3 for key in res._cob_cache)
        cuts = [res.cocycle_rows(z2, n) for n in range(5)]
        ranked = [m for m, mod2 in eliminations if mod2]
        assert not [m for m, mod2 in eliminations if not mod2]
        # delta^0 and the empty delta^-1 at n = 0, then one new cut per n
        assert [id(m) for m in ranked if m.ncols] == [id(m) for m in cuts]
        assert len(ranked) == 6 and ranked[1].ncols == 0

    def test_positive_degree_leaves_d_out_alone(self, eliminations,
                                                monkeypatch):
        """Above degree 0 the (co)homology is the torsion of d_in: no
        call eliminates, over Z or GF(2), the d_out of its composition
        check, for free, twisted and presented modules, cochains and
        chains, on the bar and the periodic resolution.  (A free module's
        d_out is the next degree's d_in, eliminated in that call.)"""
        from u4class import cohomology
        from u4class.groups import orientation_characters, parse_group
        from u4class.modules import (module_from_abelian_group,
                                     trivial_integers, twisted_integers)
        from u4class.resolutions import BarResolution, PeriodicResolution
        pairs = record_composition_checks(monkeypatch)
        group = parse_group("C6")
        modules = (trivial_integers(group),
                   twisted_integers(orientation_characters(group)[0]),
                   module_from_abelian_group(group, AbelianGroup(0, (2, 4))))
        seen_in = 0
        for res in (BarResolution(group, 3), PeriodicResolution(group, 3)):
            for module in modules:
                for n in range(1, 4):
                    for degree in (cohomology.cohomology,
                                   cohomology.homology):
                        eliminations.clear()
                        pairs.clear()
                        degree(group, module, n, res)
                        (d_in, d_out), = pairs
                        eliminated = [m for m, _ in eliminations]
                        assert not any(m is d_out for m in eliminated)
                        seen_in += any(m is d_in for m in eliminated)
        # the spy sees eliminations: every cone d_in is new, so eliminated
        assert seen_in >= 2 * 3 * 2


def _dense_gf2_solve(columns, vec, width):
    """Coefficients (a list of 0/1) writing vec as a sum of the given
    columns, by Gauss-Jordan elimination on dense 0/1 rows; None when vec
    is outside their span.  Unique when the columns are independent."""
    k = len(columns)
    rows = [[(c >> i) & 1 for c in columns] + [(vec >> i) & 1]
            for i in range(width)]
    pivot_cols, r = [], 0
    for j in range(k):
        p = next((i for i in range(r, width) if rows[i][j]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(width):
            if i != r and rows[i][j]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(j)
        r += 1
    if any(row[k] for row in rows[r:]):
        return None
    coeffs = [0] * k
    for i, j in enumerate(pivot_cols):
        coeffs[j] = rows[i][k]
    return coeffs


class TestGF2Echelon:
    """gf2.Echelon against a dense GF(2) reference: every answer is fixed
    by the sequence of inserted columns, whatever bit the pivots sit on."""

    @staticmethod
    def _columns(rng, width):
        cols = []
        for _ in range(rng.randrange(1, 30)):
            roll = rng.random()
            if roll < 0.1:
                cols.append(0)
            elif roll < 0.25 and cols:
                cols.append(rng.choice(cols))
            elif roll < 0.4 and len(cols) >= 2:
                a, b = rng.sample(cols, 2)
                cols.append(a ^ b)
            else:
                sparse = rng.random() < 0.5
                bits = {rng.randrange(width)
                        for _ in range(rng.randrange(1, 4))}
                cols.append(sum(1 << b for b in bits)
                            if sparse else rng.getrandbits(width))
        return cols

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_reference(self, seed):
        rng = random.Random(seed)
        for width in (1, 2, 7, 63, 64, 65, 130, 200):
            cols = self._columns(rng, width)
            ech = gf2.Echelon()
            results = [ech.insert(c) for c in cols]
            independent, want_results, want_kernel = [], [], []
            for j, c in enumerate(cols):
                basis = [cols[i] for i in independent]
                coeffs = _dense_gf2_solve(basis, c, width)
                want_results.append(coeffs is None)
                if coeffs is None:
                    independent.append(j)
                else:
                    want_kernel.append((1 << j) | sum(
                        1 << i for i, a in zip(independent, coeffs) if a))
            assert results == want_results
            assert ech.rank == len(independent) == ech.ninserted - len(
                ech.kernel)
            assert ech.kernel == want_kernel
            assert gf2.kernel(cols) == want_kernel
            assert gf2.rank(cols) == len(independent)
            for combo in ech.kernel:
                acc = 0
                for j, c in enumerate(cols):
                    if (combo >> j) & 1:
                        acc ^= c
                assert acc == 0
            basis = [cols[i] for i in independent]
            members = []
            for _ in range(5):
                vec = 0
                for c in cols:
                    if rng.random() < 0.5:
                        vec ^= c
                members.append(vec)
            for vec in members + [rng.getrandbits(width) for _ in range(5)]:
                coeffs = _dense_gf2_solve(basis, vec, width)
                want = None if coeffs is None else sum(
                    1 << i for i, a in zip(independent, coeffs) if a)
                assert ech.coordinates(vec) == want
                assert (ech.coordinates(vec) is not None) == \
                    (want is not None)
            for vec in members:
                assert ech.coordinates(vec) is not None

    @pytest.mark.parametrize("seed", range(12))
    def test_skipping_dependent_columns(self, seed):
        # a skipped column keeps its combination bit and nothing else:
        # the echelon is that of inserting it, less its kernel vector
        rng = random.Random(seed)
        for width in (1, 2, 7, 63, 64, 65, 130, 200):
            cols = self._columns(rng, width)
            full = gf2.Echelon(cols)
            # a kernel vector's highest bit is its dependent column
            dependent = [combo.bit_length() - 1 for combo in full.kernel]
            skip = {j for j in dependent if rng.random() < 0.6}
            ech = gf2.Echelon()
            results = []
            for j, c in enumerate(cols):
                if j in skip:
                    ech.skip()
                else:
                    results.append(ech.insert(c))
            assert results == [j not in dependent for j in range(len(cols))
                               if j not in skip]
            assert ech.ninserted == len(cols)
            assert ech.rank == full.rank
            assert ech.pivots == full.pivots
            assert ech.cols == full.cols
            assert ech.combos == full.combos
            assert ech.kernel == [combo for combo, j in
                                  zip(full.kernel, dependent)
                                  if j not in skip]
            members = []
            for _ in range(5):
                vec = 0
                for c in cols:
                    if rng.random() < 0.5:
                        vec ^= c
                members.append(vec)
            independent = [i for i in range(len(cols)) if i not in dependent]
            basis = [cols[i] for i in independent]
            for vec in members + [rng.getrandbits(width) for _ in range(5)]:
                coeffs = _dense_gf2_solve(basis, vec, width)
                want = None if coeffs is None else sum(
                    1 << i for i, a in zip(independent, coeffs) if a)
                assert ech.coordinates(vec) == want
                assert full.coordinates(vec) == want
