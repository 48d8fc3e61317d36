"""CLI behavior: subcommand outputs, exit codes, JSON round-trips,
catalog determinism, and the layers each subcommand imports."""

import hashlib
import json
import os
import subprocess
import sys
import time
import types

import pytest

from u4class import classify, cli, errors, groups, manifolds, resolutions
from u4class.cli import builtin_catalog_specs, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if code == 0 else None), err


class TestClassify:
    def test_smooth_counts(self, capsys):
        code, out, _ = run(capsys, "classify", "C6", "--category",
                           "smooth")
        assert code == 0
        assert "total: 14 classes (1/9/4)" in out

    def test_top_counts(self, capsys):
        code, out, _ = run(capsys, "classify", "C10", "--category", "top")
        assert code == 0
        assert "total: 20 classes (2/10/8)" in out

    def test_json_round_trip(self, capsys):
        code, data, _ = run_json(capsys, "classify", "C6", "--category",
                                 "top")
        assert code == 0
        assert data["schema"] == 1
        counts = [t["count"] for t in data["result"]["types"]]
        assert counts == [2, 10, 8]
        assert data["citations"]

    def test_failing_group_exit_one(self, capsys):
        code, _, err = run(capsys, "classify", "D3")
        assert code == 1
        assert "not applicable" in err
        code, _, err = run(capsys, "classify", "D5")
        assert code == 1

    def test_unparseable_group_exit_two(self, capsys):
        code, _, err = run(capsys, "classify", "Zorp")
        assert code == 2


class TestHypothesisAndCohomology:
    def test_check_hypothesis_d5(self, capsys):
        code, out, _ = run(capsys, "check-hypothesis", "D5")
        assert code == 0
        assert "not applicable" in out
        assert "witness degree: 2" in out

    # sha256 of json.dumps(payload, sort_keys=True) with "timing" removed,
    # recorded before the witness cocycles came from the generator rows
    CHECK_HYPOTHESIS_SHA256 = {
        "D3": "f2bb8263495058a4d773124ac02c2558"
              "d3d777645cecd5d79da1412914f435b5",
        "D5": "8a0889241e1548f7d58574a92f76b763"
              "e43f22cbb7ec4de104985d8bae57f633",
        "D3xC5": "5b768857bff147b08a58313ab0d6f151"
                 "c27151aac96f809c87e48d1f1677f33a",
    }

    @pytest.mark.parametrize("spec", sorted(CHECK_HYPOTHESIS_SHA256))
    def test_check_hypothesis_payload_pinned(self, capsys, spec):
        code, data, _ = run_json(capsys, "check-hypothesis", spec)
        assert code == 0
        data.pop("timing")
        assert hashlib.sha256(json.dumps(data, sort_keys=True).encode()) \
            .hexdigest() == self.CHECK_HYPOTHESIS_SHA256[spec]

    def test_cohomology_twisted(self, capsys):
        code, out, _ = run(capsys, "cohomology", "C6", "--coeff", "Zw")
        assert code == 0
        assert "H^1 = Z/2" in out and "H^2 = 0" in out

    def test_cohomology_twisted_undefined(self, capsys):
        code, _, err = run(capsys, "cohomology", "C3", "--coeff", "Zw")
        assert code == 1
        assert "orientation character" in err

    def test_cohomology_mod2(self, capsys):
        code, data, _ = run_json(capsys, "cohomology", "C2", "--coeff",
                                 "Z2", "--degree", "3")
        assert code == 0
        assert len(data["result"]["groups"]) == 4


class TestSpectral:
    def test_lhs(self, capsys):
        code, out, _ = run(capsys, "lhs", "C6")
        assert code == 0
        assert "E2^{1,0} = Z/2" in out

    def test_lhs_no_decomposition(self, capsys):
        # the alternating group on 4 letters has no odd normal complement
        code, _, err = run(capsys, "lhs", "perm[(1 2 3), (1 2)(3 4)]")
        assert code == 1
        assert "odd normal complement" in err

    def test_ahss_diagonal_bound(self, capsys):
        code, out, _ = run(capsys, "ahss", "C2", "--coeff", "STop",
                           "--diagonal", "4")
        assert code == 0
        assert "order bound 8" in out
        assert "collapse certified: True" in out

    def test_ahss_missing_degree_exit_one(self, capsys):
        code, _, err = run(capsys, "ahss", "C2", "--coeff", "Top",
                           "--range", "5")
        assert code == 1

    def test_ahss_refused_top_degree_exits_at_once(self, capsys,
                                                   monkeypatch):
        # H_5 of D5 with twisted coefficients needs the 3.4M-entry bar
        # chain matrix in degree 6: refused before degrees 0..4 are built
        monkeypatch.delenv("U4CLASS_MAX_GENERATORS", raising=False)
        start = time.perf_counter()
        code, _, err = run(capsys, "ahss", "D5", "--coeff", "STop")
        assert code == 1
        assert "3424842 entries" in err
        assert time.perf_counter() - start < 2


class TestCompare:
    def test_flagship(self, capsys):
        code, out, _ = run(capsys, "compare", "RP4", "Q", "--category",
                           "smooth", "--structure", "pin+")
        assert code == 0
        assert "NOT stably equivalent" in out
        code, out, _ = run(capsys, "compare", "RP4(+)", "Q(+)",
                           "--category", "top", "--structure", "pin+")
        assert code == 0
        assert "NOT" not in out

    def test_bad_expression_exit_two(self, capsys):
        code, _, err = run(capsys, "compare", "RP4 # Q", "S4",
                           "--category", "top", "--structure", "none")
        assert code == 2


class TestTablesAndCatalog:
    def test_tables(self, capsys):
        code, data, _ = run_json(capsys, "tables")
        assert code == 0
        assert len(data["result"]) == 10
        assert data["result"]["Pin+"][4]["group"] == {"rank": 0,
                                                      "torsion": [16]}

    def test_catalog_small(self, capsys):
        code, out, _ = run(capsys, "catalog", "--max-order", "10")
        assert code == 0
        lines = [ln.split()[0] for ln in out.splitlines()[1:]]
        assert lines == ["C2", "C6", "D3", "C10", "D5"]
        assert out.count("PASS") == 3 and out.count("fail") == 2

    def test_catalog_order_two(self, capsys):
        code, data, _ = run_json(capsys, "catalog", "--max-order", "2")
        assert code == 0
        assert [r["spec"] for r in data["result"]["rows"]] == ["C2"]

    def test_catalog_counts_and_determinism(self, capsys):
        code, a, _ = run_json(capsys, "catalog", "--max-order", "30")
        code2, b, _ = run_json(capsys, "catalog", "--max-order", "30")
        assert code == code2 == 0
        a.pop("timing"), b.pop("timing")
        assert a == b
        for row in a["result"]["rows"]:
            if row["applicable"]:
                assert sum(row["counts"]["smooth"]) == 14
                assert sum(row["counts"]["top"]) == 20

    # sha256 of json.dumps(rows, sort_keys=True) over the rows of order
    # <= 100, recorded from `catalog --max-order 100` before the bound
    # was raised to 300
    CATALOG_100_ROWS_SHA256 = ("9595ec6108d4c5f7ff7112b47cefd798"
                               "1bc95d89b6726d5985deae7276b6a03c")

    def test_catalog_to_300_follows_the_theorem(self, capsys):
        code, data, _ = run_json(capsys, "catalog", "--max-order", "300")
        assert code == 0
        rows = data["result"]["rows"]
        assert max(r["order"] for r in rows) == 298
        for row in rows:
            assert row["order"] % 4 == 2, row["spec"]
            if row["spec"].startswith("D"):
                # D_k and D_k x C_m: the quotient inverts the kernel
                assert not row["applicable"], row["spec"]
                assert row["conclusion"].startswith("not applicable")
            else:
                # abelian, so the quotient acts trivially
                assert row["applicable"], row["spec"]
            if row["applicable"]:
                assert row["counts"] == {"smooth": [1, 9, 4],
                                         "top": [2, 10, 8]}, row["spec"]
        early = [r for r in rows if r["order"] <= 100]
        assert hashlib.sha256(json.dumps(early, sort_keys=True)
                              .encode()).hexdigest() == \
            self.CATALOG_100_ROWS_SHA256

    def test_catalog_bound(self, capsys):
        code, _, err = run(capsys, "catalog", "--max-order", "999")
        assert code == 2

    def test_spec_list_sorted(self):
        specs = builtin_catalog_specs(50)
        from u4class.groups import parse_group
        orders = [parse_group(s).order for s in specs]
        assert orders == sorted(orders)
        assert all(o % 4 == 2 for o in orders)


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_bad_flag(self, capsys):
        assert run(capsys, "classify", "C6", "--category", "pl")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("ahss", "C2", "--coeff", "STop", "--range", "2", "--diagonal", "4"),
        ("ahss", "C2", "--coeff", "STop", "--diagonal", "5"),
        ("ahss", "C2", "--coeff", "STop", "--diagonal", "-1"),
        ("ahss", "C2", "--coeff", "STop", "--range", "-1"),
        ("cohomology", "C2", "--coeff", "Z", "--degree", "-1"),
        ("lhs", "C6", "--range", "-2"),
        ("check-hypothesis", "D3", "--max-degree", "-1"),
        ("catalog", "--max-order", "-1"),
        ("catalog", "--max-order", "x")])
    def test_out_of_range_integer_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("usage error:")

    def test_diagonal_zero_below_range_one(self, capsys):
        code, out, _ = run(capsys, "ahss", "C2", "--coeff", "STop",
                           "--range", "1", "--diagonal", "0")
        assert code == 0
        assert "diagonal 0:" in out


class TestExitCodes:
    EXIT_CODES = {errors.ParseError: 2, errors.ManifoldError: 2,
                  errors.UsageError: 2, errors.HypothesisFailure: 1,
                  errors.FeasibilityError: 1, errors.DomainError: 1,
                  KeyError: 1, NotImplementedError: 1}

    def test_every_error_class_has_a_code(self):
        assert {getattr(errors, n) for n in errors.__all__} == \
            set(self.EXIT_CODES) - {KeyError, NotImplementedError}

    @pytest.mark.parametrize("cls", list(EXIT_CODES),
                             ids=lambda cls: cls.__name__)
    def test_exit_code(self, capsys, monkeypatch, cls):
        exc = cls(types.SimpleNamespace(conclusion="boom")) \
            if cls is errors.HypothesisFailure else cls("boom")

        def handler(args, started):
            raise exc

        monkeypatch.setattr(cli, "_cmd_tables", handler)
        code, out, err = run(capsys, "tables")
        assert code == self.EXIT_CODES[cls]
        assert not out
        prefix = "usage error: " if code == 2 else "error: "
        assert err.startswith(prefix) and "boom" in err

    @pytest.mark.parametrize("command", ["classify", "check-hypothesis",
                                         "lhs"])
    def test_malformed_product_refused(self, capsys, command):
        code, out, err = run(capsys, command, "C2xx")
        assert (code, out) == (2, "")
        assert err == "usage error: malformed product expression 'C2xx'\n"

    def test_layers_reexport_the_classes(self):
        assert groups.ParseError is errors.ParseError
        assert manifolds.ManifoldError is errors.ManifoldError
        assert classify.HypothesisFailure is errors.HypothesisFailure
        assert resolutions.FeasibilityError is errors.FeasibilityError
        assert cli.DomainError is errors.DomainError
        assert cli.UsageError is errors.UsageError

    def test_category_choices_match_classify(self):
        sub = next(a for a in cli.build_parser()._actions
                   if a.dest == "subcommand")
        for command in ("classify", "compare"):
            category = next(a for a in sub.choices[command]._actions
                            if a.dest == "category")
            assert tuple(category.choices) == classify.CATEGORIES

    def test_timing_ignores_wall_clock_steps(self, capsys, monkeypatch):
        # a wall clock that steps back 1 s on every read
        clock = iter(range(10**6, 0, -1))
        monkeypatch.setattr(time, "time", lambda: float(next(clock)))
        code, data, _ = run_json(capsys, "tables")
        assert code == 0
        assert data["timing"] >= 0


def _loaded_after(*argv, status=0):
    """The modules a fresh interpreter holds after importing u4class.cli
    and, given argv, running that request, which exits with status."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import contextlib, io, json, sys\n"
            "import u4class.cli as cli\n"
            f"argv = {list(argv)!r}\n"
            "if argv:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            f"        assert cli.main(argv) == {status}\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout))


class TestImports:
    """Each subcommand imports only the layers it runs.  Without cached
    bytecode every loaded module is compiled again in each process.  The
    checks run in fresh interpreters, since this one has every layer
    loaded."""

    HEAVY = {"u4class.cohomology", "u4class.spectral", "u4class.manifolds",
             "scipy"}

    def test_import_cli_loads_no_numpy(self):
        loaded = _loaded_after()
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("u4class")} == \
            {"u4class", "u4class.cli", "u4class.errors"}

    def test_compare_loads_no_numpy(self):
        loaded = _loaded_after("compare", "RP4", "Q", "--category", "top",
                               "--structure", "pin+")
        assert "numpy" not in loaded and "scipy" not in loaded
        assert "u4class.manifolds" in loaded

    def test_classify_c6(self):
        loaded = _loaded_after("classify", "C6")
        assert not loaded & self.HEAVY
        assert not loaded & {"u4class.resolutions", "u4class.modules"}
        assert "u4class.classify" in loaded

    def test_tables(self):
        loaded = _loaded_after("tables")
        assert not loaded & self.HEAVY
        assert "numpy" not in loaded
        assert "u4class.bordism" in loaded

    def test_malformed_spec_loads_no_numpy(self):
        loaded = _loaded_after("classify", "C2xx", status=2)
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("u4class")} == \
            {"u4class", "u4class.cli", "u4class.errors", "u4class.specs"}
