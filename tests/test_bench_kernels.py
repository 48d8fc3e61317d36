"""Smoke test of ``benchmarks/bench_kernels.py``: the script is loaded by
path and one small row is run, so an import of a deleted name or a broken
kernel-equality assertion fails here rather than when the script is next
run by hand."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / \
    "bench_kernels.py"


def test_run_gf2_small(capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.run_gf2(4, degree=3)
    out = capsys.readouterr().out
    assert out.startswith("bar C4 delta^3 (GF(2))")
    assert "generator rows     27:" in out
