"""Self-tests of the benchmark (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

REFERENCE = run._load_reference()


def _smoke_pass(workload, seed):
    deadline = time.monotonic() + run.RUN_BUDGET_S
    if workload == "cli-requests":
        return run.cli_pass(seed, 0, "smoke", False, deadline)
    return run.library_pass(workload, seed, 0, "smoke", False, deadline)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_digest_does_not_depend_on_seed(workload):
    records = [_smoke_pass(workload, seed) for seed in (1, 2)]
    orders = [[op["key"] for op in rec["ops"]] for rec in records]
    assert orders[0] != orders[1]
    attempted, failed, digests, matches = run.score(
        workload, records, "smoke", REFERENCE)
    assert (attempted, failed) == (2 * len(orders[0]), 0)
    assert digests[0] == digests[1] and matches


def test_wrong_answer_counts_as_failed(monkeypatch):
    from u4class import cohomology
    real = cohomology.mod2_ring

    def corrupted(group, max_degree=4):
        ring = real(group, max_degree)
        if group.name != "C2":
            return ring
        return cohomology.CohomologyRingSlice(
            ring.group_name, ring.max_degree, (1, 1, 1, 1, 2), ring.labels,
            ring.products)

    monkeypatch.setattr(cohomology, "mod2_ring", corrupted)
    record = worker.run_pass("ring-inflation", 1, 0, "smoke")
    _, failed, _, _ = run.score("ring-inflation", [record], "smoke",
                                REFERENCE)
    assert failed == 1
    assert [op["key"] for op in record["ops"] if not op["ok"]] == ["ring/C2"]


def test_oracle_disagreement_counts_as_failed(monkeypatch):
    from u4class import cohomology, linalg, resolutions
    real = cohomology.cohomology

    def corrupted(group, module, n, resolution=None):
        value = real(group, module, n, resolution)
        if group.order == 3 and n == 2 and \
                isinstance(resolution, resolutions.BarResolution):
            return linalg.AbelianGroup(1)
        return value

    monkeypatch.setattr(cohomology, "cohomology", corrupted)
    record = worker.run_pass("oracle-cyclic", 1, 0, "smoke")
    failed = [op for op in record["ops"] if op["error"]]
    assert {op["key"] for op in failed} == {"C3/Z2/H2", "C3/Z/H2"}
    assert all("OracleMismatch" in op["error"] for op in failed)


def test_unexpected_exit_code_counts_as_failed(monkeypatch):
    malformed = ("classify", "C2xx", "--format", "json")
    monkeypatch.setitem(workloads.CLI_MIX, "smoke", [(malformed, 0)])
    record = run.cli_pass(1, 0, "smoke", False,
                          time.monotonic() + run.RUN_BUDGET_S)
    _, failed, _, _ = run.score("cli-requests", [record], "smoke", REFERENCE)
    assert failed == 1
    assert "exit 2, expected 0" in record["ops"][0]["error"]


def test_refuses_to_run_without_the_package(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(root, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-cyclic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_pass_sees_calls_through_every_binding(tmp_path):
    # hypothesis binds integer_kernel by ``from .linalg import``; the
    # catalog scan reaches it only through that name
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH, "worker.py"),
         "catalog-scan", "1", "0", "smoke", str(spans)],
        cwd=run.ROOT, env=run._child_env(), capture_output=True, text=True,
        timeout=run.RUN_BUDGET_S, check=True)
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    assert layers["linalg.integer_kernel.calls"] > 0
    assert layers.get("kernels.unit_pivot_phase.calls", 0) == 0
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "op",
                          "counts"}
