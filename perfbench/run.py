"""perfbench: the u4class benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                    # all four workloads

The package is measured the way the tests import it: ``PYTHONPATH=src``
and whichever ``kernels.BACKEND`` loads.  Every pass of a library workload
runs in a fresh interpreter, and every CLI request is its own process, so
no module-level cache (the ``_snf_diagonal`` LRU, ``_MOD2_RANK_CACHE``, a
resolution's ``_cob_cache``) carries over between passes, runs or
workloads.  Passes repeat while another typical pass fits in ``--seconds``,
and at least ``MIN_PASSES`` times; each is one closed loop with a single
client.

Every answer is hashed and compared with ``reference.json``; a wrong
answer, an oracle disagreement or an unexpected exception or exit code
counts as a failed operation.  With ``--trace 0`` the end-to-end metrics
are printed: times both raw and, as ``*_norm``, scaled to a reference host
speed sampled between operations (see hostspeed.py), since raw times on a
shared host drift by more than a regression bound.  With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics come from
the traced ones (spans are written as JSON lines under ``.bench_out/``).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("oracle-cyclic", "catalog-scan", "ring-inflation",
             "cli-requests")
MIN_PASSES = 2
CLI_WARM_UPS = 3
TAIL_BEYOND = 10
# every run must end within 180 s; a child still running by then is killed
RUN_BUDGET_S = 170


class BenchError(RuntimeError):
    """The benchmark could not measure (missing package, crashed child)."""


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, deadline):
    try:
        return subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[1:3])} ran out of time") from exc


def _last_json(proc, what):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{what} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def environment(deadline):
    proc = _run([sys.executable, os.path.join(BENCH, "worker.py"), "--env"],
                deadline)
    return _last_json(proc, "environment probe")


# ---------------------------------------------------------------------------
# passes


def library_pass(workload, seed, index, size, traced, deadline):
    spans = os.path.join(OUT, workload, f"pass{index}.jsonl") \
        if traced else "-"
    proc = _run([sys.executable, os.path.join(BENCH, "worker.py"), workload,
                 str(seed), str(index), size, spans], deadline)
    return _last_json(proc, f"{workload} pass {index}")


def _cli_request(argv, deadline, traced_as=None):
    if traced_as is None:
        cmd = [sys.executable, "-m", "u4class.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH, "cli_child.py"),
               traced_as + ".jsonl", traced_as + ".json", *argv]
    started = time.perf_counter()
    proc = _run(cmd, deadline)
    return proc, started, time.perf_counter() - started


def cli_setup(deadline):
    """Wall seconds of each warm-up request (interpreter, imports and a
    small computation outside the mix)."""
    walls = []
    for _ in range(CLI_WARM_UPS):
        proc, _, wall = _cli_request(workloads.CLI_WARM_UP, deadline)
        _last_json(proc, "cli warm-up")
        walls.append(wall)
    return walls


def cli_pass(seed, index, size, traced, deadline):
    mix = list(workloads.CLI_MIX[size])
    random.Random(f"{seed}:{index}").shuffle(mix)
    ops, layers, imports, interpreters = [], {}, [], []
    sampler = hostspeed.Sampler()
    sampling_s = 0.0
    start = time.perf_counter()
    for i, (argv, expected) in enumerate(mix):
        sampling_s += sampler.maybe_sample()
        traced_as = os.path.join(OUT, "cli-requests", f"pass{index}-req{i}") \
            if traced else None
        proc, started, latency = _cli_request(argv, deadline, traced_as)
        try:
            answer = workloads.answer_hash(workloads.cli_answer(
                argv, expected, proc.returncode, proc.stdout, proc.stderr))
            error = None
        except (workloads.OracleMismatch, ValueError) as exc:
            answer, error = None, f"{type(exc).__name__}: {exc}"
        ops.append({"key": workloads.cli_key(argv), "answer": answer,
                    "error": error, "latency_s": latency})
        if traced:
            with open(traced_as + ".json") as fh:
                record = json.load(fh)
            interpreters.append(record["started"] - started)
            imports.append(record["import_s"])
            for name, value in record["layers"].items():
                layers[name] = layers.get(name, 0) + value
    record = {"setup_s": None,
              "wall_s": time.perf_counter() - start - sampling_s,
              "ops": ops, "slices_s": sampler.finish()}
    if traced:
        layers["cli.import_s"] = statistics.median(imports)
        layers["cli.interpreter_s"] = statistics.median(interpreters)
        record["layers"] = layers
    return record


def measure(workload, seed, seconds, trace):
    """Run passes within ``seconds`` (at least MIN_PASSES); with trace,
    every second pass is traced."""
    deadline = time.monotonic() + RUN_BUDGET_S
    # one CPU for this process and every child it starts, so the reference
    # slices and the work they normalise see the same (shared) core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    shutil.rmtree(os.path.join(OUT, workload), ignore_errors=True)
    os.makedirs(os.path.join(OUT, workload))
    env = environment(deadline)
    setups = cli_setup(deadline) if workload == "cli-requests" else []
    records, durations = [], []
    start = time.perf_counter()
    # start a pass only when a typical pass still fits in the measured time
    while len(records) < MIN_PASSES or (time.perf_counter() - start
                                        + statistics.median(durations)
                                        <= seconds):
        index = len(records)
        began = time.perf_counter()
        traced = bool(trace) and index % 2 == 1
        if workload == "cli-requests":
            rec = cli_pass(seed, index, "full", traced, deadline)
        else:
            rec = library_pass(workload, seed, index, "full", traced,
                               deadline)
            setups.append(rec["setup_s"])
        rec["traced"] = traced
        records.append(rec)
        durations.append(time.perf_counter() - began)
    return env, setups, records


# ---------------------------------------------------------------------------
# scoring and metrics


def score(workload, records, size, reference):
    """Mark each operation against the reference answers; returns
    (attempted, failed, digests per pass, digest matches reference)."""
    answers = reference[workload]["answers"]
    attempted = failed = 0
    digests = []
    for rec in records:
        hashes = {}
        for op in rec["ops"]:
            attempted += 1
            op["ok"] = op["error"] is None and \
                answers.get(op["key"]) == op["answer"]
            failed += not op["ok"]
            hashes[op["key"]] = op["answer"]
        digests.append(workloads.pass_digest(hashes))
    expected = reference[workload]["digest"] if size == "full" else None
    matches = all(d == digests[0] for d in digests) and \
        expected in (None, digests[0])
    return attempted, failed, digests, matches


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND of n samples
    beyond it (50 at least)."""
    return max(50, math.floor(100 * (n - TAIL_BEYOND) / n))


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(setups, records):
    """Metric values and notes; times come raw and, as ``*_norm``, at the
    reference host speed."""
    untraced = [r for r in records if not r["traced"]]
    # fixed per workload: the percentile the minimum pass count supports
    p = tail_percentile(len(records[0]["ops"]) * MIN_PASSES)
    n = sum(len(r["ops"]) for r in untraced)
    values = {"setup_s": statistics.median(setups),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "peak_rss_mb": "max over child processes"}
    for suffix, factor in (("", lambda r: 1.0),
                           ("_norm", hostspeed.to_nominal)):
        latencies = [op["latency_s"] * factor(r) for r in untraced
                     for op in r["ops"]]
        values["wall" + suffix + "_s"] = statistics.median(
            r["wall_s"] * factor(r) for r in untraced)
        values["req_p50" + suffix + "_ms"] = \
            1000 * statistics.median(latencies)
        values["req_tail" + suffix + "_ms"] = \
            1000 * nearest_rank(latencies, p)
        notes["wall" + suffix + "_s"] = f"median of {len(untraced)} passes"
        notes["req_p50" + suffix + "_ms"] = f"{n} samples"
        notes["req_tail" + suffix + "_ms"] = f"p{p} of {n} samples"
    slices = [s for r in untraced for s in r["slices_s"]]
    notes["host"] = (f"reference slice median "
                     f"{1000 * statistics.median(slices):.3f} ms over "
                     f"{len(slices)} samples, nominal "
                     f"{1000 * hostspeed.NOMINAL_S:.3f} ms")
    return values, notes


def per_layer(records, names):
    traced = [r for r in records if r["traced"]]
    values = {name: statistics.median(r["layers"].get(name, 0)
                                      for r in traced) for name in names}
    untraced_wall = statistics.median(
        r["wall_s"] * hostspeed.to_nominal(r)
        for r in records if not r["traced"])
    values["trace.overhead_frac"] = statistics.median(
        r["wall_s"] * hostspeed.to_nominal(r) for r in traced) \
        / untraced_wall - 1
    return values


def _load_reference():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, spec, reference):
    print(f"perfbench: workload={workload} seed={seed} seconds={seconds} "
          f"trace={trace}", flush=True)
    env, setups, records = measure(workload, seed, seconds, trace)
    print("env: " + json.dumps(env, sort_keys=True))
    attempted, failed, digests, matches = score(workload, records, "full",
                                                reference)
    for i, (rec, digest) in enumerate(zip(records, digests)):
        bad = sum(not op["ok"] for op in rec["ops"])
        kind = "traced" if rec["traced"] else "untraced"
        print(f"pass {i} ({kind}): wall {rec['wall_s']:.3f} s, "
              f"{len(rec['ops'])} ops, {bad} failed, digest {digest}")
        for op in rec["ops"]:
            if not op["ok"]:
                print(f"  FAILED {op['key']}: {op['error'] or 'answer differs from reference'}")
    print(f"digest {'matches' if matches else 'DIFFERS FROM'} reference "
          f"{reference[workload]['digest']}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if trace:
        values, notes = per_layer(records, names), {}
    else:
        values, notes = end_to_end(setups, records)
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"])
        print(f"{m['name']} = {value:.6g} {m['unit']}"
              + (f" ({note})" if note else ""))
    for name in sorted(set(values) - set(names)):
        unit = "ms" if name.endswith("_ms") else "s"
        print(f"{name} = {values[name]:.6g} {unit} ({notes[name]}; raw, "
              "at this host's speed; not a gated metric)")
    if "host" in notes:
        print(f"host: {notes['host']}")
    return {"correct": failed == 0 and matches, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "u4class",
                                       "__init__.py")):
        print(f"perfbench: no u4class package under {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        try:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, spec, _load_reference())
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0
    # one orchestrator process per workload, so that peak RSS over child
    # processes never mixes two workloads
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
        print(f"result {workload}: {lines[-1]}", flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
