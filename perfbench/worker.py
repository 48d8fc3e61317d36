"""One pass of a library workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED PASS SIZE SPANS_PATH
    python3 perfbench/worker.py --env

Set-up (imports plus the workload's warm-up on inputs outside it) is timed
first; then the pass runs its operations in the order drawn from
``SEED:PASS``, sampling the host's speed between them (see hostspeed).  With a SPANS_PATH (``-`` for none) the tracer is installed
after set-up and its spans are written there.  The last stdout line is a
JSON record of the pass.  ``--env`` prints the environment record instead.
"""

import json
import os
import platform
import random
import sys
import time

import hostspeed

T0 = time.perf_counter()


def environment():
    import numpy
    import scipy
    from u4class import kernels, resolutions
    compiled = kernels._fast is not None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.BACKEND,
        "speedups_imported": compiled,
        "max_generators": resolutions.max_generators(),
        "note": "compiled kernel present" if compiled else
        "compiled _speedups not importable; measuring the pure backend",
    }


def run_pass(workload, seed, pass_index, size, spans_path=None):
    import u4class.cli  # noqa: F401  (loads every layer)
    import workloads
    ops_fn, warm_up = workloads.LIBRARY[workload]
    warm_up()
    setup_s = time.perf_counter() - T0
    tracer = None
    if spans_path:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    rng = random.Random(f"{seed}:{pass_index}")
    ops = []
    clock = time.perf_counter
    sampler = hostspeed.Sampler()
    sampling_s = 0.0
    start = clock()
    for key, thunk in ops_fn(rng, size):
        if tracer is not None:
            tracer.op = key
        t = clock()
        try:
            answer, error = workloads.answer_hash(thunk()), None
        except Exception as exc:  # a failed operation is counted, not fatal
            answer, error = None, f"{type(exc).__name__}: {exc}"
        ops.append({"key": key, "answer": answer, "error": error,
                    "latency_s": clock() - t})
        sampling_s += sampler.maybe_sample()
    wall_s = clock() - start - sampling_s
    record = {"setup_s": setup_s, "wall_s": wall_s, "ops": ops,
              "slices_s": sampler.finish()}
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        tracer.write(spans_path)
    return record


def main(argv):
    if argv == ["--env"]:
        print(json.dumps(environment()))
        return 0
    workload, seed, pass_index, size, spans = argv
    record = run_pass(workload, seed, int(pass_index), size,
                      None if spans == "-" else spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
