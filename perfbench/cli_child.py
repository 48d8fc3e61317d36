"""One traced CLI request: a fresh interpreter imports ``u4class.cli``
(timed), installs the tracer and calls ``cli.main(argv)``.

    python3 perfbench/cli_child.py SPANS_PATH RECORD_PATH ARGV...

Stdout and the exit code are the request's own.  RECORD_PATH receives the
interpreter start time, the import time and the per-layer numbers.
"""

import json
import sys
import time

STARTED = time.perf_counter()


def main(spans_path, record_path, argv):
    t = time.perf_counter()
    import u4class.cli as cli
    import_s = time.perf_counter() - t
    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = " ".join(argv)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)
        with open(record_path, "w") as fh:
            json.dump({"started": STARTED, "import_s": import_s,
                       "layers": tracer.layer_metrics()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
