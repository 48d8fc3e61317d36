"""Regenerate perfbench/reference.json: the answer hash of every operation
of every workload at full size, and each workload's pass digest.

    python3 perfbench/make_reference.py

Run it only on a commit whose answers are trusted; the benchmark counts
every later difference as a failed operation.  Oracle checks inside the
operations still apply, so a disagreeing commit cannot write a reference.
"""

import json
import os
import sys
import time

import run
import workloads


def main():
    deadline = time.monotonic() + 3600
    reference = {}
    for workload in run.WORKLOADS:
        if workload == "cli-requests":
            rec = run.cli_pass(0, 0, "full", False, deadline)
        else:
            rec = run.library_pass(workload, 0, 0, "full", False, deadline)
        errors = [op for op in rec["ops"] if op["error"]]
        if errors:
            for op in errors:
                print(f"{workload} {op['key']}: {op['error']}",
                      file=sys.stderr)
            return 1
        answers = {op["key"]: op["answer"] for op in rec["ops"]}
        reference[workload] = {"digest": workloads.pass_digest(answers),
                               "answers": dict(sorted(answers.items()))}
        print(f"{workload}: {len(answers)} answers, digest "
              f"{reference[workload]['digest']}")
    with open(os.path.join(run.BENCH, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
