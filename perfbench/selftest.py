#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Runs the subrep-lattice workload against a copy of references.json with
one lattice count changed, and checks that the run reports exactly that
task as failed, with failed_ratio 1/95 and correct false, and that it
exits with a nonzero code.  Takes about as long as one subrep-lattice job.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TASK = "vplus:2 p=3"


def main():
    refs = json.loads((HERE / "references.json").read_text())
    refs["subrep-lattice"][TASK][-1][-1] += 1  # one count off by one
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    wrong = out_dir / "wrong-references.json"
    wrong.write_text(json.dumps(refs))

    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "subrep-lattice",
                           "--seed", "0", "--seconds", "1", "--trace", "0",
                           "--references", str(wrong)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads((out_dir / "result-subrep-lattice-seed0-trace0.json").read_text())
    checks = {
        "the run exits with a nonzero code": proc.returncode != 0,
        "the result is not correct": result["correct"] is False,
        "one task of 95 failed": (result["failed"], result["attempted"]) == (1, 95),
        "failed_ratio is 1/95": report["failed_ratio"] == 1 / 95,
        "the changed task is named": "FAILED subrep-lattice %s:" % TASK in proc.stderr,
    }
    for what, ok in checks.items():
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
