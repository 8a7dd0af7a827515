#!/usr/bin/env python3
"""Benchmark the acceptance criteria one by one, cold.

Usage: python benchmarks/bench_layers.py [--label NAME] [--out FILE]

Each sample runs in a fresh interpreter: it imports the package, so every
cache starts empty, and times one criterion of `verify-all` in process.
A criterion's time is the median of its REPEAT samples.  One more
fresh interpreter runs `verify-all --json` in process and times it.
Every criterion must pass, and the sha256 of the `verify-all --json`
output must equal the pin in tests/data/verify_all.sha256; either
failure is a bug, not a benchmark result.

Every fresh interpreter also reports its cold start: the seconds of
`import conifold_flop, conifold_flop.cli` (after this script's own
imports) and its peak RSS (`ru_maxrss`) right after that import and at
exit.  The run stores their medians over all fresh interpreters, and
whether they wrote bytecode (`sys.flags.dont_write_bytecode`: with it
set, every import compiles the package from source).

The run, with the Python version and the core count, is stored under
`--label` in the JSON file `--out`, next to the runs already there, so
one file holds the numbers of two versions.  The package is imported
from the Python path: run it with PYTHONPATH=src from the root of a
checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# sha256 of the stdout of `conifold-flop verify-all --json`, pinned for Tier-1 too
SHA256_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                           "tests", "data", "verify_all.sha256")
# cold samples per criterion
REPEAT = 9


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count()


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _one_criterion(index):
    """Child mode: time criterion ``index`` of ``verify.CRITERIA``."""
    from conifold_flop import verify

    name, fn = verify.CRITERIA[index]
    t0 = time.perf_counter()
    ok, detail = fn()
    return {"name": name, "ok": ok, "detail": detail, "s": time.perf_counter() - t0}


def _verify_all():
    """Child mode: time `verify-all --json` in process and hash its output."""
    from conifold_flop.cli import main

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["verify-all", "--json"])
    elapsed = time.perf_counter() - t0
    return {"code": code, "s": elapsed, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _child(*args):
    proc = subprocess.run([sys.executable, __file__, "--child", *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("child %s failed:\n%s" % (" ".join(args), proc.stderr))
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", default="current")
    ap.add_argument("--out", help="JSON file to store the run in (printed only without it)")
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    ns = ap.parse_args()
    if ns.child:
        kind, *rest = ns.child
        t0 = time.perf_counter()
        import conifold_flop.cli  # noqa: F401  (the cold start)
        import_s, import_rss = time.perf_counter() - t0, _maxrss_mb()
        result = _one_criterion(int(rest[0])) if kind == "criterion" else _verify_all()
        result.update(import_s=import_s, import_maxrss_mb=import_rss, exit_maxrss_mb=_maxrss_mb(),
                      dont_write_bytecode=bool(sys.flags.dont_write_bytecode))
        json.dump(result, sys.stdout)
        return

    from conifold_flop import verify

    with open(SHA256_FILE) as fh:
        pin = fh.read().strip()
    criteria, children = {}, []
    for index, (name, _) in enumerate(verify.CRITERIA):
        samples = [_child("criterion", str(index)) for _ in range(REPEAT)]
        children += samples
        failed = [s["detail"] for s in samples if not s["ok"]]
        if failed:
            raise SystemExit("criterion %s failed: %s" % (name, failed[0]))
        times = [s["s"] for s in samples]
        criteria[name] = {"median_s": round(statistics.median(times), 4),
                          "samples_s": [round(t, 4) for t in times]}
        print("  %-40s %7.3f s" % (name, statistics.median(times)))
    whole = _child("verify-all")
    children.append(whole)
    if whole["code"] != 0 or whole["sha256"] != pin:
        raise SystemExit("verify-all --json exited %d with sha256 %s, expected 0 and %s"
                         % (whole["code"], whole["sha256"], pin))
    total = sum(c["median_s"] for c in criteria.values())
    cold = {key: round(statistics.median(c[key] for c in children), 4)
            for key in ("import_s", "import_maxrss_mb", "exit_maxrss_mb")}
    cold.update(children=len(children),
                dont_write_bytecode=any(c["dont_write_bytecode"] for c in children))
    print("  %-40s %7.3f s" % ("criteria, medians summed", total))
    print("  %-40s %7.3f s" % ("verify-all --json, in process", whole["s"]))
    print("  %-40s %7.4f s" % ("import, median of %d" % len(children), cold["import_s"]))
    print("  %-40s %7.2f MiB" % ("peak RSS after import, median", cold["import_maxrss_mb"]))
    print("  %-40s %7.2f MiB" % ("peak RSS at exit, median", cold["exit_maxrss_mb"]))
    run = {"python": platform.python_version(), "cores": _cores(), "repeat": REPEAT,
           "criteria": criteria, "criteria_sum_s": round(total, 4),
           "verify_all_s": round(whole["s"], 4), "verify_all_sha256": whole["sha256"],
           "cold_start": cold}
    if not ns.out:
        return
    data = {"runs": {}}
    if os.path.exists(ns.out):
        with open(ns.out) as fh:
            data = json.load(fh)
    data["runs"][ns.label] = run
    with open(ns.out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
