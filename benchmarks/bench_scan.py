#!/usr/bin/env python3
"""Benchmark the GF(2) chamber scan: compiled core vs pure Python.

Usage: python benchmarks/bench_scan.py [--bound 5] [--chamber {1,-1}] [--counts]

The compiled backend is the Cython module _scan_core; the pure backend is
scan_py.  Every backend's result is checked against the pinned
classification below, so a pure-only run checks its results too; a
mismatch is a bug, not a benchmark result.
"""

import argparse
import time

from conifold_flop import scan

# stable representations over GF(2) per dimension vector, identical in
# both chambers; exists mode stops at the first one and reports 1
EXPECTED_COUNTS = {(0, 1): 1, (1, 0): 1, (1, 1): 3, (1, 2): 6, (2, 1): 6,
                   (2, 3): 1008, (3, 2): 1008}


def expected(bound, with_counts):
    return {d: (n if with_counts else 1) for d, n in EXPECTED_COUNTS.items()
            if sum(d) <= bound}


def run(backend, chamber, bound, with_counts):
    t0 = time.perf_counter()
    result = scan.scan_stable_dimvectors(chamber, bound, with_counts=with_counts, backend=backend)
    return time.perf_counter() - t0, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bound", type=int, default=5)
    ap.add_argument("--chamber", type=int, default=1, choices=(1, -1))
    ap.add_argument("--counts", action="store_true",
                    help="full enumeration instead of stopping at the first stable")
    ns = ap.parse_args()

    backends = scan.get_backends()
    print("chamber %+d scan of dimension vectors with d0 + d1 <= %d (%s mode)"
          % (ns.chamber, ns.bound, "count" if ns.counts else "exists"))
    want = expected(ns.bound, ns.counts)
    for name, _ in backends:
        elapsed, result = run(name, ns.chamber, ns.bound, ns.counts)
        print("  %-9s %8.3f s   %s" % (name, elapsed, sorted(result.items())))
        if result != want:
            raise SystemExit("%s backend result differs from the expected %s"
                             % (name, sorted(want.items())))
    if len(backends) < 2:
        print("  (compiled backend not built; run pip install -e . with cython)")


if __name__ == "__main__":
    main()
