#!/usr/bin/env python3
"""Benchmark the GF(2) chamber scan.

Usage: python benchmarks/bench_scan.py [--bound 5] [--counts]

One scan covers both chambers: their counts agree in every cell (see the
docstring of ``conifold_flop.scan``).

The result is checked against the pinned classification below; a
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


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bound", type=int, default=5)
    ap.add_argument("--counts", action="store_true",
                    help="full enumeration instead of stopping at the first stable")
    ns = ap.parse_args()

    print("scan of dimension vectors with d0 + d1 <= %d (%s mode)"
          % (ns.bound, "count" if ns.counts else "exists"))
    t0 = time.perf_counter()
    result = scan.scan_stable_dimvectors(-1, ns.bound, with_counts=ns.counts)
    elapsed = time.perf_counter() - t0
    print("  %8.3f s   %s" % (elapsed, sorted(result.items())))
    want = expected(ns.bound, ns.counts)
    if result != want:
        raise SystemExit("result differs from the expected %s" % sorted(want.items()))


if __name__ == "__main__":
    main()
