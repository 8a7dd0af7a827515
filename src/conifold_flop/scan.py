"""The GF(2) chamber scan over all dimension vectors up to a bound.

``scan_py.scan_dims`` is the kernel; this module supplies the
destabilizing sub-dimension vectors of each chamber and collects the
per-dimension-vector results.
"""

from __future__ import annotations

from . import scan_py


def backend_name() -> str:
    """Always "pure": ``scan_py`` is the only kernel.  Kept because
    ``perfbench/worker.py`` records it and the CLI and criterion 6 report
    it."""
    return "pure"


def get_backends():
    """Always [("pure", scan_py)].  Kept because ``perfbench/tracing.py``
    looks the kernel up here to trace it."""
    return [("pure", scan_py)]


def destabilizing_pairs(chamber: int, d0: int, d1: int):
    """Proper nonzero sub-dimension vectors of phase >= the total phase.

    The phase comparison reduces to the sign of e0*d1 - e1*d0 once the
    chamber is fixed, so the destabilizing set depends on the chamber only
    through that sign.  Sorted small-first so witnesses are found early.
    """
    out = []
    for e0 in range(d0 + 1):
        for e1 in range(d1 + 1):
            if (e0, e1) in ((0, 0), (d0, d1)):
                continue
            det = e0 * d1 - e1 * d0
            if (chamber > 0 and det >= 0) or (chamber < 0 and det <= 0):
                out.append((e0, e1))
    return sorted(out, key=lambda p: (p[0] + p[1], p))


def scan_stable_dimvectors(chamber: int, bound: int, with_counts=False):
    """Exhaustive GF(2) scan over all dimension vectors d0 + d1 <= bound.

    Returns {dims: number of stable representations} (dims with at least
    one).  ``with_counts=False`` stops each dimension vector at the first
    stable representation, which does not change the returned key set.
    """
    if chamber not in (1, -1):
        raise ValueError("chamber must be +1 or -1")
    if not 1 <= bound <= 5:
        raise ValueError("bound must be in 1..5")
    results = {}
    for total in range(1, bound + 1):
        for d0 in range(total + 1):
            d1 = total - d0
            destab = destabilizing_pairs(chamber, d0, d1)
            n = scan_py.scan_dims(d0, d1, destab, count_all=with_counts)
            if n:
                results[(d0, d1)] = n
    return results
