"""The benchmark's four workloads.

Each workload has three steps.  ``prepare(seed)`` builds the inputs and
is not timed.  ``run(inputs)`` is the timed job: it calls the program's
public entry points and keeps their raw outputs.  ``observe(inputs,
outputs)`` turns those outputs into one comparable value per task, after
the timed region; ``references.json`` holds the expected value of every
task, so a task fails when it raised or when its value differs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from typing import Callable, NamedTuple

from conifold_flop import cli, jsonio, reps
from conifold_flop.homalg import iso_check


class Raised:
    """The outcome of a task whose call raised."""

    def __init__(self, exc):
        self.text = "raised %s: %s" % (type(exc).__name__, exc)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a crash is that task's failure, not the job's
        return Raised(exc)


def _cli(argv):
    """One CLI invocation in this process: (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_json(out):
    """Parsed JSON output of a CLI call; raises ValueError if there is none."""
    if isinstance(out, Raised):
        raise ValueError(out.text)
    code, text = out
    if code == 2:
        raise ValueError("exit code 2")
    return json.loads(text)


# ---------------------------------------------------------------------------
# scan-count: the GF(2) classification at bound 5, full enumeration

SCAN_ARGV = ["scan", "--bound", "5", "--z0", "-1,2", "--z1", "1,1", "--json"]
SCAN_DIMS = [(d0, total - d0) for total in range(1, 6) for d0 in range(total + 1)]


def _scan_run(_):
    return _attempt(_cli, SCAN_ARGV)


def _scan_observe(_, out):
    payload = _cli_json(out)
    if payload["chamber"] != 1:
        raise ValueError("scanned chamber %r" % payload["chamber"])
    counts = {tuple(e["dims"]): e["count"] for e in payload["stable"]}
    return {"dims %d,%d" % d: counts.get(d, 0) for d in SCAN_DIMS}


# ---------------------------------------------------------------------------
# sphere-tables: cold table_sphere_m(m) and its cohomology, m = 2..6

SPHERES = range(2, 7)


def _sphere_run(_):
    return [_attempt(_cli, ["psi", "--object", "table:sphere:%d" % m, "--n", "6", "--json"])
            for m in SPHERES]


def _sphere_table(m, out):
    modules = {deg: jsonio.rep_from_json(data) for deg, data in _cli_json(out).items()}
    top = modules.get("0")
    return {"dims": {deg: list(r.dims) for deg, r in modules.items()},
            "iso_vplus": top is not None and iso_check(top, reps.make_catalog_rep("vplus", m))}


def _sphere_observe(_, outs):
    return {"sphere:%d" % m: _attempt(_sphere_table, m, out) for m, out in zip(SPHERES, outs)}


# ---------------------------------------------------------------------------
# verify-all: the eleven acceptance criteria


def _verify_run(_):
    return _attempt(_cli, ["verify-all", "--json"])


def _verify_observe(_, out):
    return {r["criterion"]: r["ok"] for r in _cli_json(out)["results"]}


# ---------------------------------------------------------------------------
# subrep-lattice: verdicts and GF(p) lattice scans of seed-conjugated modules

CHAMBERS = {"chamber+1": reps.stability_params(-1, 2, 1, 1),
            "chamber-1": reps.stability_params(1, 1, -1, 2)}
MODULES = ([("vplus", (m,)) for m in range(1, 5)] + [("vplus_dag", (m,)) for m in range(1, 5)]
           + [("vminus", (n,)) for n in range(4)] + [("vminus_dag", (n,)) for n in range(4)]
           + [("point", (1, 1)), ("point", (1, 2)), ("point_flopped", (1, 2))])
PRIMES = (2, 3, 5)


def _unimodular(d, rng):
    """A seed-drawn integer d x d matrix of determinant +-1, and its inverse.

    Built from integer row operations, so both matrices are integral and
    invertible modulo every prime.
    """
    g = [[int(i == j) for j in range(d)] for i in range(d)]
    gi = [row[:] for row in g]
    if d == 1:
        g[0][0] = gi[0][0] = rng.choice((1, -1))
    for _ in range(3 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]   # row_i += c row_j
        for row in gi:                                   # col_j -= c col_i
            row[j] -= c * row[i]
    return g, gi


def _conjugate(m, left, right):
    """left . m . right for integer matrices left, right given as lists."""
    ncols = len(right[0]) if right else 0
    mid = [[sum(row[k] * right[k][j] for k in range(len(right))) for j in range(ncols)] for row in m]
    return [[sum(left[i][k] * mid[k][j] for k in range(len(mid))) for j in range(ncols)]
            for i in range(len(left))]


def _lattice_prepare(seed):
    """The 19 catalog modules, each in a seed-drawn integer basis change at
    both vertices; only the conjugated matrices reach the program."""
    rng = random.Random(seed)
    out = []
    for kind, args in MODULES:
        r = reps.make_catalog_rep(kind, *args)
        d0, d1 = r.dims
        g0, g0i = _unimodular(d0, rng)
        g1, g1i = _unimodular(d1, rng)
        conj = reps.rep(r.dims, _conjugate(r.mx, g1, g0i), _conjugate(r.mz, g1, g0i),
                        _conjugate(r.my, g0, g1i), _conjugate(r.mw, g0, g1i))
        out.append(("%s:%s" % (kind, ",".join(map(str, args))), conj))
    return out


def _verdict(r, params):
    v = reps.is_stable(r, params)
    witness_ok = None if v.witness is None else reps.verify_witness(r, v.witness, params)
    return v, witness_ok


def _lattice_run(modules):
    out = {}
    for label, r in modules:
        for chamber, params in CHAMBERS.items():
            out["%s %s" % (label, chamber)] = _attempt(_verdict, r, params)
        for p in PRIMES:
            out["%s p=%d" % (label, p)] = _attempt(reps.subrep_scan_Fp, r, p)
    return out


def _lattice_value(out):
    if isinstance(out, Raised):
        return out.text
    if isinstance(out, tuple):
        v, witness_ok = out
        return {"kind": v.kind, "witness_dims": v.witness_dims, "witness_verified": witness_ok}
    return [[d0, d1, n] for (d0, d1), n in out]


def _lattice_observe(_, outs):
    return {task: _lattice_value(out) for task, out in outs.items()}


# ---------------------------------------------------------------------------


class Workload(NamedTuple):
    name: str
    prepare: Callable
    run: Callable
    observe: Callable


WORKLOADS = {w.name: w for w in (
    Workload("scan-count", lambda seed: None, _scan_run, _scan_observe),
    Workload("sphere-tables", lambda seed: None, _sphere_run, _sphere_observe),
    Workload("verify-all", lambda seed: None, _verify_run, _verify_observe),
    Workload("subrep-lattice", _lattice_prepare, _lattice_run, _lattice_observe),
)}


def compare(observed, expected):
    """{task: failure message} for every expected task that did not match.

    ``observed`` is either the observe step's dict or a Raised when the
    observe step itself failed (then every task fails with its message).
    """
    if isinstance(observed, Raised):
        return {task: observed.text for task in expected}
    # JSON round trip: tuples become lists, as in the reference file
    observed = json.loads(json.dumps(observed, default=lambda o: o.text))
    failures = {}
    for task, want in expected.items():
        got = observed.get(task, "missing from the output")
        if got != want:
            failures[task] = "got %s, expected %s" % (json.dumps(got), json.dumps(want))
    return failures
