"""Outside-in layer tracing of one benchmark job.

Nothing in the program changes.  ``install`` replaces public functions of
the program's layers with timing wrappers, in every module namespace that
bound the function, so a call through a name imported with
``from .x import f`` is traced too.  The worker wraps the job itself in
a root span named "job".  Spans are kept in memory as
[id, parent id, name, start, end, extra] and written out when the job
ends; ``layer_metrics`` derives the per-layer numbers from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time

ID, PARENT, NAME, START, END, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.errors = []  # (span, exception) for the innermost span an exception left
        self._stack = [-1]

    def wrap(self, name, fn, extra=None, result=None):
        """A traced stand-in for ``fn``.

        ``extra(*args, **kwargs)`` stores a value with the span before the
        call; ``result(extra, returned)`` replaces it after a normal return.
        """
        spans, stack, errors, clock = self.spans, self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1], name, 0.0, 0.0,
                   extra(*args, **kwargs) if extra else None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if not any(seen is exc for _, seen in errors):
                    errors.append((rec, exc))
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if result:
                rec[EXTRA] = result(rec[EXTRA], out)
            return out

        return functools.update_wrapper(traced, fn)

    def dump(self, path, **meta):
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "start", "end", "extra"],
                       "spans": self.spans}, fh)


def _rebind(original, wrapped):
    """Replace ``original`` by ``wrapped`` in every program module."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "conifold_flop" or mod_name.startswith("conifold_flop."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def _subspace_count(n, q):
    """Number of subspaces of GF(q)^n: the sum of Gaussian binomials."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def _rref_cells(rows, ncols=None):
    n = len(rows) if hasattr(rows, "__len__") else 0
    return n * (ncols if ncols is not None else (len(rows[0]) if n else 0))


def _lru(fn):
    """extra/result hooks that mark a call on an lru_cache object as a hit."""
    def extra(*args, **kwargs):
        return [(args or tuple(kwargs.values()))[0], fn.cache_info().hits]

    def result(state, _):
        return [state[0], fn.cache_info().hits > state[1]]

    return extra, result


def install(tracer):
    """Wrap the public functions that the per-layer metrics are built from."""
    from conifold_flop import (ainfty, arcs, freecomplex, homalg, linalg, reps, scan, tables,
                               truncated, verify)

    def fn(module, attr, extra=None, result=None, name=None):
        original = getattr(module, attr)
        label = name or "%s.%s" % (module.__name__.rsplit(".", 1)[-1], attr)
        _rebind(original, tracer.wrap(label, original, extra, result))

    def method(cls, attr, name):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    fn(truncated, "truncated_algebra", *_lru(truncated.truncated_algebra))
    method(truncated.TruncatedAlgebra, "__init__", "truncated.build")

    fn(linalg, "rref", extra=_rref_cells)
    fn(linalg, "in_span")
    fn(linalg, "nullspace")

    fn(freecomplex, "extend_resolution")
    fn(freecomplex, "graded_cohomology")
    method(freecomplex.ModuleSlices, "differential_matrix", "freecomplex.differential_matrix")
    fn(tables, "table_sphere_m", *_lru(tables.table_sphere_m))

    for attr in ("free_complex_cohomology", "ext_dims", "iso_check", "hom", "psi_sphere"):
        fn(homalg, attr)

    fn(reps, "is_stable", result=lambda _, verdict: len(verdict.primes))
    fn(reps, "exact_subrep_candidates")
    fn(reps, "subrep_scan_Fp", extra=lambda r, p: [p, _subspace_count(r.dims[0], p)
                                                   * _subspace_count(r.dims[1], p)])
    fn(reps, "verify_witness")

    fn(scan, "scan_stable_dimvectors",
       extra=lambda chamber, bound, with_counts=False, backend=None: [chamber, bool(with_counts)])
    # the kernel of the active backend, looked up by the dispatcher at call time
    kernel = dict(scan.get_backends())[scan.backend_name()]
    fn(kernel, "scan_dims", name="scan.scan_dims",
       extra=lambda d0, d1, destab, count_all=True: [d0, d1, bool(count_all)])

    fn(ainfty, "stasheff_check", result=lambda _, report: report.checked)

    for attr in ("flop_map", "dehn_twist_map", "invariants"):
        fn(arcs, attr)

    # run_all iterates over CRITERIA, which holds the functions themselves
    verify.CRITERIA = tuple(
        (label, tracer.wrap("verify.c%s" % label.split()[0], check)) for label, check in verify.CRITERIA)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer):
    """(metrics dict, uncovered list) from the spans of one traced job.

    ``uncovered`` lists the orchestration spans (the job and the verify
    criteria) by the time they spent outside every layer span, largest
    first.
    """
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[s[ID]]

    def outermost(s):
        # not nested in a span of the same name, so self-calls count once
        p = s[PARENT]
        while p >= 0:
            if spans[p][NAME] == s[NAME]:
                return False
            p = spans[p][PARENT]
        return True

    by_name = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, keep=lambda s: True):
        return sum(dur[s[ID]] for s in named(name) if keep(s) and outermost(s))

    def ratio(a, b):
        return a / b if b else 0.0

    def is_orchestration(s):
        # spans that only sequence other work: time in them outside every
        # layer span is the job's uncovered time
        return s[NAME] == "job" or s[NAME].startswith("verify.")

    m = {}
    kernels = named("scan.scan_dims")
    count_mode = [s for s in kernels if s[EXTRA][2]]
    m["scan.kernel_s"] = sum(dur[s[ID]] - child[s[ID]] for s in kernels)
    m["scan.calls"] = len(kernels)
    m["scan.dims_2_3_s"] = sum(dur[s[ID]] for s in count_mode if s[EXTRA][:2] == [2, 3])
    m["scan.dims_3_2_s"] = sum(dur[s[ID]] for s in count_mode if s[EXTRA][:2] == [3, 2])
    m["scan.exists_plus_s"] = total("scan.scan_stable_dimvectors", lambda s: s[EXTRA] == [1, False])
    m["scan.exists_minus_s"] = total("scan.scan_stable_dimvectors", lambda s: s[EXTRA] == [-1, False])
    m["scan.tuples_computed"] = sum(2 ** (4 * s[EXTRA][0] * s[EXTRA][1]) for s in kernels)
    m["scan.tuples_per_s"] = ratio(sum(2 ** (4 * s[EXTRA][0] * s[EXTRA][1]) for s in count_mode),
                                   sum(dur[s[ID]] - child[s[ID]] for s in count_mode))

    m["linalg.rref_s"] = total("linalg.rref")
    m["linalg.rref_calls"] = len(named("linalg.rref"))
    m["linalg.rref_cells"] = sum(s[EXTRA] for s in named("linalg.rref"))
    m["linalg.in_span_s"] = total("linalg.in_span")
    m["linalg.in_span_calls"] = len(named("linalg.in_span"))
    m["linalg.nullspace_calls"] = len(named("linalg.nullspace"))

    algebra_calls = named("truncated.truncated_algebra")
    m["truncated.build_s"] = total("truncated.build")
    m["truncated.builds"] = len(named("truncated.build"))
    m["truncated.cache_hit_ratio"] = ratio(sum(s[EXTRA][1] is True for s in algebra_calls),
                                           len(algebra_calls))

    table_calls = named("tables.table_sphere_m")
    m["freecomplex.extend_resolution_s"] = total("freecomplex.extend_resolution")
    m["freecomplex.cohomology_s"] = total("freecomplex.graded_cohomology")
    m["freecomplex.slice_matrices"] = len(named("freecomplex.differential_matrix"))
    m["tables.sphere_m6_s"] = sum(dur[s[ID]] for s in table_calls if s[EXTRA] == [6, False])
    m["tables.cache_hit_ratio"] = ratio(sum(s[EXTRA][1] is True for s in table_calls),
                                        len(table_calls))

    for attr in ("free_complex_cohomology", "ext_dims", "iso_check", "hom", "psi_sphere"):
        m["homalg.%s_s" % attr] = total("homalg." + attr)
    m["homalg.errors"] = sum(1 for s, exc in tracer.errors
                             if isinstance(exc, RuntimeError)
                             and s[NAME].startswith(("homalg.", "freecomplex.")))

    verdicts = named("reps.is_stable")
    m["reps.is_stable_s"] = total("reps.is_stable")
    m["reps.exact_candidates_s"] = total("reps.exact_subrep_candidates")
    for p in (2, 3, 5):
        m["reps.subrep_scan_p%d_s" % p] = total("reps.subrep_scan_Fp", lambda s: s[EXTRA][0] == p)
    m["reps.subspace_pairs_computed"] = sum(s[EXTRA][1] for s in named("reps.subrep_scan_Fp"))
    m["reps.primes_per_verdict"] = ratio(sum(s[EXTRA] for s in verdicts if s[EXTRA] is not None),
                                         len(verdicts))

    m["ainfty.stasheff_s"] = total("ainfty.stasheff_check")
    m["ainfty.tuples_checked"] = sum(s[EXTRA] or 0 for s in named("ainfty.stasheff_check"))
    m["ainfty.tuples_per_s"] = ratio(m["ainfty.tuples_checked"], m["ainfty.stasheff_s"])

    m["arcs.flop_s"] = total("arcs.flop_map")
    m["arcs.twist_s"] = total("arcs.dehn_twist_map")
    m["arcs.invariants_s"] = total("arcs.invariants")

    for i in range(1, 12):
        m["verify.c%d_s" % i] = total("verify.c%d" % i)

    job = named("job")[0]
    covered = sum(dur[s[ID]] for s in spans
                  if not is_orchestration(s) and s[PARENT] >= 0 and is_orchestration(spans[s[PARENT]]))
    m["trace.coverage_ratio"] = ratio(covered, dur[job[ID]])
    uncovered = sorted(((dur[s[ID]] - child[s[ID]], s[NAME]) for s in spans if is_orchestration(s)),
                       reverse=True)
    return m, [(name, seconds) for seconds, name in uncovered]
