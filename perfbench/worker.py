"""One benchmark job in a fresh interpreter.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--references FILE]

The first line on stdout reports the set-up: the seconds this interpreter
spent importing the package and the CLI and selecting the scan backend.
With --setup-only the worker stops there.  Otherwise it prepares the
workload's inputs, times the job, reads its peak RSS, checks every task
against the references and prints one JSON result line.  A traced job
also writes its spans to perfbench/out/.  PYTHONPATH must reach src/.
"""

import time

_T0 = time.perf_counter()

import conifold_flop  # noqa: E402  (the import is what set-up measures)
import conifold_flop.cli  # noqa: E402,F401
from conifold_flop import scan  # noqa: E402

BACKEND = scan.backend_name()
IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def main():
    print(json.dumps({"import_s": IMPORT_S, "backend": BACKEND}), flush=True)
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--references", default=str(HERE / "references.json"))
    ns = ap.parse_args()
    if ns.setup_only:
        return 0

    import tracing
    import workloads

    wl = workloads.WORKLOADS[ns.workload]
    with open(ns.references) as fh:
        expected = json.load(fh)[ns.workload]
    inputs = wl.prepare(ns.seed)
    tracer = None
    job = wl.run
    if ns.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        job = tracer.wrap("job", wl.run)

    t0 = time.perf_counter()
    outputs = job(inputs)
    job_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        observed = wl.observe(inputs, outputs)
    except Exception as exc:  # unreadable output fails every task, with the reason
        observed = workloads.Raised(exc)
    failures = workloads.compare(observed, expected)
    for task, why in sorted(failures.items()):
        print("FAILED %s %s: %s" % (ns.workload, task, why), file=sys.stderr)

    result = {"job_s": job_s, "peak_rss_mb": peak_rss_mb, "attempted": len(expected),
              "failed": len(failures)}
    if tracer is not None:
        result["layers"], result["uncovered"] = tracing.layer_metrics(tracer)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / ("spans-%s-seed%d.json" % (ns.workload, ns.seed))
        tracer.dump(spans_file, workload=ns.workload, seed=ns.seed, job_s=job_s)
        result["spans_file"] = str(spans_file.relative_to(HERE.parent))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
