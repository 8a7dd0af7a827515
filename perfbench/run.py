#!/usr/bin/env python3
"""Closed-loop benchmark of the conifold-flop engine, from cold processes.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is loaded from
src/ and nothing is installed.  One client runs one job at a time, each in
a fresh worker interpreter (perfbench/worker.py), so every job pays for
the package's empty caches as a CLI call does.

A run first spawns SETUP_SAMPLES set-up-only workers, then runs jobs back
to back and stops at the job boundary nearest to --seconds (always after
at least one job).  It prints every
metric with its unit and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 the run makes one
plain job and one traced job instead and reports the per-layer metrics.
A task that raised or differs from perfbench/references.json makes the
run exit with code 1.  --workload all runs every workload in turn.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("scan-count", "sphere-tables", "verify-all", "subrep-lattice")

# one sample of interpreter start plus import spreads by more than a tenth
SETUP_SAMPLES = 11
# a run must end within 180 s: start no job that would likely end after
# RUN_LIMIT_S, and stop a job still running at JOB_DEADLINE_S
RUN_LIMIT_S = 150.0
JOB_DEADLINE_S = 170.0


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_sample(env):
    """(seconds from spawn until the worker has imported the package, the
    worker's own import seconds, scan backend)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "--setup-only"], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not line:
        raise RuntimeError("set-up worker failed with exit code %s" % proc.returncode)
    ready = json.loads(line)
    return elapsed, ready["import_s"], ready["backend"]


def run_job(env, workload, seed, traced, references, timeout, n_tasks):
    """One job in a fresh worker; the worker's result dict.  A worker that
    crashed or timed out fails every task of the job."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    if references:
        cmd += ["--references", references]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("FAILED %s: job exceeded %.0f s" % (workload, timeout), file=sys.stderr)
        return {"attempted": n_tasks, "failed": n_tasks}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print("FAILED %s: worker exited with code %d" % (workload, proc.returncode), file=sys.stderr)
        return {"attempted": n_tasks, "failed": n_tasks}
    return json.loads(lines[-1])


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, traced, spec, references):
    """Run one workload; returns (correct, attempted, failed, metrics, report)."""
    env = worker_env()
    refs_path = references or str(HERE / "references.json")
    with open(refs_path) as fh:
        n_tasks = len(json.load(fh)[workload])

    started = time.perf_counter()
    samples = [setup_sample(env) for _ in range(SETUP_SAMPLES)]
    backend = samples[0][2]
    start = time.perf_counter()
    jobs = []
    while True:
        t0 = time.perf_counter()
        # a traced run makes one plain job, then one traced job
        jobs.append(run_job(env, workload, seed, traced and len(jobs) == 1, references,
                            JOB_DEADLINE_S - (t0 - started), n_tasks))
        now = time.perf_counter()
        # stop at the job boundary nearest to --seconds
        done = len(jobs) == 2 if traced else now - start + (now - t0) / 2 >= seconds
        if done or now - started + (now - t0) > RUN_LIMIT_S:
            break

    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    timed = [j for j in jobs if "job_s" in j]
    computed = {}
    if traced and len(timed) == 2:
        computed = dict(jobs[1]["layers"])
        computed["setup.import_s"] = statistics.median(s[1] for s in samples)
        computed["trace.overhead_ratio"] = jobs[1]["job_s"] / jobs[0]["job_s"]
    elif timed and not traced:
        computed = {"job_s": statistics.median(j["job_s"] for j in timed),
                    "setup_s": statistics.median(s[0] for s in samples),
                    "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in timed)}

    section = spec["per_layer" if traced else "end_to_end"]
    missing = {m["name"] for m in section} - set(computed)
    if computed and missing:
        raise SystemExit("BENCHMARK.json names metrics the benchmark does not compute: %s"
                         % sorted(missing))
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in section if computed}
    # layer metrics that no workload of BENCHMARK.json moves (count-mode scan,
    # the m = 6 table) are printed and stored, but not in the result line
    unlisted = {k: v for k, v in computed.items() if k not in metrics}

    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "backend": backend, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "setup_samples_s": [s[0] for s in samples], "jobs": jobs, "metrics": metrics,
        "unlisted_metrics": unlisted,
    }
    correct = failed == 0 and bool(metrics)
    return correct, attempted, failed, metrics, report


def print_report(report):
    print("%s  seed %d  trace %d  backend %s  python %s  nproc %d  commit %s"
          % (report["workload"], report["seed"], report["trace"], report["backend"],
             report["python"], report["nproc"], (report["commit"] or "unknown")[:12]))
    print("  %-34s %14d/%d tasks  (%d jobs)" % ("failed_ratio", report["failed"],
                                                report["attempted"], len(report["jobs"])))
    for name, m in report["metrics"].items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, value in report["unlisted_metrics"].items():
        print("  %-34s %14.6g   (not in BENCHMARK.json)" % (name, value))
    traced = report["jobs"][-1]
    for name, seconds in traced.get("uncovered", [])[:3]:
        print("  uncovered in %-21s %14.6g s" % (name, seconds))
    if "spans_file" in traced:
        print("  spans written to %s" % traced["spans_file"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--references", help="reference file in place of perfbench/references.json")
    ns = ap.parse_args()
    if ns.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "conifold_flop" / "__init__.py").is_file():
        print("error: %s holds no conifold-flop source tree (src/conifold_flop)" % ROOT,
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    names = WORKLOADS if ns.workload == "all" else (ns.workload,)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    all_correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        correct, a, f, m, report = measure(name, ns.seed, ns.seconds, bool(ns.trace), spec,
                                           ns.references)
        print_report(report)
        result_file = out_dir / ("result-%s-seed%d-trace%d.json" % (name, ns.seed, ns.trace))
        result_file.write_text(json.dumps(report, indent=1) + "\n")
        all_correct, attempted, failed = all_correct and correct, attempted + a, failed + f
        if ns.workload == "all":
            metrics.update({"%s.%s" % (name, k): v for k, v in m.items()})
        else:
            metrics = m
    print(json.dumps({"correct": all_correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
