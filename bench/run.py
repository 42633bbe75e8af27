"""conefrac benchmark: one seeded workload, one fresh process.

    python3 bench/run.py --workload polar_smooth --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and from nowhere else.  The run

1. times set-up (interpreter start, import, density and catalog
   construction, seeded input generation) in five fresh child processes
   and keeps the median as ``setup_s``;
2. with ``--trace 0`` runs passes over the workload's fixed job list while
   the next pass still fits in ``--seconds`` (at least one), and reports the
   end-to-end metrics;
3. with ``--trace 1`` runs one pass with spans around every layer, then one
   untraced pass, checks that both passes returned bit-identical values, and
   reports the per-layer metrics and the tracing overhead.

The summary JSON carries the metrics that ``BENCHMARK.json`` lists for the
run's kind.  Layer times that read 0 on a workload which never enters the
layer (radial phases on ``mass_field``, mass kernels on the polar
workloads) are left out of that list, but they are printed and kept in the
results file.

Every job runs its oracle check.  A job that raises or misses its oracle is
a failure and is listed with its inputs; a result that returned
``converged=False`` but met its oracle is listed as unconverged.  The
results file (host, configuration, metrics, failures, every job) goes to
``bench/results/``; the last line of standard output is the summary JSON.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(BENCH / "results"),
                    help="directory for the results file")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (set-up timing)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def load_workload(name: str, seed: int):
    """Import conefrac from the checkout and build the seeded job list."""
    src = ROOT / "src"
    if not (src / "conefrac" / "__init__.py").is_file():
        sys.exit("bench: no conefrac sources under %s; run from a source checkout" % src)
    sys.path.insert(0, str(src))
    import numpy as np
    import conefrac
    from workloads import WORKLOADS
    return WORKLOADS[name](conefrac, np.random.default_rng(seed))


def measure_setup(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def run_job(job, wrap=None) -> dict:
    rec = {"job": job.name, "inputs": job.inputs}
    fn = job.fn if wrap is None else wrap(job.fn, "job")
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failing job is recorded, never swallowed
        rec.update(time_s=time.perf_counter() - t0, ok=False, values=None,
                   n_evals=0, unconverged=0,
                   error="%s: %s" % (type(exc).__name__, exc),
                   traceback=traceback.format_exc())
        return rec
    rec.update(time_s=time.perf_counter() - t0, ok=bool(out.ok), values=out.values,
               n_evals=out.n_evals, unconverged=out.unconverged, check=out.detail)
    return rec


def run_pass(jobs, wrap=None) -> dict:
    t0 = time.perf_counter()
    records = [run_job(job, wrap) for job in jobs]
    return {"wall_s": time.perf_counter() - t0, "jobs": records,
            "n_evals": sum(r["n_evals"] for r in records)}


def host_record(args, jobs) -> dict:
    import numpy
    import scipy
    commit = ""
    if (ROOT / ".git").exists():  # never look for a repository above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    counts = {}
    for job in jobs:
        counts[job.name] = counts.get(job.name, 0) + 1
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit or "unknown",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_pass": len(jobs), "job_counts": counts,
    }


def summarize(passes) -> dict:
    records = [r for p in passes for r in p["jobs"]]
    failed = [r for r in records if not r["ok"]]
    unconverged = [r for r in records if r["ok"] and r["unconverged"]]
    return {"records": records, "failed": failed, "unconverged": unconverged,
            "attempted": len(records)}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs = load_workload(args.workload, args.seed)
    if args.setup_only:
        return 0
    own_setup_s = time.perf_counter() - T_START
    setup_runs = measure_setup(args)
    tracer = None

    if args.trace == 0:
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(jobs))
            walls = [p["wall_s"] for p in passes]
            if time.perf_counter() - t0 + statistics.median(walls) > args.seconds:
                break
        summary = summarize(passes)
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "job_p50_s": metric(statistics.median(r["time_s"] for r in summary["records"]), "s"),
            "n_evals": metric(statistics.median(p["n_evals"] for p in passes), "count"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": metric(statistics.median(setup_runs), "s"),
        }
        identical = True
    else:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(jobs, wrap=tracer.root)
        finally:
            tracer.uninstall()
        plain = run_pass(jobs)
        passes = [traced, plain]
        summary = summarize(passes)
        identical = all(_bits(a["values"]) == _bits(b["values"])
                        for a, b in zip(traced["jobs"], plain["jobs"]))
        layer = tracer.metrics()
        n = len(summary["records"])
        layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        layer["jobs.fail_frac"] = len(summary["failed"]) / n
        layer["jobs.unconverged_frac"] = len(summary["unconverged"]) / n
        metrics = {k: metric(v, _unit(k)) for k, v in layer.items()}
    # the summary line carries the metrics BENCHMARK.json lists; the results
    # file and the lines above it carry every metric measured
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)["end_to_end" if args.trace == 0 else "per_layer"]
    reported = {m["name"]: metrics[m["name"]] for m in listed}

    correct = not summary["failed"] and identical
    out_dir = Path(args.results)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result = {
        "host": host_record(args, jobs),
        "own_setup_s": own_setup_s, "setup_runs_s": setup_runs,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "metrics": metrics, "correct": correct, "bit_identical": identical,
        "attempted": summary["attempted"], "failed": len(summary["failed"]),
        "failures": [{"workload": args.workload, **r} for r in summary["failed"]],
        "unconverged": [{"workload": args.workload, "job": r["job"], "inputs": r["inputs"],
                         "results": r["unconverged"]} for r in summary["unconverged"]],
        "absent_hooks": tracer.absent if tracer else [],
        "uncounted_hooks": sorted(tracer.uncounted) if tracer else [],
        "jobs": [{k: v for k, v in r.items() if k != "values"} for r in summary["records"]],
    }
    with open(out_dir / (stem + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        tracer.dump(out_dir / (stem + "-spans.jsonl.gz"))

    for r in summary["failed"]:
        print("FAILED %s %s %s: %s" % (args.workload, r["job"], json.dumps(r["inputs"]),
                                       r.get("error") or "oracle missed: " + r["check"]))
    for r in summary["unconverged"]:
        print("unconverged %s %s %s (%d result(s)); oracle met: %s"
              % (args.workload, r["job"], json.dumps(r["inputs"]), r["unconverged"], r["check"]))
    if not identical:
        print("FAILED traced and untraced passes returned different values")
    for spec in result["absent_hooks"]:
        print("absent hook %s" % spec)
    for name in result["uncounted_hooks"]:
        print("hook %s: counts unavailable, span kept" % name)
    print("%s seed %d: %d job(s) in %d pass(es), %d failed (fail_frac %.4f), %d unconverged"
          % (args.workload, args.seed, summary["attempted"], len(passes),
             len(summary["failed"]), len(summary["failed"]) / summary["attempted"],
             len(summary["unconverged"])))
    for k, v in metrics.items():
        count = "  (%d jobs)" % summary["attempted"] if k == "job_p50_s" else ""
        print("  %-40s %.6g %s%s" % (k, v["value"], v["unit"], count))
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": len(summary["failed"]), "metrics": reported}))
    return 0


def _bits(values):
    return None if values is None else [float(v).hex() for v in values]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
