"""Compare two sets of benchmark results under the bounds in BENCHMARK.json.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds results files written by ``bench/run.py --results DIR``.
For every workload and end-to-end metric (untraced runs) the command prints
each side's median and quartiles and one verdict:

- unresolved: either side's spread (q3 - q1, over the median) exceeds the
  metric's bound, unless every new run beats every base run (then better);
- worse: the new median is worse than the base median by more than the bound;
- better: the new median beats the base median by more than the base's own
  quartile distance, and the new run wins at least nine tenths of the
  seed-matched pairs (ties count for neither side);
- unchanged: otherwise.

Every layer metric in the traced runs' results files is listed with its
medians only; layer metrics carry no bound.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """{(workload, trace): {seed: metrics}} from one results directory."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            res = json.load(fh)
        host = res["host"]
        runs.setdefault((host["workload"], host["trace"]), {})[host["seed"]] = {
            k: v["value"] for k, v in res["metrics"].items()}
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y):
        return sign * (x - y) < 0.0

    q1b, mb, q3b = quartiles(list(base.values()))
    q1n, mn, q3n = quartiles(list(new.values()))
    every = all(beats(x, y) for x in new.values() for y in base.values())
    if max((q3b - q1b) / abs(mb), (q3n - q1n) / abs(mn)) > bound:
        return "better" if every else "unresolved"
    if sign * (mn - mb) / abs(mb) > bound:
        return "worse"
    pairs = [(new[s], base[s]) for s in new.keys() & base.keys()]
    decided = [beats(x, y) for x, y in pairs if x != y]
    wins = sum(decided) >= 0.9 * len(pairs) if pairs else every
    if sign * (mb - mn) > q3b - q1b and wins:
        return "better"
    return "unchanged"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load(argv[0]), load(argv[1])
    row = "%-15s %-40s %34s %34s  %s"
    print(row % ("workload", "metric", "base median [q1, q3] (n)",
                 "new median [q1, q3] (n)", "verdict"))

    def side(runs, name):
        vals = [m[name] for m in runs.values() if name in m]
        if not vals:
            return "-", {}
        q1, med, q3 = quartiles(vals)
        return ("%.5g [%.5g, %.5g] (%d)" % (med, q1, q3, len(vals)),
                {s: m[name] for s, m in runs.items() if name in m})

    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            b_runs, n_runs = base.get((w, trace), {}), new.get((w, trace), {})
            if not b_runs and not n_runs:
                continue
            # traced runs: every layer metric found in the results files
            names = {k: None for runs in (b_runs, n_runs)
                     for m in runs.values() for k in m}
            metrics = spec["end_to_end"] if trace == 0 else [{"name": k} for k in names]
            for m in metrics:
                b_txt, b_vals = side(b_runs, m["name"])
                n_txt, n_vals = side(n_runs, m["name"])
                v = "-"
                if "bound" in m and b_vals and n_vals:
                    v = verdict(b_vals, n_vals, m["better"], m["bound"])
                print(row % (w, m["name"], b_txt, n_txt, v))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
