"""Run the benchmark over ten seeds and summarize it as one JSON file.

    python3 perfbench/collect.py --out perfbench/baseline.json

For every workload it runs ``run.py --trace 0`` once per seed in ``SEEDS``
and ``--trace 1`` once, on the first seed, one process at a time, for the
``run_seconds`` that BENCHMARK.json gives.  It records each run's metrics
and, per metric, the median and the quartile spread (Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives them.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = tuple(range(1, 11))

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return env, json.loads(lines[-1])


def summarize(runs):
    values = {}
    for run in runs:
        for name, m in run["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, v in values.items():
        median = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], None, v[0])
        out[name] = {"median": median, "spread": (q3 - q1) / median if median else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    result = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace, run_seeds in ((0, SEEDS), (1, SEEDS[:1])):
            runs = []
            for seed in run_seeds:
                env, out = run_once(workload, seed, seconds, trace)
                result["environment"] = env
                runs.append({"seed": seed, **out})
                print(f"{workload} trace={trace} seed={seed} correct={out['correct']} "
                      f"failed={out['failed']}/{out['attempted']}", flush=True)
            entry["traced" if trace else "untraced"] = {"summary": summarize(runs),
                                                        "runs": runs}
        result["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for workload, entry in result["workloads"].items():
        for name, s in entry["untraced"]["summary"].items():
            print(f"{workload:18s} {name:14s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
