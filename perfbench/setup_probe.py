"""Set-up of one workload in a fresh interpreter: import ``saddleflow.cli``,
validate every config of the job list, build every operator, exit.

run.py times this script from outside (``setup_s``).  Usage:
    python3 perfbench/setup_probe.py SRC_DIR JOBS_JSON
"""
import json
import sys

sys.path.insert(0, sys.argv[1])

from saddleflow import cli, problems  # noqa: E402


def main(jobs_path):
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    specs = {}
    for job in jobs:
        if "config" in job:
            cfg = cli.validate_config(job["config"])
            spec = {"id": cfg.problem_id, "params": cfg.problem_params, "seed": cfg.seed}
            specs[json.dumps(spec, sort_keys=True)] = spec
        for spec in job["problems"]:
            specs[json.dumps(spec, sort_keys=True)] = spec
    for spec in specs.values():
        problems.make_problem(spec["id"], spec.get("params"), spec.get("seed", 0))


if __name__ == "__main__":
    main(sys.argv[2])
