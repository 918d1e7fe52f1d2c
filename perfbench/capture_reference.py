"""Regenerate reference.json: the outcome of every job any seed can draw.

Run from a checkout root at the commit whose behaviour is the reference:
    python3 perfbench/capture_reference.py

Each job also has to pass the reference-free checks of oracle.py, so a
capture from a broken tree is refused instead of stored.
"""
import json
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads

run._load_library()

import jobs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def capture(workload, scale, tmp: Path) -> dict:
    entries = {}
    pairs = {}
    for i, job in enumerate(workloads.all_jobs(workload, scale)):
        job_dir = tmp / workload / scale / f"{i:04d}"
        argv = jobs.prepare(job, job_dir)
        outcome = jobs.collect(job, jobs.execute(job, argv), job_dir)
        entry = {"template": job["template"], "variant": job["variant"],
                 "values": outcome["values"], "digests": outcome["digests"]}
        problems = oracle.check_job(job, outcome, {job["key"]: entry})
        if job.get("pair"):
            if job["pair"] in pairs:
                problems += oracle.check_ogda_pair(pairs.pop(job["pair"]), outcome)
            else:
                pairs[job["pair"]] = outcome
        if problems:
            sys.exit(f"error: {workload}/{scale} {job['template']} variant "
                     f"{job['variant']} fails its checks: {problems}")
        entries[job["key"]] = entry
    if pairs:
        sys.exit(f"error: unmatched ogda/ogda-s pairs {sorted(pairs)}")
    return entries


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            reference[workload] = {}
            for scale in workloads.SCALES:
                reference[workload].update(capture(workload, scale, Path(tmp)))
                print(f"{workload}/{scale}: {len(reference[workload])} jobs so far")
    # One job per line keeps the file diffable.
    lines = []
    for workload, entries in reference.items():
        body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                          for k, v in sorted(entries.items()))
        lines.append(f"{json.dumps(workload)}: {{\n{body}\n}}")
    with open(oracle.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
