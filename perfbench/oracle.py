"""Correctness oracle: stored references plus reference-free checks.

``reference.json`` maps each job key to the outcome captured at the seed
commit (see ``capture_reference.py``).  Floats are compared at a relative
tolerance, not by bytes, so a fast path that reorders floating-point
arithmetic still passes; flags, verdicts and counts must match exactly.
Output digests are compared separately and never fail a job: they feed
the informational ``cli.outputs_identical_frac``.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-6
ABS_TOL = 1e-12

#: (z, omega) vs (z, w) optimistic flows: sup-norm state gap (criterion 5).
PAIR_FLOW_TOL = 1e-6
#: One- vs two-variable OGDA: recorded sequences agree (criterion 4).
PAIR_OGDA_TOL = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compare(ref, got, path="") -> list:
    """Mismatches between a stored and a fresh outcome, as readable strings."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(got)} != reference {sorted(ref)}"]
        out = []
        for k in ref:
            out += compare(ref[k], got[k], f"{path}.{k}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != reference {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, f"{path}[{i}]")
        return out
    if isinstance(ref, float) and isinstance(got, float):
        if math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != reference {ref!r}"]
    if type(ref) is type(got) and ref == got:
        return []
    return [f"{path}: {got!r} != reference {ref!r}"]


def check_job(job, outcome, reference) -> list:
    """Every reason this job's outcome is wrong; empty when it is right."""
    problems = []
    if job["kind"] == "cli":
        if outcome["rc"] != job["expect_rc"]:
            problems.append(f"exit code {outcome['rc']} (expected {job['expect_rc']}): "
                            f"{outcome['stderr'].strip()[-200:]}")
        if outcome["missing"]:
            problems.append(f"missing outputs {outcome['missing']}")
        if problems:
            return problems
    values = outcome["values"]
    entry = reference.get(job["key"])
    if entry is None:
        problems.append("no stored reference for this job")
    else:
        problems += compare(entry["values"], values, "values")
    expect = job["expect"]
    if "diverged" in expect and values.get("diverged") is not expect["diverged"]:
        problems.append(f"diverged is {values.get('diverged')}, expected {expect['diverged']}")
    if expect.get("nan_tail"):
        z = outcome["series"]["z_norm"]
        if not (np.isnan(z[-1]) and values["final_dist_to_solution"] is None):
            problems.append("divergence guard trip did not NaN-pad the tail")
    if "0" in values.get("agrees", ""):
        problems.append("a stability verdict disagrees with the eigensolver")
    gap = outcome["series"].get("pair_gap")
    if gap is not None and not gap <= PAIR_FLOW_TOL:
        problems.append(f"ogda-hrde vs ogda-hrde2 state gap {gap:.3e} > {PAIR_FLOW_TOL:g}")
    return problems


def check_ogda_pair(a, b) -> list:
    """One-variable ``ogda`` and two-variable ``ogda-s`` record the same sequence."""
    out = []
    for name in ("z_norm", "dist_to_solution"):
        x, y = a["series"][name], b["series"][name]
        gap = float(np.max(np.abs(x - y))) if x.shape == y.shape else math.inf
        if not gap <= PAIR_OGDA_TOL * max(1.0, float(np.max(np.abs(x)))):
            out.append(f"ogda vs ogda-s {name} gap {gap:.3e} > {PAIR_OGDA_TOL:g}")
    return out


def identical_outputs(job, outcome, reference):
    """(files matching the seed digests, files written) for one job."""
    entry = reference.get(job["key"])
    digests = outcome["digests"]
    if entry is None:
        return 0, len(digests)
    ref = entry.get("digests", {})
    return sum(1 for k, v in digests.items() if ref.get(k) == v), len(digests)
