"""Run one benchmark job and summarize what it produced.

``prepare`` lays out a job's config and output directory (set-up, untimed),
``execute`` is the timed call into saddleflow, and ``collect`` turns the raw
result and the files the CLI wrote into an outcome: the ``values`` the
oracle compares with the stored reference, the SHA-256 ``digests`` of every
written file, and the ``series`` the reference-free checks read.

Library entry points are looked up on their modules at call time, so the
tracer's patched wrappers are the ones that run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from saddleflow import cli, flows, optimizers, problems, rates, stability

#: Files each CLI command writes with the default output names.
CLI_OUTPUTS = {
    "run": ("run.csv", "run.json"),
    "lyapunov": ("run.csv", "run.json"),
    "rates": ("run.json",),
    "stability": ("run.json",),
    "figure-bg": ("figure_bg.svg", "figure_bg.csv"),
}


def prepare(job, job_dir: Path):
    """Write the job's config file and return its CLI argv (None for library jobs)."""
    job_dir.mkdir(parents=True, exist_ok=True)
    if job["kind"] != "cli":
        return None
    out = job_dir / "out"
    argv = [job["command"]]
    if "config" in job:
        cfg_path = job_dir / "config.json"
        cfg_path.write_text(json.dumps(job["config"], indent=1), encoding="utf-8")
        argv += ["--config", str(cfg_path)]
    argv += list(job.get("argv", ())) + ["--out", str(out)]
    if job["strict"]:
        argv.append("--strict")
    return argv


def clear_outputs(job_dir: Path):
    """Remove the previous pass's outputs so a job that writes nothing fails."""
    shutil.rmtree(job_dir / "out", ignore_errors=True)


def execute(job, argv):
    """The timed part of a job.  Returns the raw result for ``collect``."""
    kind = job["kind"]
    if kind == "cli":
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, err.getvalue()
    if kind == "classify":
        return _classify(job)
    if kind == "flow_pair":
        return _flow_pair(job)
    if kind == "apt":
        return _apt(job)
    raise ValueError(f"unknown job kind {kind!r}")


def _make(spec):
    return problems.make_problem(spec["id"], spec.get("params"), spec.get("seed", 0))


def _classify(job):
    verdicts = []
    for spec in job["problems"]:
        game = _make(spec)
        for gamma in job["gammas"]:
            for method, alpha in job["cases"]:
                verdicts.append(stability.classify_method(method, game, gamma, alpha))
    return verdicts


def _flow_pair(job):
    op = _make(job["problems"][0])
    gamma = job["gamma"]
    z0, omega0 = np.array(job["z0"]), np.array(job["omega0"])
    icfg = flows.IntegratorConfig("rk4", job["dt"], job["t_end"], job["record_every"])
    a = flows.integrate(flows.make_flow("ogda-hrde", gamma=gamma), op, z0, omega0, icfg)
    w0 = flows.ogda2_w_from_omega(op, z0, omega0, gamma)
    b = flows.integrate(flows.make_flow("ogda-hrde2", gamma=gamma), op, z0, w0, icfg)
    return a, b


def _apt(job):
    op = _make(job["problems"][0])
    kind = optimizers.OGDAVariableStep(gamma0=job["gamma0"], power=job["power"])
    steps = job["steps"]
    traj = optimizers.run(op, kind, np.array(job["z0"]), steps)
    gammas = np.array([kind.step_size(n) for n in range(steps)])
    taus = rates.effective_times(gammas)
    gamma_of_t = lambda t: np.interp(t, taus[:-1], gammas)  # noqa: E731
    sups = rates.apt_window_check(traj.times, traj.states, op, gamma_of_t,
                                  T=job["horizon"], windows=job["windows"])
    return traj, sups


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

def _final(traj, name):
    x = float(traj.metric(name)[-1])
    return x if np.isfinite(x) else None


def _traj_values(traj):
    return {"final_dist_to_solution": _final(traj, "dist_to_solution"),
            "final_v_norm": _final(traj, "v_norm"),
            "diverged": bool(traj.diverged)}


def _verdict_values(entries):
    """Verdicts as one letter each (stable/unstable/marginal), agreement as 1/0."""
    return {"verdicts": "".join(e["verdict"][0] for e in entries),
            "agrees": "".join("1" if e["agrees"] else "0" for e in entries)}


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])
    return header, rows


def collect(job, raw, job_dir: Path) -> dict:
    """Summarize a finished job (untimed)."""
    kind = job["kind"]
    if kind == "classify":
        entries = [{"verdict": v.verdict, "agrees": v.agrees} for v in raw]
        return {"values": _verdict_values(entries), "digests": {}, "series": {}}
    if kind == "flow_pair":
        a, b = raw
        gap = float(np.max(np.abs(a.states - b.states)))
        values = {"final_dist_to_solution": [_final(a, "dist_to_solution"),
                                             _final(b, "dist_to_solution")],
                  "final_v_norm": [_final(a, "v_norm"), _final(b, "v_norm")],
                  "diverged": bool(a.diverged or b.diverged)}
        return {"values": values, "digests": {}, "series": {"pair_gap": gap}}
    if kind == "apt":
        traj, sups = raw
        values = _traj_values(traj)
        values["window_sups"] = [float(s) for s in sups]
        return {"values": values, "digests": {}, "series": {}}
    return _collect_cli(job, raw, job_dir / "out")


def _collect_cli(job, raw, out: Path) -> dict:
    rc, stderr = raw
    outcome = {"rc": rc, "stderr": stderr, "values": {}, "digests": {}, "series": {},
               "missing": []}
    for name in CLI_OUTPUTS[job["command"]]:
        path = out / name
        if path.is_file():
            outcome["digests"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            outcome["missing"].append(name)
    if outcome["missing"] or rc not in (0, 3):
        return outcome
    command = job["command"]
    if command == "figure-bg":
        lines = (out / "figure_bg.csv").read_text(encoding="utf-8").splitlines()[1:]
        finals = {}
        for line in lines:
            method, _, _, dist = line.split(",")
            finals[method] = float(dist)
        outcome["values"] = {"final_dist_to_solution": finals}
        return outcome
    payload = json.loads((out / "run.json").read_text(encoding="utf-8"))
    if command == "stability":
        outcome["values"] = _verdict_values(payload["entries"])
        return outcome
    summary = payload if command == "run" else payload["run"]
    values = {"final_dist_to_solution": summary["final_dist_to_solution"],
              "final_v_norm": summary["final_v_norm"],
              "diverged": summary["diverged"]}
    if command == "lyapunov":
        values["violations"] = {k: len(r["violations"]) for k, r in payload["lyapunov"].items()}
    if command == "rates":
        margins = payload["bound_margins"]
        values["bound_margin_nonnegative"] = None if margins is None else margins["all_nonnegative"]
        values["exponent"] = payload["exponent"]
        values["rho_hat"] = payload["rho_hat"]
    outcome["values"] = values
    if command == "run" and (job.get("pair") or job["expect"].get("nan_tail")):
        header, rows = _read_csv(out / "run.csv")
        outcome["series"] = {"z_norm": rows[:, header.index("z_norm") - 1],
                             "dist_to_solution": rows[:, header.index("dist_to_solution") - 1]}
    return outcome
