"""Experiment CLI: config ingestion, runs, stability/lyapunov/rate reports.

Commands
--------
run        execute a discrete run or a flow integration; emit CSV + JSON
figure-bg  the five-method bilinear comparison plot (SVG + CSV)
stability  spectral/Routh stability report over a step-size grid (JSON)
lyapunov   run with Lyapunov monitors attached; decrease report (JSON + CSV)
rates      best-iterate bound margins and rate fits for a run (JSON)
catalog    list problem, method, and flow identifiers

Shared flags: --config PATH, --out DIR, --seed N, --set key=value (dotted
paths into the config, JSON-parsed values), --strict (exit 3 when the
divergence guard trips).  Exit codes: 0 success, 2 config error, 3 divergence
under --strict, 1 other runtime failure.  All failures print a single
"error: ..." line to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import flows, lyapunov, optimizers, rates, stability
from .problems import PROBLEM_IDS, BilinearGame, Operator, make_problem, random_bilinear
from .svgplot import line_plot

CSV_BASE_COLUMNS = ("step", "time", "queries", "z_norm", "dist_to_solution", "v_norm")

#: Lyapunov kinds admissible per method/flow identifier (aux-type match).
_OMEGA_KINDS = ("ogda_l", "ogda_l1", "ogda_l2", "ogda_i_l1", "ogda_i_l2")
_W_KINDS = ("ogda2_l", "ogda2_l3", "ogda2_l4", "ogda_l5")
LYAPUNOV_COMPAT = {
    "gda-hrde": _OMEGA_KINDS,
    "eg-hrde": _OMEGA_KINDS,
    "ogda-hrde": _OMEGA_KINDS,
    "la2-gda-hrde": _OMEGA_KINDS,
    "la3-gda-hrde": _OMEGA_KINDS,
    "ogda-hrde2": _W_KINDS,
    "ogda-hrde2-varstep": ("varstep_l", "ogda2_l3"),
    "ogda-s": _W_KINDS,
    "ogda-implicit": ("ogda_i_l1", "ogda_i_l2"),
}


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key path."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    problem_id: str
    problem_params: dict
    seed: int
    mode: str                    # "discrete" | "hrde"
    method_id: str
    gamma: float | None
    alpha: float
    k: int
    schedule: dict
    fp_tol: float
    fp_max_iter: int
    steps: int | None
    t_end: float | None
    dt: float | None
    record_every: int
    scheme: str
    lyapunov_kinds: list
    z0: list | None
    aux0: list | None
    csv_path: str
    json_path: str
    svg_path: str | None
    stability_section: dict = field(default_factory=dict)


def _take(mapping, key, path, default=None, required=False):
    if key in mapping:
        return mapping.pop(key)
    if required:
        raise ConfigError(f"missing required key {path}.{key}")
    return default


def _expect_type(value, types, path):
    if value is not None and not isinstance(value, types):
        names = "/".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        raise ConfigError(f"{path}: expected {names}, got {type(value).__name__}")
    return value


def _number(value, path):
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    return value


def _positive(value, path):
    if value is None:
        return None
    value = _number(value, path)
    if not value > 0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    return value


def _reject_unknown(mapping, path):
    if mapping:
        raise ConfigError(f"unknown key(s) in {path}: {', '.join(sorted(mapping))}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a UTF-8 JSON config, filling defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config(raw)


def validate_config(raw: dict) -> ExperimentConfig:
    raw = json.loads(json.dumps(raw))  # deep copy, normalize types

    problem = _expect_type(_take(raw, "problem", "config", {}), dict, "problem") or {}
    problem_id = _expect_type(_take(problem, "id", "problem", "bilinear"), str, "problem.id")
    problem_params = _expect_type(_take(problem, "params", "problem", {}), dict, "problem.params")
    seed = _expect_type(_take(problem, "seed", "problem", 0), int, "problem.seed")
    _reject_unknown(problem, "problem")

    mode = _expect_type(_take(raw, "mode", "config", "discrete"), str, "mode")
    if mode not in ("discrete", "hrde"):
        raise ConfigError(f"mode: must be 'discrete' or 'hrde', got {mode!r}")

    method = _expect_type(_take(raw, "method", "config", {}), dict, "method") or {}
    method_id = _expect_type(_take(method, "id", "method", "ogda"), str, "method.id")
    gamma = _positive(_take(method, "gamma", "method"), "method.gamma")
    alpha = _number(_take(method, "alpha", "method", 0.5), "method.alpha")
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"method.alpha: must lie in (0, 1], got {alpha}")
    k = _expect_type(_take(method, "k", "method", 2), int, "method.k")
    if k < 1:
        raise ConfigError("method.k: must be >= 1")
    schedule = _expect_type(_take(method, "schedule", "method", {}), dict, "method.schedule") or {}
    schedule = dict(schedule)
    gamma0 = _positive(schedule.pop("gamma0", 0.1), "method.schedule.gamma0")
    power = _number(schedule.pop("power", 0.6), "method.schedule.power")
    _reject_unknown(schedule, "method.schedule")
    fp_tol = _positive(_take(method, "fp_tol", "method", 1e-12), "method.fp_tol")
    fp_max_iter = _expect_type(_take(method, "fp_max_iter", "method", 200), int,
                               "method.fp_max_iter")
    _reject_unknown(method, "method")

    known_ids = optimizers.METHOD_IDS if mode == "discrete" else flows.FLOW_IDS
    if method_id not in known_ids:
        raise ConfigError(
            f"method.id: {method_id!r} is not a {mode} method; known: {', '.join(known_ids)}"
        )

    budget = _expect_type(_take(raw, "budget", "config", {}), dict, "budget") or {}
    steps = _take(budget, "steps", "budget")
    t_end = _take(budget, "t_end", "budget")
    dt = _take(budget, "dt", "budget")
    record_every = _expect_type(_take(budget, "record_every", "budget", 1), int,
                                "budget.record_every")
    if record_every < 1:
        raise ConfigError("budget.record_every: must be >= 1")
    scheme = _expect_type(_take(budget, "scheme", "budget", "rk4"), str, "budget.scheme")
    if scheme not in ("rk4", "euler"):
        raise ConfigError(f"budget.scheme: must be 'rk4' or 'euler', got {scheme!r}")
    _reject_unknown(budget, "budget")

    # Mode/field mismatches are config errors; the "required" side is
    # enforced by execute_run (report-only commands need no budget).
    if mode == "discrete":
        if t_end is not None or dt is not None:
            raise ConfigError("budget: t_end/dt apply to hrde mode only")
        if steps is not None:
            steps = _expect_type(steps, int, "budget.steps")
            if steps < 1:
                raise ConfigError("budget.steps: must be >= 1")
    else:
        if steps is not None:
            raise ConfigError("budget.steps applies to discrete mode only")
        t_end = _positive(t_end, "budget.t_end")
        dt = _positive(dt, "budget.dt")
        if t_end is not None and dt is not None:
            ratio = t_end / dt
            if abs(ratio - round(ratio)) > 1e-9 * ratio:
                raise ConfigError(f"budget.t_end: {t_end} is not a whole multiple "
                                  f"of budget.dt {dt}")

    lyap_kinds = _expect_type(_take(raw, "lyapunov", "config", []), list, "lyapunov") or []
    for kind in lyap_kinds:
        if kind not in lyapunov.KINDS:
            raise ConfigError(
                f"lyapunov: unknown kind {kind!r}; known: {', '.join(lyapunov.KINDS)}"
            )
    if lyap_kinds:
        allowed = LYAPUNOV_COMPAT.get(method_id, ())
        for kind in lyap_kinds:
            if kind not in allowed:
                raise ConfigError(
                    f"lyapunov: kind {kind!r} is not defined for method {method_id!r}"
                    + (f"; allowed: {', '.join(allowed)}" if allowed else "")
                )

    init = _expect_type(_take(raw, "init", "config", {}), dict, "init") or {}
    z0 = _expect_type(_take(init, "z0", "init"), list, "init.z0")
    aux0 = _expect_type(_take(init, "aux0", "init"), list, "init.aux0")
    _reject_unknown(init, "init")

    outputs = _expect_type(_take(raw, "outputs", "config", {}), dict, "outputs") or {}
    csv_path = _expect_type(_take(outputs, "csv", "outputs", "run.csv"), str, "outputs.csv")
    json_path = _expect_type(_take(outputs, "json", "outputs", "run.json"), str, "outputs.json")
    svg_path = _expect_type(_take(outputs, "svg", "outputs"), str, "outputs.svg")
    _reject_unknown(outputs, "outputs")

    stability_section = _expect_type(_take(raw, "stability", "config", {}), dict, "stability") or {}

    _reject_unknown(raw, "config")

    return ExperimentConfig(
        problem_id=problem_id, problem_params=problem_params, seed=seed,
        mode=mode, method_id=method_id, gamma=gamma, alpha=alpha, k=k,
        schedule={"gamma0": gamma0, "power": power},
        fp_tol=fp_tol, fp_max_iter=fp_max_iter,
        steps=steps, t_end=t_end, dt=dt, record_every=record_every, scheme=scheme,
        lyapunov_kinds=list(lyap_kinds), z0=z0, aux0=aux0,
        csv_path=csv_path, json_path=json_path, svg_path=svg_path,
        stability_section=stability_section,
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _default_z0(op: Operator) -> np.ndarray:
    return np.ones(op.dim) / np.sqrt(op.dim)


def _gamma_schedule_fn(cfg: ExperimentConfig):
    gamma0, power = cfg.schedule["gamma0"], cfg.schedule["power"]
    return lambda t: gamma0 * (1.0 + t) ** (-power)


def _monitors(cfg: ExperimentConfig, op: Operator):
    if not cfg.lyapunov_kinds:
        return {}
    mons = {}
    gamma = cfg.gamma
    if cfg.method_id == "ogda-hrde2-varstep":
        gamma_fn = _gamma_schedule_fn(cfg)
        beta_fn = lambda t: 2.0 / gamma_fn(t)  # noqa: E731
        for kind in cfg.lyapunov_kinds:
            mons[f"lyap_{kind}"] = lyapunov.make_monitor(kind, op, beta_fn=beta_fn)
        return mons
    beta = 2.0 / gamma if gamma else None
    kappa = 1.0 / gamma if gamma else None
    for kind in cfg.lyapunov_kinds:
        mons[f"lyap_{kind}"] = lyapunov.make_monitor(
            kind, op, beta=beta, kappa=kappa, gamma=gamma
        )
    return mons


def execute_run(cfg: ExperimentConfig):
    """Build the problem and run/integrate per the config; returns
    (operator, trajectory)."""
    op = make_problem(cfg.problem_id, cfg.problem_params, cfg.seed)
    needs_gamma = cfg.method_id not in ("ogda-varstep", "ogda-hrde2-varstep", "gda-ode")
    if needs_gamma and cfg.gamma is None:
        raise ConfigError(f"method.gamma: required for method {cfg.method_id!r}")
    if cfg.mode == "discrete" and cfg.steps is None:
        raise ConfigError("budget.steps: required in discrete mode")
    if cfg.mode == "hrde" and (cfg.t_end is None or cfg.dt is None):
        raise ConfigError("budget: hrde mode requires t_end and dt")
    z0 = _default_z0(op) if cfg.z0 is None else np.asarray(cfg.z0, dtype=float)
    if z0.shape != (op.dim,):
        raise ConfigError(f"init.z0: expected {op.dim} entries, got {z0.shape}")
    monitors = _monitors(cfg, op)

    if cfg.mode == "discrete":
        kind = optimizers.make_method(
            cfg.method_id, gamma=cfg.gamma, alpha=cfg.alpha, k=cfg.k,
            gamma0=cfg.schedule["gamma0"], power=cfg.schedule["power"],
            fp_tol=cfg.fp_tol, fp_max_iter=cfg.fp_max_iter,
        )
        return op, optimizers.run(op, kind, z0, cfg.steps, extra_metrics=monitors,
                                  record_every=cfg.record_every)

    kappa_fn = None
    if cfg.method_id == "ogda-hrde2-varstep":
        gamma_fn = _gamma_schedule_fn(cfg)
        kappa_fn = lambda t: 1.0 / gamma_fn(t)  # noqa: E731
    kind = flows.make_flow(cfg.method_id, gamma=cfg.gamma, alpha=cfg.alpha, kappa_fn=kappa_fn)
    if cfg.aux0 is not None:
        aux0 = np.asarray(cfg.aux0, dtype=float)
        if aux0.shape != (op.dim,):
            raise ConfigError(f"init.aux0: expected {op.dim} entries, got {aux0.shape}")
    elif isinstance(kind, flows.VariableStepFlow):
        # The constant-kappa flow starts from the configured gamma itself:
        # 1/kappa(0) = 1/(1/gamma) can differ from gamma in the last bit.
        gamma_start = cfg.gamma if cfg.method_id == "ogda-hrde2" else 1.0 / kind.kappa_fn(0.0)
        aux0 = flows.ogda2_w_from_omega(op, z0, np.zeros(op.dim), gamma_start)
    else:
        aux0 = np.zeros(op.dim)
    icfg = flows.IntegratorConfig(cfg.scheme, cfg.dt, cfg.t_end, cfg.record_every)
    traj = flows.integrate(kind, op, z0, aux0, icfg, extra_metrics=monitors)
    return op, traj


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

def _g17(x) -> str:
    return format(float(x), ".17g")


def trajectory_csv(traj) -> str:
    """Fixed-schema CSV: step,time,queries,z_norm,dist_to_solution,v_norm
    plus one lyap_<kind> column per attached monitor."""
    lyap_cols = [name for name in traj.metrics if name.startswith("lyap_")]
    header = ",".join(CSV_BASE_COLUMNS + tuple(lyap_cols))
    lines = [header]
    for i in range(len(traj)):
        row = [
            str(int(traj.steps[i])),
            _g17(traj.times[i]),
            str(int(traj.queries[i])),
            _g17(traj.metric("z_norm")[i]),
            _g17(traj.metric("dist_to_solution")[i]),
            _g17(traj.metric("v_norm")[i]),
        ]
        row.extend(_g17(traj.metric(c)[i]) for c in lyap_cols)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _finite_or_none(x):
    x = float(x)
    return x if np.isfinite(x) else None


def run_summary(traj) -> dict:
    # Non-finite finals (NaN-padded diverged runs) map to null so the JSON
    # stays portable.
    return {
        "method": traj.method,
        "problem": traj.problem,
        "records": len(traj),
        "queries": int(traj.queries[-1]),
        "final_dist_to_solution": _finite_or_none(traj.metric("dist_to_solution")[-1]),
        "final_v_norm": _finite_or_none(traj.metric("v_norm")[-1]),
        "diverged": bool(traj.diverged),
    }


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_run(cfg: ExperimentConfig, out_dir: Path):
    op, traj = execute_run(cfg)
    _write(out_dir / cfg.csv_path, trajectory_csv(traj))
    _write(out_dir / cfg.json_path, _dump_json(run_summary(traj)))
    return traj


FIGURE_METHODS = ("gda", "eg", "ogda", "la2-gda", "la3-gda")


def cmd_figure_bg(gamma, steps, seed, out_svg: Path, out_csv: Path = None,
                  alpha=0.25, scale=4.0):
    """Five-method distance-vs-queries comparison on one seeded 1x1 game.

    The drawn game is rescaled so its singular value equals ``scale`` (LA2-GDA
    needs alpha < 1/2 to converge on bilinear games, and with the conventional
    gamma the unit-scale game is too slow to show the split; see README).
    """
    if not 0 < gamma < math.inf:
        raise ConfigError("figure-bg: gamma must be positive and finite")
    if steps < 1:
        raise ConfigError("figure-bg: steps must be >= 1")
    base = random_bilinear(seed, 1, 1, 0.1)
    game = BilinearGame(base.A * (scale / base.sigma_min))
    z0 = np.array([1.0, 0.0])

    series = []
    rows = []
    for label in FIGURE_METHODS:
        if label.startswith("la"):
            kind = optimizers.LookaheadGDA(gamma, k=int(label[2]), alpha=alpha)
        else:
            kind = optimizers.make_method(label, gamma=gamma)
        traj = optimizers.run(game, kind, z0, steps, problem_label="bilinear-figure")
        dist = traj.metric("dist_to_solution")
        series.append((label, traj.queries, dist))
        for i in range(len(traj)):
            rows.append((label, int(traj.steps[i]), int(traj.queries[i]), dist[i]))

    csv_lines = ["method,step,queries,dist_to_solution"]
    csv_lines += [f"{m},{s},{q},{_g17(d)}" for m, s, q, d in rows]
    if out_csv is not None:
        _write(out_csv, "\n".join(csv_lines) + "\n")
    svg = line_plot(
        series,
        title=f"bilinear game: distance to optimum (gamma={gamma:g}, alpha={alpha:g})",
        x_label="cumulative gradient queries",
        y_label="distance to optimum",
        log_y=True,
    )
    _write(out_svg, svg)
    return series


def cmd_stability(cfg: ExperimentConfig, out_dir: Path):
    op = make_problem(cfg.problem_id, cfg.problem_params, cfg.seed)
    if not isinstance(op, BilinearGame):
        raise ConfigError("stability: problem must be a bilinear game")
    section = dict(cfg.stability_section)
    methods = section.pop("methods", list(stability.STABILITY_METHODS))
    gammas = section.pop("gammas", [0.01, 0.1, 1.0, 10.0])
    alphas = section.pop("alphas", [0.25])
    _reject_unknown(section, "stability")

    entries = []
    for method in methods:
        if method not in stability.STABILITY_METHODS:
            raise ConfigError(f"stability.methods: unknown method {method!r}")
        for gamma in gammas:
            for alpha in (alphas if method.startswith("la") else [None]):
                v = stability.classify_method(method, op, gamma, alpha)
                entry = {
                    "method": method,
                    "gamma": gamma,
                    "alpha": alpha,
                    "spectral_abscissa": v.spectral_abscissa,
                    "verdict": v.verdict,
                    "agrees": v.agrees,
                }
                if v.routh is not None:
                    entry["routh_first_columns"] = [r.first_column.tolist() for r in v.routh]
                entries.append(entry)
    payload = {"problem": op.label, "entries": entries}
    _write(out_dir / cfg.json_path, _dump_json(payload))
    return payload


def cmd_lyapunov(cfg: ExperimentConfig, out_dir: Path, tol_abs=1e-7, tol_rel=1e-9):
    if not cfg.lyapunov_kinds:
        raise ConfigError("lyapunov: config must list at least one kind")
    op, traj = execute_run(cfg)
    report = {}
    for kind in cfg.lyapunov_kinds:
        values = traj.metric(f"lyap_{kind}")
        check = lyapunov.continuous_decrease_check(values, tol_abs, tol_rel)
        report[kind] = {
            "violations": check.violations,
            "max_increase": check.max_increase,
            "initial": float(values[0]),
            "final": float(values[-1]),
        }
    _write(out_dir / cfg.csv_path, trajectory_csv(traj))
    payload = {"run": run_summary(traj), "lyapunov": report}
    _write(out_dir / cfg.json_path, _dump_json(payload))
    return payload


def cmd_rates(cfg: ExperimentConfig, out_dir: Path, tail_fraction=0.5):
    op, traj = execute_run(cfg)
    vn = traj.metric("v_norm")
    zn = traj.metric("z_norm")
    times = traj.times

    payload = {"run": run_summary(traj)}
    positive = vn[1:] > 0
    if np.all(positive) and times[-1] > 0:
        fit = rates.fit_power_law(np.maximum(times[1:], times[1]), vn[1:], tail_fraction)
        payload["exponent"] = fit.exponent
    else:
        payload["exponent"] = None
    mu = op.strong_mu if op.strong_mu else None
    beta = 2.0 / cfg.gamma if cfg.gamma else None
    if np.all(zn[1:] > 0):
        gfit = rates.fit_geometric(times[1:], zn[1:], tail_fraction, mu=mu, beta=beta)
        payload["rho_hat"] = gfit.rho_hat
        payload["rho_theory"] = gfit.rho_theory
    else:
        payload["rho_hat"] = None
        payload["rho_theory"] = None
    if (cfg.mode == "discrete" and cfg.method_id == "ogda" and op.lipschitz
            and cfg.gamma <= 1.0 / (16.0 * op.lipschitz) + 1e-15):
        z0_norm = float(zn[0])
        margins = rates.best_iterate_bound_check(vn, cfg.gamma, op.lipschitz, z0_norm)
        payload["bound_margins"] = {
            "min": float(margins.min()),
            "all_nonnegative": bool(np.all(margins >= 0)),
        }
    else:
        payload["bound_margins"] = None
    _write(out_dir / cfg.json_path, _dump_json(payload))
    return payload


def cmd_catalog() -> str:
    lines = ["problems:"]
    lines += [f"  {pid}" for pid in PROBLEM_IDS]
    lines.append("discrete methods:")
    lines += [f"  {mid}" for mid in optimizers.METHOD_IDS]
    lines.append("flows (hrde mode):")
    lines += [f"  {fid}" for fid in flows.FLOW_IDS]
    lines.append("lyapunov kinds:")
    lines += [f"  {kind}" for kind in lyapunov.KINDS]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _apply_override(raw: dict, assignment: str):
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    key, value = assignment.split("=", 1)
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {key}: {part} is not an object")
    node[parts[-1]] = parsed


def _load_config(args) -> ExperimentConfig:
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        raw = json.loads(text) if text.strip() else {}
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    else:
        raw = {}
    for assignment in args.set or []:
        _apply_override(raw, assignment)
    if args.seed is not None:
        raw.setdefault("problem", {})["seed"] = args.seed
    return validate_config(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddleflow",
        description="saddle-point optimizer experiments: runs, stability, lyapunov, rates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--seed", type=int, default=None, help="override problem.seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when the divergence guard trips")

    for name in ("run", "stability", "lyapunov", "rates"):
        common(sub.add_parser(name))

    fig = sub.add_parser("figure-bg")
    common(fig)
    fig.add_argument("--gamma", type=float, default=0.05)
    fig.add_argument("--steps", type=int, default=2000)
    fig.add_argument("--alpha", type=float, default=0.25)
    fig.add_argument("--svg", default="figure_bg.svg")
    fig.add_argument("--csv", default="figure_bg.csv")

    sub.add_parser("catalog")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "catalog":
            sys.stdout.write(cmd_catalog())
            return 0
        out_dir = Path(args.out)
        if args.command == "figure-bg":
            seed = args.seed if args.seed is not None else 0
            cmd_figure_bg(args.gamma, args.steps, seed, out_dir / args.svg,
                          out_dir / args.csv, alpha=args.alpha)
            return 0
        cfg = _load_config(args)
        if args.command == "stability":
            cmd_stability(cfg, out_dir)
            return 0
        if args.command == "run":
            diverged = cmd_run(cfg, out_dir).diverged
        elif args.command == "lyapunov":
            diverged = cmd_lyapunov(cfg, out_dir)["run"]["diverged"]
        elif args.command == "rates":
            diverged = cmd_rates(cfg, out_dir)["run"]["diverged"]
        else:
            raise ConfigError(f"unknown command {args.command!r}")
        if diverged and args.strict:
            sys.stderr.write("error: divergence guard tripped (--strict)\n")
            return 3
        return 0
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - single-line machine-parsable failure
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
