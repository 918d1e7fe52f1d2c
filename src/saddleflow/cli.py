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
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import flows, lyapunov, optimizers, rates, stability
from .problems import PROBLEM_IDS, BilinearGame, Operator, make_problem, random_bilinear
from .svgplot import line_plot

CSV_BASE_COLUMNS = ("step", "time", "queries", "z_norm", "dist_to_solution", "v_norm")

#: Lyapunov scales a row supplies, by the arguments it reads: a constant
#: gamma gives beta = 2/gamma, kappa = 1/gamma and gamma; a gamma(t)
#: schedule (a kappa_fn flow) gives beta(t) only.
_SUPPLIED_SCALES = {"gamma": ("beta", "kappa", "gamma"), "kappa_fn": ("beta(t)",)}


def _row(mode, method_id):
    """(aux variable, the arguments it reads) of a method or flow row: the
    descriptor's fields, or the flow builder's parameters."""
    if mode == "hrde":
        return flows._FLOWS[method_id][0], flows.FLOW_READS[method_id]
    row = optimizers._METHODS[method_id]
    return row.aux_var, tuple(f.name for f in fields(row.descriptor))


#: Lyapunov kinds admissible per method/flow identifier: those on the row's
#: aux variable, allowed in its mode, and needing no scale or one it supplies.
LYAPUNOV_COMPAT = {
    method_id: kinds
    for mode, ids in (("hrde", flows.FLOW_IDS), ("discrete", optimizers.METHOD_IDS))
    for method_id in ids
    for aux_var, reads in [_row(mode, method_id)]
    for scales in [[s for arg in reads for s in _SUPPLIED_SCALES.get(arg, ())]]
    if (kinds := tuple(kind for kind, k in lyapunov.KINDS.items()
                       if k.aux_var == aux_var and (k.discrete or mode == "hrde")
                       and k.scale in (None, *scales)))
}


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key path."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _typed(types, name):
    """Values of ``types``; no key takes a boolean, so booleans are not numbers."""
    def check(value, path):
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected {name}, got {type(value).__name__}")
        return value
    return check


_is_dict, _is_list, _is_str = _typed(dict, "dict"), _typed(list, "list"), _typed(str, "str")
_is_int, _is_number = _typed(int, "int"), _typed((int, float), "a number")


def _number(value, path):
    value = float(_is_number(value, path))
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    return value


def _bounded(base, ok, rule):
    """The check ``base``, then the test ``ok``; ``rule`` names what it requires."""
    def check(value, path):
        value = base(value, path)
        if not ok(value):
            raise ConfigError(f"{path}: {rule}, got {value!r}")
        return value
    return check


_positive = _bounded(_number, lambda x: x > 0, "must be positive")
_unit_interval = _bounded(_number, lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]")


def _int_at_least(low):
    return _bounded(_is_int, lambda n: n >= low, f"must be >= {low}")


def _one_of(choices):
    return _bounded(_is_str, lambda s: s in choices, f"must be one of {', '.join(choices)}")


def _list_of(check):
    """A list whose entries pass ``check``, kept as given for the reports."""
    def check_list(value, path):
        for i, item in enumerate(_is_list(value, path)):
            check(item, f"{path}[{i}]")
        return value
    return check_list


def _vector(value, path):
    """A list of numbers, returned as a finite float array."""
    if not (isinstance(value, list) and set(map(type, value)) <= {int, float}):
        raise ConfigError(f"{path}: expected a list of numbers")
    value = np.asarray(value, dtype=float)
    if not np.isfinite(value).all():
        raise ConfigError(f"{path}: entries must be finite")
    return value


#: Every config key: section -> key -> (attribute, check, default), or a
#: nested section.  An absent key and an explicit null take the default.
#: Cross-key checks (method.id and budget vs mode, lyapunov vs method.id) follow.
CONFIG_KEYS = {
    "problem": {
        "id": ("problem_id", _one_of(PROBLEM_IDS), "bilinear"),
        # Checked by make_problem, which owns the parameter names (_build_problem).
        "params": ("problem_params", _is_dict, {}),
        "seed": ("seed", _int_at_least(0), 0),
    },
    "mode": ("mode", _one_of(("discrete", "hrde")), "discrete"),
    "method": {
        "id": ("method_id", _is_str, "ogda"),
        "gamma": ("gamma", _positive, None),
        "alpha": ("alpha", _unit_interval, 0.5),
        "k": ("k", _int_at_least(1), 2),
        "schedule": {
            "gamma0": ("gamma0", _positive, 0.1),
            "power": ("power", _number, 0.6),
        },
        "fp_tol": ("fp_tol", _positive, 1e-12),
        "fp_max_iter": ("fp_max_iter", _int_at_least(1), 200),
    },
    "budget": {
        "steps": ("steps", _int_at_least(1), None),
        "t_end": ("t_end", _positive, None),
        "dt": ("dt", _positive, None),
        "record_every": ("record_every", _int_at_least(1), 1),
        "scheme": ("scheme", _one_of(tuple(flows.SCHEMES)), "rk4"),
    },
    "lyapunov": ("lyapunov_kinds", _list_of(_one_of(tuple(lyapunov.KINDS))), ()),
    "init": {
        "z0": ("z0", _vector, None),
        "aux0": ("aux0", _vector, None),
    },
    "outputs": {
        "csv": ("csv_path", _is_str, "run.csv"),
        "json": ("json_path", _is_str, "run.json"),
    },
    "stability": {
        "methods": ("stability_methods", _list_of(_one_of(stability.STABILITY_METHODS)),
                    stability.STABILITY_METHODS),
        "gammas": ("stability_gammas", _list_of(_positive), (0.01, 0.1, 1.0, 10.0)),
        "alphas": ("stability_alphas", _list_of(_unit_interval), (0.25,)),
    },
}


#: Method keys accepted on a row that never reads them: perfbench's
#: flow-rk4 workload sets method.gamma on every constant flow, gda-ode
#: included (ROADMAP item 6).
_UNREAD_ACCEPTED = {"gda-ode": ("gamma",)}

#: The keys that the stability command reads; it rejects every other given key.
STABILITY_READS = ("problem.", "stability.", "outputs.json")


def _walk(table, section, prefix, cfg, given):
    """Check ``section`` into ``cfg``; ``given`` maps each non-null key's attribute to its path."""
    where = prefix[:-1] or "config"
    section = {} if section is None else _is_dict(section, where)
    unknown = section.keys() - table.keys()
    if unknown:
        raise ConfigError(f"{prefix}{min(unknown)}: unknown key in {where}; "
                          f"known: {', '.join(table)}")
    for key, row in table.items():
        value = section.get(key)
        if isinstance(row, dict):
            _walk(row, value, f"{prefix}{key}.", cfg, given)
        elif value is None:
            setattr(cfg, row[0], row[2])
        else:
            setattr(cfg, row[0], row[1](value, prefix + key))
            given[row[0]] = prefix + key


def _parse_json_object(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def parse_config(text: str) -> SimpleNamespace:
    """Parse and validate a UTF-8 JSON config, filling defaults."""
    return validate_config(_parse_json_object(text))


def validate_config(raw: dict, command="run") -> SimpleNamespace:
    """Check ``raw`` against CONFIG_KEYS for the CLI ``command`` that reads
    it; returns one attribute per key."""
    cfg, given = SimpleNamespace(), {}
    _walk(CONFIG_KEYS, raw, "", cfg, given)
    if command == "stability":
        for path in given.values():
            if not path.startswith(STABILITY_READS):
                raise ConfigError(f"{path}: not read by the stability command, which "
                                  "reads only problem.*, stability.* and outputs.json")

    known_ids = optimizers.METHOD_IDS if cfg.mode == "discrete" else flows.FLOW_IDS
    if cfg.method_id not in known_ids:
        raise ConfigError(f"method.id: {cfg.method_id!r} is not a {cfg.mode} method; "
                          f"known: {', '.join(known_ids)}")
    aux_var, reads = _row(cfg.mode, cfg.method_id)
    # A kappa_fn flow is built from the method.schedule gamma(t).
    schedule = ("gamma0", "power") if "kappa_fn" in reads else ()
    for attr, path in given.items():
        if path.startswith("method.") and attr not in (
                "method_id", *reads, *schedule, *_UNREAD_ACCEPTED.get(cfg.method_id, ())):
            raise ConfigError(f"{path}: not read by {cfg.mode} method {cfg.method_id!r}")

    # Mode/field mismatches are config errors; the "required" side is
    # enforced by execute_run (report-only commands need no budget).
    if cfg.aux0 is not None and cfg.mode == "discrete":
        raise ConfigError("init.aux0: discrete methods seed their own memory from init.z0")
    if cfg.aux0 is not None and aux_var is None:
        raise ConfigError(f"init.aux0: flow {cfg.method_id!r} has no aux variable to seed")
    if cfg.mode == "discrete":
        if cfg.t_end is not None or cfg.dt is not None:
            raise ConfigError("budget: t_end/dt apply to hrde mode only")
    elif cfg.steps is not None:
        raise ConfigError("budget.steps applies to discrete mode only")
    elif cfg.t_end is not None and cfg.dt is not None:
        ratio = cfg.t_end / cfg.dt
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ConfigError(f"budget.t_end: {cfg.t_end} is not a whole multiple "
                              f"of budget.dt {cfg.dt}")

    allowed = LYAPUNOV_COMPAT.get(cfg.method_id, ())
    for kind in cfg.lyapunov_kinds:
        if kind not in allowed:
            raise ConfigError(
                f"lyapunov: kind {kind!r} is not defined for method {cfg.method_id!r}"
                + (f"; allowed: {', '.join(allowed)}" if allowed else "")
            )
    return cfg


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _monitors(cfg: SimpleNamespace, op: Operator, gamma_fn):
    """One monitor per kind on the run's t -> gamma.  Only constant-step rows
    admit kinds with a constant scale, so those read it at t = 0."""
    mons = {}
    gamma = gamma_fn(0.0)
    for kind in cfg.lyapunov_kinds:
        mons[f"lyap_{kind}"] = lyapunov.make_monitor(
            kind, op, beta=2.0 / gamma, kappa=1.0 / gamma, gamma=gamma,
            beta_fn=lambda t: 2.0 / gamma_fn(t))
    return mons


def _build_problem(cfg: SimpleNamespace) -> Operator:
    try:
        return make_problem(cfg.problem_id, cfg.problem_params, cfg.seed)
    except (ValueError, RuntimeError) as exc:
        # RuntimeError: random_bilinear found no draw meeting sigma_min.
        raise ConfigError(f"problem.params: {exc}") from None


def execute_run(cfg: SimpleNamespace):
    """Build the problem and run/integrate per the config; returns
    (operator, trajectory)."""
    op = _build_problem(cfg)
    aux_var, reads = _row(cfg.mode, cfg.method_id)
    if "gamma" in reads and cfg.gamma is None:
        raise ConfigError(f"method.gamma: required for method {cfg.method_id!r}")
    if cfg.mode == "discrete" and cfg.steps is None:
        raise ConfigError("budget.steps: required in discrete mode")
    if cfg.mode == "hrde" and (cfg.t_end is None or cfg.dt is None):
        raise ConfigError("budget: hrde mode requires t_end and dt")
    for key in ("z0", "aux0"):
        vector = getattr(cfg, key)
        if vector is not None and vector.shape != (op.dim,):
            raise ConfigError(f"init.{key}: expected {op.dim} entries, got {vector.size}")
    z0 = np.ones(op.dim) / np.sqrt(op.dim) if cfg.z0 is None else cfg.z0
    gamma_fn = ((lambda t: cfg.gamma0 * (1.0 + t) ** (-cfg.power)) if "kappa_fn" in reads
                else lambda t: cfg.gamma)
    monitors = _monitors(cfg, op, gamma_fn)

    if cfg.mode == "discrete":
        kind = optimizers.make_method(
            cfg.method_id, gamma=cfg.gamma, alpha=cfg.alpha, k=cfg.k,
            gamma0=cfg.gamma0, power=cfg.power,
            fp_tol=cfg.fp_tol, fp_max_iter=cfg.fp_max_iter,
        )
        return op, optimizers.run(op, kind, z0, cfg.steps, extra_metrics=monitors,
                                  record_every=cfg.record_every)

    kappa_fn = (lambda t: 1.0 / gamma_fn(t)) if "kappa_fn" in reads else None
    kind = flows.make_flow(cfg.method_id, gamma=cfg.gamma, alpha=cfg.alpha, kappa_fn=kappa_fn)
    aux0 = np.zeros(op.dim) if cfg.aux0 is None else cfg.aux0
    if cfg.aux0 is None and aux_var == "w":
        # A constant-kappa flow starts from the configured gamma itself:
        # 1/kappa(0) = 1/(1/gamma) can differ from gamma in the last bit.
        gamma_start = cfg.gamma if kappa_fn is None else 1.0 / kappa_fn(0.0)
        aux0 = flows.ogda2_w_from_omega(op, z0, aux0, gamma_start)
    icfg = flows.IntegratorConfig(cfg.scheme, cfg.dt, cfg.t_end, cfg.record_every)
    traj = flows.integrate(kind, op, z0, aux0, icfg, extra_metrics=monitors)
    return op, traj


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

def trajectory_csv(traj) -> str:
    """Fixed-schema CSV: step,time,queries,z_norm,dist_to_solution,v_norm
    plus one lyap_<kind> column per attached monitor."""
    lyap_cols = [name for name in traj.metrics if name.startswith("lyap_")]
    header = ",".join(CSV_BASE_COLUMNS + tuple(lyap_cols))
    # Formatted column by column from Python numbers (tolist): the same text
    # as formatting each numpy scalar, in fewer calls.
    floats = [traj.times, *(traj.metric(c) for c in (*CSV_BASE_COLUMNS[3:], *lyap_cols))]
    times, *metrics = [[format(x, ".17g") for x in col.tolist()] for col in floats]
    rows = zip(map(str, traj.steps.tolist()), times, map(str, traj.queries.tolist()), *metrics)
    return "\n".join([header, *map(",".join, rows)]) + "\n"


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

def cmd_run(cfg: SimpleNamespace, out_dir: Path):
    op, traj = execute_run(cfg)
    _write(out_dir / cfg.csv_path, trajectory_csv(traj))
    _write(out_dir / cfg.json_path, _dump_json(run_summary(traj)))
    return traj


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
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"figure-bg: alpha must lie in (0, 1], got {alpha}")
    base = random_bilinear(seed, 1, 1, 0.1)
    game = BilinearGame(base.A * (scale / base.sigma_min))
    z0 = np.array([1.0, 0.0])

    series = []
    rows = []
    for label in stability.STABILITY_METHODS:
        if label.startswith("la"):
            kind = optimizers.LookaheadGDA(gamma, k=int(label[2]), alpha=alpha)
        else:
            kind = optimizers.make_method(label, gamma=gamma)
        traj = optimizers.run(game, kind, z0, steps, problem_label="bilinear-figure")
        dist = traj.metric("dist_to_solution")
        series.append((label, traj.queries, dist))
        rows += [f"{label},{s},{q},{d:.17g}" for s, q, d in
                 zip(traj.steps.tolist(), traj.queries.tolist(), dist.tolist())]

    csv_lines = ["method,step,queries,dist_to_solution", *rows]
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


def cmd_stability(cfg: SimpleNamespace, out_dir: Path):
    op = _build_problem(cfg)
    if not isinstance(op, BilinearGame):
        raise ConfigError("stability: problem must be a bilinear game")
    entries = []
    for method in cfg.stability_methods:
        for gamma in cfg.stability_gammas:
            for alpha in (cfg.stability_alphas if method.startswith("la") else [None]):
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


def cmd_lyapunov(cfg: SimpleNamespace, out_dir: Path, tol_abs=1e-7, tol_rel=1e-9):
    if not cfg.lyapunov_kinds:
        raise ConfigError("lyapunov: config must list at least one kind")
    op, traj = execute_run(cfg)
    report = {}
    for kind in cfg.lyapunov_kinds:
        values = traj.metric(f"lyap_{kind}")
        check = lyapunov.continuous_decrease_check(values, tol_abs, tol_rel)
        # Non-finite values (a diverged run) map to null, as in run_summary.
        report[kind] = {
            "violations": check.violations,
            "max_increase": _finite_or_none(check.max_increase),
            "initial": _finite_or_none(values[0]),
            "final": _finite_or_none(values[-1]),
        }
    _write(out_dir / cfg.csv_path, trajectory_csv(traj))
    payload = {"run": run_summary(traj), "lyapunov": report}
    _write(out_dir / cfg.json_path, _dump_json(payload))
    return payload


def cmd_rates(cfg: SimpleNamespace, out_dir: Path, tail_fraction=0.5):
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
    # beta = 2/gamma only where the row reads a constant gamma.
    beta = 2.0 / cfg.gamma if "gamma" in _row(cfg.mode, cfg.method_id)[1] else None
    if np.all(zn[1:] > 0):
        gfit = rates.fit_geometric(times[1:], zn[1:], tail_fraction, mu=mu, beta=beta)
        payload["rho_hat"] = gfit.rho_hat
        payload["rho_theory"] = gfit.rho_theory
    else:
        payload["rho_hat"] = None
        payload["rho_theory"] = None
    if (cfg.mode == "discrete" and optimizers._METHODS[cfg.method_id].explicit_bound
            and op.lipschitz and cfg.gamma <= 1.0 / (16.0 * op.lipschitz) + 1e-15):
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
        if node.get(part) is None:  # null reads as absent
            node[part] = {}
        node = node[part]
        if not isinstance(node, dict):
            raise ConfigError(f"--set {key}: {part} is not an object")
    node[parts[-1]] = parsed


def _load_config(args) -> SimpleNamespace:
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        raw = _parse_json_object(text) if text.strip() else {}
    else:
        raw = {}
    for assignment in args.set or []:
        _apply_override(raw, assignment)
    if args.seed is not None:
        _apply_override(raw, f"problem.seed={args.seed}")
    return validate_config(raw, args.command)


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
        else:  # rates: the parser admits no other command
            diverged = cmd_rates(cfg, out_dir)["run"]["diverged"]
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
