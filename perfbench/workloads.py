"""Seeded job lists for the three benchmark workloads.

A job is a plain dict: the CLI argv or library call it stands for, the
problems it builds, and what its result must satisfy.  Every job template
has ``POOL`` variants (problem seeds, start points, step sizes); the
workload seed only chooses which variants run and in which order, so the
stored references in ``reference.json`` cover every seed.

Sizes come in two scales: ``full`` (the measured passes) and ``tiny`` (the
benchmark's own tests).  Both are captured in the references.
"""
from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("discrete-dense", "flow-rk4", "verify-nonaffine")
SCALES = ("full", "tiny")

#: Variants per template; reference.json holds an outcome for each.
POOL = 8

DISCRETE_METHODS = ("gda", "eg", "ogda", "ogda-s", "la-gda", "ogda-varstep", "ogda-implicit")
CONSTANT_FLOWS = ("gda-hrde", "eg-hrde", "ogda-hrde", "la2-gda-hrde", "la3-gda-hrde",
                  "ogda-hrde2", "gda-ode")
STABILITY_CASES = [("gda", None), ("eg", None), ("ogda", None)] + [
    (m, a) for m in ("la2-gda", "la3-gda") for a in (0.25, 0.5, 0.75)
]


def _vrng(template, v):
    """Per-variant generator, independent of the workload seed."""
    return random.Random(f"{template}/{v}")


def _vec(rng, n, scale=1.0):
    return [round(scale * rng.gauss(0.0, 1.0), 6) for _ in range(n)]


def _pick(scale, full, tiny):
    return full if scale == "full" else tiny


def _cli(template, v, command, config=None, argv=None, problems=(), strict=False,
         expect_rc=0, expect=None, pair=None):
    job = {"template": template, "variant": v, "kind": "cli", "command": command,
           "strict": strict, "expect_rc": expect_rc, "expect": expect or {}}
    if config is not None:
        job["config"] = config
    if argv is not None:
        job["argv"] = argv
    job["problems"] = list(problems)
    if pair is not None:
        job["pair"] = pair
    return job


def _bilinear_random(d1, d2, seed, sigma_min=None):
    params = {"d1": d1, "d2": d2}
    if sigma_min is not None:
        params["sigma_min"] = sigma_min
    return {"id": "bilinear-random", "params": params, "seed": seed}


# ---------------------------------------------------------------------------
# discrete-dense: README discrete traffic at d <= 4, all through cli.main
# ---------------------------------------------------------------------------

def _dd_run(family, v, method, scale):
    # Sizes and step sizes are the same for every variant, so that the cost
    # of a pass does not depend on which variants the seed picks.
    if family == "bilinear-random":
        problem = _bilinear_random(2, 2, 100 + v)
    else:
        problem = {"id": "scaled-identity", "params": {"mu": 1.0, "dim": 4}}
    method_cfg = {"id": method, "gamma": 0.05}
    if method == "la-gda":
        method_cfg.update(alpha=0.25, k=2)
    elif method == "ogda-varstep":
        method_cfg = {"id": method, "schedule": {"gamma0": 0.05, "power": 0.6}}
    # The implicit solver's Picard count depends on the drawn game, so it runs
    # fewer steps to keep that dependence a small share of the pass.
    steps = 150 if method == "ogda-implicit" else 400
    config = {"problem": problem, "mode": "discrete", "method": method_cfg,
              "budget": {"steps": _pick(scale, steps, 15)},
              "init": {"z0": _vec(_vrng(family, v), 4)}}
    pair = f"ogda-pair/{family}/{v}" if method in ("ogda", "ogda-s") else None
    return _cli(f"dd-run/{family}/{method}", v, "run", config=config, pair=pair)


def _dd_readme_run(scale):
    config = {"problem": {"id": "bilinear"}, "mode": "discrete",
              "method": {"id": "ogda", "gamma": 0.0625},
              "budget": {"steps": _pick(scale, 1000, 20)}}
    return _cli("dd-readme-run", 0, "run", config=config)


def _dd_figure(v, scale):
    steps = _pick(scale, 2000, 20)
    argv = ["--gamma", "0.05", "--steps", str(steps), "--seed", str(v)]
    return _cli("dd-figure-bg", v, "figure-bg", argv=argv,
                problems=[_bilinear_random(1, 1, v)])


def _dd_rates(scale):
    config = {"problem": {"id": "bilinear"}, "mode": "discrete",
              "method": {"id": "ogda", "gamma": 0.0625},
              "budget": {"steps": _pick(scale, 10000, 40)}}
    return _cli("dd-rates", 0, "rates", config=config)


def _dd_gda_diverge(v):
    # |1 + i*gamma*a| >= 8 per step: the norm passes the 1e12 guard within a
    # dozen steps and overflows to inf near step 340, so the CSV tail is NaN.
    a = round(1.0 + _vrng("dd-gda-diverge", v).random(), 6)
    config = {"problem": {"id": "bilinear", "params": {"A": [[a]]}}, "mode": "discrete",
              "method": {"id": "gda", "gamma": 8.0}, "budget": {"steps": 600}}
    return _cli("dd-gda-diverge", v, "run", config=config, strict=True, expect_rc=3,
                expect={"diverged": True, "nan_tail": True})


def _discrete_dense(scale):
    groups = [(3, lambda v, f=family: [_dd_run(f, v, m, scale) for m in DISCRETE_METHODS])
              for family in ("bilinear-random", "scaled-identity")]
    groups += [(1, lambda v: [_dd_readme_run(scale)]),
               (1, lambda v: [_dd_figure(v, scale)]),
               (1, lambda v: [_dd_rates(scale)]),
               (1, lambda v: [_dd_gda_diverge(v)])]
    return groups


# ---------------------------------------------------------------------------
# flow-rk4: RK4 integration of the constant-parameter flows, d = 4 and 100
# ---------------------------------------------------------------------------

def _fr_flow(dim_tag, v, flow, scale):
    rng = _vrng(f"fr-{dim_tag}", v)
    if dim_tag == "d4":
        problem = _bilinear_random(2, 2, 200 + v)
        gamma = round(0.1 + 0.4 * rng.random(), 6)
        budget = {"t_end": _pick(scale, 0.06, 0.002), "dt": 1e-4,
                  "record_every": _pick(scale, 100, 10)}
        dim = 4
    else:
        problem = _bilinear_random(50, 50, 400 + v, sigma_min=0.02)
        gamma = 0.5
        budget = {"t_end": _pick(scale, 0.04, 0.0005), "dt": 1e-4,
                  "record_every": _pick(scale, 100, 5)}
        dim = 100
    method = {"id": flow, "gamma": gamma}
    if flow.startswith("la"):
        method["alpha"] = 0.25
    config = {"problem": problem, "mode": "hrde", "method": method, "budget": budget,
              "init": {"z0": _vec(rng, dim, 0.5)}}
    return _cli(f"fr-{dim_tag}/{flow}", v, "run", config=config)


def _fr_pair(v, scale):
    """The criterion-5 setting: ogda-hrde from (z0, omega0) against ogda-hrde2
    from w0 = ogda2_w_from_omega(z0, omega0)."""
    rng = _vrng("fr-pair", v)
    if v % 2:
        problem = {"id": "scaled-identity", "params": {"mu": 1.0, "dim": 4}}
    else:
        problem = _bilinear_random(2, 2, 300 + v)
    return {"template": "fr-pair", "variant": v, "kind": "flow_pair",
            "problems": [problem], "gamma": round(0.05 + 0.45 * rng.random(), 6),
            "z0": _vec(rng, 4, 0.5), "omega0": _vec(rng, 4, 0.5),
            "t_end": _pick(scale, 0.06, 0.002), "dt": 1e-4,
            "record_every": _pick(scale, 100, 10), "expect": {"diverged": False}}


def _flow_rk4(scale):
    return [(3, lambda v: [_fr_flow("d4", v, f, scale) for f in CONSTANT_FLOWS]),
            (2, lambda v: [_fr_flow("d100", v, f, scale) for f in CONSTANT_FLOWS]),
            (4, lambda v: [_fr_pair(v, scale)])]


# ---------------------------------------------------------------------------
# verify-nonaffine: stability, Lyapunov, implicit-Newton and rate traffic
# ---------------------------------------------------------------------------

def _vn_classify(v, scale):
    """Ten criterion-1 games x 4 step sizes x 9 method/alpha cases."""
    n_games = _pick(scale, 10, 1)
    problems = []
    for i in range(n_games):
        seed = 1000 + n_games * v + i
        d = 1 + seed % 4
        problems.append(_bilinear_random(d, d, seed, sigma_min=0.1))
    gammas = _pick(scale, [1e-2, 1e-1, 1.0, 10.0], [1e-1, 10.0])
    return {"template": "vn-classify", "variant": v, "kind": "classify",
            "problems": problems, "gammas": gammas,
            "cases": [list(c) for c in STABILITY_CASES], "expect": {}}


def _vn_stability_cli(v, scale):
    d = 2 + v % 3
    config = {"problem": _bilinear_random(d, d, 500 + v),
              "stability": {"gammas": _pick(scale, [0.01, 0.1, 1.0, 10.0], [0.1]),
                            "alphas": [0.25, 0.5]}}
    return _cli("vn-stability", v, "stability", config=config)


def _vn_lyap_quartic(v, flow, scale):
    rng = _vrng(f"vn-lyap-quartic/{flow}", v)
    kinds = ["ogda_l1", "ogda_l2"] if flow == "ogda-hrde" else ["ogda2_l3", "ogda2_l4"]
    config = {"problem": {"id": "quartic"}, "mode": "hrde",
              "method": {"id": flow, "gamma": round(0.5 + 0.5 * rng.random(), 6)},
              "budget": {"t_end": _pick(scale, 0.5, 0.01), "dt": 1e-3},
              "init": {"z0": [round(rng.uniform(-1.0, 1.0), 6) for _ in range(2)]},
              "lyapunov": kinds}
    return _cli(f"vn-lyap-quartic/{flow}", v, "lyapunov", config=config)


def _vn_lyap_varstep(v, scale):
    # gamma(t) = gamma0 (1+t)^-1/4 keeps beta * beta' < 2 mu (varstep_precondition).
    config = {"problem": {"id": "scaled-identity", "params": {"mu": 1.0, "dim": 2 + v % 3}},
              "mode": "hrde",
              "method": {"id": "ogda-hrde2-varstep",
                         "schedule": {"gamma0": 1.5 + 0.25 * (v % 4), "power": 0.25}},
              "budget": {"t_end": _pick(scale, 1.0, 0.02), "dt": 1e-3},
              "lyapunov": ["varstep_l"]}
    return _cli("vn-lyap-varstep", v, "lyapunov", config=config)


def _vn_run_quartic(v, method, scale):
    rng = _vrng(f"vn-run-quartic/{method}", v)
    method_cfg = {"id": method, "gamma": 0.05}
    if method == "ogda-varstep":
        method_cfg = {"id": method, "schedule": {"gamma0": 0.1, "power": 0.6}}
    config = {"problem": {"id": "quartic"}, "mode": "discrete", "method": method_cfg,
              "budget": {"steps": _pick(scale, 1000, 20)},
              "init": {"z0": [round(rng.uniform(-1.0, 1.0), 6) for _ in range(2)]}}
    return _cli(f"vn-run-quartic/{method}", v, "run", config=config)


def _vn_implicit_newton(v, scale):
    rng = _vrng("vn-implicit-newton", v)
    a = [_vec(rng, 2), _vec(rng, 2)]
    # sigma_max(A) >= max|a_ij|, so this gamma puts 0.75 * gamma * L >= 1.01.
    gamma = 1.01 / (0.75 * max(abs(x) for row in a for x in row))
    config = {"problem": {"id": "bilinear", "params": {"A": a}}, "mode": "discrete",
              "method": {"id": "ogda-implicit", "gamma": gamma},
              "budget": {"steps": _pick(scale, 200, 5)},
              "lyapunov": ["ogda_i_l1", "ogda_i_l2"]}
    return _cli("vn-implicit-newton", v, "lyapunov", config=config)


def _vn_apt(v, scale):
    rng = _vrng("vn-apt", v)
    return {"template": "vn-apt", "variant": v, "kind": "apt",
            "problems": [{"id": "scaled-identity", "params": {"mu": 1.0, "dim": 2}}],
            "gamma0": 0.1, "power": 0.6, "z0": _vec(rng, 2),
            "steps": _pick(scale, 2000, 400), "horizon": _pick(scale, 0.5, 0.2),
            "windows": _pick(scale, 3, 2), "expect": {"diverged": False}}


def _vn_rates(v, family, scale):
    if family == "scaled-identity":
        mu = 0.5 + 0.25 * (v % 4)
        problem, lipschitz = {"id": "scaled-identity", "params": {"mu": mu}}, mu
    else:
        a = round(0.5 + _vrng("vn-rates", v).random(), 6)
        problem, lipschitz = {"id": "bilinear", "params": {"A": [[a]]}}, a
    config = {"problem": problem, "mode": "discrete",
              "method": {"id": "ogda", "gamma": 1.0 / (16.0 * lipschitz)},
              "budget": {"steps": _pick(scale, 2000, 40)}}
    return _cli(f"vn-rates/{family}", v, "rates", config=config)


def _verify_nonaffine(scale):
    groups = [(5, lambda v: [_vn_classify(v, scale)]),
              (2, lambda v: [_vn_stability_cli(v, scale)])]
    groups += [(3, lambda v, f=flow: [_vn_lyap_quartic(v, f, scale)])
               for flow in ("ogda-hrde", "ogda-hrde2")]
    groups.append((2, lambda v: [_vn_lyap_varstep(v, scale)]))
    groups += [(2, lambda v, m=method: [_vn_run_quartic(v, m, scale)])
               for method in ("eg", "ogda", "ogda-varstep")]
    groups.append((3, lambda v: [_vn_implicit_newton(v, scale)]))
    groups.append((2, lambda v: [_vn_apt(v, scale)]))
    groups += [(2, lambda v, f=family: [_vn_rates(v, f, scale)])
               for family in ("scaled-identity", "bilinear")]
    return groups


_WORKLOAD_GROUPS = {
    "discrete-dense": _discrete_dense,
    "flow-rk4": _flow_rk4,
    "verify-nonaffine": _verify_nonaffine,
}


def job_key(job) -> str:
    """Content hash of a job: identical jobs share one stored reference."""
    blob = json.dumps(job, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _keyed(jobs):
    for job in jobs:
        job["key"] = job_key(job)
    return jobs


def generate(workload: str, seed: int, scale: str = "full") -> list:
    """The workload's job list for ``seed``: same seed, same list.

    Each template group runs a fixed number of distinct variants per pass;
    the seed picks which ones and shuffles the order.
    """
    rng = random.Random(seed)
    jobs = []
    for n_slots, make in _groups(workload, scale):
        for v in rng.sample(range(POOL), n_slots):
            jobs += make(v)
    rng.shuffle(jobs)
    return _keyed(jobs)


def all_jobs(workload: str, scale: str) -> list:
    """Every job any seed can generate (one per template variant)."""
    unique = {}
    for _, make in _groups(workload, scale):
        for v in range(POOL):
            for job in _keyed(make(v)):
                unique.setdefault(job["key"], job)
    return list(unique.values())


def _groups(workload, scale):
    if workload not in _WORKLOAD_GROUPS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return _WORKLOAD_GROUPS[workload](scale)
