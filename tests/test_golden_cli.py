"""Golden-output gate: the CLI must keep writing the same bytes.

Every run below goes through ``cli.main`` into its own directory; the test
compares the exit code and the SHA-256 of every written file (and of the
catalog text) with ``tests/golden_cli.json``.  The runs cover the README CLI
commands, every discrete method and every flow (under rk4 and euler) on
three problems with ``record_every`` > 1, every method and flow with its
admissible Lyapunov kinds, the designed GDA guard trip under ``--strict``,
and two bilinear stability reports.

Float output depends on the numpy build, so the digests are tied to the
numpy version that recorded them.  After an intended output change, record
them again with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from saddleflow import cli, flows, optimizers

GOLDEN = Path(__file__).with_name("golden_cli.json")

README_RUN_CONFIG = {
    "problem": {"id": "bilinear"},
    "method": {"id": "ogda", "gamma": 0.0625},
    "mode": "discrete",
    "budget": {"steps": 1000},
}

PROBLEMS = ("bilinear-random", "quartic", "scaled-identity")


def _sets(pairs):
    argv = []
    for key, value in pairs:
        argv += ["--set", f"{key}={json.dumps(value)}"]
    return argv


def _readme_runs():
    return {
        "readme/run": ["run", "--config", "{config}"],
        "readme/figure-bg": ["figure-bg", "--gamma", "0.05", "--steps", "2000",
                             "--seed", "0"],
        "readme/stability": ["stability", "--set", "problem.id=bilinear-random",
                             "--set", 'problem.params={"d1":2,"d2":2}', "--seed", "7",
                             "--set", "stability.gammas=[0.01,0.1,1,10]"],
        "readme/lyapunov": ["lyapunov", "--set", "problem.id=bilinear",
                            "--set", "method.id=ogda-hrde", "--set", "method.gamma=1.0",
                            "--set", "mode=hrde", "--set", "budget.t_end=2.0",
                            "--set", "budget.dt=0.001",
                            "--set", 'lyapunov=["ogda_l1","ogda_l2"]'],
        "readme/rates": ["rates", "--set", "method.gamma=0.0625",
                         "--set", "budget.steps=10000"],
    }


def _gamma(mode, method, gamma):
    """The method.gamma setting, on the rows that read it."""
    return [("method.gamma", gamma)] if "gamma" in cli._row(mode, method)[1] else []


def _method_runs():
    runs = {}
    for problem in PROBLEMS:
        for method in optimizers.METHOD_IDS:
            lookahead = [("method.k", 3), ("method.alpha", 0.4)] if method == "la-gda" else []
            runs[f"discrete/{problem}/{method}"] = ["run", *_sets([
                ("problem.id", problem), ("mode", "discrete"), ("method.id", method),
                *_gamma("discrete", method, 0.05), *lookahead,
                ("budget.steps", 60), ("budget.record_every", 7),
            ])]
        for scheme in ("rk4", "euler"):
            for flow in flows.FLOW_IDS:
                alpha = [("method.alpha", 0.4)] if flow.startswith("la") else []
                runs[f"hrde/{scheme}/{problem}/{flow}"] = ["run", *_sets([
                    ("problem.id", problem), ("mode", "hrde"), ("method.id", flow),
                    *_gamma("hrde", flow, 0.1), *alpha,
                    ("budget.t_end", 0.5), ("budget.dt", 0.01),
                    ("budget.record_every", 3), ("budget.scheme", scheme),
                ])]
    return runs


# Each method or flow with its admissible Lyapunov kinds, in CSV column order.
_OMEGA_KINDS = ["ogda_l", "ogda_l1", "ogda_l2", "ogda_i_l1", "ogda_i_l2"]
_W_KINDS = ["ogda2_l", "ogda2_l3", "ogda2_l4", "ogda_l5"]
LYAPUNOV_RUNS = (
    ("gda-hrde", _OMEGA_KINDS),
    ("eg-hrde", _OMEGA_KINDS),
    ("ogda-hrde", _OMEGA_KINDS),
    ("la2-gda-hrde", _OMEGA_KINDS),
    ("la3-gda-hrde", _OMEGA_KINDS),
    ("ogda-hrde2", _W_KINDS),
    ("ogda-hrde2-varstep", ["varstep_l", "ogda2_l3"]),
    ("ogda-s", _W_KINDS),
    ("ogda-implicit", ["ogda_i_l1", "ogda_i_l2"]),
)


def _lyapunov_runs():
    runs = {}
    for method, kinds in LYAPUNOV_RUNS:
        mode = "hrde" if method in flows.FLOW_IDS else "discrete"
        if mode == "hrde":
            budget = [("mode", "hrde"), ("budget.t_end", 0.5), ("budget.dt", 0.01)]
        else:
            budget = [("mode", "discrete"), ("budget.steps", 50)]
        runs[f"lyapunov/{method}"] = ["lyapunov", *_sets([
            ("problem.id", "scaled-identity"), ("method.id", method),
            *_gamma(mode, method, 0.1), ("lyapunov", list(kinds)), *budget,
        ])]
    return runs


def _guard_runs():
    return {"guard/gda-gamma-8": ["run", "--strict", *_sets([
        ("problem.id", "bilinear"), ("method.id", "gda"), ("method.gamma", 8.0),
        ("budget.steps", 40),
    ])]}


# Bilinear stability reports over both lookahead thresholds alpha*_k and
# six decades of step size: a non-square game (one zero mode: EG, OGDA and
# LA-k at or below alpha*_k marginal) and a square one (stable below).
_STABILITY_GAMES = (("2x3-seed3", {"d1": 2, "d2": 3}, 3), ("4x4-seed11", {"d1": 4, "d2": 4}, 11))


def _stability_runs():
    return {f"stability/{name}": ["stability", "--seed", str(seed), *_sets([
        ("problem.id", "bilinear-random"), ("problem.params", params),
        ("stability.alphas", [0.25, 0.5, 2.0 / 3.0, 0.75]),
        ("stability.gammas", [0.001, 0.01, 0.1, 1, 10, 100]),
    ])] for name, params, seed in _STABILITY_GAMES}


def all_runs():
    return {**_readme_runs(), **_method_runs(), **_lyapunov_runs(), **_guard_runs(),
            **_stability_runs()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def capture(root: Path) -> dict:
    """Run every golden command under ``root``; return name -> rc and digests."""
    config = root / "readme_run.json"
    config.write_text(json.dumps(README_RUN_CONFIG), encoding="utf-8")
    results = {}
    for name, argv in all_runs().items():
        out = root / name
        argv = [a.replace("{config}", str(config)) for a in argv]
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([*argv, "--out", str(out)])
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        results[name] = {
            "rc": rc,
            "files": {p.relative_to(out).as_posix(): _sha(p.read_bytes()) for p in files},
        }
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["catalog"])
    results["catalog"] = {"rc": rc, "files": {"stdout": _sha(stdout.getvalue().encode())}}
    return results


def test_cli_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["numpy"] == np.__version__, (
        f"golden digests were recorded with numpy {golden['numpy']}, but this is "
        f"numpy {np.__version__}; check the outputs and record them again"
    )
    results = capture(tmp_path)
    assert sorted(results) == sorted(golden["runs"])
    changed = [name for name in results if results[name] != golden["runs"][name]]
    assert not changed, f"{len(changed)} of {len(results)} runs changed: {changed[:10]}"


def _write_golden():
    with tempfile.TemporaryDirectory() as tmp:
        runs = capture(Path(tmp))
    payload = {"numpy": np.__version__, "runs": runs}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(r['files']) for r in runs.values())} digests "
          f"of {len(runs)} runs to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    _write_golden()
