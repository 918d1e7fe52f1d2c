"""Tests for config parsing, CLI commands, and output determinism."""

import json

import numpy as np
import pytest

from saddleflow import cli, flows, lyapunov, optimizers

MINIMAL = {
    "problem": {"id": "bilinear"},
    "method": {"id": "ogda", "gamma": 0.0625},
    "mode": "discrete",
    "budget": {"steps": 1000},
}

LYAPUNOV_KINDS = ("ogda_l", "ogda_l1", "ogda_l2", "ogda2_l", "ogda2_l3", "ogda2_l4",
                  "ogda_l5", "ogda_i_l1", "ogda_i_l2", "varstep_l")
_OMEGA_KINDS = ("ogda_l", "ogda_l1", "ogda_l2", "ogda_i_l1", "ogda_i_l2")
_W_KINDS = ("ogda2_l", "ogda2_l3", "ogda2_l4", "ogda_l5")
#: Method or flow id -> the Lyapunov kinds it admits; every other id admits none.
ADMISSIBLE = {
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

_RUN = ("method.gamma=0.1", "budget.steps=5")
_HRDE = ("mode=hrde", "method.id=ogda-hrde", "method.gamma=0.1", "budget.t_end=0.5",
         "budget.dt=0.01")
#: (command, --set assignments, the key the error names): each misuse exits 2.
MISUSE = [
    ("stability", ["stability.gammas=[-1]"], "stability.gammas"),
    ("stability", ["stability.gammas=5"], "stability.gammas"),
    ("stability", ['stability.methods=["la2-gda"]', "stability.alphas=[2]"], "stability.alphas"),
    # Exited 2 before the key table too; kept so that it stays that way.
    ("stability", ['stability.methods=["x"]'], "stability.methods"),
    # The stability command reads no method key, not even one the row of
    # method.id would read; the first given one is named.
    ("stability", ["method.k=7", "method.id=la-gda"], "method.id"),
    ("stability", ["method.gamma=0.1"], "method.gamma"),
    # Nor any key outside problem.*, stability.* and outputs.json, named
    # before the mode, method and Lyapunov cross-checks.
    ("stability", ["init.z0=[1,2]", "budget.steps=5"], "budget.steps"),
    ("stability", ["init.z0=[1,2]"], "init.z0"),
    ("stability", ['lyapunov=["ogda_l1"]'], "lyapunov: not read by the stability command"),
    ("stability", ["mode=hrde"], "mode"),
    ("stability", ["outputs.csv=x.csv"], "outputs.csv"),
    ("run", [*_RUN, "init.z0=[NaN,0]"], "init.z0"),
    ("run", [*_RUN, 'init.z0=["a",0]'], "init.z0"),
    ("run", [*_HRDE, "init.aux0=[NaN,0]"], "init.aux0"),
    # Read by no discrete method and by no gda-ode run.
    ("run", [*_RUN, "init.aux0=[5,5]"], "init.aux0"),
    ("run", [*_RUN, "method.id=ogda-s", "init.aux0=[-1,0]"], "init.aux0"),
    ("run", [*_HRDE, "method.id=gda-ode", "init.aux0=[0,0]"], "init.aux0"),
    ("run", [*_RUN, "method.id=ogda-implicit", "method.fp_max_iter=0"], "method.fp_max_iter"),
    ("run", [*_RUN, 'problem.params={"foo":1}'], "problem.params"),
    ("run", [*_RUN, "problem.id=scaled-identity", 'problem.params={"dim":2.7}'],
     "problem.params"),
    ("run", [*_RUN, "problem.id=nope"], "problem.id"),
    ("run", [*_RUN, "problem.id=bilinear-random", 'problem.params={"sigma_min":100}'],
     "problem.params"),
    ("run", [*_RUN, "problem.id=bilinear-random", "problem.seed=-1"], "problem.seed"),
    ("run", [*_RUN, "method.gamma=true"], "method.gamma"),
    ("run", [*_RUN, "method.id=la-gda", "method.k=true"], "method.k"),
    ("run", [*_RUN, "outputs.svg=x.svg"], "outputs.svg"),
    # Valid values on a row that never reads them.
    ("run", [*_RUN, "method.alpha=0.4"], "method.alpha"),
    ("run", [*_RUN, "method.k=7"], "method.k"),
    ("run", [*_RUN, "method.schedule.gamma0=0.2"], "method.schedule.gamma0"),
    ("run", [*_HRDE, "method.schedule.power=0.5"], "method.schedule.power"),
    ("run", [*_HRDE, "method.fp_tol=1e-9"], "method.fp_tol"),
    ("run", [*_RUN, "method.id=la-gda", "method.fp_max_iter=10"], "method.fp_max_iter"),
    # Rows without a constant step: the rates report takes beta only from a
    # row that reads gamma.
    ("run", ["budget.steps=5", "method.id=ogda-varstep", "method.gamma=7"], "method.gamma"),
    ("lyapunov", ["mode=hrde", "method.id=ogda-hrde2-varstep", "budget.t_end=0.5",
                  "budget.dt=0.01", 'lyapunov=["varstep_l"]', "method.gamma=0.3"],
     "method.gamma"),
]


def run_main(argv):
    return cli.main(argv)


def _reject(token):
    """``parse_constant`` for strict JSON: NaN and Infinity are errors."""
    raise ValueError(f"non-standard JSON constant {token}")


class TestConfigParsing:
    def test_minimal_fills_defaults(self):
        cfg = cli.parse_config(json.dumps(MINIMAL))
        assert cfg.method_id == "ogda"
        assert cfg.gamma == 0.0625
        assert cfg.steps == 1000
        assert cfg.record_every == 1
        assert cfg.csv_path == "run.csv"

    def test_negative_gamma_names_key(self):
        bad = {"method": {"id": "gda", "gamma": -1}, "budget": {"steps": 5}}
        with pytest.raises(cli.ConfigError, match="method.gamma"):
            cli.validate_config(bad)

    def test_hrde_requires_t_end_and_dt(self):
        bad = {"method": {"id": "gda-hrde", "gamma": 0.1}, "mode": "hrde",
               "budget": {"steps": 10}}
        with pytest.raises(cli.ConfigError, match="steps applies to discrete"):
            cli.validate_config(bad)
        missing = {"method": {"id": "gda-hrde", "gamma": 0.1}, "mode": "hrde",
                   "budget": {}}
        with pytest.raises(cli.ConfigError, match="requires t_end and dt"):
            cli.execute_run(cli.validate_config(missing))

    def test_unknown_keys_rejected(self):
        bad = dict(MINIMAL)
        bad["extra"] = 1
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.validate_config(bad)
        bad = json.loads(json.dumps(MINIMAL))
        bad["budget"]["weird"] = 2
        with pytest.raises(cli.ConfigError, match="unknown key.*budget"):
            cli.validate_config(bad)

    def test_method_mode_mismatch(self):
        bad = {"method": {"id": "ogda"}, "mode": "hrde",
               "budget": {"t_end": 1.0, "dt": 0.1}}
        with pytest.raises(cli.ConfigError, match="not a hrde method"):
            cli.validate_config(bad)

    def test_lyapunov_kind_compat(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["lyapunov"] = ["ogda_l1"]
        with pytest.raises(cli.ConfigError, match="not defined for method"):
            cli.validate_config(bad)

    def test_lyapunov_admissibility_matrix(self):
        # Every discrete method and every flow crossed with every kind: exactly
        # the ADMISSIBLE pairs validate, every other pair is a ConfigError.
        assert tuple(lyapunov.KINDS) == LYAPUNOV_KINDS
        rows = ([("discrete", m) for m in optimizers.METHOD_IDS]
                + [("hrde", f) for f in flows.FLOW_IDS])
        assert len(rows) == 15
        accepted = set()
        for mode, method_id in rows:
            for kind in LYAPUNOV_KINDS:
                # method.gamma only where the row reads it: elsewhere it exits 2.
                gamma = {"gamma": 0.1} if "gamma" in cli._row(mode, method_id)[1] else {}
                raw = {"mode": mode, "method": {"id": method_id, **gamma}, "lyapunov": [kind]}
                try:
                    assert cli.validate_config(raw).lyapunov_kinds == [kind]
                    accepted.add((method_id, kind))
                except cli.ConfigError as exc:
                    assert f"kind {kind!r} is not defined for method {method_id!r}" in str(exc)
        assert accepted == {(m, k) for m, kinds in ADMISSIBLE.items() for k in kinds}

    def test_t_end_must_be_a_multiple_of_dt(self, tmp_path, capsys):
        code = run_main(["run", "--set", "mode=hrde", "--set", "method.id=ogda-hrde",
                         "--set", "method.gamma=0.1", "--set", "budget.t_end=1.0",
                         "--set", "budget.dt=0.3", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: budget.t_end") and "1.0" in err and "0.3" in err
        assert not (tmp_path / "run.csv").exists()
        with pytest.raises(cli.ConfigError, match="not a whole multiple"):
            cli.validate_config({"mode": "hrde", "method": {"id": "gda-ode"},
                                 "budget": {"t_end": 1.0, "dt": 2.0}})
        # Multiples up to float rounding are accepted.
        for t_end, dt in ((1.0, 0.001), (0.5, 0.01), (0.06, 1e-4), (2.0, 0.0005), (0.3, 0.1)):
            cfg = cli.validate_config({"mode": "hrde", "method": {"id": "gda-ode"},
                                       "budget": {"t_end": t_end, "dt": dt}})
            assert cfg.t_end == t_end and cfg.dt == dt

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize("key, method_id", [
        ("method.gamma", "ogda-hrde"),
        ("method.gamma", "gda"),
        ("method.fp_tol", "ogda-implicit"),
        ("method.schedule.gamma0", "ogda-varstep"),
        ("method.schedule.power", "ogda-varstep"),
        ("method.schedule.power", "ogda-hrde2-varstep"),
        ("budget.t_end", "ogda-hrde"),
        ("budget.dt", "ogda-hrde"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, key, method_id, value):
        # JSON parsing accepts NaN and Infinity; a misuse must exit 2, never
        # be recorded as a diverged run.
        if "hrde" in method_id:
            budget = ["mode=hrde", "budget.t_end=0.5", "budget.dt=0.01"]
        else:
            budget = ["budget.steps=5"]
        sets = [f"method.id={method_id}", "method.gamma=0.1", *budget, f"{key}={value}"]
        argv = ["run", "--out", str(tmp_path)]
        for assignment in sets:
            argv += ["--set", assignment]
        assert run_main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: must be finite")
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("command, sets, key", MISUSE,
                             ids=[sets[-1] for _, sets, _ in MISUSE])
    def test_misuse_exits_2_naming_its_key(self, tmp_path, capsys, command, sets, key):
        # Caught at the config boundary: never a library error (exit 1) and
        # never a run with a silently changed value (exit 0).
        argv = [command, "--out", str(tmp_path / "out")]
        for assignment in sets:
            argv += ["--set", assignment]
        assert run_main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}")
        assert not (tmp_path / "out").exists()

    def test_null_reads_as_absent(self, tmp_path):
        assert run_main(["run", "--set", "method.gamma=0.1", "--set", "budget.steps=5",
                         "--set", "budget.record_every=null", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "run.csv").read_text().splitlines()) == 7  # record_every=1

    def test_invalid_json(self):
        with pytest.raises(cli.ConfigError, match="not valid JSON"):
            cli.parse_config("{nope")

    def test_malformed_config_file_is_a_config_error(self, tmp_path, capsys):
        # A --config file goes through the same parse as parse_config.
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"problem": ')
        assert run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: config is not valid JSON")
        cfg_path.write_text("[1]")
        assert run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: config root must be a JSON object\n"
        assert not (tmp_path / "run.json").exists()
        # An empty file reads as {}.
        cfg_path.write_text(" \n")
        assert run_main(["run", "--config", str(cfg_path), "--set", "method.gamma=0.1",
                         "--set", "budget.steps=5", "--out", str(tmp_path)]) == 0


class TestRunCommand:
    def test_csv_and_json_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        code = run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == "step,time,queries,z_norm,dist_to_solution,v_norm"
        assert len(lines) == 1002  # header + steps + 1
        queries = [int(line.split(",")[2]) for line in lines[1:]]
        assert queries == list(range(1001))
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["diverged"] is False
        assert summary["queries"] == 1000

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/run.csv").read_bytes() == (tmp_path / "b/run.csv").read_bytes()
        assert (tmp_path / "a/run.json").read_bytes() == (tmp_path / "b/run.json").read_bytes()

    def test_csv_roundtrip_preserves_doubles(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        lines = (tmp_path / "run.csv").read_text().splitlines()[1:]
        parsed = np.array([[float(f) for f in line.split(",")] for line in lines])
        # re-rendering the parsed values reproduces the file exactly
        for line, row in zip(lines, parsed):
            fields = line.split(",")
            for text, value in zip(fields[3:], row[3:]):
                assert format(float(text), ".17g") == text
                assert float(text) == value

    def test_gda_divergence_flag_and_strict_exit(self, tmp_path, capsys):
        raw = json.loads(json.dumps(MINIMAL))
        raw["method"] = {"id": "gda", "gamma": 0.5}
        raw["budget"] = {"steps": 300}  # sqrt(1.25)^300 ~ 3e14 > the 1e12 guard
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code = run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["diverged"] is True
        code = run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path),
                         "--strict"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_gda_short_run_not_flagged(self, tmp_path):
        raw = json.loads(json.dumps(MINIMAL))
        raw["method"] = {"id": "gda", "gamma": 0.0625}
        raw["budget"] = {"steps": 100}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["diverged"] is False
        csv = (tmp_path / "run.csv").read_text().splitlines()
        dist = [float(line.split(",")[4]) for line in csv[1:]]
        assert all(b > a for a, b in zip(dist, dist[1:]))

    def test_nan_problem_parameter_is_an_error(self, tmp_path, capsys):
        # A NaN problem parameter must fail, never be recorded as a diverged run.
        code = run_main(["run", "--set", "problem.id=scaled-identity",
                         "--set", 'problem.params={"mu":NaN}', "--set", "method.id=gda",
                         "--set", "method.gamma=0.1", "--set", "budget.steps=5",
                         "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: problem.params: mu must be positive\n"
        assert not (tmp_path / "run.json").exists()

    def test_infinite_problem_parameter_is_an_error(self, tmp_path, capsys):
        code = run_main(["run", "--set", "problem.id=scaled-identity",
                         "--set", 'problem.params={"mu":Infinity}', "--set", "method.id=gda",
                         "--set", "method.gamma=0.1", "--set", "budget.steps=5",
                         "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: problem.params: mu must be finite\n"
        assert not (tmp_path / "run.json").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = run_main(["run", "--set", "method.gamma=-1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_set_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        code = run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path),
                         "--set", "budget.steps=10", "--set", "outputs.csv=x.csv"])
        assert code == 0
        assert len((tmp_path / "x.csv").read_text().splitlines()) == 12

    def test_seed_flag_overrides_problem_seed(self, tmp_path):
        raw = {"problem": {"id": "bilinear-random", "params": {"d1": 1, "d2": 1},
                           "seed": 0},
               "method": {"id": "gda", "gamma": 0.01}, "mode": "discrete",
               "budget": {"steps": 5}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                  "--seed", "5"])
        a = (tmp_path / "a/run.csv").read_bytes()
        b = (tmp_path / "b/run.csv").read_bytes()
        assert a != b  # different seed draws a different game

    def test_varstep_and_implicit_methods(self, tmp_path):
        varstep = {"problem": {"id": "scaled-identity"},
                   "method": {"id": "ogda-varstep",
                              "schedule": {"gamma0": 0.1, "power": 0.6}},
                   "mode": "discrete", "budget": {"steps": 50}}
        cfg_path = tmp_path / "v.json"
        cfg_path.write_text(json.dumps(varstep))
        assert run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path),
                         "--set", "outputs.csv=v.csv", "--set", "outputs.json=v.json"]) == 0
        times = [float(line.split(",")[1])
                 for line in (tmp_path / "v.csv").read_text().splitlines()[1:]]
        assert all(b > a for a, b in zip(times, times[1:]))  # cumulative step sizes

        implicit = {"problem": {"id": "scaled-identity"},
                    "method": {"id": "ogda-implicit", "gamma": 0.5},
                    "mode": "discrete", "budget": {"steps": 20},
                    "lyapunov": ["ogda_i_l1", "ogda_i_l2"]}
        cfg_path = tmp_path / "i.json"
        cfg_path.write_text(json.dumps(implicit))
        assert run_main(["lyapunov", "--config", str(cfg_path),
                         "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["lyapunov"]["ogda_i_l1"]["violations"] == []
        assert payload["run"]["queries"] > 20  # implicit solves cost extra evals

    def test_hrde_mode_run(self, tmp_path):
        raw = {
            "problem": {"id": "bilinear"},
            "method": {"id": "ogda-hrde", "gamma": 1.0},
            "mode": "hrde",
            "budget": {"t_end": 1.0, "dt": 0.001, "record_every": 10},
            "lyapunov": ["ogda_l1", "ogda_l2"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code = run_main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0].endswith(",lyap_ogda_l1,lyap_ogda_l2")
        assert len(lines) == 102


class TestFigureCommand:
    def test_outputs_and_determinism(self, tmp_path):
        code = run_main(["figure-bg", "--out", str(tmp_path / "a"), "--steps", "300",
                         "--seed", "0"])
        assert code == 0
        svg_a = (tmp_path / "a/figure_bg.svg").read_bytes()
        assert svg_a.startswith(b"<svg")
        code = run_main(["figure-bg", "--out", str(tmp_path / "b"), "--steps", "300",
                         "--seed", "0"])
        assert code == 0
        assert svg_a == (tmp_path / "b/figure_bg.svg").read_bytes()
        csv = (tmp_path / "a/figure_bg.csv").read_text().splitlines()
        assert csv[0] == "method,step,queries,dist_to_solution"
        methods = {line.split(",")[0] for line in csv[1:]}
        assert methods == {"gda", "eg", "ogda", "la2-gda", "la3-gda"}

    @pytest.mark.parametrize("gamma", ["nan", "inf", "0"])
    def test_bad_gamma_is_a_config_error(self, tmp_path, capsys, gamma):
        assert run_main(["figure-bg", "--gamma", gamma, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: figure-bg: gamma must be positive and finite\n"
        assert not (tmp_path / "figure_bg.svg").exists()

    @pytest.mark.parametrize("alpha", ["2", "nan", "0"])
    def test_bad_alpha_is_a_config_error(self, tmp_path, capsys, alpha):
        assert run_main(["figure-bg", "--alpha", alpha, "--steps", "10",
                         "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: figure-bg: alpha must lie in (0, 1]")
        assert not (tmp_path / "figure_bg.svg").exists()

    def test_single_step_curves(self, tmp_path):
        series = cli.cmd_figure_bg(0.05, 1, 0, tmp_path / "f.svg", tmp_path / "f.csv")
        for _, queries, dist in series:
            assert len(queries) == 2 and len(dist) == 2


class TestReportCommands:
    def test_stability_report(self, tmp_path):
        raw = {
            "problem": {"id": "bilinear-random", "params": {"d1": 2, "d2": 2}, "seed": 1},
            "stability": {"methods": ["gda", "ogda", "la3-gda"],
                          "gammas": [0.1, 1.0], "alphas": [0.25]},
            "outputs": {"json": "stab.json"},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code = run_main(["stability", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "stab.json").read_text())
        by_method = {}
        for entry in payload["entries"]:
            by_method.setdefault(entry["method"], []).append(entry)
            assert entry["agrees"] is True
        assert all(e["verdict"] == "unstable" for e in by_method["gda"])
        assert all(e["verdict"] == "stable" for e in by_method["ogda"])
        assert all(e["verdict"] == "stable" for e in by_method["la3-gda"])
        assert "routh_first_columns" in by_method["gda"][0]

    def test_lyapunov_report(self, tmp_path):
        raw = {
            "problem": {"id": "bilinear"},
            "method": {"id": "ogda-hrde", "gamma": 1.0},
            "mode": "hrde",
            "budget": {"t_end": 2.0, "dt": 0.0005, "record_every": 10},
            "lyapunov": ["ogda_l1", "ogda_l2"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code = run_main(["lyapunov", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["lyapunov"]["ogda_l1"]["violations"] == []
        assert payload["lyapunov"]["ogda_l2"]["violations"] == []

    def test_varstep_flow_lyapunov_report(self, tmp_path):
        raw = {
            "problem": {"id": "scaled-identity"},
            "method": {"id": "ogda-hrde2-varstep",
                       "schedule": {"gamma0": 2.0, "power": 0.25}},
            "mode": "hrde",
            "budget": {"t_end": 4.0, "dt": 0.001, "record_every": 10},
            "lyapunov": ["varstep_l"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code = run_main(["lyapunov", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["lyapunov"]["varstep_l"]["violations"] == []
        assert payload["run"]["final_dist_to_solution"] < 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lyapunov_records_an_overflowing_field(self, tmp_path):
        # z0 is finite but V(z0) = 4 z0^3 overflows: the run diverges at its
        # first step and the monitor records inf at record 0, as run does.
        code = run_main(["lyapunov", "--set", "problem.id=quartic", "--set", "mode=hrde",
                         "--set", "method.id=ogda-hrde", "--set", "method.gamma=0.5",
                         "--set", "budget.t_end=0.01", "--set", "budget.dt=0.001",
                         "--set", "init.z0=[1e150,0.5]", "--set", 'lyapunov=["ogda_l1"]',
                         "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "run.json").read_text(), parse_constant=_reject)
        assert payload["run"]["diverged"] is True
        assert payload["lyapunov"]["ogda_l1"]["initial"] is None
        rows = (tmp_path / "run.csv").read_text().splitlines()
        header, record0 = rows[0].split(","), rows[1].split(",")
        assert not np.isfinite(float(record0[header.index("lyap_ogda_l1")]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lyapunov_report_is_strict_json(self, tmp_path):
        # gamma = 3 diverges: the final value is NaN and the largest increase
        # inf, both written as null.
        code = run_main(["lyapunov", "--set", "problem.id=bilinear", "--set", "method.id=ogda-s",
                         "--set", "method.gamma=3", "--set", "budget.steps=800",
                         "--set", 'lyapunov=["ogda_l5"]', "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "run.json").read_text(), parse_constant=_reject)
        report = payload["lyapunov"]["ogda_l5"]
        assert payload["run"]["diverged"] is True
        assert report["final"] is None and report["max_increase"] is None
        assert report["initial"] > 0 and report["violations"]

    def test_rates_report(self, tmp_path):
        raw = {
            "problem": {"id": "bilinear"},
            "method": {"id": "ogda", "gamma": 0.0625},
            "mode": "discrete",
            "budget": {"steps": 3000},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code = run_main(["rates", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["bound_margins"]["all_nonnegative"] is True
        assert payload["bound_margins"]["min"] >= 0.0
        assert payload["rho_hat"] is not None

    def test_rates_bound_check_follows_the_method_row(self, tmp_path):
        # ogda-s runs the same sequence as ogda, so it gets the same check;
        # a method without the certified sequence gets none.
        margins = {}
        for method in ("ogda", "ogda-s", "eg"):
            out = tmp_path / method
            assert run_main(["rates", "--set", f"method.id={method}", "--set",
                             "method.gamma=0.0625", "--set", "budget.steps=3000",
                             "--out", str(out)]) == 0
            margins[method] = json.loads((out / "run.json").read_text())["bound_margins"]
        assert margins["ogda"]["all_nonnegative"] is margins["ogda-s"]["all_nonnegative"] is True
        assert margins["ogda-s"]["min"] == pytest.approx(margins["ogda"]["min"], rel=1e-12, abs=0)
        assert margins["eg"] is None

    def test_rates_takes_beta_only_from_a_row_that_reads_gamma(self, tmp_path):
        hrde = ["mode=hrde", "budget.t_end=2.0", "budget.dt=0.01"]
        cases = {"ogda": ["method.gamma=0.1", "budget.steps=200"],
                 "ogda-varstep": ["budget.steps=200"],
                 "ogda-hrde": [*hrde, "method.gamma=0.5"],
                 # gda-ode accepts the method.gamma that it never reads.
                 "gda-ode": [*hrde, "method.gamma=0.5"]}
        rho_theory = {}
        for method, sets in cases.items():
            argv = ["rates", "--set", "problem.id=scaled-identity", "--set", f"method.id={method}"]
            for assignment in sets:
                argv += ["--set", assignment]
            assert run_main([*argv, "--out", str(tmp_path / method)]) == 0
            payload = json.loads((tmp_path / method / "run.json").read_text())
            assert payload["rho_hat"] is not None
            rho_theory[method] = payload["rho_theory"]
        # 1 / (1/mu + 9/(2 beta)) with mu = 1 and beta = 2/gamma.
        assert rho_theory["ogda"] == pytest.approx(1.0 / (1.0 + 9.0 / 40.0))
        assert rho_theory["ogda-hrde"] == pytest.approx(1.0 / (1.0 + 9.0 / 8.0))
        assert rho_theory["ogda-varstep"] is None and rho_theory["gda-ode"] is None

    def test_catalog(self, capsys):
        assert run_main(["catalog"]) == 0
        out = capsys.readouterr().out
        for token in ("bilinear", "quartic", "ogda-implicit", "ogda-hrde2-varstep"):
            assert token in out
