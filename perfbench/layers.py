"""The layers of saddleflow as the traced run sees them.

Layer map (ROADMAP layer numbers):

    problems               L0  field, Jacobian, validation, construction
    optimizers             L1  discrete steps; L2 the ``run`` loop
    flows                  L1  ``rhs``; L2 the ``integrate``/``_advance`` loop
    lyapunov               L3  monitors and decrease checks
    stability, rates       L4  analysis
    cli, svgplot           L5  config validation and emission
    (fresh interpreter)    L6  start-up and import, measured by run.py

``install`` wraps each public function under the name its callers look
up: ``Operator.field`` on the class, ``as_state`` in every module that
imported it, ``make_problem`` both in ``problems`` and in ``cli``.
``Layers.metrics`` turns one traced pass into the per-layer metrics.
"""
from __future__ import annotations

import numpy as np

from saddleflow import cli, flows, lyapunov, optimizers, problems, rates, stability

from tracer import Tracer, summarize

#: Per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = (
    ("problems.field.calls", "count"),
    ("problems.field.self_s", "s"),
    ("problems.field.calls_per_query", "ratio"),
    ("problems.jacobian.calls", "count"),
    ("problems.jacobian.self_s", "s"),
    ("problems.as_state.calls", "count"),
    ("problems.make_problem.self_s", "s"),
    ("optimizers.run.self_s", "s"),
    ("optimizers.us_per_step", "us"),
    ("optimizers.step.calls", "count"),
    ("optimizers.step.self_s", "s"),
    ("optimizers.implicit.queries_per_step", "ratio"),
    ("flows.integrate.self_s", "s"),
    ("flows.rhs.calls", "count"),
    ("flows.rhs.self_s", "s"),
    ("flows.us_per_step.d4", "us"),
    ("flows.us_per_step.d100", "us"),
    ("lyapunov.evaluate.calls", "count"),
    ("lyapunov.evaluate.self_s", "s"),
    ("lyapunov.check.self_s", "s"),
    ("stability.classify.calls", "count"),
    ("stability.classify.self_s", "s"),
    ("stability.eig.self_s", "s"),
    ("stability.agree_frac", "ratio"),
    ("rates.fit.self_s", "s"),
    ("rates.apt_window.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.config.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.emit.bytes", "bytes"),
    ("cli.outputs_identical_frac", "ratio"),
    ("svgplot.line_plot.self_s", "s"),
    ("setup.import_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
)

STEP_FUNCTIONS = ("step_gda", "step_eg", "step_ogda", "step_ogda_s", "step_la_gda")
FIT_FUNCTIONS = ("fit_power_law", "fit_geometric", "best_iterate_bound_check")
EMIT_FUNCTIONS = ("trajectory_csv", "run_summary", "_dump_json")
#: Flow integrations at or below this dimension count as d4, at or above
#: D100 as d100.
D4, D100 = 4, 100


class Layers:
    """Installs the wrappers and accumulates what spans alone cannot give."""

    def __init__(self):
        self.tracer = Tracer()
        self.reset()

    def reset(self):
        self.queries = 0
        self.run_steps = 0
        self.run_s = 0.0
        self.implicit_queries = 0
        self.implicit_steps = 0
        self.flow_steps = {"d4": 0, "d100": 0}
        self.flow_s = {"d4": 0.0, "d100": 0.0}
        self.verdicts = 0
        self.agreeing = 0
        self.emit_bytes = 0
        self.first_span = len(self.tracer.start)
        self._as_state_base = self._as_state_count()

    def _as_state_count(self):
        return self.tracer.counts.get("problems.as_state", [0])[0]

    def _duration(self, idx):
        return self.tracer.end[idx] - self.tracer.start[idx]

    def _on_run(self, idx, args, traj):
        self.queries += int(traj.queries[-1])
        self.run_steps += len(traj) - 1
        self.run_s += self._duration(idx)

    def _on_integrate(self, idx, args, traj):
        self.queries += int(traj.queries[-1])
        dim, cfg = args[1].dim, args[4]
        bucket = "d4" if dim <= D4 else "d100" if dim >= D100 else None
        if bucket is not None:
            self.flow_steps[bucket] += int(round(cfg.t_end / cfg.dt))
            self.flow_s[bucket] += self._duration(idx)

    def _on_implicit(self, idx, args, result):
        self.implicit_queries += result[2]
        self.implicit_steps += 1

    def _on_classify(self, idx, args, verdict):
        self.verdicts += 1
        self.agreeing += bool(verdict.agrees)

    def _on_write(self, idx, args, result):
        self.emit_bytes += len(args[1].encode("utf-8"))

    def install(self):
        tr = self.tracer
        span = [
            (problems.Operator, "field", "problems.field", None),
            (problems.Operator, "field_unchecked", "problems.field", None),
            (problems.Operator, "jacobian", "problems.jacobian", None),
            (optimizers, "run", "optimizers.run", self._on_run),
            (optimizers, "step_ogda_implicit", "optimizers.step", self._on_implicit),
            (flows, "integrate", "flows.integrate", self._on_integrate),
            (rates, "integrate", "flows.integrate", self._on_integrate),
            (flows, "rhs", "flows.rhs", None),
            (lyapunov, "evaluate", "lyapunov.evaluate", None),
            (lyapunov, "continuous_decrease_check", "lyapunov.check", None),
            (stability, "classify_method", "stability.classify", self._on_classify),
            (stability, "spectral_abscissa", "stability.eig", None),
            (rates, "apt_window_check", "rates.apt_window", None),
            (cli, "main", "cli.main", None),
            (cli, "validate_config", "cli.config", None),
            (cli, "_write", "cli.emit", self._on_write),
            (cli, "line_plot", "svgplot.line_plot", None),
        ]
        for owner in (problems, cli):
            span.append((owner, "make_problem", "problems.make_problem", None))
            span.append((owner, "random_bilinear", "problems.make_problem", None))
        span += [(optimizers, f, "optimizers.step", None) for f in STEP_FUNCTIONS]
        span += [(rates, f, "rates.fit", None) for f in FIT_FUNCTIONS]
        span += [(cli, f, "cli.emit", None) for f in EMIT_FUNCTIONS]
        for owner, attr, name, hook in span:
            tr.patch(owner, attr, tr.wrap(name, owner.__dict__[attr], hook))
        for owner in (problems, optimizers, flows, lyapunov):
            tr.patch(owner, "as_state", tr.counter("problems.as_state", owner.__dict__["as_state"]))
        tr.name_id("job")

    def restore(self):
        self.tracer.restore()

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since the last ``reset``."""
        tr = self.tracer
        name, parent, _, start, end = tr.arrays()
        mask = np.zeros(len(name), dtype=bool)
        mask[self.first_span:] = True
        s = summarize(tr.names, name, parent, start, end, mask)

        def ratio(num, den):
            return float(num) / den if den else 0.0

        field_calls = s["problems.field"]["calls"]
        step_calls = s["optimizers.step"]["calls"]
        return {
            "problems.field.calls": field_calls,
            "problems.field.self_s": s["problems.field"]["self_s"],
            "problems.field.calls_per_query": ratio(field_calls, self.queries),
            "problems.jacobian.calls": s["problems.jacobian"]["calls"],
            "problems.jacobian.self_s": s["problems.jacobian"]["self_s"],
            "problems.as_state.calls": self._as_state_count() - self._as_state_base,
            "problems.make_problem.self_s": s["problems.make_problem"]["self_s"],
            "optimizers.run.self_s": s["optimizers.run"]["self_s"],
            "optimizers.us_per_step": 1e6 * ratio(self.run_s, self.run_steps),
            "optimizers.step.calls": step_calls,
            "optimizers.step.self_s": s["optimizers.step"]["self_s"],
            "optimizers.implicit.queries_per_step": ratio(self.implicit_queries, self.implicit_steps),
            "flows.integrate.self_s": s["flows.integrate"]["self_s"],
            "flows.rhs.calls": s["flows.rhs"]["calls"],
            "flows.rhs.self_s": s["flows.rhs"]["self_s"],
            "flows.us_per_step.d4": 1e6 * ratio(self.flow_s["d4"], self.flow_steps["d4"]),
            "flows.us_per_step.d100": 1e6 * ratio(self.flow_s["d100"], self.flow_steps["d100"]),
            "lyapunov.evaluate.calls": s["lyapunov.evaluate"]["calls"],
            "lyapunov.evaluate.self_s": s["lyapunov.evaluate"]["self_s"],
            "lyapunov.check.self_s": s["lyapunov.check"]["self_s"],
            "stability.classify.calls": s["stability.classify"]["calls"],
            "stability.classify.self_s": s["stability.classify"]["self_s"],
            "stability.eig.self_s": s["stability.eig"]["self_s"],
            # No verdicts means no disagreement.
            "stability.agree_frac": ratio(self.agreeing, self.verdicts) if self.verdicts else 1.0,
            "rates.fit.self_s": s["rates.fit"]["self_s"],
            "rates.apt_window.self_s": s["rates.apt_window"]["self_s"],
            "cli.main.self_s": s["cli.main"]["self_s"],
            "cli.config.self_s": s["cli.config"]["self_s"],
            "cli.emit.self_s": s["cli.emit"]["self_s"],
            "cli.emit.bytes": self.emit_bytes,
            "svgplot.line_plot.self_s": s["svgplot.line_plot"]["self_s"],
            # CLI time outside every other layer is a gap in layer coverage.
            "job.unaccounted_s": s["job"]["self_s"] + s["cli.main"]["self_s"],
            "job.total_s": s["job"]["total_s"],
        }
