"""Tests of the benchmark itself (not of saddleflow).

    python3 -m pytest -q perfbench/tests
"""
import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402  (sets the BLAS thread variables first)

run._load_library()

import jobs  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from layers import METRICS, Layers  # noqa: E402
from saddleflow import cli, problems  # noqa: E402

REFERENCE = oracle.load_reference()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload):
    a = workloads.generate(workload, 7)
    assert a == workloads.generate(workload, 7)
    assert a != workloads.generate(workload, 8)
    assert [j["key"] for j in a] != [j["key"] for j in workloads.generate(workload, 8)]
    # Every job a seed can draw has a stored reference.
    for scale in workloads.SCALES:
        keys = {j["key"] for j in workloads.all_jobs(workload, scale)}
        assert keys <= set(REFERENCE[workload])


def test_self_times_on_synthetic_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  second root [11, 12]
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    np.testing.assert_allclose(tracer.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0, 1.0])
    s = tracer.summarize(["root", "child"], [0, 1, 1, 1, 0], parent, start, end)
    assert s["root"] == {"calls": 2, "self_s": 4.0, "total_s": 11.0}
    assert s["child"] == {"calls": 3, "self_s": 7.0, "total_s": 8.0}


def test_tracer_records_parents_and_restores():
    tr = tracer.Tracer()

    class Owner:
        @staticmethod
        def inner():
            return 1

    def outer():
        return Owner.inner() + Owner.inner()

    original = Owner.__dict__["inner"]
    tr.patch(Owner, "inner", tr.wrap("inner", original.__func__))
    wrapped_outer = tr.wrap("outer", outer)
    assert wrapped_outer() == 2
    name, parent, _, start, end = tr.arrays()
    assert [tr.names[i] for i in name] == ["outer", "inner", "inner"]
    assert list(parent) == [-1, 0, 0]
    assert np.all(end >= start)
    self_s = tracer.self_times(parent, start, end)
    assert self_s[0] == pytest.approx((end[0] - start[0]) - (end[1] - start[1]) - (end[2] - start[2]))
    tr.restore()
    assert Owner.__dict__["inner"] is original


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the designed GDA blow-up
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_has_no_failures(workload, tmp_path):
    job_list = workloads.generate(workload, 3, "tiny")
    runner = run.Runner(job_list, REFERENCE[workload], tmp_path)
    latencies, raw, _, _ = runner.run_pass()
    assert runner.failures == []
    assert runner.attempted == len(job_list) == len(latencies) == len(raw)


def test_traced_tiny_pass_reports_every_layer(tmp_path):
    job_list = workloads.generate("verify-nonaffine", 3, "tiny")
    runner = run.Runner(job_list, REFERENCE["verify-nonaffine"], tmp_path)
    layers = Layers()
    layers.install()
    layers.reset()
    try:
        runner.run_pass(layers)
    finally:
        layers.restore()
    assert runner.failures == []
    m = layers.metrics()
    computed = {name for name, _ in METRICS} - {
        "cli.outputs_identical_frac", "setup.import_s", "trace.overhead_frac",
        "trace.unaccounted_frac"}
    assert computed <= set(m)
    assert m["stability.agree_frac"] == 1.0
    assert m["stability.classify.calls"] > 0 and m["lyapunov.evaluate.calls"] > 0
    assert 0.0 <= m["job.unaccounted_s"] <= m["job.total_s"]
    # The wrappers are gone once restored.
    assert cli.main.__module__ == "saddleflow.cli" and not hasattr(cli.main, "__wrapped__")
    assert not hasattr(problems.Operator.field, "__wrapped__")


def _run_one(job, tmp_path):
    argv = jobs.prepare(job, tmp_path)
    return jobs.collect(job, jobs.execute(job, argv), tmp_path)


def test_oracle_fails_perturbed_reference(tmp_path):
    job = next(j for j in workloads.generate("discrete-dense", 3, "tiny")
               if j["template"] == "dd-run/bilinear-random/eg")
    outcome = _run_one(job, tmp_path)
    reference = REFERENCE["discrete-dense"]
    assert oracle.check_job(job, outcome, reference) == []

    perturbed = copy.deepcopy(reference)
    values = perturbed[job["key"]]["values"]
    values["final_dist_to_solution"] *= 1.0 + 1e-4
    assert oracle.check_job(job, outcome, perturbed)

    within = copy.deepcopy(reference)
    within[job["key"]]["values"]["final_dist_to_solution"] *= 1.0 + 1e-9
    assert oracle.check_job(job, outcome, within) == []

    flipped = copy.deepcopy(reference)
    flipped[job["key"]]["values"]["diverged"] = True
    assert oracle.check_job(job, outcome, flipped)

    assert oracle.check_job(job, outcome, {}) == ["no stored reference for this job"]


def test_oracle_fails_perturbed_verdict(tmp_path):
    job = workloads.generate("verify-nonaffine", 3, "tiny")
    job = next(j for j in job if j["kind"] == "classify")
    outcome = _run_one(job, tmp_path)
    reference = copy.deepcopy(REFERENCE["verify-nonaffine"])
    verdicts = reference[job["key"]]["values"]["verdicts"]
    swap = {"s": "u", "u": "s", "m": "s"}
    reference[job["key"]]["values"]["verdicts"] = swap[verdicts[0]] + verdicts[1:]
    assert oracle.check_job(job, outcome, reference)


def test_tail_rank_leaves_ten_jobs_beyond():
    rank, pct = run.tail_rank(46)
    assert 46 - 1 - rank == run.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * 36 / 46)
    with pytest.raises(ValueError):
        run.tail_rank(10)
