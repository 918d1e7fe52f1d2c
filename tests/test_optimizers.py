"""Tests for the discrete steppers and the run loop."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_cases import AffineField, NonAffineTwin, assert_same_run, monotone_affine_cases
from saddleflow import flows
from saddleflow import optimizers as opt
from saddleflow.problems import (
    BilinearGame,
    Operator,
    QuarticCounterexample,
    ScaledIdentity,
    random_bilinear,
)

BG = BilinearGame([[1.0]])
SI = ScaledIdentity(1.0, 2)


class TestSteppers:
    def test_gda(self):
        np.testing.assert_allclose(opt.step_gda(BG, np.array([1.0, 0.0]), 0.1), [1.0, 0.1])
        np.testing.assert_allclose(opt.step_gda(BG, np.zeros(2), 0.1), [0.0, 0.0])
        np.testing.assert_allclose(opt.step_gda(SI, np.array([2.0, 0.0]), 0.5), [1.0, 0.0])

    def test_eg(self):
        out = opt.step_eg(BG, np.array([1.0, 0.0]), 0.1)
        np.testing.assert_allclose(out, [0.99, 0.1])
        assert out @ out == pytest.approx(0.9901)
        np.testing.assert_allclose(opt.step_eg(BG, np.zeros(2), 0.1), [0.0, 0.0])

    def test_ogda(self):
        z = np.array([1.0, 0.0])
        z2, v1 = opt.step_ogda(BG, z, BG.field(z), 0.1)
        np.testing.assert_allclose(z2, [1.0, 0.1])
        np.testing.assert_allclose(v1, BG.field(z))
        z2, _ = opt.step_ogda(SI, np.array([1.0, 0.0]), SI.field([1.0, 0.0]), 0.1)
        np.testing.assert_allclose(z2, [0.9, 0.0])

    def test_ogda_s_hand_sequence(self):
        z0 = np.array([1.0, 0.0])
        w0 = opt.ogda_s_w0(BG, z0, 0.1)
        np.testing.assert_allclose(w0, [-1.0, 0.4])
        z1, w1 = opt.step_ogda_s(BG, z0, w0, 0.1)
        np.testing.assert_allclose(z1, [1.0, 0.0])       # z_1 = z_0
        np.testing.assert_allclose(w1, [-1.0, 0.2])
        z2, _ = opt.step_ogda_s(BG, z1, w1, 0.1)
        np.testing.assert_allclose(z2, [1.0, 0.1])       # matches the one-variable form

    def test_la_gda(self):
        out = opt.step_la_gda(BG, np.array([1.0, 0.0]), 0.1, 2, 0.5)
        np.testing.assert_allclose(out, [0.995, 0.1])
        # alpha=1, k=1 degenerates to plain descent-ascent
        a = opt.step_la_gda(BG, np.array([0.3, -0.4]), 0.2, 1, 1.0)
        b = opt.step_gda(BG, np.array([0.3, -0.4]), 0.2)
        np.testing.assert_allclose(a, b)
        np.testing.assert_allclose(opt.step_la_gda(BG, np.zeros(2), 0.1, 3, 0.7), [0.0, 0.0])

    def test_implicit_closed_form(self):
        z1, om1, _ = opt.step_ogda_implicit(SI, np.array([1.0, 0.0]), np.zeros(2), 1.0)
        np.testing.assert_allclose(z1, [5.0 / 7.0, 0.0], atol=1e-11)
        np.testing.assert_allclose(om1, [-4.0 / 7.0, 0.0], atol=1e-11)

    def test_implicit_fixed_point_state(self):
        z, om, _ = opt.step_ogda_implicit(SI, np.zeros(2), np.zeros(2), 0.5)
        np.testing.assert_allclose(z, [0.0, 0.0])
        np.testing.assert_allclose(om, [0.0, 0.0])

    def test_implicit_matches_linear_solve(self):
        gamma = 0.1
        z, om = np.array([1.0, 0.0]), np.zeros(2)
        zi, oi, _ = opt.step_ogda_implicit(BG, z, om, gamma)
        jac = BG.jacobian(z)
        eye = np.eye(2)
        lhs = np.block([[eye, -0.5 * gamma * eye], [1.5 * jac, eye]])
        rhs = np.concatenate([z + 0.5 * gamma * om, 0.5 * jac @ z])
        direct = np.linalg.solve(lhs, rhs)
        np.testing.assert_allclose(np.concatenate([zi, oi]), direct, atol=1e-10)

    def test_implicit_residuals(self):
        # The quartic is the non-affine case, where Newton takes several steps.
        gamma, tol = 0.3, 1e-12
        z, om = np.array([0.6, -0.4]), np.array([0.1, 0.2])
        for op in (BG, QuarticCounterexample()):
            zn, on, queries = opt.step_ogda_implicit(op, z, om, gamma, fp_tol=tol)
            r1 = zn - z - 0.5 * gamma * (on + om)
            r2 = on + op.field(zn) + 0.5 * (op.field(zn) - op.field(z))
            assert np.max(np.abs(r1)) <= 10 * tol
            assert np.max(np.abs(r2)) <= 10 * tol
            assert (queries == 2) if op.affine else (queries > 2)

    def test_implicit_newton_path(self):
        # gamma * L = 2: far from the small-step regime, Newton still solves
        # the affine step exactly.
        op = ScaledIdentity(1.0, 2)
        zn, on, _ = opt.step_ogda_implicit(op, np.array([1.0, 0.0]), np.zeros(2), 2.0)
        expected = (1.0 + 0.5) / (1.0 + 1.5)
        np.testing.assert_allclose(zn, [expected, 0.0], atol=1e-10)

    def test_implicit_singular_newton_system(self):
        # V(z) = -z at gamma = 4/3 makes I + (3 gamma / 4) J zero: a solver
        # failure, which run records as divergence.
        class Flipped(Operator):
            def _field(self, z):
                return -z

            def _jacobian(self, z):
                return -np.eye(self.dim)

        op = Flipped(2, 0)
        with pytest.raises(opt.NoConvergenceError, match="Newton system"):
            opt.step_ogda_implicit(op, np.array([1.0, 0.0]), np.zeros(2), 4.0 / 3.0)
        assert opt.run(op, opt.ImplicitOGDA(4.0 / 3.0), [1.0, 0.0], 5).diverged

    def test_implicit_gives_up_after_fp_max_iter(self):
        # One Newton iteration leaves a residual on the quartic: the step
        # gives up, and run records that as divergence.
        op, z0 = QuarticCounterexample(), np.array([0.8, -0.6])
        with pytest.raises(opt.NoConvergenceError, match="after 1 Newton iterations"):
            opt.step_ogda_implicit(op, z0, np.zeros(2), 0.1, fp_max_iter=1)
        traj = opt.run(op, opt.ImplicitOGDA(0.1, fp_max_iter=1), z0, 5)
        assert traj.diverged and traj.queries[-1] == 0

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            opt.step_gda(BG, np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="gamma"):
            opt.step_eg(BG, np.zeros(2), float("nan"))

    def test_fixed_points(self):
        z = np.zeros(2)
        np.testing.assert_allclose(opt.step_gda(BG, z, 0.2), z)
        np.testing.assert_allclose(opt.step_eg(BG, z, 0.2), z)
        np.testing.assert_allclose(opt.step_ogda(BG, z, BG.field(z), 0.2)[0], z)
        np.testing.assert_allclose(opt.step_ogda_s(BG, z, -z, 0.2)[0], z)
        np.testing.assert_allclose(opt.step_la_gda(BG, z, 0.2, 3, 0.5), z)


class TestQueryAccounting:
    def test_per_step_counts(self):
        assert opt.gradient_queries(opt.GDA(0.1)) == 1
        assert opt.gradient_queries(opt.EG(0.1)) == 2
        assert opt.gradient_queries(opt.OGDA(0.1)) == 1
        assert opt.gradient_queries(opt.OGDAStateSpace(0.1)) == 1
        assert opt.gradient_queries(opt.LookaheadGDA(0.1, k=3)) == 3

    def test_implicit_counts_are_per_run(self):
        with pytest.raises(ValueError):
            opt.gradient_queries(opt.ImplicitOGDA(0.1))

    @pytest.mark.parametrize("op", [BG, SI, random_bilinear(3, 2, 2)],
                             ids=["bilinear", "scaled-identity", "bilinear-random"])
    @pytest.mark.parametrize("gamma", [0.05, 0.5])
    def test_implicit_affine_step_costs_two_queries(self, op, gamma):
        # V(z) and V(z') after one Newton solve, which is exact on an affine field.
        traj = opt.run(op, opt.ImplicitOGDA(gamma), np.ones(op.dim), 40)
        assert not traj.diverged
        np.testing.assert_array_equal(np.diff(traj.queries), 2)

    def test_cumulative_queries(self):
        z0 = np.array([1.0, 0.0])
        for kind in (opt.GDA(0.05), opt.EG(0.05), opt.OGDA(0.05),
                     opt.OGDAStateSpace(0.05), opt.LookaheadGDA(0.05, k=3, alpha=0.4)):
            traj = opt.run(BG, kind, z0, 50)
            per_step = opt.gradient_queries(kind)
            np.testing.assert_array_equal(traj.queries, per_step * np.arange(51))


class TestRunLoop:
    def test_record_counts(self):
        traj = opt.run(BG, opt.GDA(0.1), np.array([1.0, 0.0]), 1)
        assert len(traj) == 2

    def test_gda_bilinear_distance_increases(self):
        traj = opt.run(BG, opt.GDA(0.1), np.array([1.0, 0.0]), 100)
        dist = traj.metric("dist_to_solution")
        assert np.all(np.diff(dist) > 0)
        # per-step growth factor is exactly sqrt(1 + gamma^2)
        np.testing.assert_allclose(dist[1:] / dist[:-1], np.sqrt(1.01), rtol=1e-12)

    def test_ogda_bilinear_contracts(self):
        traj = opt.run(BG, opt.OGDA(0.1), np.array([1.0, 0.0]), 2000)
        assert traj.metric("z_norm")[-1] < 1.0

    def test_ogda_first_step_keeps_z0(self):
        traj = opt.run(BG, opt.OGDA(0.1), np.array([1.0, 0.0]), 3)
        np.testing.assert_array_equal(traj.states[1], traj.states[0])

    def test_varstep_times_are_cumulative(self):
        kind = opt.OGDAVariableStep(gamma0=0.1, power=0.6)
        traj = opt.run(SI, kind, np.array([1.0, 0.0]), 10)
        gammas = [kind.step_size(n) for n in range(10)]
        np.testing.assert_allclose(traj.times, np.concatenate([[0.0], np.cumsum(gammas)]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_flag_and_padding(self):
        # gamma large enough to overflow quickly; run must not raise.
        traj = opt.run(BG, opt.GDA(5.0), np.array([1.0, 0.0]), 600)
        assert traj.diverged
        assert len(traj) == 601

    def test_nonpositive_schedule_step_raises(self):
        # A bad step size is a caller error, never a recorded divergence.
        # The schedule is read once per block, on an array of step indices.
        for bad in (-0.1, 0.0, float("nan")):
            reads = []
            kind = opt.OGDAVariableStep(schedule=lambda n, bad=bad, reads=reads: (
                reads.append(n.copy()) or np.where(n < 3, 0.1, bad)))
            with pytest.raises(ValueError, match=r"gamma_n must be positive, got .* at n=3"):
                opt.run(SI, kind, [1.0, 0.0], 5)
            assert len(reads) == 1 and reads[0].tolist() == [0, 1, 2, 3, 4]

    def test_schedule_read_once_per_block(self):
        reads = []
        kind = opt.OGDAVariableStep(schedule=lambda n: reads.append(n.copy()) or 0.01 + 0 * n)
        traj = opt.run(SI, kind, [1.0, 0.0], 600)
        assert [(r[0], len(r)) for r in reads] == [(0, 256), (256, 256), (512, 88)]
        assert traj.times[-1] == pytest.approx(6.0)
        # The default power law, read as an array, is the scalar formula.
        kind = opt.OGDAVariableStep(gamma0=0.1, power=0.6)
        np.testing.assert_allclose(kind.step_size(np.arange(50)),
                                   [0.1 / (n + 1) ** 0.6 for n in range(50)], rtol=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("kind, steps", [
        (opt.OGDA(0.1), 50),
        (opt.GDA(8.0), 40),     # trips the guard; the state stays finite
        (opt.GDA(8.0), 400),    # overflows near step 340: NaN tail
    ])
    def test_record_every_slices_the_full_run(self, kind, steps, k):
        z0 = np.array([1.0, 0.0])
        full = opt.run(BG, kind, z0, steps)
        thin = opt.run(BG, kind, z0, steps, record_every=k)
        idx = np.union1d(np.arange(0, steps + 1, k), [steps])
        np.testing.assert_array_equal(thin.steps, full.steps[idx])
        np.testing.assert_array_equal(thin.times, full.times[idx])
        np.testing.assert_array_equal(thin.queries, full.queries[idx])
        np.testing.assert_array_equal(thin.states, full.states[idx])
        assert thin.metrics.keys() == full.metrics.keys()
        for name in full.metrics:
            np.testing.assert_array_equal(thin.metric(name), full.metric(name)[idx])
        assert thin.diverged == full.diverged == (kind.name == "gda")
        if steps == 400:
            # The first non-finite state is recorded; the records after it
            # are NaN with the time and query columns forward-filled.
            last = np.flatnonzero(~np.isnan(full.states).all(axis=1))[-1]
            assert 0 < last < steps and np.isinf(full.states[last]).any()
            tail = np.isnan(thin.states).all(axis=1)
            assert tail[-1] and np.isnan(thin.metric("z_norm")[tail]).all()
            assert (thin.times[tail] == full.times[last]).all()
            assert (thin.queries[tail] == full.queries[last]).all()

    def test_la2_divergence_on_bilinear_at_half(self):
        # The per-step multiplier modulus^2 is 1 + alpha^2 gamma^4 a^4 >= 1 at
        # alpha = 1/2: no convergence (pinned structural fact).
        game = BilinearGame([[4.0]])
        traj = opt.run(game, opt.LookaheadGDA(0.25, k=2, alpha=0.5),
                       np.array([1.0, 0.0]), 400)
        assert traj.metric("dist_to_solution")[-1] > traj.metric("dist_to_solution")[0]

    def test_extra_metrics_recorded(self):
        traj = opt.run(BG, opt.GDA(0.1), np.array([1.0, 0.0]), 5,
                       extra_metrics={"half_norm": lambda ts, zs, auxs: 0.5 * np.linalg.norm(zs, axis=1)})
        np.testing.assert_allclose(traj.metric("half_norm"), 0.5 * traj.metric("z_norm"))

    @pytest.mark.parametrize("metric", [lambda ts, zs, auxs: 1.0,
                                        lambda ts, zs, auxs: np.zeros((len(zs), 1))])
    def test_extra_metric_of_the_wrong_shape_rejected(self, metric):
        # One value per record: a scalar is not broadcast into the column.
        with pytest.raises(ValueError, match="metric 'm' gave shape"):
            opt.run(BG, opt.GDA(0.1), np.array([1.0, 0.0]), 5, extra_metrics={"m": metric})


class TestEquivalence:
    def test_one_and_two_variable_forms_agree(self):
        problems = [
            (BilinearGame([[1.0]]), 1 / 16),
            (random_bilinear(7, 2, 2, 0.1), None),
            (QuarticCounterexample(), 1 / 48),
            (ScaledIdentity(1.0, 2), 1 / 16),
        ]
        for op, gamma in problems:
            if gamma is None:
                gamma = 1.0 / (16.0 * op.lipschitz)
            z0 = np.ones(op.dim) / np.sqrt(op.dim)
            one = opt.run(op, opt.OGDA(gamma), z0, 1000)
            two = opt.run(op, opt.OGDAStateSpace(gamma), z0, 1000)
            assert np.max(np.abs(one.states - two.states)) <= 1e-12

    def test_ratio_bound_under_step_cap(self):
        # ||V(z_{n+1})|| / ||V(z_n)|| stays in [1/2, 3/2] when gamma <= 1/(8L).
        for op in (BG, SI):
            traj = opt.run(op, opt.OGDA(1 / 16), np.array([1.0, 0.0]), 2000)
            vn = traj.metric("v_norm")
            mask = vn[:-1] > 1e-14
            ratios = vn[1:][mask] / vn[:-1][mask]
            assert np.all((ratios >= 0.5) & (ratios <= 1.5))


class TestMethodFactory:
    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            opt.GDA(0.0)
        with pytest.raises(ValueError):
            opt.LookaheadGDA(0.1, k=0)
        with pytest.raises(ValueError):
            opt.LookaheadGDA(0.1, alpha=1.5)
        with pytest.raises(ValueError):
            opt.ImplicitOGDA(0.1, fp_tol=0.0)
        with pytest.raises(ValueError, match="gamma"):
            opt.GDA(float("nan"))
        with pytest.raises(ValueError, match="fp_tol"):
            opt.ImplicitOGDA(0.1, fp_tol=float("nan"))
        for fp_max_iter in (0, -3, 2.0, True):
            with pytest.raises(ValueError, match="fp_max_iter"):
                opt.ImplicitOGDA(0.1, fp_max_iter=fp_max_iter)

    def test_ids(self):
        assert isinstance(opt.make_method("gda", gamma=0.1), opt.GDA)
        assert isinstance(opt.make_method("ogda-varstep"), opt.OGDAVariableStep)
        kind = opt.make_method("la-gda", gamma=0.1, k=3, alpha=0.25)
        assert kind.k == 3 and kind.alpha == 0.25

    def test_gamma_required(self):
        with pytest.raises(ValueError, match="gamma"):
            opt.make_method("gda")

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown method id"):
            opt.make_method("sgd", gamma=0.1)


#: The constant-step methods with a one-step map, lookahead at k = 1, 2, 3.
MAPPED_KINDS = [
    lambda gamma: opt.GDA(gamma),
    lambda gamma: opt.EG(gamma),
    lambda gamma: opt.OGDA(gamma),
    lambda gamma: opt.OGDAStateSpace(gamma),
    *(lambda gamma, k=k: opt.LookaheadGDA(gamma, k=k, alpha=0.4) for k in (1, 2, 3)),
]
STEPPERS = ("step_gda", "step_eg", "step_ogda", "step_ogda_s", "step_la_gda",
            "step_ogda_implicit")


class TestAffinePropagator:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(case=monotone_affine_cases(), gamma=st.floats(0.05, 1.0),
           record_every=st.integers(2, 4))
    def test_matches_stepper_path(self, case, gamma, record_every):
        m, z_star, z0, _ = case
        affine, twin = AffineField(m, z_star), NonAffineTwin(m, z_star)
        w_parts = {f"aux{i}": (lambda ts, zs, auxs, i=i: np.full(len(zs), np.nan)
                               if auxs is None else auxs[:, i])
                   for i in range(len(z_star))}
        for make in MAPPED_KINDS:
            kind = make(gamma)
            full = opt.run(affine, kind, z0, 25, extra_metrics=w_parts)
            ref = opt.run(twin, kind, z0, 25, extra_metrics=w_parts)
            assert_same_run(full, ref)
            for name in w_parts:
                np.testing.assert_allclose(full.metric(name), ref.metric(name),
                                           rtol=1e-10, atol=1e-10)
            # The record rule still slices the every-step run, bit for bit.
            thin = opt.run(affine, kind, z0, 25, extra_metrics=w_parts,
                           record_every=record_every)
            np.testing.assert_array_equal(thin.states, full.states[thin.steps])
            np.testing.assert_array_equal(thin.queries, full.queries[thin.steps])
            for name in full.metrics:
                np.testing.assert_array_equal(thin.metric(name), full.metric(name)[thin.steps])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_gda_overflow_matches_stepper_path(self):
        # |1 + 12i| per step: the guard trips within a dozen steps and the
        # state overflows near step 290 on both paths.
        op, twin = BilinearGame([[1.5]]), BilinearGame([[1.5]])
        twin.affine = False
        fast, ref = (opt.run(o, opt.GDA(8.0), [1.0, 0.0], 600) for o in (op, twin))
        assert fast.diverged and ref.diverged
        np.testing.assert_array_equal(fast.steps, ref.steps)
        np.testing.assert_array_equal(fast.times, ref.times)
        np.testing.assert_array_equal(fast.queries, ref.queries)
        stop = [np.flatnonzero(~np.isnan(t.states).all(axis=1))[-1] for t in (fast, ref)]
        assert stop[0] == stop[1] < 600
        assert np.isinf(fast.states[stop[0]]).any()
        for traj in (fast, ref):
            assert np.isnan(traj.states[stop[0] + 1:]).all()
            assert np.isnan(traj.metric("z_norm")[stop[0]:]).all()

    def test_selected_by_operator_and_method(self, monkeypatch):
        # A mapped run calls its stepper once, for one_step_map, never per step.
        calls = {name: 0 for name in STEPPERS}
        for name in STEPPERS:
            real = getattr(opt, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(opt, name, counted)
        m, z_star = np.array([[0.5, 1.0], [-1.0, 0.0]]), np.zeros(2)
        z0 = np.array([1.0, 0.0])
        for make in MAPPED_KINDS:
            for op in (AffineField(m, z_star), BG, SI):
                opt.run(op, make(0.1), z0, 10)
        assert calls == {"step_gda": 3, "step_eg": 3, "step_ogda": 3, "step_ogda_s": 3,
                         "step_la_gda": 9, "step_ogda_implicit": 0}
        opt.run(AffineField(m, z_star), opt.OGDAVariableStep(), z0, 10)
        opt.run(AffineField(m, z_star), opt.ImplicitOGDA(0.1), z0, 10)
        assert calls["step_ogda"] == 13 and calls["step_ogda_implicit"] == 10
        for make in MAPPED_KINDS:
            opt.run(NonAffineTwin(m, z_star), make(0.1), z0, 10)
            opt.run(QuarticCounterexample(), make(0.01), z0, 10)
        assert calls == {"step_gda": 23, "step_eg": 23, "step_ogda": 33, "step_ogda_s": 23,
                         "step_la_gda": 69, "step_ogda_implicit": 10}

    def test_one_step_map_requires_an_affine_operator(self):
        for method_id in ("gda", "eg", "ogda", "ogda-s", "la-gda"):
            kind = opt.make_method(method_id, gamma=0.1)
            with pytest.raises(ValueError, match="affine"):
                opt.one_step_map(QuarticCounterexample(), kind)
        for kind in (opt.OGDAVariableStep(), opt.ImplicitOGDA(0.1)):
            assert not opt._METHODS[kind.name].fixed_map
            with pytest.raises(ValueError, match="no fixed one-step map"):
                opt.one_step_map(BG, kind)


def reference_run(op, advance, z0, aux0, steps, gamma, queries, record_every=1,
                  extra_metrics=None):
    """The loop one step at a time: ``advance(z, aux) -> (z, aux)``; each
    state is checked, guarded and recorded (base metrics included) as it is
    reached, and no step follows the first non-finite one.  Each of
    ``extra_metrics`` is then called once with the finite records stacked."""
    grid = np.append(np.arange(0, steps, record_every), steps)
    extra = extra_metrics or {}
    names = ["z_norm", "dist_to_solution", "v_norm", *extra]
    traj = opt.Trajectory("reference", op.label, grid, np.zeros(len(grid)),
                          np.zeros(len(grid), dtype=np.int64),
                          np.full((len(grid), op.dim), np.nan),
                          {name: np.full(len(grid), np.nan) for name in names})
    count = 0
    kept = []  # (record, t, z, aux) of each finite record

    def record(t, q, z, aux):
        nonlocal count
        i, count = count, count + 1
        traj.times[i], traj.queries[i], traj.states[i] = t, q, z
        if np.isfinite(z).all():
            v, d = op.field_unchecked(z), z - op.solution
            traj.metrics["z_norm"][i] = math.sqrt(z.dot(z))
            traj.metrics["dist_to_solution"][i] = math.sqrt(d.dot(d))
            traj.metrics["v_norm"][i] = math.sqrt(v.dot(v))
            kept.append((i, t, z.copy(), None if aux is None else aux.copy()))

    z, aux, t, q = np.asarray(z0, dtype=float), aux0, 0.0, 0
    record(t, q, z, aux)
    for n in range(1, steps + 1):
        z, aux = advance(z, aux)
        t, q = t + gamma, q + queries
        finite = np.isfinite(z).all() and (aux is None or np.isfinite(aux).all())
        if not finite or math.sqrt(z.dot(z)) > opt.DIVERGENCE_GUARD:
            traj.diverged = True
        if n % record_every == 0 or n == steps:
            record(t, q, z, aux)
        if not finite:
            break
    traj.times[count:], traj.queries[count:] = t, q
    rows, ts, zs, auxs = zip(*kept)
    for name, fn in extra.items():
        traj.metrics[name][list(rows)] = fn(np.array(ts), np.array(zs),
                                            None if aux0 is None else np.array(auxs))
    return traj


def mapped_advance(op, kind):
    """One step of the method's affine map, on (z, aux) split out of s."""
    return maps_advance(itertools.repeat(opt.one_step_map(op, kind)), op.dim)


def maps_advance(maps, dim):
    """One step s' = R @ s per call, R the next of ``maps``, on (z, aux)
    split out of s = (z, aux, 1)."""
    def advance(z, aux):
        s = next(maps) @ np.concatenate((z, () if aux is None else aux, (1.0,)))
        return s[:dim], None if aux is None else s[dim:-1]

    return advance


def assert_same_records(fast, ref):
    """assert_same_run, and every state and metric equal bit for bit."""
    assert_same_run(fast, ref)
    np.testing.assert_array_equal(fast.states, ref.states)
    assert fast.metrics.keys() == ref.metrics.keys()
    for name in ref.metrics:
        np.testing.assert_array_equal(fast.metric(name), ref.metric(name))


class Tripwire(NonAffineTwin):
    """The same field, except that its ``trip``-th evaluation after
    construction overflows (a FloatingPointError under
    np.errstate(all="raise") outside the run loop)."""

    trip, calls = 0, 0

    def __init__(self, m, z_star, trip):
        super().__init__(m, z_star)
        self.trip, self.calls = trip, 0

    def _field(self, z):
        self.calls += 1
        v = super()._field(z)
        return v * 1e300 * 1e300 if self.calls == self.trip else v


def _block_rows(width):
    return min(opt.BLOCK_ROWS, opt.BLOCK_BYTES // (8 * width))


def block_starts(loop_rows, map_rows, count):
    """The first steps of the loop's first ``count`` blocks, when each
    block also ends where a block of ``map_rows`` maps does."""
    starts, n = [], 0
    while len(starts) < count:
        starts.append(n + 1)
        n += min(loop_rows, map_rows - n % map_rows)
    return starts


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestBlockLoop:
    """The block loop against the per-step reference loop, at its edges."""

    @pytest.mark.parametrize("dim, path", [(1, "run"), (60, "run"), (1, "integrate"),
                                           (60, "integrate")],
                             ids=["1", "60", "1-integrate", "60-integrate"])
    @pytest.mark.parametrize("at", [(0, 0), (0, -2), (0, -1), (1, 0), (1, -1), (2, 0)],
                             ids=["row0", "row-2", "row-1", "block2-row0", "block2-row-1",
                                  "block3-row0"])
    def test_first_non_finite_state_at_block_edges(self, dim, path, at):
        # GDA with gamma = 3 on V(z) = z, and Euler with dt = 1 on gda-ode
        # for V(z) = -z, double |z| each step with exact arithmetic, so z0 =
        # 2^(1024 - k) overflows at step k exactly.  Row i of block b holds
        # step b * rows + i + 1 (rows = 256 at dim 1, and fewer at dim 60,
        # where the byte cap binds); the steps after k in its block are
        # computed and discarded.
        rows = _block_rows(dim + 1)
        block, row = at
        k = block * rows + row % rows + 1
        z0 = np.full(dim, math.ldexp(1.0, 1024 - k))
        steps = k + 20
        if path == "run":
            op, kind = ScaledIdentity(1.0, dim), opt.GDA(3.0)
            fast = opt.run(op, kind, z0, steps)
            advance, dt = mapped_advance(op, kind), 3.0
        else:
            op, kind = AffineField(-np.eye(dim), np.zeros(dim)), flows.make_flow("gda-ode")
            cfg = flows.IntegratorConfig("euler", 1.0, float(steps))
            system = np.diag(np.append(np.full(dim, 2.0), 1.0))
            np.testing.assert_array_equal(flows._scheme_map(kind, op, cfg), system)
            fast = flows.integrate(kind, op, z0, None, cfg)
            advance, dt = maps_advance(itertools.repeat(system), dim), 1.0
        ref = reference_run(op, advance, z0, None, steps, dt, 1)
        assert_same_records(fast, ref)
        assert fast.diverged
        last = np.flatnonzero(~np.isnan(fast.states).all(axis=1))[-1]
        assert fast.steps[last] == k and np.isinf(fast.states[last]).all()
        assert np.isfinite(fast.states[:last]).all()
        assert fast.times[-1] == dt * k and fast.queries[-1] == k

    @pytest.mark.parametrize("dim", [2, 16])
    @pytest.mark.parametrize("at", ["row0", "row-1", "block2-row0", "block3-row0"])
    def test_first_non_finite_state_at_map_block_edges(self, dim, at, monkeypatch):
        # ogda-hrde2-varstep by its per-step maps R_n against R_n @ s one
        # step at a time, with the maps the run built.  kappa = inf at the
        # later stage times of step k makes R_k, and so the state of step
        # k, non-finite.  A block of the loop also ends where a block of
        # maps does: at d = 2 (width 5) the loop's blocks hold 256 steps and
        # the maps' 327; at d = 16 (width 33) the byte cap binds on both,
        # at 248 and 7.
        width = 2 * dim + 1
        starts = block_starts(_block_rows(width), opt.BLOCK_BYTES // (8 * width * width), 3)
        k = {"row0": 1, "row-1": starts[1] - 1, "block2-row0": starts[1],
             "block3-row0": starts[2]}[at]
        built = []
        real = flows._block_maps
        monkeypatch.setattr(flows, "_block_maps", lambda *a: built.append(real(*a)) or built[-1])
        dt, steps = 0.125, k + 20
        kind = flows.VariableStepFlow(lambda t: np.where(t > (k - 1) * dt, np.inf, 1.0))
        rng = np.random.default_rng(dim)
        op = AffineField(0.1 * np.eye(dim) + rng.standard_normal((dim, dim)) * 0.3, np.zeros(dim))
        z0, w0 = rng.standard_normal(dim), rng.standard_normal(dim)
        fast = flows.integrate(kind, op, z0, w0, flows.IntegratorConfig("rk4", dt, steps * dt))
        ref = reference_run(op, maps_advance(iter(np.concatenate(built)), dim), z0, w0, steps,
                            dt, 4)
        assert_same_records(fast, ref)
        # The non-finite state of step k is NaN, like the records after it;
        # the forward-filled time and query columns name the step.
        assert fast.diverged and fast.times[-1] == k * dt and fast.queries[-1] == 4 * k
        assert np.isfinite(fast.states[:k]).all() and np.isnan(fast.states[k:]).all()

    @pytest.mark.parametrize("op_type", [AffineField, NonAffineTwin])
    def test_nonpositive_kappa_after_a_non_finite_state(self, op_type):
        # kappa = inf makes the state of step 5 non-finite and kappa = -1
        # is read in the same block of maps, at step 7: the run records the
        # divergence and stops before it.  In the reverse order step 5
        # raises, with the same ValueError on the maps and the rhs path.
        dt, k = 0.125, 5
        cfg = flows.IntegratorConfig("rk4", dt, 40 * dt)
        m, z_star = np.array([[0.5, 1.0], [-1.0, 0.0]]), np.zeros(2)
        z0, w0 = np.array([1.0, 0.0]), np.zeros(2)

        def schedule(first, then):
            return lambda t: np.where(t > (k + 1) * dt, then, np.where(
                t > (k - 1) * dt, first, 1.0))

        traj = flows.integrate(flows.VariableStepFlow(schedule(np.inf, -1.0)),
                               op_type(m, z_star), z0, w0, cfg)
        assert traj.diverged and traj.queries[-1] == 4 * k
        assert np.isfinite(traj.states[:k]).all() and not np.isfinite(traj.states[k]).all()
        with pytest.raises(ValueError, match="kappa") as raised:
            flows.integrate(flows.VariableStepFlow(schedule(-1.0, np.inf)),
                            op_type(m, z_star), z0, w0, cfg)
        assert str(raised.value) == f"kappa(t) must be positive, got -1.0 at t={(k - 0.5) * dt}"

    def test_run_times_are_the_sequential_sum(self):
        # 10,000 steps span 40 blocks; each block's times are accumulated
        # from the last time of the block before it.
        traj = opt.run(ScaledIdentity(1.0, 2), opt.GDA(0.1), np.array([1.0, 0.5]), 10_000)
        t, want = 0.0, [0.0]
        for _ in range(10_000):
            t += 0.1
            want.append(t)
        assert traj.times.tobytes() == np.array(want).tobytes()

    def test_guard_trip_without_non_finite_state(self):
        # |z_n| = 2^n passes the 1e12 guard at n = 40 and stays finite.  On
        # the nilpotent field GDA's map is [[0, 1e13], [0, 0]]: (0, 1) goes to
        # (1e13, 0) and then to 0, past the guard at step 1 of a block that
        # ends at 0.
        doubling = ScaledIdentity(1.0, 2)
        nilpotent = AffineField(np.array([[1.0, -1e13], [0.0, 1.0]]), np.zeros(2))
        for op, kind, z0, steps, tripped in [(doubling, opt.GDA(3.0), [1.0, 0.0], 39, False),
                                             (doubling, opt.GDA(3.0), [1.0, 0.0], 40, True),
                                             (doubling, opt.GDA(3.0), [1.0, 0.0], 300, True),
                                             (nilpotent, opt.GDA(1.0), [0.0, 1.0], 10, True)]:
            z0 = np.array(z0)
            fast = opt.run(op, kind, z0, steps)
            assert_same_records(fast, reference_run(op, mapped_advance(op, kind), z0, None,
                                                    steps, kind.gamma, 1))
            assert fast.diverged == tripped
            assert np.isfinite(fast.states).all()

    @pytest.mark.parametrize("record_every", [3, 7, 100, 255, 257, 1000])
    @pytest.mark.parametrize("steps", [300, 601, 1001])
    def test_record_every_off_the_block_grid(self, steps, record_every):
        cases = [(BilinearGame([[1.0, 0.5], [0.0, 1.0]]), opt.OGDA(0.1),
                  np.array([1.0, 0.0, 0.5, -0.5])),
                 (BilinearGame([[1.0]]), opt.LookaheadGDA(0.2, k=3, alpha=0.4),
                  np.array([1.0, 0.0])),
                 # Overflows at step 290, inside the run for 601 and 1001 steps.
                 (ScaledIdentity(1.0, 1), opt.GDA(3.0), np.array([math.ldexp(1.0, 734)]))]
        for op, kind, z0 in cases:
            fast = opt.run(op, kind, z0, steps, record_every=record_every)
            aux0 = opt._METHODS[kind.name].init_aux(op, z0, kind)
            ref = reference_run(op, mapped_advance(op, kind), z0, aux0, steps, kind.gamma,
                                opt.gradient_queries(kind), record_every)
            assert_same_records(fast, ref)
            assert fast.steps[-1] == steps

    @pytest.mark.parametrize("trip", [1, 255, 256, 257, 513])
    def test_floating_point_error_at_block_edges(self, trip):
        # The trip-th field evaluation (step trip) overflows inside _field.
        # In the loop that is a value under any errstate: step trip is taken,
        # its non-finite state recorded and the run diverged, with the same
        # records under "warn" and "raise".
        m, z_star, z0 = np.array([[0.1, 1.0], [-1.0, 0.1]]), np.zeros(2), np.array([1.0, 0.0])
        steps, gamma = 600, 0.01
        stepper = Tripwire(m, z_star, trip).unchecked()
        with np.errstate(all="ignore"):
            ref = reference_run(NonAffineTwin(m, z_star), lambda z, aux: (
                opt.step_gda(stepper, z, gamma), aux), z0, None, steps, gamma, 1)
        for mode in ("warn", "raise"):
            with np.errstate(all=mode):
                fast = opt.run(Tripwire(m, z_star, trip), opt.GDA(gamma), z0, steps)
            assert_same_records(fast, ref)
            assert fast.diverged
            assert np.isfinite(fast.states[:trip]).all() and np.isinf(fast.states[trip]).all()
            assert np.isnan(fast.states[trip + 1:]).all()
            assert fast.queries[-1] == trip and fast.times[-1] == ref.times[trip]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", [opt.GDA(8.0), opt.OGDA(8.0), "gda-hrde"])
    def test_raising_errstate_records_the_same_blow_up(self, kind):
        # Past |z| ~ 1.3e154 the guard's norm overflows, and the map's
        # product overflows to a non-finite state: neither is an error, so
        # np.errstate(all="raise") records the run that the default does.
        z0 = np.array([1.0, 0.0])
        if kind == "gda-hrde":  # dt*beta = 20: RK4's R(dt S) grows the state
            op = AffineField(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2))
            cfg = flows.IntegratorConfig("rk4", 0.1, 20.0)
            go = lambda: flows.integrate(flows.make_flow(kind, gamma=0.01), op, z0,
                                         np.zeros(2), cfg)
        else:
            go = lambda: opt.run(BilinearGame([[1.5]]), kind, z0, 600)
        ref = go()
        with np.errstate(all="raise"):
            raised = go()
        # A finite state whose norm overflows, then a non-finite state.
        assert ref.diverged and np.isinf(ref.metric("z_norm")).any()
        assert not np.isfinite(ref.states).all() and not np.isnan(ref.states).all(axis=1).all()
        assert_same_records(raised, ref)

    @pytest.mark.parametrize("kind, op", [
        (opt.OGDA(0.1), BilinearGame([[1.0, 0.5], [0.0, 1.0]])),
        (opt.OGDAStateSpace(0.1), BilinearGame([[1.0, 0.5], [0.0, 1.0]])),
        (opt.EG(0.2), ScaledIdentity(2.0, 4)),
    ])
    def test_monitors_see_the_same_records(self, kind, op):
        # Monitors are called once, when the loop ends, with the (t, z, aux)
        # of the finite records that the per-step loop reaches, stacked.
        def monitor(calls):
            def f(ts, zs, auxs):
                calls.append((ts.copy(), zs.copy(), None if auxs is None else auxs.copy()))
                return ts + zs.sum(axis=1) + (0.0 if auxs is None else auxs.sum(axis=1))
            return f

        z0 = np.arange(1.0, op.dim + 1)
        aux0 = opt._METHODS[kind.name].init_aux(op, z0, kind)
        seen = {"fast": [], "ref": []}
        fast = opt.run(op, kind, z0, 700, record_every=3,
                       extra_metrics={"m": monitor(seen["fast"])})
        ref = reference_run(op, mapped_advance(op, kind), z0, aux0, 700, kind.gamma,
                            opt.gradient_queries(kind), 3, {"m": monitor(seen["ref"])})
        assert_same_records(fast, ref)
        assert len(seen["fast"]) == len(seen["ref"]) == 1
        (ts, zs, auxs), (ts_ref, zs_ref, auxs_ref) = seen["fast"][0], seen["ref"][0]
        assert ts.dtype == np.float64 and ts.shape == (len(fast),)
        np.testing.assert_array_equal(ts, ts_ref)
        np.testing.assert_array_equal(zs, zs_ref)
        assert (auxs is None) == (auxs_ref is None) == (kind.name == "eg")
        if auxs is not None:
            np.testing.assert_array_equal(auxs, auxs_ref)


_TWIN = NonAffineTwin(np.array([[0.0, 1.5], [-1.5, 0.0]]), np.zeros(2))
#: name -> (the run, its last recorded step, its query count): each stops
#: at its first non-finite state (z or aux), which it records.
STOP_RULE_RUNS = {
    # 3 -> -51 -> 265251 -> ... -> about 2e150, whose field overflows: the
    # state of step 6 is inf.
    "quartic-gda": (lambda: opt.run(QuarticCounterexample(), opt.GDA(0.5), [3.0, 0.5], 10),
                    6, 6),
    "twin-gda": (lambda: opt.run(_TWIN, opt.GDA(8.0), [1.0, 0.0], 600), 286, 286),
    "twin-ogda": (lambda: opt.run(_TWIN, opt.OGDA(8.0), [1.0, 0.0], 600), 225, 225),
    # dt * beta = 20: the RK4 stages blow up; omega overflows at step 82.
    "gda-hrde-rk4": (lambda: flows.integrate(
        flows.make_flow("gda-hrde", gamma=0.01),
        NonAffineTwin(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2)),
        np.array([1.0, 0.0]), np.zeros(2), flows.IntegratorConfig("rk4", 0.1, 20.0)), 82, 328),
    # V(z0) overflows: the Newton residual is non-finite at once, so the
    # step returns after its one query, with a non-finite omega.
    "implicit-residual": (lambda: opt.run(QuarticCounterexample(), opt.ImplicitOGDA(0.1),
                                          [1e103, 0.5], 5), 1, 1),
}


class TestOneStopRule:
    """Every evaluation path stops at the same step, and records the same
    non-finite state, under numpy's default errstate and under "raise",
    and prints no warning."""

    @pytest.mark.parametrize("name", STOP_RULE_RUNS)
    def test_same_stop_under_any_errstate(self, name):
        go, stop, queries = STOP_RULE_RUNS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warned = go()
        with np.errstate(all="raise"):
            raised = go()
        assert_same_records(raised, warned)
        reached = np.flatnonzero(~np.isnan(warned.states).all(axis=1))
        assert warned.diverged and warned.steps[reached[-1]] == stop
        assert reached.tolist() == list(range(len(reached)))
        assert warned.queries[-1] == queries
        if name in ("quartic-gda", "twin-gda", "twin-ogda"):
            assert np.isinf(warned.states[reached[-1]]).any()

    def test_implicit_step_returns_at_a_non_finite_residual(self):
        # It must not spin to fp_max_iter on NaN residuals.
        op, calls = QuarticCounterexample(), []
        view = op.unchecked()
        view.field = lambda z: calls.append(1) or op.field_unchecked(z)
        with np.errstate(all="ignore"):
            z, omega, queries = opt.step_ogda_implicit(view, np.array([1e103, 0.5]),
                                                       np.zeros(2), 0.1)
        assert queries == len(calls) == 1
        assert z.tolist() == [1e103, 0.5] and not np.isfinite(omega).all()


def _spectral_radius(mat):
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


class TestOneStepSpectra:
    """On a bilinear game J has eigenvalues +-i s for the singular values s
    of A, so each one-step matrix has the spectrum of its polynomial in J."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("gamma", [0.05, 0.3, 1.0])
    def test_spectral_radius_closed_forms(self, seed, gamma):
        op = random_bilinear(seed, 3, 3)
        s = np.linalg.svd(op.A, compute_uv=False)
        is_ = 1j * gamma * s

        def radius(method_id, **params):
            kind = opt.make_method(method_id, gamma=gamma, **params)
            return _spectral_radius(opt.one_step_map(op, kind)[:-1, :-1])

        assert radius("gda") == pytest.approx(np.max(np.abs(1 - is_)), rel=1e-12)
        assert radius("eg") == pytest.approx(np.max(np.abs(1 - is_ + is_ ** 2)), rel=1e-12)
        # Both optimistic forms: lambda^2 - (1 - 2 i gamma s) lambda - i gamma s = 0.
        root = np.sqrt(1 - 4 * (gamma * s) ** 2 + 0j)
        expected = np.max(np.abs([(1 - 2 * is_ + root) / 2, (1 - 2 * is_ - root) / 2]))
        assert radius("ogda") == pytest.approx(expected, rel=1e-9)
        assert radius("ogda-s") == pytest.approx(expected, rel=1e-9)
        for k in (1, 2, 3):
            for alpha in (0.25, 0.5, 1.0):
                expected = np.max(np.abs((1 - alpha) + alpha * (1 - is_) ** k))
                assert radius("la-gda", k=k, alpha=alpha) == pytest.approx(expected, rel=1e-10)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=monotone_affine_cases(), gamma=st.floats(0.05, 1.0))
    def test_maps_reproduce_one_step(self, case, gamma):
        # S applied to (z, aux, 1) equals one stepper call, and S equals the
        # hand-derived (M, m), on generated monotone fields with q != 0.
        m, z_star, z, aux = case
        op = AffineField(m, z_star)
        cases = [
            (opt.GDA(gamma), None, lambda: opt.step_gda(op, z, gamma)),
            (opt.EG(gamma), None, lambda: opt.step_eg(op, z, gamma)),
            (opt.OGDA(gamma), aux, lambda: np.concatenate(opt.step_ogda(op, z, aux, gamma))),
            (opt.OGDAStateSpace(gamma), aux,
             lambda: np.concatenate(opt.step_ogda_s(op, z, aux, gamma))),
            *((opt.LookaheadGDA(gamma, k=k, alpha=0.4), None,
               lambda k=k: opt.step_la_gda(op, z, gamma, k, 0.4)) for k in (1, 2, 3)),
        ]
        for kind, memory, stepped in cases:
            system = opt.one_step_map(op, kind)
            want = np.eye(len(system))
            want[:-1] = np.column_stack(closed_form_map(op, kind))
            np.testing.assert_allclose(system, want, rtol=1e-13,
                                       atol=1e-13 * np.abs(want).max())
            state = np.concatenate([z, () if memory is None else memory, (1.0,)])
            expected = stepped()
            np.testing.assert_allclose((system @ state)[:-1], expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())


def closed_form_map(op, kind):
    """(M, m) of each fixed-map method on V(z) = J z + q, derived by hand:
    the reference that ``one_step_map`` must reproduce."""
    zero, dim, gamma = np.zeros(op.dim), op.dim, kind.gamma
    jac, q, eye = op.jacobian(zero), op.field(zero), np.eye(op.dim)
    gda = eye - gamma * jac
    if kind.name == "gda":
        return gda, -gamma * q
    if kind.name == "eg":  # M = I - gamma J G with G the GDA matrix
        return eye - gamma * (jac @ gda), -gamma * (gda @ q)
    if kind.name == "la-gda":  # (1 - alpha) I + alpha G^k, alpha g_k
        fast, shift = gda, -gamma * q
        for _ in range(kind.k - 1):
            fast, shift = gda @ fast, gda @ shift - gamma * q
        return (1.0 - kind.alpha) * eye + kind.alpha * fast, kind.alpha * shift
    mat = np.zeros((2 * dim, 2 * dim))
    if kind.name == "ogda":  # on (z, v_prev): z' = (I - 2 gamma J) z + gamma v_prev - 2 gamma q
        mat[:dim, :dim] = eye - 2.0 * gamma * jac
        mat[:dim, dim:] = gamma * eye
        mat[dim:, :dim] = jac
        return mat, np.concatenate([-2.0 * gamma * q, q])
    # ogda-s on (z, w): z' = (I/2 - 2 gamma J) z - w/2 - 2 gamma q, w' = (w - z)/2
    mat[:dim, :dim] = 0.5 * eye - 2.0 * gamma * jac
    mat[:dim, dim:] = mat[dim:, :dim] = -0.5 * eye
    mat[dim:, dim:] = 0.5 * eye
    return mat, np.concatenate([-2.0 * gamma * q, zero])
