"""Tests for the discrete steppers and the run loop."""

import numpy as np
import pytest

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
        for bad in (-0.1, 0.0, float("nan")):
            kind = opt.OGDAVariableStep(schedule=lambda n, bad=bad: 0.1 if n < 3 else bad)
            with pytest.raises(ValueError, match=r"at n=3"):
                opt.run(SI, kind, [1.0, 0.0], 5)

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
                       extra_metrics={"half_norm": lambda t, z, aux: 0.5 * np.linalg.norm(z)})
        np.testing.assert_allclose(traj.metric("half_norm"), 0.5 * traj.metric("z_norm"))


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
