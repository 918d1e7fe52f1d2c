"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 1 asserts the stability split on bilinear games: GDA unstable, EG
and OGDA stable, and lookahead LA-k over GDA stable exactly below its
alpha-threshold alpha*_k = (k - 1)/k (1/2 for LA2, 2/3 for LA3), marginal at
it and unstable above, for every step size.  The thresholds are derived in
closed form, not read back from the program: on min_x max_y x^T A y the flows
decouple per singular value s of A, the D-block eigenvalues are
mu = -2*alpha*s^2 +/- 2*alpha*beta*s*i (LA2) and -6*alpha*s^2 +/-
3*alpha*beta*s*i (LA3), and the quadratic stability condition
Re(mu) < -Im(mu)^2/beta^2 reduces to alpha < 1/2 resp. alpha < 2/3,
independent of beta = 2/gamma.  The discrete methods share the thresholds:
for small gamma the LA-k multiplier has
|lambda|^2 ~ 1 - alpha*k*gamma^2*s^2*((k - 1) - alpha*k) (Chavdarova et al.,
"Taming GANs with Lookahead-Minmax", ICLR 2021).
"""

import json
import math
import time

import numpy as np
import pytest

from lyapunov_helpers import discrete_implicit_decrease
from saddleflow import cli, flows, lyapunov as lyap, optimizers as opt, rates
from saddleflow import stability as st
from saddleflow.problems import (
    BilinearGame,
    QuarticCounterexample,
    ScaledIdentity,
    fd_jacobian,
    random_bilinear,
)

BG = BilinearGame([[1.0]])
SI = ScaledIdentity(1.0, 2)
CATALOG = [
    ("bilinear", BG),
    ("bilinear-random", random_bilinear(11, 2, 2, 0.1)),
    ("quartic", QuarticCounterexample()),
    ("scaled-identity", SI),
]


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return ok


#: Number of inner GDA steps k of each lookahead method.
LOOKAHEAD_STEPS = {"la2-gda": 2, "la3-gda": 3}
#: Spectral abscissae within this of zero count as marginal.
ABSCISSA_EPS = 1e-8


def expected_class(method, alpha):
    """Stability class of a method's flow on a bilinear game, from theory."""
    if method == "gda":
        return st.UNSTABLE
    if method in ("eg", "ogda"):
        return st.STABLE
    k = LOOKAHEAD_STEPS[method]
    threshold = (k - 1) / k
    if math.isclose(alpha, threshold):
        return st.MARGINAL
    return st.STABLE if alpha < threshold else st.UNSTABLE


def abscissa_class(abscissa):
    if abscissa < -ABSCISSA_EPS:
        return st.STABLE
    if abscissa > ABSCISSA_EPS:
        return st.UNSTABLE
    return st.MARGINAL


def test_criterion_01_bilinear_stability_split():
    start = time.monotonic()
    gammas = (1e-2, 1e-1, 1.0, 10.0)
    alphas = (0.25, 0.5, 0.75)
    failures = []
    disagreements = 0
    for i in range(50):
        d = 1 + i % 4
        game = random_bilinear(1000 + i, d, d, 0.1)
        for gamma in gammas:
            cases = [("gda", None), ("eg", None), ("ogda", None)]
            cases += [(m, a) for m in ("la2-gda", "la3-gda") for a in alphas]
            for method, alpha in cases:
                v = st.classify_method(method, game, gamma, alpha)
                if not v.agrees:
                    disagreements += 1
                want = expected_class(method, alpha)
                # The verdict's abscissa is closed-form; the dense eigensolve
                # of the assembled C is the independent leg.
                dense = st.spectral_abscissa(
                    st.assemble_system_matrix(method, game, gamma, alpha).matrix)
                if (abscissa_class(v.spectral_abscissa) != want or v.verdict != want
                        or abscissa_class(dense) != want):
                    failures.append((method, alpha, want, v.verdict))
    elapsed = time.monotonic() - start
    summary = sorted(set(failures), key=str)
    ok = not failures and not disagreements and elapsed < 30.0
    report(1, ok,
           f"stability split over 50 games x 4 step sizes ({elapsed:.1f}s): "
           f"{len(failures)} cases off the expected class, "
           f"{disagreements} test disagreements")
    assert elapsed < 30.0
    assert disagreements == 0
    assert not failures, (
        "stability class differs from theory for: "
        + ", ".join(f"{m} alpha={a} (expected {w}, verdict {got})"
                    for m, a, w, got in summary)
        + "; gda must be unstable, eg and ogda stable, and la-k stable for "
          "alpha < (k-1)/k, marginal at it (|abscissa| <= 1e-8) and unstable "
          "above"
    )


def test_criterion_02_routh_fixtures():
    gda = st.routh_quartic_gda(2.0, -1.0)
    ogda = st.routh_quartic_ogda(2.0, -1.0)
    err_gda = np.max(np.abs(gda.first_column - np.array([1.0, 4.0, 4.0, -4.0, 4.0])))
    err_ogda = np.max(np.abs(
        ogda.first_column - np.array([1.0, 4.0, 6.0, 32.0 / 3.0, 128.0 / 3.0])
    ))
    ok = (err_gda <= 1e-12 and gda.sign_changes == 2
          and err_ogda <= 1e-12 and np.all(ogda.first_column > 0))
    report(2, ok, f"routh fixtures exact (errors {err_gda:.1e}, {err_ogda:.1e})")
    assert ok


def test_criterion_03_figure_reproduction(tmp_path):
    start = time.monotonic()
    series = cli.cmd_figure_bg(0.05, 2000, 0, tmp_path / "fig.svg", tmp_path / "fig.csv")
    elapsed = time.monotonic() - start
    results = {}
    for label, queries, dist in series:
        if label == "gda":
            results[label] = bool(np.all(np.diff(dist) > 0))
        else:
            within = dist[queries <= 4000]
            results[label] = bool(within.min() <= 1e-3 * dist[0])
    ok = all(results.values()) and elapsed < 5.0
    report(3, ok, f"figure split ({elapsed:.2f}s): {results}")
    assert elapsed < 5.0
    assert all(results.values()), results


def test_criterion_04_one_and_two_variable_equivalence():
    worst = 0.0
    for label, op in CATALOG:
        gamma = 1.0 / (16.0 * op.lipschitz) if op.lipschitz else 1.0 / 48.0
        z0 = np.ones(op.dim) / np.sqrt(op.dim)
        one = opt.run(op, opt.OGDA(gamma), z0, 1000)
        two = opt.run(op, opt.OGDAStateSpace(gamma), z0, 1000)
        worst = max(worst, float(np.max(np.abs(one.states - two.states))))
    ok = worst <= 1e-12
    report(4, ok, f"one-variable vs two-variable iterates, worst coordinate gap {worst:.2e}")
    assert ok


def test_criterion_05_flow_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        sel = trial % 3
        if sel == 0:
            op = BG
        elif sel == 1:
            op = SI
        else:
            op = random_bilinear(100 + trial, 2, 2, 0.1)
        gamma = float(rng.uniform(0.05, 0.5))
        z0 = 0.5 * rng.standard_normal(op.dim)
        omega0 = 0.5 * rng.standard_normal(op.dim)
        w0 = flows.ogda2_w_from_omega(op, z0, omega0, gamma)
        cfg = flows.IntegratorConfig("rk4", 1e-4, 1.0, record_every=100)
        a = flows.integrate(flows.ogda_flow(2.0 / gamma), op, z0, omega0, cfg)
        b = flows.integrate(flows.make_flow("ogda-hrde2", gamma=gamma), op, z0, w0, cfg)
        worst = max(worst, float(np.max(np.abs(a.states - b.states))))
    ok = worst <= 1e-6
    report(5, ok, f"(z,omega) vs (z,w) flow trajectories, worst sup gap {worst:.2e}")
    assert ok


def test_criterion_06_lyapunov_decrease():
    max_incr = -np.inf
    violations = 0
    z0 = np.array([1.0, 0.0])

    cfg = flows.IntegratorConfig("rk4", 1e-3, 2.0)
    for op in (BG, SI):
        mons = {"l1": lyap.make_monitor("ogda_l1", op, beta=2.0),
                "l2": lyap.make_monitor("ogda_l2", op, beta=2.0)}
        traj = flows.integrate(flows.ogda_flow(2.0), op, z0, np.zeros(2), cfg,
                               extra_metrics=mons)
        for name in mons:
            rep = lyap.continuous_decrease_check(traj.metric(name), tol_abs=1e-7)
            violations += len(rep.violations)
            max_incr = max(max_incr, rep.max_increase)

        w0 = flows.ogda2_w_from_omega(op, z0, np.zeros(2), 1.0)
        mons = {"l3": lyap.make_monitor("ogda2_l3", op),
                "l4": lyap.make_monitor("ogda2_l4", op, kappa=1.0)}
        traj = flows.integrate(flows.make_flow("ogda-hrde2", gamma=1.0), op, z0, w0, cfg,
                               extra_metrics=mons)
        for name in mons:
            rep = lyap.continuous_decrease_check(traj.metric(name), tol_abs=1e-7)
            violations += len(rep.violations)
            max_incr = max(max_incr, rep.max_increase)

    varstep_cases = [
        (SI, 1.0, lambda t: np.sqrt(2.0 + t)),
        (BG, 0.0, lambda t: 2.0 / np.sqrt(1.0 + 0.05 * t)),
    ]
    for op, mu, beta_fn in varstep_cases:
        assert lyap.varstep_precondition(beta_fn, mu, (0.0, 2.0))
        kind = flows.VariableStepFlow(lambda t, b=beta_fn: 0.5 * b(t))
        mons = {"lv": lyap.make_monitor("varstep_l", op, beta_fn=beta_fn)}
        traj = flows.integrate(kind, op, z0, -z0, cfg, extra_metrics=mons)
        rep = lyap.continuous_decrease_check(traj.metric("lv"), tol_abs=1e-7)
        violations += len(rep.violations)
        max_incr = max(max_incr, rep.max_increase)

    ok = violations == 0
    report(6, ok, f"lyapunov decrease, {violations} violations "
                  f"(max one-step increase {max_incr:.2e})")
    assert ok


def _ogda_run(op, steps=10_000):
    return opt.run(op, opt.OGDA(1.0 / 16.0), np.array([1.0, 0.0]), steps)


def test_criterion_07_explicit_bound_and_last_iterate():
    budgets = {"scaled-identity": 400, "bilinear": 8000}
    ok = True
    details = []
    for label, op in (("bilinear", BG), ("scaled-identity", SI)):
        traj = _ogda_run(op)
        vn = traj.metric("v_norm")
        margins = rates.best_iterate_bound_check(vn, 1.0 / 16.0, 1.0, 1.0)
        hit = np.argmax(vn < 1e-6) if np.any(vn < 1e-6) else None
        ok_margin = bool(np.all(margins >= 0.0))
        ok_budget = hit is not None and hit <= budgets[label]
        details.append(f"{label}: min margin {margins.min():.3f}, "
                       f"|V|<1e-6 at n={hit} (budget {budgets[label]})")
        ok = ok and ok_margin and ok_budget
    report(7, ok, "; ".join(details))
    assert ok


def test_criterion_08_ratio_bound():
    worst_lo, worst_hi = np.inf, -np.inf
    for label, op in (("bilinear", BG), ("scaled-identity", SI)):
        traj = _ogda_run(op)
        vn = traj.metric("v_norm")
        mask = vn[:-1] > 1e-14
        ratios = vn[1:][mask] / vn[:-1][mask]
        worst_lo = min(worst_lo, float(ratios.min()))
        worst_hi = max(worst_hi, float(ratios.max()))
    ok = worst_lo >= 0.5 and worst_hi <= 1.5
    report(8, ok, f"field-norm step ratios within [{worst_lo:.4f}, {worst_hi:.4f}]")
    assert ok


def test_criterion_09_strongly_monotone_rate():
    cfg = flows.IntegratorConfig("rk4", 1e-3, 20.0, record_every=10)
    traj = flows.integrate(flows.ogda_flow(2.0), SI, np.array([1.0, 0.0]),
                           np.zeros(2), cfg)
    fit = rates.fit_geometric(traj.times[1:], traj.metric("z_norm")[1:],
                              mu=1.0, beta=2.0)
    ok = fit.rho_hat >= fit.rho_theory - 0.01
    report(9, ok, f"fitted decay rate {fit.rho_hat:.4f} >= "
                  f"certified {fit.rho_theory:.4f} - 0.01")
    assert fit.rho_theory == pytest.approx(4.0 / 13.0)
    assert ok


def test_criterion_10_implicit_scheme():
    gamma = 0.5
    z, om = np.array([1.0, 0.0]), np.zeros(2)
    sup_scaled = 0.0
    max_d1 = max_d2 = -np.inf
    for n in range(1, 10_001):
        zn, on, _ = opt.step_ogda_implicit(SI, z, om, gamma)
        d1, d2 = discrete_implicit_decrease(SI, (z, om), (zn, on), gamma)
        max_d1, max_d2 = max(max_d1, d1), max(max_d2, d2)
        z, om = zn, on
        sup_scaled = max(sup_scaled, float(np.linalg.norm(SI.field(z))) * np.sqrt(n))
    ok = sup_scaled <= 2.0 and max_d1 <= 1e-10 and max_d2 <= 1e-10
    report(10, ok, f"implicit run: sup |V| sqrt(n) = {sup_scaled:.3f} <= 2.0, "
                   f"max lyapunov diffs ({max_d1:.1e}, {max_d2:.1e})")
    assert ok


def test_criterion_11_spurious_equilibria():
    quartic = QuarticCounterexample()
    ok = True
    details = []
    for beta in (6.0, 24.0, 96.0):
        point = st.eg_hrde_spurious_fixed_point(beta)
        dz, dom = flows.rhs(flows.eg_flow(beta), quartic, point, np.zeros(2))
        eg_norm = float(np.hypot(np.linalg.norm(dz), np.linalg.norm(dom)))
        dz, dom = flows.rhs(flows.ogda_flow(beta), quartic, point, np.zeros(2))
        ogda_norm = float(np.hypot(np.linalg.norm(dz), np.linalg.norm(dom)))
        ok = ok and np.linalg.norm(point) > 0 and eg_norm <= 1e-10 and ogda_norm > 1e-3
        details.append(f"beta={beta:g}: r={point[0]:.4f}, |eg rhs|={eg_norm:.1e}, "
                       f"|ogda rhs|={ogda_norm:.2f}")
    report(11, ok, "; ".join(details))
    assert ok


def test_criterion_12_numerical_hygiene(tmp_path):
    # (a) analytic vs finite-difference Jacobians on the whole catalog
    rng = np.random.default_rng(3)
    jac_ok = True
    for label, op in CATALOG:
        for _ in range(100):
            z = rng.standard_normal(op.dim)
            jac = op.jacobian(z)
            err = np.linalg.norm(jac - fd_jacobian(op, z, 1e-5))
            jac_ok = jac_ok and err <= 1e-4 * (1.0 + np.linalg.norm(jac))

    # (b) fourth-order convergence under dt halving
    def final(dt):
        n = int(round(2.0 / dt))
        cfg = flows.IntegratorConfig("rk4", dt, 2.0, record_every=n)
        return flows.integrate(flows.ogda_flow(2.0), BG, np.array([1.0, 0.0]),
                               np.zeros(2), cfg).states[-1]

    f1, f2, f3 = final(4e-3), final(2e-3), final(1e-3)
    ratio = float(np.linalg.norm(f1 - f2) / np.linalg.norm(f2 - f3))

    # (c) byte-identical outputs for identical configs
    raw = {"problem": {"id": "bilinear-random", "params": {"d1": 2, "d2": 2}, "seed": 3},
           "method": {"id": "eg", "gamma": 0.1}, "mode": "discrete",
           "budget": {"steps": 200}}
    cfg = cli.validate_config(raw)
    cli.cmd_run(cfg, tmp_path / "a")
    cli.cmd_run(cfg, tmp_path / "b")
    identical = (
        (tmp_path / "a/run.csv").read_bytes() == (tmp_path / "b/run.csv").read_bytes()
        and (tmp_path / "a/run.json").read_bytes() == (tmp_path / "b/run.json").read_bytes()
    )

    ok = jac_ok and ratio >= 8.0 and identical
    report(12, ok, f"jacobians ok={jac_ok}, dt-halving ratio {ratio:.1f} >= 8, "
                   f"byte-identical outputs={identical}")
    assert ok


def test_criterion_13_apt_windows():
    kind = opt.OGDAVariableStep(gamma0=0.1, power=0.6)
    traj = opt.run(SI, kind, np.array([1.0, 0.0]), 10_000)
    gammas = np.array([kind.step_size(n) for n in range(10_000)])
    taus = rates.effective_times(gammas)
    gamma_of_t = lambda t: np.interp(t, taus[:-1], gammas)  # noqa: E731
    sups = rates.apt_window_check(traj.times, traj.states, SI, gamma_of_t,
                                  T=1.0, windows=8)
    ok = sups[-1] < sups[0]
    report(13, ok, f"window sups {sups[0]:.2e} -> {sups[-1]:.2e} over 8 windows")
    assert ok
