"""The column-wise emitters against the per-cell formatting they replace.

The oracles below format one cell (or one point) per Python call, as the
emitters once did; they are written out here, never read from the program,
so every table and polyline must come out with the same text.
"""

import math

import numpy as np
import pytest

from saddleflow import cli, lyapunov, optimizers, svgplot
from saddleflow.problems import BilinearGame, ScaledIdentity, random_bilinear


def percell_trajectory_csv(traj):
    lyap_cols = [name for name in traj.metrics if name.startswith("lyap_")]
    header = ",".join(cli.CSV_BASE_COLUMNS + tuple(lyap_cols))
    floats = [traj.times, *(traj.metric(c) for c in (*cli.CSV_BASE_COLUMNS[3:], *lyap_cols))]
    times, *metrics = [[format(x, ".17g") for x in col.tolist()] for col in floats]
    rows = zip(map(str, traj.steps.tolist()), times, map(str, traj.queries.tolist()), *metrics)
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def percell_figure_csv(trajs):
    rows = []
    for label, traj in trajs:
        dist = traj.metric("dist_to_solution")
        rows += [f"{label},{s},{q},{d:.17g}" for s, q, d in
                 zip(traj.steps.tolist(), traj.queries.tolist(), dist.tolist())]
    return "\n".join(["method,step,queries,dist_to_solution", *rows]) + "\n"


def percell_line_plot(series, title, x_label, y_label, log_y=False):
    """The point-by-point renderer: one filter, transform and format per point."""
    W, H = svgplot.WIDTH, svgplot.HEIGHT
    L, R, T, B = svgplot.MARGIN_L, svgplot.MARGIN_R, svgplot.MARGIN_T, svgplot.MARGIN_B

    def fmt(x):
        return f"{x:.3f}"

    cleaned = []
    for label, xs, ys in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y) and (not log_y or y > 0)]
        if pts:
            cleaned.append((label, pts))
    if not cleaned:
        raise ValueError("nothing to plot (no finite samples)")
    all_x = [p[0] for _, pts in cleaned for p in pts]
    all_y = [p[1] for _, pts in cleaned for p in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if log_y:
        y_lo, y_hi = math.log10(y_lo), math.log10(y_hi)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    plot_w, plot_h = W - L - R, H - T - B

    def sx(x):
        return L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        yy = math.log10(y) if log_y else y
        return T + plot_h - (yy - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{L}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{L}" y="{T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for xt in svgplot._ticks(x_lo, x_hi):
        px = fmt(sx(xt))
        parts.append(f'<line x1="{px}" y1="{T + plot_h}" x2="{px}" '
                     f'y2="{T + plot_h + 5}" stroke="#333333"/>')
        parts.append(f'<text x="{px}" y="{T + plot_h + 18}" font-family="sans-serif" '
                     f'font-size="10" text-anchor="middle">{xt:.4g}</text>')
    y_ticks = (svgplot._log_ticks(10.0 ** y_lo, 10.0 ** y_hi) if log_y
               else svgplot._ticks(y_lo, y_hi))
    for yt in y_ticks:
        py = fmt(sy(yt))
        parts.append(f'<line x1="{L - 5}" y1="{py}" x2="{L}" y2="{py}" stroke="#333333"/>')
        parts.append(f'<text x="{L - 8}" y="{py}" font-family="sans-serif" font-size="10" '
                     f'text-anchor="end" dominant-baseline="middle">{yt:.3g}</text>')
    parts.append(f'<text x="{L + plot_w / 2:.1f}" y="{H - 10}" font-family="sans-serif" '
                 f'font-size="12" text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="18" y="{T + plot_h / 2:.1f}" font-family="sans-serif" '
                 f'font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 18 {T + plot_h / 2:.1f})">{y_label}</text>')
    for i, (label, pts) in enumerate(cleaned):
        color = svgplot.PALETTE[i % len(svgplot.PALETTE)]
        coords = " ".join(f"{fmt(sx(x))},{fmt(sy(y))}" for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{coords}"/>')
        ly, lx = T + 14 + 18 * i, W - R + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.fixture(params=[cli.CSV_BLOCK_ROWS, 7, 1], ids=["default-block", "block-7", "block-1"])
def block_rows(request, monkeypatch):
    """Run each CSV case at the default block size and at sizes that put
    block edges inside the table."""
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", request.param)
    return request.param


def _extreme_trajectory():
    values = [np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan,
              0.1, 1 / 3, 2.0 ** -1074 * 3, 1.7976931348623157e308, 123456789.0]
    n = len(values)
    col = np.array(values)
    return optimizers.Trajectory(
        method="m", problem="p", steps=np.arange(n) * 3, times=col[::-1].copy(),
        queries=np.arange(n, dtype=np.int64) * 2 ** 40, states=np.zeros((n, 2)),
        metrics={"z_norm": col, "dist_to_solution": np.roll(col, 3),
                 "v_norm": np.roll(col, 7), "lyap_ogda_l1": -col, "other": col})


def _diverged():
    # GDA at gamma = 8 overflows at step 286 and NaN-pads the rest.
    return optimizers.run(BilinearGame([[1.5]]), optimizers.GDA(8.0), [1.0, 0.0], 600)


def _monitored():
    op, gamma = ScaledIdentity(1.0, 2), 1.0 / 16
    monitors = {f"lyap_{kind}": lyapunov.make_monitor(kind, op, beta=2.0 / gamma)
                for kind in ("ogda_l1", "ogda_l2")}
    return optimizers.run(op, optimizers.OGDA(gamma), [1.0, 0.0], 300, extra_metrics=monitors)


def _sparse():
    return optimizers.run(random_bilinear(3, 2, 2), optimizers.EG(0.1), np.ones(4), 1000,
                          record_every=7)


@pytest.mark.parametrize("make", [_diverged, _monitored, _sparse, _extreme_trajectory])
def test_trajectory_csv_matches_per_cell_formatting(make, block_rows):
    traj = make()
    if make is _diverged:
        assert traj.diverged and np.isnan(traj.metric("z_norm")[-1])
    if make is _monitored:
        assert [c for c in traj.metrics if c.startswith("lyap_")] == ["lyap_ogda_l1",
                                                                      "lyap_ogda_l2"]
    if make is _sparse:
        assert traj.steps[-1] == 1000 and traj.steps[1] == 7
    assert cli.trajectory_csv(traj) == percell_trajectory_csv(traj)


def test_extreme_cells_are_spelled_as_before():
    cells = set(cli.trajectory_csv(_extreme_trajectory()).replace("\n", ",").split(","))
    assert {"inf", "-inf", "-0", "0", "4.9406564584124654e-324", "-4.9406564584124654e-324",
            "1e+308", "-1e+308", "nan", "1.7976931348623157e+308", "0.10000000000000001",
            str(13 * 2 ** 40)} <= cells


def test_figure_csv_and_svg_match_per_point_formatting(tmp_path, monkeypatch, block_rows):
    trajs = []
    run = optimizers.run

    def spy(op, kind, *args, **kwargs):
        traj = run(op, kind, *args, **kwargs)
        trajs.append(traj)
        return traj

    monkeypatch.setattr(optimizers, "run", spy)
    series = cli.cmd_figure_bg(0.05, 400, 0, tmp_path / "f.svg", tmp_path / "f.csv")
    labels = [label for label, _, _ in series]
    assert (tmp_path / "f.csv").read_text() == percell_figure_csv(zip(labels, trajs))
    assert len(trajs) == 5 and all(len(traj) == 401 for traj in trajs)
    args = dict(title="t", x_label="x", y_label="y", log_y=True)
    assert svgplot.line_plot(series, **args) == percell_line_plot(series, **args)


def _mixed_series(rng, n):
    x = np.cumsum(rng.exponential(size=n))
    y = np.exp(rng.normal(scale=8.0, size=n)) * rng.choice([1.0, -1.0, 0.0], size=n,
                                                           p=[0.8, 0.1, 0.1])
    y[rng.random(n) < 0.1] = np.nan
    y[rng.random(n) < 0.05] = np.inf
    x[rng.random(n) < 0.05] = -np.inf
    return x, y


@pytest.mark.parametrize("log_y", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_line_plot_matches_per_point_formatting(seed, log_y):
    rng = np.random.default_rng(seed)
    series = [(f"s{i}", *_mixed_series(rng, int(rng.integers(1, 300)))) for i in range(4)]
    # Integer x samples (query counts), and a series that only log_y empties.
    series.append(("ints", np.arange(50, dtype=np.int64) * 3, -np.linspace(1.0, 2.0, 50)))
    args = dict(title="t", x_label="x", y_label="y", log_y=log_y)
    assert svgplot.line_plot(series, **args) == percell_line_plot(series, **args)


def test_line_plot_dropped_series_shifts_the_palette():
    series = [("gone", [1.0, 2.0], [0.0, -1.0]), ("kept", [1.0, 2.0], [1.0, 10.0])]
    svg = svgplot.line_plot(series, "t", "x", "y", log_y=True)
    assert svg == percell_line_plot(series, "t", "x", "y", log_y=True)
    assert svgplot.PALETTE[0] in svg and "gone" not in svg


def test_line_plot_signed_zero_limits():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        series = [("a", [first, 1.0], [-0.0, 2.0]), ("b", [second, 3.0], [0.0, 1.0])]
        assert (svgplot.line_plot(series, "t", "x", "y")
                == percell_line_plot(series, "t", "x", "y"))


@pytest.mark.parametrize("log_y", [True, False])
def test_line_plot_with_nothing_to_plot_raises(log_y):
    series = [("a", [1.0, np.nan, np.inf], [np.nan, 1.0, 1.0]),
              ("b", [1.0, 2.0], [-np.inf, np.nan])]
    if log_y:
        series.append(("c", [1.0, 2.0], [0.0, -1.0]))
    with pytest.raises(ValueError, match="nothing to plot"):
        svgplot.line_plot(series, "t", "x", "y", log_y=log_y)
    with pytest.raises(ValueError, match="nothing to plot"):
        percell_line_plot(series, "t", "x", "y", log_y=log_y)


def test_line_plot_log_axis_reads_math_log10():
    # np.log10 of the middle sample is one ulp off math.log10, which moves
    # its pixel across a .3f rounding edge: 411.999 instead of 412.000.
    series = [("a", [0.0, 1.0, 2.0], [1.0, 1.2197068431963467, 82.55336248717467])]
    svg = svgplot.line_plot(series, "t", "x", "y", log_y=True)
    assert svg == percell_line_plot(series, "t", "x", "y", log_y=True)
    assert " 335.000,412.000 " in svg


def test_line_plot_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="'a': xs and ys differ in length"):
        svgplot.line_plot([("a", [1.0, 2.0], [1.0])], "t", "x", "y")
