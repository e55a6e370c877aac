import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latentreg import calibration, cli, sampling
from latentreg.baselines import cwae, cwae_roots, kernel_matrix, wae_mmd
from latentreg.cdf_attract import chi2_quantile_table, cloud_stats, midpoint_probs
from latentreg.cli import (
    ExperimentSpec,
    _write_curve_csv,
    cmd_attract_demo,
    cmd_eval,
    cmd_fig1,
    cmd_fig2,
    main,
)
from latentreg.sampling import PointCloud, Rng, sample_standard_normal, sample_unit_directions
from latentreg.specfun import ChiSquare, chi2_cdf
from latentreg.stat_tests import Judged, judge, ks_statistic, pairwise_angles, pairwise_scalar_products
from latentreg import svgplot
from latentreg.svgplot import Curve, render_panel

GOLDEN = Path(__file__).parent / "golden"

TINY = dict(n=16, dim=3, trials=2, seed=5, steps=30)


def snapshot(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_fig1_artifacts_and_determinism(tmp_path):
    out = tmp_path / "a"
    assert cmd_fig1(ExperimentSpec("fig1_grid", out=str(out), **TINY)) == 0
    files = snapshot(out)
    # 4 rows x 2 stats: one panel each, one curve CSV per trial
    for row in ("gaussian", "wae_mmd", "cwae", "attract"):
        for stat in ("radii", "distances"):
            assert f"fig1_{row}_{stat}.svg" in files
            for t in range(TINY["trials"]):
                assert f"fig1_{row}_{stat}_trial{t:02d}.csv" in files
    assert "fig1_summary.csv" in files
    assert "config_resolved.txt" in files
    assert cmd_fig1(ExperimentSpec("fig1_grid", out=str(out), **TINY)) == 0
    assert files == snapshot(out)  # byte-identical rerun


def test_fig1_single_trial(tmp_path):
    spec = ExperimentSpec("fig1_grid", n=12, dim=2, trials=1, seed=2, steps=10,
                          out=str(tmp_path / "o"))
    assert cmd_fig1(spec) == 0
    svgs = [p for p in (tmp_path / "o").iterdir() if p.suffix == ".svg"]
    assert len(svgs) == 8


def test_fig1_distance_curves_are_the_attraction_statistic(tmp_path):
    out = tmp_path / "o"
    assert cmd_fig1(ExperimentSpec("fig1_grid", out=str(out), **TINY)) == 0
    curves = sorted(out.glob("fig1_*_distances_trial*.csv"))
    assert len(curves) == 4 * TINY["trials"]
    for path in curves:
        row, trial = path.stem.split("_distances_")
        cloud = PointCloud.from_csv(out / f"{row}_{trial}_cloud.csv")
        values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0)
        expected = np.sort(cloud_stats(cloud).distances)
        assert np.array_equal(values, expected), path.name


def _per_row_curve_csv(values) -> bytes:
    """A curve CSV formatted one row at a time, the reference for
    _write_curve_csv's chunked formatting."""
    return ("value\n" + "".join("%.17g\n" % v for v in values)).encode()


def test_edf_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    _write_curve_csv(path, np.sort(np.array([2.0, 1.0, 3.0])))
    assert path.read_text() == "value\n1\n2\n3\n"
    # exact bytes below, at and across the chunk boundary, with the awkward floats
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, -2.0, 7.0, 1e16, 2.0 ** 53]
    rng = np.random.default_rng(3)
    chunk = sampling._TABLE_FIELDS  # one field a row
    for m in (chunk - 1, chunk, chunk + 1):
        values = np.sort(np.resize(np.concatenate(
            [special, rng.normal(scale=10.0 ** rng.integers(-300, 300), size=m)]), m))
        _write_curve_csv(path, values)
        assert path.read_bytes() == _per_row_curve_csv(values), m


def _numpy_cases():
    """(sorted values, probabilities) pairs for the quantile drift guard."""
    rng = np.random.default_rng(12)
    sizes = [1, 2, 3, 4950] + rng.integers(1, 6001, size=60).tolist()
    for m in sizes:
        for values in (rng.normal(size=m),
                       rng.integers(-3, 4, size=m).astype(np.float64)):  # ties
            values = np.sort(values)
            yield values, np.array([0.0, 1.0])
            yield values, midpoint_probs(m)
            yield values, np.sort(rng.uniform(size=rng.integers(1, 200)))
    yield np.array([-0.0, 0.0, 0.0]), np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def test_sorted_quantile_is_numpy_quantile_bit_for_bit():
    cases = 0
    for values, probs in _numpy_cases():
        got = cli._sorted_quantile(values, probs)
        expected = np.quantile(values, probs)
        assert got.tobytes() == expected.tobytes(), (values.shape[0], probs)
        cases += 1
    assert cases > 370


def _fig1_judged(out, t):
    """{row: judge of the row's cloud} of fig1's trial t, from its written clouds."""
    return {row: judge(PointCloud.from_csv(out / f"fig1_{row}_trial{t:02d}_cloud.csv"))
            for row in ("gaussian", "wae_mmd", "cwae", "attract")}


def _fig2_judged(out, t):
    """{side: judge of the side's cloud} of fig2's trial t: the written
    attraction cloud and the seeded iid cloud, on the trial's battery."""
    battery = _fig2_battery(t)
    return {side: judge(cloud, battery) for side, cloud in _fig2_clouds(out, t).items()}


def _fig2_battery(t):
    """fig2's battery of trial t rebuilt from its seeds: the directions, and
    the reference cloud's sorted scalar products and angles."""
    rng = Rng(TINY["seed"] + t)
    dirs = sample_unit_directions(rng.derive(3), calibration.NUM_DIRS, TINY["dim"])
    reference = sample_standard_normal(rng.derive(2), TINY["n"], TINY["dim"])
    return dirs, {"scalar_products": np.sort(pairwise_scalar_products(reference)),
                  "angles": np.sort(pairwise_angles(reference))}


def _fig2_clouds(out, t):
    """fig2's attraction cloud of trial t, read back, and its iid cloud."""
    return {"attract": PointCloud.from_csv(out / f"fig2_attract_trial{t:02d}_cloud.csv"),
            "iid": sample_standard_normal(Rng(TINY["seed"] + t).derive(4), TINY["n"], TINY["dim"])}


# (command, experiment, the judged clouds of a trial)
CURVE_CASES = {"fig1": (cmd_fig1, "fig1_grid", _fig1_judged),
               "fig2": (cmd_fig2, "fig2_battery", _fig2_judged)}


@pytest.mark.parametrize("case", sorted(CURVE_CASES))
def test_curve_csvs_are_per_row_formatted(tmp_path, case):
    # every curve CSV is one column: the judged statistic's sorted values
    command, experiment, judged_trial = CURVE_CASES[case]
    out = tmp_path / "o"
    assert command(ExperimentSpec(experiment, out=str(out), **TINY)) == 0
    checked = set()
    for t in range(TINY["trials"]):
        for row, trial in judged_trial(out, t).items():
            for stat, result in trial.items():
                path = out / f"{case}_{row}_{stat}_trial{t:02d}.csv"
                lines = path.read_text().splitlines()
                assert lines[0] == "value", path.name
                assert not any("," in line for line in lines), path.name
                values = np.loadtxt(path, skiprows=1, ndmin=1)
                assert values.tobytes() == result.values.tobytes(), path.name
                assert path.read_bytes() == _per_row_curve_csv(result.values), path.name
                checked.add(path.name)
    assert checked == {p.name for p in out.glob(f"{case}_*_trial??.csv")}


def test_fig1_summary_is_the_chi2_report(tmp_path):
    out = tmp_path / "o"
    assert cmd_fig1(ExperimentSpec("fig1_grid", out=str(out), **TINY)) == 0
    rows = [line.split(",") for line in (out / "fig1_summary.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4 * TINY["trials"] * 2
    for row, trial, stat, ks_linf, l1_area, direction in rows:
        cloud = PointCloud.from_csv(out / f"fig1_{row}_trial{int(trial):02d}_cloud.csv")
        values = np.sort(getattr(cloud_stats(cloud), stat))
        table = chi2_quantile_table(values.shape[0], TINY["dim"])
        assert float(ks_linf) == ks_statistic(values, lambda t: chi2_cdf(ChiSquare(TINY["dim"]), t))
        assert float(l1_area) == float(np.mean(np.abs(values - table)))
        mean_radius = (cloud.data * cloud.data).sum(1).mean()
        assert direction == ("narrow" if mean_radius < TINY["dim"] else "wide")


def test_fig2_artifacts_and_determinism(tmp_path):
    out = tmp_path / "a"
    assert cmd_fig2(ExperimentSpec("fig2_battery", out=str(out), **TINY)) == 0
    files = snapshot(out)
    for side in ("iid", "attract"):
        for test in ("projections", "scalar_products", "angles"):
            assert f"fig2_{side}_{test}.svg" in files
    assert "fig2_summary.csv" in files
    header = files["fig2_summary.csv"].decode().splitlines()[0]
    assert header == "side,test,trial,ks_linf,band_q95,pass"
    assert cmd_fig2(ExperimentSpec("fig2_battery", out=str(out), **TINY)) == 0
    assert files == snapshot(out)


def test_fig2_summary_is_the_battery(tmp_path):
    out = tmp_path / "o"
    spec = ExperimentSpec("fig2_battery", out=str(out), **TINY)
    assert cmd_fig2(spec) == 0
    summary = {}
    for row in (out / "fig2_summary.csv").read_text().splitlines()[1:]:
        side, test, trial, ks = row.split(",")[:4]
        summary[side, test, int(trial)] = float(ks)
    assert len(summary) == 2 * 3 * TINY["trials"]
    for t in range(TINY["trials"]):
        battery = _fig2_battery(t)
        for side, cloud in _fig2_clouds(out, t).items():
            for test, judged in judge(cloud, battery).items():
                assert summary[side, test, t] == judged.ks, (side, test, t)


def test_only_the_battery_runs_carry_the_stall_rule(monkeypatch):
    spec = ExperimentSpec("fig2_battery", **TINY)
    battery = cli._attraction_config(spec, 5)
    assert battery.stall == (calibration.ATTRACT_STALL_WINDOW,
                             calibration.ATTRACT_STALL_FRACTION)
    assert battery.stop_tolerance is None
    # each stop rule steps with the constant it was calibrated with
    assert battery.alpha0 == calibration.ATTRACT_STALL_ALPHA0
    for experiment in ("fig1_grid", "attract_demo"):
        tolerance = cli._attraction_config(ExperimentSpec(experiment, **TINY), 5)
        assert tolerance.stall is None
        assert tolerance.stop_tolerance == calibration.ATTRACT_STOP_TOLERANCE
        assert tolerance.alpha0 == calibration.ATTRACT_ALPHA0
    configs = []

    def recording_run(config, objective):
        configs.append(config)
        return cli.initial_cloud(config), []

    monkeypatch.setattr(cli, "run", recording_run)
    for kind in ("cwae", "wae_mmd"):
        cli._run_baseline_trial(spec, 5, kind)
    assert len(configs) == 2
    assert all(config.stall is None for config in configs)


def test_fig2_degenerate_two_points(tmp_path):
    spec = ExperimentSpec("fig2_battery", n=2, dim=3, trials=1, seed=4, steps=5,
                          out=str(tmp_path / "o"))
    assert cmd_fig2(spec) == 0
    assert (tmp_path / "o" / "fig2_summary.csv").exists()


@pytest.mark.parametrize("seed", range(1, 7))
def test_fig2_on_a_line_draws_every_panel(tmp_path, seed):
    # two points in one dimension: at seeds 1, 3 and 6 every angle is 0, so
    # a panel's values span no x range
    out = tmp_path / "o"
    assert main(["fig2", "--n", "2", "--dim", "1", "--trials", "1", "--steps", "2",
                 "--seed", str(seed), "--out", str(out)]) == 0
    assert len(list(out.glob("fig2_*.svg"))) == 6


def test_panel_of_equal_negative_values_gets_a_nonempty_range(tmp_path):
    # (lo, 1.02 hi) = (-1, -1.02) is empty: the panel ends 2% of |lo| past hi
    values = np.full(3, -1.0)
    cli._write_curves(tmp_path, "p", {"row": [{"stat": Judged(values, 0.0, values)}]},
                      "{row} {stat}")
    text = (tmp_path / "p_row_stat.svg").read_text()
    assert '<polyline points="60.000,' in text  # drawn at the left edge, x = lo
    assert (tmp_path / "p_row_stat_trial00.csv").exists()


def test_panel_of_negative_values_draws_the_largest(tmp_path):
    # 1.02 hi = -1.02 lies below hi = -1: the range ends 2% of |lo| = 3 past
    # hi, so the trial's largest value is drawn, at x = -0.94
    values = np.array([-3.0, -2.0, -1.0])
    judged = {"attract": [{"scalar_products": Judged(values, 0.3, np.array([-2.5, -1.5, -1.2]))}]}
    cli._write_curves(tmp_path, "t", judged, "{row} {stat}")
    text = (tmp_path / "t_attract_scalar_products.svg").read_text()
    trial = [line for line in text.splitlines()
             if "<polyline" in line and f'stroke="{svgplot.PALETTE[0]}"' in line]
    assert len(trial) == 1
    assert len(trial[0].split('points="')[1].split('"')[0].split()) == 3


def test_attract_gaussian_demo_matches_fig1_bottom_row(tmp_path):
    fig_out = tmp_path / "fig"
    demo_out = tmp_path / "demo"
    cmd_fig1(ExperimentSpec("fig1_grid", out=str(fig_out), **TINY))
    cmd_attract_demo(ExperimentSpec("attract_demo", target="gaussian",
                                    out=str(demo_out), **TINY))
    for t in range(TINY["trials"]):
        fig_cloud = (fig_out / f"fig1_attract_trial{t:02d}_cloud.csv").read_bytes()
        demo_cloud = (demo_out / f"attract_gaussian_trial{t:02d}_after.csv").read_bytes()
        assert fig_cloud == demo_cloud
        fig_trace = (fig_out / f"fig1_attract_trial{t:02d}_trace.csv").read_bytes()
        demo_trace = (demo_out / f"attract_gaussian_trial{t:02d}_trace.csv").read_bytes()
        assert fig_trace == demo_trace


def test_attraction_traces_always_have_five_columns(tmp_path):
    # n=2, D=1 starts below the stop tolerance, so its traces have no row;
    # the n=16 runs take steps
    header = "step,objective,alpha,distance_term,radii_term"
    out = tmp_path / "o"
    for size in (["--n", "2", "--dim", "1"], ["--n", "16", "--dim", "3", "--steps", "5"]):
        assert main(["attract", "--target", "gaussian", *size, "--trials", "2",
                     "--out", str(out / size[1])]) == 0
        for t in range(2):
            lines = (out / size[1] / f"attract_gaussian_trial{t:02d}_trace.csv").read_text().splitlines()
            assert lines[0] == header
            assert (len(lines) == 1) == (size[1] == "2")
    assert main(["fig1", "--n", "2", "--dim", "2", "--trials", "1", "--steps", "3",
                 "--out", str(out / "fig1")]) == 0
    assert (out / "fig1" / "fig1_attract_trial00_trace.csv").read_text().splitlines()[0] == header


def test_attract_torus_stays_in_unit_box(tmp_path):
    spec = ExperimentSpec("attract_demo", target="torus", n=20, dim=2, trials=1,
                          seed=3, out=str(tmp_path / "o"))
    assert cmd_attract_demo(spec) == 0
    after = PointCloud.from_csv(tmp_path / "o" / "attract_torus_trial00_after.csv")
    assert np.all((after.data >= 0.0) & (after.data < 1.0))


def test_attract_quantized_codeword_fraction(tmp_path):
    spec = ExperimentSpec("attract_demo", target="quantized", bits=1, n=64, dim=2,
                          trials=1, seed=3, out=str(tmp_path / "o"))
    assert cmd_attract_demo(spec) == 0
    summary = (tmp_path / "o" / "attract_quantized_summary.csv").read_text()
    fraction = float(summary.splitlines()[1].split(",")[2])
    assert fraction >= 0.9


@pytest.mark.parametrize("bits", [40, 45, 51, 52])
def test_attract_quantized_converges_at_high_bits(tmp_path, bits):
    # the run stops only when no coordinate moves at all; a 1e-12 stop left
    # about half of the coordinates outside the 2^-(bits+2) tolerance here.
    # At bits 52 that tolerance is below an ulp in [0.5, 1), so a coordinate
    # must land on its centre: half of a one-ulp gap rounds away
    spec = ExperimentSpec("attract_demo", target="quantized", bits=bits, n=64, dim=2,
                          trials=2, seed=1, out=str(tmp_path / "o"))
    assert cmd_attract_demo(spec) == 0
    summary = (tmp_path / "o" / "attract_quantized_summary.csv").read_text()
    assert [float(line.split(",")[2]) for line in summary.splitlines()[1:]] == [1.0, 1.0]


def test_attract_demo_emits_histograms(tmp_path):
    spec = ExperimentSpec("attract_demo", target="uniform01", n=10, dim=3, trials=1,
                          seed=8, out=str(tmp_path / "o"))
    assert cmd_attract_demo(spec) == 0
    hist = (tmp_path / "o" / "attract_uniform01_trial00_hist.csv").read_text()
    lines = hist.splitlines()
    assert lines[0] == "bin_lo,bin_hi,coord0,coord1,coord2"
    assert len(lines) == 33
    counts = np.array([[int(v) for v in ln.split(",")[2:]] for ln in lines[1:]])
    assert counts.sum() == 10 * 3


def test_eval_round_trip_is_bit_exact(tmp_path):
    cloud = sample_standard_normal(Rng(12), 25, 6)
    path = tmp_path / "cloud.csv"
    cloud.to_csv(path)
    code = cmd_eval(str(path), "cwae", 1, str(tmp_path / "o"))
    assert code == 0
    written = (tmp_path / "o" / "eval_cwae.csv").read_text().splitlines()[1]
    value = float(written.split(",")[1])
    assert value == cwae(cloud, cwae_roots(cloud))


def test_eval_cwae_on_a_one_column_cloud_exits_2(tmp_path, capsys):
    path = tmp_path / "line.csv"
    PointCloud(np.arange(5.0).reshape(5, 1)).to_csv(path)
    code = main(["eval", "--cloud", str(path), "--which", "cwae",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "dim >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["wae_mmd", "cwae", "mardia", "radii", "distances"])
def test_eval_non_finite_statistic_exits_2_before_writing(tmp_path, capsys, which):
    # squares of 1e308 overflow: each statistic reads nan or inf
    path = tmp_path / "huge.csv"
    PointCloud(np.array([[1e308, -1e308], [-1e308, 1e308]])).to_csv(path)
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        code = main(["eval", "--cloud", str(path), "--which", which, "--out", str(out)])
    assert code == 2
    first = {"wae_mmd": "wae_mmd", "cwae": "cwae", "mardia": "skewness_stat",
             "radii": "l1_area", "distances": "l1_area"}[which]
    assert f"eval {which}: {first} is not finite" in capsys.readouterr().err
    assert not (out / f"eval_{which}.csv").exists()


@pytest.mark.parametrize("which", ["wae_mmd", "cwae"])
def test_eval_overflowing_squared_distances_exit_2_before_writing(tmp_path, capsys, which):
    # |x|^2 = 1e400 overflows in the Gram form of the squared distances,
    # which then zeroes the far point's own kernel entry: both statistics
    # read finite but wrong. Numeric warnings stay quiet here, as in a
    # command-line run without -W error
    path = tmp_path / "far.csv"
    path.write_text("1e200,2\n3,4\n")
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        code = main(["eval", "--cloud", str(path), "--which", which, "--out", str(out)])
    assert code == 2
    assert f"eval {which}: the cloud's squared distances overflow" in capsys.readouterr().err
    assert not out.exists()


def test_eval_mardia_zero_cloud(tmp_path):
    path = tmp_path / "zeros.csv"
    PointCloud(np.zeros((5, 4))).to_csv(path)
    cmd_eval(str(path), "mardia", 1, str(tmp_path / "o"))
    rows = (tmp_path / "o" / "eval_mardia.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [0.0, 0.0, 0.0]


def test_eval_malformed_csv_exit_code_and_message(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    for text, message in (("1.0,2.0\noops,3.0\n", ":2:"), ("\n  \n", "no data rows")):
        bad.write_text(text)
        code = main(["eval", "--cloud", str(bad), "--which", "mardia",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err


def _eval_rows(cloud, which, seed):
    if which == "wae_mmd":
        prior = sample_standard_normal(Rng(seed).derive(1), cloud.n, cloud.dim)
        return [("wae_mmd", wae_mmd(kernel_matrix(cloud, cloud), kernel_matrix(cloud, prior)))]
    judged = judge(cloud)[which]
    return [("ks_linf", judged.ks), ("l1_area", judged.l1_area()),
            ("sample_size", float(cloud.n if which == "radii" else cloud.n * (cloud.n - 1) // 2))]


@pytest.mark.parametrize("which", ["wae_mmd", "radii", "distances"])
def test_eval_writes_the_statistic(tmp_path, which):
    cloud = sample_standard_normal(Rng(31), 12, 4)
    path = tmp_path / "cloud.csv"
    cloud.to_csv(path)
    out = tmp_path / "o"
    # only wae_mmd reads a seed
    seed = ["--seed", "7"] if which == "wae_mmd" else []
    assert main(["eval", "--cloud", str(path), "--which", which, *seed,
                 "--out", str(out)]) == 0
    expected = "stat,value\n" + "".join(
        "%s,%.17g\n" % row for row in _eval_rows(cloud, which, 7))
    assert (out / f"eval_{which}.csv").read_text() == expected


def test_eval_seed_applies_only_to_wae_mmd(tmp_path, capsys):
    path = tmp_path / "cloud.csv"
    sample_standard_normal(Rng(31), 12, 4).to_csv(path)
    for which in ("cwae", "mardia", "radii", "distances"):
        out = tmp_path / which
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--cloud", str(path), "--which", which, "--seed", "7",
                  "--out", str(out)])
        assert exc.value.code == 1
        assert not out.exists()
        assert "--seed applies only to --which wae_mmd" in capsys.readouterr().err
    # without --seed, wae_mmd draws its prior sample from seed 1
    for name, seed in (("default", []), ("one", ["--seed", "1"])):
        assert main(["eval", "--cloud", str(path), "--which", "wae_mmd", *seed,
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "default" / "eval_wae_mmd.csv").read_bytes() == \
        (tmp_path / "one" / "eval_wae_mmd.csv").read_bytes()


def test_attract_quantized_defaults_to_one_bit(tmp_path):
    args = ["attract", "--target", "quantized", "--n", "16", "--dim", "2",
            "--trials", "1", "--seed", "3", "--steps", "10"]
    assert main(args + ["--out", str(tmp_path / "default")]) == 0
    assert main(args + ["--bits", "1", "--out", str(tmp_path / "one")]) == 0
    default, one = snapshot(tmp_path / "default"), snapshot(tmp_path / "one")
    for files in (default, one):  # the resolved specs differ in out= only
        lines = files["config_resolved.txt"].splitlines(keepends=True)
        files["config_resolved.txt"] = b"".join(ln for ln in lines if not ln.startswith(b"out="))
    assert b"\nbits=1\n" in default["config_resolved.txt"]
    assert default == one


def test_fig2_command_returns_0(tmp_path):
    argv = ["fig2", "--out", str(tmp_path / "o")]
    for key, value in TINY.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 0
    assert (tmp_path / "o" / "fig2_summary.csv").exists()


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--which", "mardia"])  # missing --cloud
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


BAD_SPECS = {
    "trials": ["attract", "--trials", "0"],
    # Rng keeps 64 bits of a seed, so a seed outside [0, 2**64) would wrap
    "seed_negative": ["attract", "--seed", "-1"],
    "seed_wraps": ["fig2", "--seed", str(2 ** 64 - 1), "--trials", "2"],
    "eval_seed_negative": ["eval", "--cloud", "spec.cfg", "--which", "wae_mmd",
                           "--seed", "-1"],
    "eval_seed_wraps": ["eval", "--cloud", "spec.cfg", "--which", "wae_mmd",
                        "--seed", str(2 ** 64)],
    # --jobs is kept only for the benchmark worker's "--jobs 1"
    "jobs": ["fig1", "--jobs", "0"],
    "jobs_two": ["fig1", "--jobs", "2"],
    # flags are the only input: there is no settings file
    "config_flag": ["fig1", "--config", "spec.cfg"],
    # the battery's bands exist only for calibration.NUM_DIRS directions, and
    # each run takes its own step constant
    "num_dirs_flag": ["fig2", "--num-dirs", "10"],
    "alpha0_flag": ["fig1", "--alpha0", "0.2"],
    # the attraction's one objective is the l1 mismatch with its exact
    # subgradient; the settings that chose another are unknown
    "norm_flag": ["attract", "--norm", "l2"],
    "gradient_mode_flag": ["fig2", "--gradient-mode", "paper"],
    "target_flag": ["attract", "--target", "cauchy"],
    "misspelled_flag": ["fig2", "--stpes", "3"],
    "bits": ["attract", "--target", "quantized", "--bits", "0"],
    "bits_too_large": ["attract", "--target", "quantized", "--bits", "1100"],
    "bits_without_quantized_target": ["attract", "--target", "gaussian", "--bits", "3"],
    "n": ["fig2", "--n", "1"],
    "dim": ["fig1", "--dim", "0"],
    "steps_zero": ["fig1", "--steps", "0"],
    "steps_negative_coordinate": ["attract", "--target", "uniform01", "--steps", "-3"],
    "fig1_dim1": ["fig1", "--dim", "1"],
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_bad_spec_exits_1_before_writing(tmp_path, monkeypatch, case, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.cfg").write_text("n=10\n")  # a readable file for --config
    with pytest.raises(SystemExit) as exc:
        main(BAD_SPECS[case] + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.cfg"]
    assert "error:" in capsys.readouterr().err


# settings that no flag of the command gives are still checked for a Python caller
@pytest.mark.parametrize("experiment,setting,message", [
    ("fig2_battery", {"target": "torus"}, "target applies only to attract"),
    ("fig1_grid", {"bits": 2}, "bits applies only to the quantized target"),
], ids=["target_outside_attract", "bits_outside_attract"])
def test_spec_rejects_settings_its_command_never_reads(experiment, setting, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(experiment, **setting)


def test_spec_seed_range_is_every_trial_seed():
    for experiment in ("fig1_grid", "fig2_battery", "attract_demo"):
        assert ExperimentSpec(experiment, seed=0).seed == 0
        assert ExperimentSpec(experiment, seed=2 ** 64 - 2, trials=2).seed == 2 ** 64 - 2
        for seed, trials in ((-1, 1), (2 ** 64 - 1, 2), (2 ** 64, 1)):
            with pytest.raises(ValueError, match="trial seeds"):
                ExperimentSpec(experiment, seed=seed, trials=trials)


# the benchmark worker's argv: the command's sizes, then --trials, --jobs 1,
# --seed and --out
@pytest.mark.parametrize("command", [
    ["fig1", "--n", "16", "--dim", "3", "--steps", "30"],
    ["fig2", "--n", "16", "--dim", "3", "--steps", "30"],
    ["attract", "--target", "gaussian", "--n", "16", "--dim", "3"],
], ids=["fig1", "fig2", "attract_gaussian"])
def test_jobs_one_changes_no_artifact(tmp_path, command):
    runs = {}
    for name, jobs in (("jobs", ["--jobs", "1"]), ("plain", [])):
        out = tmp_path / name
        assert main(command + ["--trials", "2"] + jobs + ["--seed", "5", "--out", str(out)]) == 0
        runs[name] = snapshot(out)
        config = runs[name].pop("config_resolved.txt").decode().splitlines()
        assert f"out={out}" in config and not any(line.startswith("jobs=") for line in config)
        runs[name]["config_resolved.txt"] = [line for line in config if not line.startswith("out=")]
    assert runs["jobs"] == runs["plain"]


def test_svg_panel_matches_golden(tmp_path):
    xs = np.linspace(0.0, 4.0, 9)
    curves = [
        Curve(xs, (xs / 4.0) ** 2, "#1f77b4"),
        Curve(xs, xs / 4.0, "#000000", width=2.0),
    ]
    path = tmp_path / "panel.svg"
    render_panel(path, curves, "golden panel", (0.0, 4.0), (0.0, 1.0),
                 x_ticks=(1.0, 2.0, 3.0), y_ticks=(0.0, 0.5, 1.0))
    assert path.read_bytes() == (GOLDEN / "panel.svg").read_bytes()


def _per_point_pixels(curves, x_range, y_range):
    """(curve, pixel points) for each curve with a point inside x_range, the
    points mapped one scalar at a time: the reference for render_panel's
    array arithmetic."""
    (x0, x1), (y0, y1) = x_range, y_range
    plot_w = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    drawn = []
    for curve in curves:
        pts = [(svgplot.MARGIN_L + (x - x0) / (x1 - x0) * plot_w,
                svgplot.HEIGHT - svgplot.MARGIN_B - (y - y0) / (y1 - y0) * plot_h)
               for x, y in zip(list(curve.xs), list(curve.ys)) if x0 <= x <= x1]
        if pts:
            drawn.append((curve, pts))
    return drawn


def _parse_points(texts):
    return np.array([[float(v) for v in t.split(",")] for t in texts])


def _segment_distances(p, a, b):
    """Distance of each point p[i] from the segment a[i]-b[i]."""
    ab = b - a
    length2 = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.einsum("ij,ij->i", p - a, ab) / np.where(length2 > 0, length2, 1.0),
                0.0, 1.0)
    return np.hypot(*(a + t[:, None] * ab - p).T)


# the point text rounds each coordinate by at most 5e-4 px, which moves a
# distance between parsed points by less than this
_TEXT_SLACK_PX = 1.5e-3


@pytest.mark.parametrize("size", [7, 1023, 1024, 1025, 20_000, 198_000])
def test_svg_polylines_are_thinned_to_half_a_pixel(tmp_path, size):
    rng = np.random.default_rng(size)
    x_range, y_range = (-1.5, 2.5), (-0.25, 1.0)
    # the range ends themselves are drawn
    xs = np.sort(np.concatenate([rng.normal(scale=2.0, size=size - 2), x_range]))
    curves = [Curve(xs, midpoint_probs(size), "#1f77b4"),
              Curve(xs[::-1].copy(), rng.uniform(-0.5, 1.5, size=size), "#000000",
                    width=2.0),
              Curve(xs + 100.0, midpoint_probs(size), "#ff7f0e"),  # wholly outside
              Curve(np.linspace(*x_range, size), midpoint_probs(size), "#2ca02c"),
              # consecutive points 565/399 px apart: every point is drawn
              Curve(np.linspace(*x_range, 400), rng.uniform(0.0, 1.0, size=400),
                    "#d62728")]
    # some points of each of the first two curves fall outside x_range
    assert all(np.any((c.xs < x_range[0]) | (c.xs > x_range[1])) for c in curves[:2])
    path = tmp_path / "panel.svg"
    render_panel(path, curves, "points", x_range, y_range)
    polylines = [line for line in path.read_text().splitlines()
                 if line.startswith("<polyline")]
    reference = _per_point_pixels(curves, x_range, y_range)
    assert [curve.color for curve, _ in reference] == ["#1f77b4", "#000000", "#2ca02c",
                                                       "#d62728"]
    assert len(polylines) == len(reference)
    for line, (curve, pts) in zip(polylines, reference):
        full = ["%.3f,%.3f" % p for p in pts]
        kept = line.split('points="', 1)[1].split('"', 1)[0].split(" ")
        assert line == (f'<polyline points="{" ".join(kept)}" fill="none" '
                        f'stroke="{curve.color}" stroke-width="{curve.width:g}"/>')
        # the kept points are a subsequence of the full curve's, with its text
        index, j = [], 0
        for text in kept:
            while j < len(full) and full[j] != text:
                j += 1
            assert j < len(full), text
            index.append(j)
            j += 1
        # the first and last points are drawn
        assert index[0] == 0 and index[-1] == len(full) - 1
        # every point lies within half a pixel of the segment that starts at
        # the last kept point at or before it
        full_xy, kept_xy = _parse_points(full), _parse_points(kept)
        last = np.searchsorted(index, np.arange(len(full)), side="right") - 1
        nxt = np.minimum(last + 1, len(kept) - 1)
        dist = _segment_distances(full_xy, kept_xy[last], kept_xy[nxt])
        assert dist.max() <= svgplot._TOLERANCE_PX + _TEXT_SLACK_PX
        # one point per half-pixel cell of the path, |dx| + |dy|, at most
        path_px = sum(abs(b[0] - a[0]) + abs(b[1] - a[1]) for a, b in zip(pts, pts[1:]))
        assert len(kept) <= path_px / svgplot._TOLERANCE_PX + 3
        if curve.color == "#d62728":
            assert kept == full


@pytest.mark.parametrize("probs", [True, False], ids=["probs", "edf"])
def test_large_edf_panel_matches_golden(tmp_path, probs):
    # the shape of a fig2 scalar-product panel: twenty 4,950-point trial
    # EDFs and a 99,000-point reference EDF, given their midpoint
    # probabilities or drawn from their values alone
    trials = [np.sort(Rng(t).normal(4_950)) for t in range(20)]
    reference = np.sort(Rng(99).normal(99_000))
    curves = [Curve(v, midpoint_probs(v.shape[0]) if probs else None, svgplot.PALETTE[t % 10])
              for t, v in enumerate(trials)]
    curves.append(Curve(reference, midpoint_probs(reference.shape[0]) if probs else None,
                        "#000000", width=2.0))
    path = tmp_path / "panel_large_edf.svg"
    render_panel(path, curves, "large EDF panel", (-5.0, 5.0), (0.0, 1.0),
                 x_ticks=(-2.0, 0.0, 2.0), y_ticks=(0.0, 0.5, 1.0))
    assert path.read_bytes() == (GOLDEN / "panel_large_edf.svg").read_bytes()
    assert path.stat().st_size <= 500_000


def _whole_curve_points(curve, x_range, y_range):
    """The points text of one curve under the thinning rule applied to the
    whole clipped curve at once: the reference for render_panel's chunked
    pass."""
    (x0, x1), (y0, y1) = x_range, y_range
    plot_w = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    inside = (curve.xs >= x0) & (curve.xs <= x1)
    probs = midpoint_probs(curve.xs.shape[0]) if curve.ys is None else curve.ys
    xs = svgplot.MARGIN_L + (curve.xs[inside] - x0) / (x1 - x0) * plot_w
    ys = svgplot.HEIGHT - svgplot.MARGIN_B - (probs[inside] - y0) / (y1 - y0) * plot_h
    keep = np.ones(xs.shape[0], dtype=bool)
    if xs.shape[0] > 2:
        path = np.cumsum(np.abs(np.diff(xs)) + np.abs(np.diff(ys)))
        keep[1:] = np.diff(np.floor(path / svgplot._TOLERANCE_PX), prepend=0.0) != 0.0
        keep[-1] = True
    return " ".join("%.3f,%.3f" % p for p in zip(xs[keep].tolist(), ys[keep].tolist()))


def _chunk_edge_curves():
    """Curves whose clipping and thinning meet render_panel's chunk boundaries;
    the last lies wholly outside the x range (-2.5, 2.5)."""
    chunk = svgplot._CHUNK
    rng = np.random.default_rng(29)
    curves, edfs = [], []
    for size in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        edf = np.sort(rng.normal(size=size))
        edfs.append(edf)  # dense: most dropped
        curves.append(Curve(rng.uniform(-2.0, 2.0, size=size),  # sparse: most kept
                            rng.uniform(-0.2, 1.2, size=size), "#ff7f0e"))
        # clipped points on both sides of each chunk boundary
        clipped = edf.copy()
        for edge in range(chunk, size, chunk):
            clipped[edge - 3:edge - 1] = -9.0
            clipped[edge:edge + 2] = 9.0
        clipped[-2:] = -9.0
        edfs.append(clipped)
    # the EDF curves, given their midpoint probabilities and drawn without
    curves += [Curve(v, midpoint_probs(v.shape[0]), "#1f77b4") for v in edfs]
    curves += [Curve(v, None, "#2ca02c") for v in edfs]
    # one inside point per chunk
    lone = np.full(3 * chunk + 5, 9.0)
    lone[np.arange(2, lone.shape[0], chunk)] = [-1.0, 0.5, 1.5, 2.0]
    curves.append(Curve(lone, rng.uniform(size=lone.shape[0]), "#d62728"))
    curves.append(Curve([0.25], [0.5], "#9467bd"))
    curves.append(Curve([0.25, 0.2500001], [0.5, 0.5000001], "#8c564b"))
    curves.append(Curve(np.full(chunk + 1, -7.0), midpoint_probs(chunk + 1), "#e377c2"))
    return curves


def test_chunked_polylines_match_the_whole_curve_rule(tmp_path):
    x_range, y_range = (-2.5, 2.5), (-0.25, 1.0)
    curves = _chunk_edge_curves()
    path = tmp_path / "panel.svg"
    render_panel(path, curves, "chunks", x_range, y_range)
    polylines = [line for line in path.read_text().splitlines()
                 if line.startswith("<polyline")]
    expected = [(curve, _whole_curve_points(curve, x_range, y_range)) for curve in curves]
    expected = [(curve, pts) for curve, pts in expected if pts]
    assert len(expected) == len(curves) - 1  # the last curve lies wholly outside
    assert polylines == [f'<polyline points="{pts}" fill="none" stroke="{curve.color}" '
                         f'stroke-width="{curve.width:g}"/>' for curve, pts in expected]


def test_panel_memory_does_not_grow_with_the_curve(tmp_path):
    size = 1_000_000
    # an EDF: no 8 MB probability array, in the curve or in the renderer
    curve = Curve(np.sort(np.random.default_rng(30).normal(size=size)), None, "#000000")
    tracemalloc.start()
    try:
        render_panel(tmp_path / "panel.svg", [curve], "large", (-5.0, 5.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_curve_probabilities_must_match_the_values():
    Curve([0.0, 1.0], None, "#000000")
    for ys in ([0.5], [0.1, 0.5, 0.9]):
        with pytest.raises(ValueError, match="lengths differ"):
            Curve([0.0, 1.0], ys, "#000000")
