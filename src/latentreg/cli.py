"""Experiment command line: EDF-grid and test-battery reproductions at desk
scale, single-cloud evaluation, and attraction demos.

    latentreg fig1    --n 200 --dim 20 --trials 10 --seed 1 --out DIR
    latentreg fig2    --n 200 --dim 20 --trials 10 --seed 1 --out DIR
    latentreg eval    --cloud FILE --which mardia --out DIR
    latentreg attract --target quantized --bits 1 --n 64 --dim 2 --out DIR

All outputs (CSV and SVG) are deterministic for a fixed spec: rerunning a
command writes byte-identical files. Every CSV and the resolved config are
tables of sampling._write_table, which fixes their bytes. Flags are the only
input, and only for settings some run varies; step sizes are the constants
below and in latentreg.calibration. Every resolved value is echoed to
OUT/config_resolved.txt. Exit codes: 0 success, 1 usage error, 2 runtime
failure. The spec is validated before any file is written; a bad value or an
unknown flag is a usage error. Trials run one after another. --jobs accepts
only 1 and is not part of the spec: it is kept only because the benchmark
worker passes it.

fig1 and fig2 differ only in the clouds they make and in their summary CSVs:
stat_tests.judge sorts each statistic of a cloud, takes its KS distance and
names its target, and _write_curves draws every panel against it and writes
each trial's sorted values as a one-column curve CSV. A panel draws each EDF
from its sorted values alone (svgplot computes the probabilities per chunk);
a pooled reference, sorted in place, lives only while its panels are drawn.
The curve CSVs are written after every panel.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import calibration
from .baselines import cwae, cwae_roots, kernel_matrix, mardia_stats, wae_mmd
from .cdf_attract import (
    MAX_BITS,
    CoordinateTarget,
    build_target_quantiles,
    cdf_objective,
    codeword_fraction,
    coordinate_step,
)
from .optimizer import (
    CdfAttractionObjective,
    CwaeObjective,
    RunConfig,
    WaeMmdObjective,
    initial_cloud,
    run,
    trace_to_csv,
)
from .sampling import PointCloud, Rng, _write_table, sample_standard_normal, sample_uniform_cube
from .stat_tests import BATTERY_TESTS, Law, battery_bands, judge, reference_battery
from .svgplot import PALETTE, Curve, render_panel

# run defaults for the optimized EDF-grid rows; the baseline budgets are not
# shown to reach a minimum (n=200, D=20, seed 1: CWAE ends 0.002 above where
# alpha0 = 5000 gets in 500 steps; README, "Calibrated defaults")
CWAE_ALPHA0 = 20.0
WAE_ALPHA0 = 200.0
BASELINE_STEPS = 1000
ATTRACT_STEPS = 5000
# the test battery runs the attraction with no stop tolerance: a trial stops
# when it stalls (calibration.ATTRACT_STALL_WINDOW / _FRACTION), when the line
# search finds no descent, or at this budget. At n=100, D=20 the twenty
# trials from seed 1 all stall, after 108-269 steps
ATTRACT_BATTERY_STEPS = 400
COORD_STEPS = 200
COORD_ALPHA = 0.5

_ATTRACT_TARGETS = ("gaussian", "uniform01", "torus", "quantized")
_SEED_LIMIT = 2 ** 64  # Rng keeps 64 bits: a seed outside [0, 2**64) would wrap


@dataclass
class ExperimentSpec:
    experiment: str
    n: int = 200
    dim: int = 20
    trials: int = 10
    seed: int = 1
    steps: int | None = None
    out: str = "latentreg_out"
    target: str = "gaussian"
    bits: int | None = None  # quantized target only, where it defaults to 1

    def __post_init__(self) -> None:
        checks = (
            (self.n >= 2, f"n must be >= 2, got {self.n}"),
            (self.dim >= 1, f"dim must be >= 1, got {self.dim}"),
            (self.trials >= 1, f"trials must be >= 1, got {self.trials}"),
            (0 <= self.seed and self.seed + self.trials <= _SEED_LIMIT,
             f"trial seeds seed..seed+trials-1 must lie in [0, 2**64), "
             f"got {self.seed}..{self.seed + self.trials - 1}"),
            (self.target in _ATTRACT_TARGETS,
             f"target must be one of {_ATTRACT_TARGETS}, got {self.target!r}"),
            (self.bits is None or 1 <= self.bits <= MAX_BITS,
             f"bits must lie in [1, {MAX_BITS}], got {self.bits}"),
            (self.bits is None or self.target == "quantized",
             f"bits applies only to the quantized target, got target {self.target!r}"),
            (self.steps is None or self.steps >= 1,
             f"steps must be >= 1, got {self.steps}"),
            # the CWAE row of the EDF grid needs dim >= 2
            (self.experiment != "fig1_grid" or self.dim >= 2,
             f"fig1 needs dim >= 2, got {self.dim}"),
            # settings a command never reads are rejected, not ignored
            (self.experiment == "attract_demo" or self.target == "gaussian",
             f"target applies only to attract, got target {self.target!r}"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
        if self.target == "quantized" and self.bits is None:
            self.bits = 1

    def out_dir(self) -> Path:
        """OUT, made if missing, with every resolved value echoed to
        OUT/config_resolved.txt."""
        out = Path(self.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_table(out / "config_resolved.txt", None, "%s=%s\n",
                     [(f.name, getattr(self, f.name)) for f in fields(self)])
        return out


def _attraction_config(spec: ExperimentSpec, trial_seed: int) -> RunConfig:
    # the test battery's runs stop when they stall; fig1's attraction row and
    # attract stop at the tolerance. Each stop rule has its own step constant
    if spec.experiment == "fig2_battery":
        max_steps, alpha0 = spec.steps or ATTRACT_BATTERY_STEPS, calibration.ATTRACT_STALL_ALPHA0
        stop_tolerance = None
        stall = (calibration.ATTRACT_STALL_WINDOW, calibration.ATTRACT_STALL_FRACTION)
    else:
        max_steps, alpha0 = spec.steps or ATTRACT_STEPS, calibration.ATTRACT_ALPHA0
        stop_tolerance, stall = calibration.ATTRACT_STOP_TOLERANCE, None
    return RunConfig(
        n=spec.n, dim=spec.dim, seed=trial_seed, max_steps=max_steps, alpha0=alpha0,
        schedule="proportional_to_objective", stop_tolerance=stop_tolerance,
        stall=stall)


def run_attraction_trial(spec: ExperimentSpec, trial_seed: int):
    """Radii/distance attraction run shared by fig1's bottom row, fig2 and the
    gaussian demo; returns (final cloud, trace). The run starts from
    initial_cloud(_attraction_config(spec, trial_seed))."""
    targets = build_target_quantiles(spec.n, spec.dim)
    return run(_attraction_config(spec, trial_seed), CdfAttractionObjective(targets))


def _run_baseline_trial(spec: ExperimentSpec, trial_seed: int, kind: str) -> PointCloud:
    if kind == "cwae":
        alpha0, objective = CWAE_ALPHA0, CwaeObjective()
    else:
        alpha0 = WAE_ALPHA0
        objective = WaeMmdObjective(Rng(trial_seed).derive(1))
    config = RunConfig(n=spec.n, dim=spec.dim, seed=trial_seed,
                       max_steps=spec.steps or BASELINE_STEPS,
                       alpha0=alpha0, schedule="constant")
    cloud, _ = run(config, objective)
    return cloud


def _write_curve_csv(path: Path, sorted_values: np.ndarray) -> None:
    """EDF curve CSV: the header "value", then the sorted values, one "%.17g"
    row each, written by _write_table."""
    _write_table(path, "value", "%.17g\n", sorted_values[:, None])


def _sorted_quantile(sorted_values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """np.quantile(sorted_values, probs) with numpy's default linear method,
    read from values that are already sorted: the same virtual index, clipped
    neighbours, weight and two-branch interpolation, without the partition."""
    m = sorted_values.shape[0]
    virtual = (m - 1) * np.asarray(probs, dtype=np.float64)
    lower = np.floor(virtual)
    upper = lower + 1
    above = virtual >= m - 1
    lower[above] = upper[above] = -1
    below = virtual < 0
    lower[below] = upper[below] = 0
    lower, upper = lower.astype(np.intp), upper.astype(np.intp)
    gamma = virtual - lower
    a, b = sorted_values[lower], sorted_values[upper]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


_DECILES = np.arange(1, 10) / 10.0
_LAW_PS = np.linspace(0.001, 0.999, 200)
_Y_TICKS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _write_curves(out: Path, prefix: str, judged: dict[str, list[dict]], title: str) -> None:
    """Every curve CSV and SVG panel of judged = {row: [judge of each trial]}:
    out/{prefix}_{row}_{stat}_trial{t:02d}.csv per trial, the statistic's
    sorted values, and a panel out/{prefix}_{row}_{stat}.svg of the trials'
    EDFs over the judge's target, titled title.format(row=row, stat=stat). A
    Law is drawn once however many statistics share it; the trials' reference
    values, the same for every row, give the panels their pooled EDF."""
    first = next(iter(judged.values()))
    laws: dict[Law, tuple[np.ndarray, np.ndarray]] = {}  # on the panel grid and at the deciles
    for stat, (_, _, target) in first[0].items():
        if isinstance(target, Law):
            if target not in laws:
                laws[target] = target.inv_cdf(_LAW_PS), target.inv_cdf(_DECILES)
            (xs, ticks), ps = laws[target], _LAW_PS
        else:  # the pooled reference, sorted in place, drawn as an EDF
            xs = np.concatenate([trial[stat].target for trial in first])
            xs.sort()
            ps, ticks = None, _sorted_quantile(xs, _DECILES)
        for row, trials in judged.items():
            trial_values = [trial[stat][0] for trial in trials]
            hi = max(float(xs[-1]), max(float(v[-1]) for v in trial_values))
            lo = min(0.0, float(xs[0]), min(float(v[0]) for v in trial_values))
            x_hi = hi * 1.02
            # 1.02 hi lies below hi when every value is negative, and the range
            # is empty when every value is 0: then it ends 2% of max(|lo|, 1) past hi
            if hi < 0 or not x_hi > lo:
                x_hi = hi + 0.02 * max(-lo, 1.0)
            curves = [Curve(v, None, PALETTE[i % len(PALETTE)])
                      for i, v in enumerate(trial_values)]
            curves.append(Curve(xs, ps, "#000000", width=2.0))
            render_panel(out / f"{prefix}_{row}_{stat}.svg", curves,
                         title.format(row=row, stat=stat), (lo, x_hi), (0.0, 1.0),
                         x_ticks=ticks, y_ticks=_Y_TICKS)
        # released before the next statistic pools its reference
        del xs, curves
    for row, trials in judged.items():
        for t, trial in enumerate(trials):
            for stat, result in trial.items():
                _write_curve_csv(out / f"{prefix}_{row}_{stat}_trial{t:02d}.csv", result.values)


def cmd_fig1(spec: ExperimentSpec) -> int:
    """EDF grid: radii and distance curves for prior samples, the two
    baseline minimizers and the quantile attraction, with a KS summary."""
    out = spec.out_dir()
    judged: dict[str, list[dict]] = {}
    directions: dict[str, list[str]] = {}  # narrow or wide by the mean squared radius
    for t in range(spec.trials):
        trial_seed = spec.seed + t
        clouds = {"gaussian": sample_standard_normal(Rng(trial_seed), spec.n, spec.dim)}
        clouds["wae_mmd"] = _run_baseline_trial(spec, trial_seed, "wae_mmd")
        clouds["cwae"] = _run_baseline_trial(spec, trial_seed, "cwae")
        clouds["attract"], trace = run_attraction_trial(spec, trial_seed)
        trace_to_csv(trace, out / f"fig1_attract_trial{t:02d}_trace.csv")
        for row, cloud in clouds.items():
            cloud.to_csv(out / f"fig1_{row}_trial{t:02d}_cloud.csv")
            narrow = (cloud.data ** 2).sum(1).mean() < spec.dim
            directions.setdefault(row, []).append("narrow" if narrow else "wide")
            judged.setdefault(row, []).append(judge(cloud))
    _write_curves(out, "fig1", judged, "{row}: sorted {stat} vs chi2(%d) CDF" % spec.dim)
    _write_table(out / "fig1_summary.csv", "row,trial,stat,ks_linf,l1_area,direction",
                 "%s,%d,%s,%.17g,%.17g,%s\n",
                 [(row, t, stat, result.ks, result.l1_area(), directions[row][t])
                  for row, trials in judged.items() for t, trial in enumerate(trials)
                  for stat, result in trial.items()])
    return 0


def cmd_fig2(spec: ExperimentSpec) -> int:
    """Projection / scalar-product / angle battery on attraction-converged
    clouds (right column) next to i.i.d. prior clouds (left column)."""
    out = spec.out_dir()
    judged: dict[str, list[dict]] = {"iid": [], "attract": []}
    for t in range(spec.trials):
        trial_seed = spec.seed + t
        attract_cloud, _ = run_attraction_trial(spec, trial_seed)
        attract_cloud.to_csv(out / f"fig2_attract_trial{t:02d}_cloud.csv")
        iid_cloud = sample_standard_normal(Rng(trial_seed).derive(4), spec.n, spec.dim)
        # every cloud projects onto the same per-trial direction set
        battery = reference_battery(trial_seed, spec.n, spec.dim)
        judged["iid"].append(judge(iid_cloud, battery))
        judged["attract"].append(judge(attract_cloud, battery))
    _write_curves(out, "fig2", judged, "{row}: {stat} EDF")
    bands = battery_bands(spec.n, spec.dim)
    rows = []
    for side, trials in judged.items():
        for test in BATTERY_TESTS:
            band = bands[test]
            band_s = "" if band is None else "%.17g" % band
            for t, trial in enumerate(trials):
                ks = trial[test].ks
                ok = "" if band is None else str(int(ks <= band))
                rows.append((side, test, t, ks, band_s, ok))
    _write_table(out / "fig2_summary.csv", "side,test,trial,ks_linf,band_q95,pass",
                 "%s,%s,%d,%.17g,%s,%s\n", rows)
    return 0


_EVAL_CHOICES = ("wae_mmd", "cwae", "mardia", "radii", "distances")


def cmd_eval(cloud_csv: str, which: str, seed: int, out: str) -> int:
    """Evaluate one statistic on a cloud CSV; prints a report and writes it
    next to the other artifacts. A non-finite value, or a cloud whose squared
    distances overflow, raises before any value is printed or written."""
    cloud = PointCloud.from_csv(cloud_csv)
    seed_note = f" seed={seed}" if which == "wae_mmd" else ""
    print(f"cloud={cloud_csv} n={cloud.n} dim={cloud.dim} which={which}{seed_note}")
    rows: list[tuple[str, float]] = []
    if which == "mardia":
        skew, kurt, second = mardia_stats(cloud)
        rows = [("skewness_stat", skew), ("kurtosis_stat", kurt),
                ("second_moment", second)]
    elif which == "wae_mmd":
        z_tilde = sample_standard_normal(Rng(seed).derive(1), cloud.n, cloud.dim)
        rows = [("wae_mmd", wae_mmd(kernel_matrix(cloud, cloud), kernel_matrix(cloud, z_tilde)))]
    elif which == "cwae":
        rows = [("cwae", cwae(cloud, cwae_roots(cloud)))]
    else:
        judged = judge(cloud)[which]
        rows = [("ks_linf", judged.ks), ("l1_area", judged.l1_area()),
                ("sample_size", float(len(judged.values)))]
    for name, value in rows:  # as optimizer.run stops on a non-finite objective
        if not np.isfinite(value):
            raise ValueError(f"eval {which}: {name} is not finite ({value})")
    # |x_i - x_j|^2 <= 4 max_i |x_i|^2 bounds every squared distance and every
    # partial sum of its Gram form, which can overflow into a finite but
    # wrong statistic: checked here once, not in _sq_dists' hot path
    with np.errstate(over="ignore"):
        reach = 4.0 * float(np.einsum("ij,ij->i", cloud.data, cloud.data).max())
    if not np.isfinite(reach):
        raise ValueError(f"eval {which}: the cloud's squared distances overflow")
    for name, value in rows:
        print(f"{name}=%.17g" % value)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / f"eval_{which}.csv", "stat,value", "%s,%.17g\n", rows)
    return 0


_HIST_BINS = 32


def _write_histograms(path: Path, cloud: PointCloud, lo: float, hi: float) -> None:
    edges = np.linspace(lo, hi, _HIST_BINS + 1)
    counts = [np.histogram(cloud.data[:, j], bins=edges)[0] for j in range(cloud.dim)]
    _write_table(path, "bin_lo,bin_hi," + ",".join(f"coord{j}" for j in range(cloud.dim)),
                 "%.17g,%.17g" + ",%d" * cloud.dim + "\n",
                 np.column_stack([edges[:-1], edges[1:], *counts]))


def cmd_attract_demo(spec: ExperimentSpec) -> int:
    """Attraction demo: radii/distance attraction for the gaussian target,
    coordinate-wise attraction otherwise; clouds, histograms and a summary."""
    out = spec.out_dir()
    target_name = spec.target
    summaries = []
    for t in range(spec.trials):
        trial_seed = spec.seed + t
        if target_name == "gaussian":
            before = initial_cloud(_attraction_config(spec, trial_seed))
            after, trace = run_attraction_trial(spec, trial_seed)
            trace_to_csv(trace, out / f"attract_gaussian_trial{t:02d}_trace.csv")
            final_obj = cdf_objective(after, build_target_quantiles(spec.n, spec.dim))
            summary = ("final_objective", final_obj)
        else:
            coord_target = CoordinateTarget(target_name, spec.bits)
            before = sample_uniform_cube(Rng(trial_seed), spec.n, spec.dim, 0.0, 1.0)
            after = before
            for _ in range(spec.steps or COORD_STEPS):
                after, previous = coordinate_step(after, coord_target, COORD_ALPHA), after
                if np.max(np.abs(after.data - previous.data)) == 0.0:
                    break
            if target_name == "quantized":
                summary = ("codeword_fraction", codeword_fraction(after, spec.bits))
            else:
                summary = ("max_coord", float(np.max(after.data)))
        before.to_csv(out / f"attract_{target_name}_trial{t:02d}_before.csv")
        after.to_csv(out / f"attract_{target_name}_trial{t:02d}_after.csv")
        lo, hi = (-5.0, 5.0) if target_name == "gaussian" else (0.0, 1.0)
        _write_histograms(out / f"attract_{target_name}_trial{t:02d}_hist.csv",
                          after, lo, hi)
        summaries.append(summary)
    _write_table(out / f"attract_{target_name}_summary.csv", "trial,stat,value",
                 "%d,%s,%.17g\n", [(t, *summary) for t, summary in enumerate(summaries)])
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    # accepted only as 1, the value the benchmark worker passes
    p.add_argument("--jobs", type=int, default=None, choices=(1,))


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="latentreg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig1 = sub.add_parser("fig1", help="EDF grid for radii and distances")
    _add_common(p_fig1)
    p_fig2 = sub.add_parser("fig2", help="projection/product/angle battery")
    _add_common(p_fig2)
    p_eval = sub.add_parser("eval", help="evaluate one statistic on a cloud CSV")
    p_eval.add_argument("--cloud", required=True)
    p_eval.add_argument("--which", required=True, choices=_EVAL_CHOICES)
    p_eval.add_argument("--seed", type=int, default=None,
                        help="prior sample seed of --which wae_mmd (default 1)")
    p_eval.add_argument("--out", type=str, default="latentreg_out")
    p_attract = sub.add_parser("attract", help="attraction demo runs")
    _add_common(p_attract)
    p_attract.add_argument("--target", default=None,
                           choices=_ATTRACT_TARGETS)
    p_attract.add_argument("--bits", type=int, default=None)

    args = parser.parse_args(argv)
    if args.command == "eval":
        if args.seed is not None and args.which != "wae_mmd":
            parser.error(f"--seed applies only to --which wae_mmd, got --which {args.which}")
        if args.seed is not None and not 0 <= args.seed < _SEED_LIMIT:
            parser.error(f"--seed must lie in [0, 2**64), got {args.seed}")
    else:
        experiment = {"fig1": "fig1_grid", "fig2": "fig2_battery",
                      "attract": "attract_demo"}[args.command]
        given = {name: value for name, value in vars(args).items()
                 if name not in ("command", "jobs") and value is not None}
        try:  # a bad spec is a usage error, reported before any file is written
            spec = ExperimentSpec(experiment, **given)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        if args.command == "fig1":
            return cmd_fig1(spec)
        if args.command == "fig2":
            return cmd_fig2(spec)
        if args.command == "eval":
            return cmd_eval(args.cloud, args.which, 1 if args.seed is None else args.seed,
                            args.out)
        return cmd_attract_demo(spec)
    except Exception as exc:  # runtime/numeric failure -> exit 2
        sys.stderr.write(f"latentreg: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
