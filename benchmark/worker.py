"""One workload invocation in a fresh interpreter.

    python3 benchmark/worker.py --workload fig2-battery --seed 20 --trials 20 --out DIR --result FILE [--trace | --pace]
    python3 benchmark/worker.py --selftest --out DIR --result FILE

Imports latentreg, times the workload (wall and process CPU time of all
threads), records the peak resident set, then checks the outputs and reads
the quality figures from them. With --trace the layers are traced while the
workload runs and the tracer must leave no wrapper behind. With --pace the
times are rescaled to the reference processor speed (pace.py). --selftest
compares the tracer's counts with independently counted ones on n=8, D=3
inputs. The result goes to FILE as JSON; the exit code is 0 when every check
passed.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import resource
import shutil
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np

import latentreg
from latentreg import calibration, cdf_attract, cli, gaussian_l2, optimizer, sampling
from latentreg.cdf_attract import build_target_quantiles, cdf_objective
from latentreg.sampling import PointCloud

from pace import Pace
from tracer import LAYERS, Tracer, leftover_wrappers, missing_private, wrap_targets

CLI_WORKLOADS = {
    "fig1-grid": ["fig1", "--n", "200", "--dim", "20"],
    "fig2-battery": ["fig2", "--n", "100", "--dim", "20"],
    "attract-n400": ["attract", "--target", "gaussian", "--n", "400", "--dim", "20"],
}
L2_SIZES = {"n_full": 60, "n_spherical": 2000, "dim": 20, "n_radii": 2000}


def cli_argv(workload: str, seed: int, trials: int, out: Path) -> list[str]:
    return CLI_WORKLOADS[workload] + ["--trials", str(trials), "--jobs", "1",
                                      "--seed", str(seed), "--out", str(out)]


def expected_artifacts(workload: str, trials: int) -> list[str]:
    """Files a CLI workload must write."""
    names = ["config_resolved.txt"]
    for t in range(trials):
        if workload == "fig1-grid":
            names.append(f"fig1_attract_trial{t:02d}_trace.csv")
            for row in ("gaussian", "wae_mmd", "cwae", "attract"):
                names.append(f"fig1_{row}_trial{t:02d}_cloud.csv")
                names += [f"fig1_{row}_{stat}_trial{t:02d}.csv" for stat in ("radii", "distances")]
        elif workload == "fig2-battery":
            names.append(f"fig2_attract_trial{t:02d}_cloud.csv")
            names += [f"fig2_{side}_{test}_trial{t:02d}.csv"
                      for side in ("iid", "attract")
                      for test in ("projections", "scalar_products", "angles")]
        else:
            names += [f"attract_gaussian_trial{t:02d}_{part}.csv"
                      for part in ("trace", "before", "after", "hist")]
    if workload == "fig1-grid":
        names.append("fig1_summary.csv")
        names += [f"fig1_{row}_{stat}.svg" for row in ("gaussian", "wae_mmd", "cwae", "attract")
                  for stat in ("radii", "distances")]
    elif workload == "fig2-battery":
        names.append("fig2_summary.csv")
        names += [f"fig2_{side}_{test}.svg" for side in ("iid", "attract")
                  for test in ("projections", "scalar_products", "angles")]
    else:
        names.append("attract_gaussian_summary.csv")
    return sorted(names)


# -- l2-geometry ---------------------------------------------------------------

def _spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(0.0, 0.5, (dim, dim))
    cov = 0.25 * np.eye(dim) + m @ m.T / dim
    return 0.5 * (cov + cov.T)


def l2_inputs(seed: int, n_full: int, n_spherical: int, dim: int, n_radii: int) -> dict:
    """Clouds, covariances, widths and radii of the l2-geometry workload,
    drawn from numpy's generator so they do not depend on latentreg."""
    rng = np.random.default_rng(seed)
    return {
        "a": PointCloud(rng.standard_normal((n_full, dim))),
        "b": PointCloud(rng.standard_normal((n_full, dim))),
        "cov_a": [_spd(rng, dim) for _ in range(n_full)],
        "cov_b": [_spd(rng, dim) for _ in range(n_full)],
        "x": PointCloud(rng.standard_normal((n_spherical, dim))),
        "y": PointCloud(rng.standard_normal((n_spherical, dim))),
        "widths": rng.uniform(0.5, 1.5, n_spherical),
        "radii": np.linspace(0.0, 3.0 * math.sqrt(dim), n_radii),
        "dim": dim,
    }


def l2_run(inp: dict) -> dict:
    """The timed part of l2-geometry: full-covariance pair loops, the
    spherical and isotropic paths, and the mean-field rule on a radius grid."""
    g = gaussian_l2
    sample_a = g.SmoothedSample(inp["a"], inp["cov_a"])
    sample_b = g.SmoothedSample(inp["b"], inp["cov_b"])
    return {
        "full_samples": g.l2_distance_samples(sample_a, sample_b),
        "full_to_prior": g.l2_distance_to_standard_gaussian(inp["a"], inp["cov_a"], scaled=True),
        "spherical_to_prior": g.l2_distance_to_standard_gaussian(inp["x"], inp["widths"],
                                                                 scaled=True),
        "isotropic_samples": g.l2_distance_samples_isotropic(inp["x"], inp["y"], 1.0),
        "mean_field_sigmas": [g.mean_field_sigma(float(r), inp["dim"]) for r in inp["radii"]],
    }


def l2_checks(seed: int, res: dict) -> list[str]:
    """Output checks of l2-geometry; the equivalence checks use a small
    second input (n=16, D=20) so they stay cheap."""
    g = gaussian_l2
    failures = []
    scalars = {k: v for k, v in res.items() if k != "mean_field_sigmas"}
    for key, value in scalars.items():
        if not (math.isfinite(value) and value >= 0.0):
            failures.append(f"{key} = {value!r} is not a finite nonnegative distance")
    sigmas = res["mean_field_sigmas"]
    if not all(math.isfinite(s) and 0.25 <= s <= 8.0 for s in sigmas):
        failures.append("mean_field_sigma left its bracket [0.25, 8]")
    if abs(sigmas[0] - 1.0) > 1e-6:
        failures.append(f"mean_field_sigma(0) = {sigmas[0]!r}, expected 1")
    small = l2_inputs(seed + 1, 16, 16, 20, 1)
    c, widths = small["a"], small["widths"]
    spherical = g.l2_distance_to_standard_gaussian(c, widths, scaled=True)
    full = g.l2_distance_to_standard_gaussian(
        c, [w * w * np.eye(c.dim) for w in widths], scaled=True)
    if abs(full - spherical) > 1e-10 * abs(spherical):
        failures.append(f"full path with sigma^2 I gives {full!r}, spherical path {spherical!r}")
    self_distance = g.l2_distance_samples(g.SmoothedSample(c, small["cov_a"]),
                                          g.SmoothedSample(c, small["cov_a"]))
    if not 0.0 <= self_distance <= 1e-12:
        failures.append(f"l2_distance_samples(a, a) = {self_distance!r} exceeds 1e-12")
    return failures


def l2_quality(res: dict) -> float:
    """Mean squared L2 distance to N(0, I), in the scaled form, of the two
    smoothened clouds: the paper's regularizer value on this workload."""
    return 0.5 * (res["full_to_prior"] + res["spherical_to_prior"])


def l2_digest(res: dict) -> str:
    text = json.dumps({k: v for k, v in sorted(res.items())}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- CLI output checks ---------------------------------------------------------

def check_csv(path: Path) -> list[str]:
    """Rows of one width; every numeric cell finite."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [f"{path.name}: empty"]
    failures = []
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            failures.append(f"{path.name}:{lineno}: {len(row)} fields, expected {width}")
            break
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                failures.append(f"{path.name}:{lineno}: non-finite value {cell!r}")
                break
    return failures


def check_svg(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{path.name}: not well-formed SVG ({exc})"]
    return [] if root.tag.endswith("svg") else [f"{path.name}: root element is {root.tag}"]


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def final_objective(path: Path, n: int, dim: int) -> float:
    """l1 quantile mismatch of a written cloud against its chi2(dim) targets."""
    return cdf_objective(PointCloud.from_csv(path), build_target_quantiles(n, dim), norm="l1")


KS_BANDS = {
    "radii": calibration.RADII_KS_Q95, "distances": calibration.DISTANCE_KS_Q95,
    "projections": calibration.PROJECTION_KS_Q95,
    "scalar_products": calibration.SCALAR_KS2_Q95, "angles": calibration.ANGLE_KS2_Q95,
}


def cli_outputs(workload: str, trials: int, out: Path) -> tuple[list[str], dict]:
    """Checks of a finished CLI workload, and its quality figures."""
    names = expected_artifacts(workload, trials)
    missing = [name for name in names if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"], {}
    failures = []
    for name in names:
        path = out / name
        if name.endswith(".csv"):
            failures += check_csv(path)
        elif name.endswith(".svg"):
            failures += check_svg(path)
    if failures:
        return failures, {}
    argv = CLI_WORKLOADS[workload]
    n, dim = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--dim") + 1])
    if workload == "fig1-grid":
        clouds = [out / f"fig1_attract_trial{t:02d}_cloud.csv" for t in range(trials)]
        ks = [(r["stat"], float(r["ks_linf"]), KS_BANDS[r["stat"]])
              for r in read_rows(out / "fig1_summary.csv") if r["row"] == "attract"]
    elif workload == "fig2-battery":
        clouds = [out / f"fig2_attract_trial{t:02d}_cloud.csv" for t in range(trials)]
        ks = [(r["test"], float(r["ks_linf"]), KS_BANDS[r["test"]])
              for r in read_rows(out / "fig2_summary.csv") if r["side"] == "attract"]
    else:
        clouds = [out / f"attract_gaussian_trial{t:02d}_after.csv" for t in range(trials)]
        ks = []
    if (n, dim) != (200, 20):
        ks = []  # the KS bands are calibrated at n=200, D=20 only
    objectives = [final_objective(path, n, dim) for path in clouds]
    if workload == "attract-n400":
        summary = [float(r["value"]) for r in read_rows(out / "attract_gaussian_summary.csv")]
        if summary != objectives:
            failures.append(f"summary final objectives {summary} differ from the written "
                            f"clouds' {objectives}")
    if workload != "fig2-battery":  # these attraction runs stop at the tolerance
        tolerance = calibration.ATTRACT_STOP_TOLERANCE
        failures += [f"stop-tolerance run ended at {value!r} > {tolerance!r}"
                     for value in objectives if not value <= tolerance]
    quality = {
        "final_objective": sum(objectives) / len(objectives),
        "ks_pass_frac": (sum(value <= band for _, value, band in ks) / len(ks)
                         if ks else None),
        "ks": ks,
    }
    return failures, quality


def digest_files(out: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its C API."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "latentreg": latentreg.__version__,
            "latentreg_file": latentreg.__file__}


# -- self-test -----------------------------------------------------------------

def selftest(out: Path) -> list[str]:
    """Tracer counts against independent counts on n=8, D=3 inputs.

    A profile hook counts calls of every wrapped function's code object,
    whichever namespace the caller reached it through; every wrapper count
    must equal it; that ties the counted private helpers (pair integrals,
    CSV writers) to real calls, and a helper that is gone fails the test.
    Values drawn, cold table entries and the halvings of a plateau run are
    checked against direct counts too."""
    failures = [f"traced helper no longer exists: {name}" for name in missing_private()]
    targets = {fn.__code__: qual for qual, _, _, _, fn in wrap_targets()}
    normal_code = sampling.Rng.normal.__code__
    profiled, direct = Counter(), Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        qual = targets.get(frame.f_code)
        if qual:
            profiled[qual] += 1
        if frame.f_code is normal_code:
            direct["sampling.normals"] += frame.f_locals["count"]

    tracer = Tracer()
    tracer.install()
    sys.setprofile(profile)
    try:
        for command in (["fig1"], ["fig2"], ["attract", "--target", "gaussian"]):
            argv = command + ["--n", "8", "--dim", "3", "--trials", "1", "--steps", "5",
                              "--seed", "3", "--out", str(out / command[0])]
            if cli.main(argv) != 0:
                failures.append(f"latentreg {' '.join(argv)} failed")
        l2_run(l2_inputs(3, 4, 8, 3, 5))
        # a plateau run with backtracking that ends without descent
        before = tracer.work["optimizer.halvings"]
        config = optimizer.RunConfig(n=8, dim=3, seed=3, max_steps=60, alpha0=0.2,
                                     schedule="proportional_to_objective")
        _, trace = optimizer.run(config, optimizer.CdfAttractionObjective(
            cdf_attract.build_target_quantiles(8, 3)))
        halvings = tracer.work["optimizer.halvings"] - before
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    for qual in sorted(set(targets.values())):
        if tracer.calls[qual] != profiled[qual]:
            failures.append(f"{qual}: wrapper counted {tracer.calls[qual]}, "
                            f"profiler {profiled[qual]}")
    # each accepted alpha is alpha0 * objective halved h times; alpha 0 marks
    # a step that used up every halving
    direct_halvings = sum(optimizer._MAX_HALVINGS if row.alpha == 0.0 else
                          round(math.log2(config.alpha0 * row.objective / row.alpha))
                          for row in trace)
    if halvings != direct_halvings:
        failures.append(f"optimizer.halvings: traced {halvings}, from alphas {direct_halvings}")
    got = tracer.metrics()
    expected = {"cdf_attract.table_entries": 8 + 8 * 7 // 2,  # radii + distance tables
                "sampling.normals": direct["sampling.normals"]}
    for name, value in expected.items():
        if got[name] != value:
            failures.append(f"{name}: traced {got[name]}, expected {value}")
    if got["gaussian_l2.pair_integrals"] == 0:
        failures.append("gaussian_l2.pair_integrals: no pair integral counted")
    if tracer.work["cdf_attract.cold_builds"] != 2:
        failures.append(f"cold table builds: {tracer.work['cdf_attract.cold_builds']}, expected 2")
    failures += [f"wrapper left behind: {name}" for name in leftover_wrappers()]
    return failures


# -- main ----------------------------------------------------------------------

def run_workload(workload: str, seed: int, trials: int, out: Path, trace: bool,
                 pace: bool) -> dict:
    l2 = workload == "l2-geometry"
    inputs = l2_inputs(seed, **L2_SIZES) if l2 else None
    argv = None if l2 else cli_argv(workload, seed, trials, out)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    pacer = Pace() if pace else None
    if pacer:
        pacer.start()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        if l2:
            output = l2_run(inputs)
        else:
            output = cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if pacer:
            pacer.stop()
        if tracer:
            tracer.uninstall()
    result = pacer.result(wall, cpu) if pacer else {"wall_s": wall, "cpu_s": cpu}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if l2:
        failures = l2_checks(seed, output)
        result.update(final_objective=l2_quality(output), ks_pass_frac=None,
                      digest=l2_digest(output), artifact_files=0, artifact_bytes=0)
    else:
        failures = [] if output == 0 else [f"latentreg exited with status {output}"]
        if not failures:
            more, quality = cli_outputs(workload, trials, out)
            failures += more
            result.update(quality)
        if not failures:
            result["digest"] = digest_files(out, expected_artifacts(workload, trials))
        files = [p for p in out.rglob("*") if p.is_file()]
        result.update(artifact_files=len(files),
                      artifact_bytes=sum(p.stat().st_size for p in files))
    if tracer:
        metrics = tracer.metrics()
        metrics["cli.artifact_files"] = result["artifact_files"]
        metrics["cli.artifact_bytes"] = result["artifact_bytes"]
        result["layers"] = metrics
        result["layer_self_s"] = {layer: tracer.self_s[layer] for layer in LAYERS}
        result["cold_builds"] = tracer.work["cdf_attract.cold_builds"]
        if not l2 and result["cold_builds"] == 0:
            failures.append("no cold quantile-table build: the table cache was warm")
        failures += [f"wrapper left behind: {name}" for name in leftover_wrappers()]
        tracer.write_spans(out.parent / f"{out.name}.spans.jsonl")
    result["failures"] = failures
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pace", action="store_true",
                        help="rescale the times to the reference processor speed (pace.py)")
    args = parser.parse_args()
    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        if args.selftest:
            result = {"failures": selftest(out)}
        else:
            result = run_workload(args.workload, args.seed, args.trials, out, args.trace,
                                  args.pace)
    except Exception:  # reported as a failed invocation
        result = {"failures": [traceback.format_exc()]}
    result["env"] = environment()
    Path(args.result).write_text(json.dumps(result))
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
