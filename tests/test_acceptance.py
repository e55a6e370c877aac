"""Acceptance battery: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Expensive artifacts (attraction runs, baseline minimizations)
are shared through module-scoped fixtures; total runtime is dominated by the
ten CWAE/MMD minimizations of criterion 5.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from latentreg import calibration
from latentreg.baselines import (
    cwae,
    cwae_gradient,
    mardia_stats,
    wae_mmd,
    wae_mmd_gradient,
)
from latentreg.cdf_attract import (
    build_target_quantiles,
    cdf_objective,
    cloud_stats,
    gradient_from_residuals,
    residual_bundle,
)
from latentreg.cli import (
    ATTRACT_BATTERY_STEPS,
    ExperimentSpec,
    _attraction_config,
    cmd_attract_demo,
    cmd_fig1,
    cmd_fig2,
    run_attraction_trial,
)
from latentreg.gaussian_l2 import (
    GaussianComponent,
    SmoothedSample,
    gaussian_product_integral,
    l2_distance_samples,
    l2_distance_to_standard_gaussian,
    mean_field_sigma,
)
from latentreg.optimizer import CdfAttractionObjective, CwaeObjective, RunConfig, WaeMmdObjective, run
from latentreg.sampling import PointCloud, Rng, sample_standard_normal
from latentreg.specfun import ChiSquare, chi2_cdf, chi2_inv_cdf
from latentreg.stat_tests import BATTERY_TESTS, battery_bands, judge, reference_battery

N, DIM = 200, 20
BASE_SEED = 1  # the CLI default; trial seeds are BASE_SEED + t
TRIALS = 10


def radii_ks(cloud: PointCloud) -> float:
    """The squared radii's KS distance from chi-squared(D), as fig1 judges it."""
    return judge(cloud)["radii"].ks


def report(criterion: int, ok: bool, description: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} - {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def targets():
    return build_target_quantiles(N, DIM)


@pytest.fixture(scope="module")
def stopped_attraction_runs(targets):
    """Ten attraction runs with the stop rule, as in the EDF-grid bottom row."""
    finals = []
    for t in range(TRIALS):
        config = RunConfig(n=N, dim=DIM, seed=BASE_SEED + t, max_steps=5000,
                           alpha0=calibration.ATTRACT_ALPHA0,
                           schedule="proportional_to_objective",
                           stop_tolerance=calibration.ATTRACT_STOP_TOLERANCE)
        final, trace = run(config, CdfAttractionObjective(targets))
        finals.append((final, cdf_objective(final, targets), len(trace)))
    return finals


@pytest.fixture(scope="module")
def battery_attraction_clouds(targets):
    """Ten attraction runs as fig2 makes them: carried to the mismatch floor
    and stopped when they stall."""
    spec = ExperimentSpec("fig2_battery", n=N, dim=DIM)
    clouds = []
    for t in range(TRIALS):
        config = _attraction_config(spec, BASE_SEED + t)
        final, _ = run(config, CdfAttractionObjective(targets))
        clouds.append(final)
    return clouds


@pytest.fixture(scope="module")
def baseline_minimized_clouds():
    """Ten CWAE- and ten MMD-minimized clouds at the calibrated defaults."""
    result = {"cwae": [], "wae_mmd": []}
    for t in range(TRIALS):
        seed = BASE_SEED + t
        config = RunConfig(n=N, dim=DIM, seed=seed, max_steps=1000, alpha0=20.0)
        cloud, _ = run(config, CwaeObjective())
        result["cwae"].append(cloud)
        config = RunConfig(n=N, dim=DIM, seed=seed, max_steps=1000, alpha0=200.0)
        cloud, _ = run(config, WaeMmdObjective(Rng(seed).derive(1)))
        result["wae_mmd"].append(cloud)
    return result


def test_criterion_1_special_function_accuracy():
    worst = 0.0
    for dof in (1, 2, 5, 20, 100):
        dist = ChiSquare(dof)
        for q in [1e-6, 0.01] + [k / 10 for k in range(1, 10)] + [0.99, 1 - 1e-6]:
            worst = max(worst, abs(chi2_cdf(dist, chi2_inv_cdf(dist, q)) - q))
    median_err = abs(chi2_inv_cdf(ChiSquare(2), 0.5) - 2 * math.log(2.0))
    report(1, worst <= 1e-10 and median_err <= 1e-12,
           "chi2 inverse round trip <= 1e-10 and chi2_2 median = 2 ln 2",
           f"max round-trip {worst:.2e}, median err {median_err:.2e}")


def _mixture(points, covs):
    comps = [GaussianComponent(p, c) for p, c in zip(points, covs)]
    weight = 1.0 / len(comps)

    def density(x):
        return weight * sum(c.density(x) for c in comps)

    return density


def _quad(f, dim, lim=12.0):
    if dim == 1:
        val, _ = integrate.quad(f, -lim, lim, epsabs=1e-10, limit=200)
    else:
        val, _ = integrate.dblquad(lambda y, x: f((x, y)), -lim, lim, -lim, lim,
                                   epsabs=1e-9)
    return val


def test_criterion_2_closed_forms_match_quadrature():
    rng = np.random.default_rng(777)

    def rand_cov(dim):
        a = rng.normal(size=(dim, dim)) * 0.6
        return a @ a.T + (0.4 + rng.random()) * np.eye(dim)

    checked = 0
    worst = 0.0
    # product integrals: 20 instances
    for dim in (1, 2):
        for _ in range(10):
            mu = rng.uniform(-2, 2, size=dim)
            sigma, gamma = rand_cov(dim), rand_cov(dim)
            a = GaussianComponent(mu, sigma)
            b = GaussianComponent(np.zeros(dim), gamma)
            quad = _quad(lambda x: a.density(x) * b.density(x), dim)
            worst = max(worst, abs(gaussian_product_integral(mu, sigma, gamma) - quad))
            checked += 1
    # sample-sample distances: 15 instances
    for dim, count in ((1, 8), (2, 7)):
        for _ in range(count):
            pa = rng.uniform(-2, 2, size=(3, dim))
            pb = rng.uniform(-2, 2, size=(2, dim))
            ca = [rand_cov(dim) for _ in range(3)]
            cb = [rand_cov(dim) for _ in range(2)]
            closed = l2_distance_samples(SmoothedSample(PointCloud(pa), ca),
                                         SmoothedSample(PointCloud(pb), cb))
            da, db = _mixture(pa, ca), _mixture(pb, cb)
            quad = _quad(lambda x: (da(x) - db(x)) ** 2, dim)
            worst = max(worst, abs(closed - quad))
            checked += 1
    # sample-prior distances: 15 instances
    for dim, count in ((1, 8), (2, 7)):
        prior = GaussianComponent(np.zeros(dim), np.eye(dim))
        for _ in range(count):
            pts = rng.uniform(-2, 2, size=(2, dim))
            covs = [rand_cov(dim) for _ in range(2)]
            closed = l2_distance_to_standard_gaussian(PointCloud(pts), covs)
            mix = _mixture(pts, covs)
            quad = _quad(lambda x: (mix(x) - prior.density(x)) ** 2, dim)
            worst = max(worst, abs(closed - quad))
            checked += 1
    report(2, checked == 50 and worst <= 1e-8,
           "closed forms match adaptive quadrature in D in {1,2} within 1e-8",
           f"{checked} instances, worst abs diff {worst:.2e}")


def _directional_fd(fun, data, grad, h):
    rng = np.random.default_rng(4242)
    v = rng.normal(size=data.shape)
    v /= np.linalg.norm(v)
    fd = (fun(data + h * v) - fun(data - h * v)) / (2 * h)
    return abs(fd - float((grad * v).sum())) / max(abs(fd), 1e-30)


def test_criterion_3_gradient_fidelity(targets):
    rng = np.random.default_rng(31337)
    worst = 0.0
    for i in range(20):
        z = PointCloud(rng.normal(size=(5, 3)))
        zt = PointCloud(rng.normal(size=(5, 3)))
        grad = wae_mmd_gradient(z, zt)
        err = _directional_fd(lambda d: wae_mmd(PointCloud(d), zt), z.data, grad, 1e-5)
        worst = max(worst, err)
    for _ in range(20):
        z = PointCloud(rng.normal(size=(5, 20)))
        grad = cwae_gradient(z)
        err = _directional_fd(lambda d: cwae(PointCloud(d)), z.data, grad, 1e-5)
        worst = max(worst, err)
    small_targets = build_target_quantiles(5, 3)
    done = 0
    while done < 20:
        cloud = PointCloud(rng.normal(size=(5, 3)) * 1.6)
        radii, dists = map(np.sort, cloud_stats(cloud))
        gap = min(np.abs(radii - small_targets.radii).min(),
                  np.abs(dists - small_targets.distances).min())
        if gap < 1e-4:  # keep clear of ties and sign flips
            continue
        residuals = residual_bundle(cloud_stats(cloud), small_targets)
        grad = gradient_from_residuals(cloud, residuals)
        err = _directional_fd(lambda d: cdf_objective(PointCloud(d), small_targets),
                              cloud.data, grad, 1e-7)
        worst = max(worst, err)
        done += 1
    report(3, worst <= 1e-5,
           "analytic gradients match central finite differences (rel 1e-5)",
           f"worst relative error {worst:.2e}")


def test_criterion_4_attraction_reaches_sampling_floor(stopped_attraction_runs):
    threshold = 2.0 * calibration.DBAR_MEDIAN
    finals = [obj for _, obj, _ in stopped_attraction_runs]
    steps = [s for _, _, s in stopped_attraction_runs]
    good = sum(obj <= threshold for obj in finals)
    report(4, good >= 9,
           "attraction reaches 2x the prior-sample mismatch floor in >= 9/10 trials",
           f"{good}/10 within {threshold:.3f}; final range "
           f"[{min(finals):.3f}, {max(finals):.3f}]; steps <= {max(steps)}")


def test_criterion_5_baselines_deviate_from_chi2(baseline_minimized_clouds):
    threshold = 3.0 * calibration.RADII_KS_MEDIAN
    detail = []
    ok = True
    for kind in ("cwae", "wae_mmd"):
        hits = 0
        directions = []
        for cloud in baseline_minimized_clouds[kind]:
            ks = radii_ks(cloud)
            hits += ks >= threshold
            mean_r = float((cloud.data ** 2).sum(1).mean())
            directions.append("narrow" if mean_r < DIM else "wide")
        ok = ok and hits >= 8
        detail.append(f"{kind}: {hits}/10 with KS >= {threshold:.3f}, "
                      f"directions {','.join(sorted(set(directions)))}")
    report(5, ok, "minimized baselines show non-chi2 radii (KS >= 3x prior median)",
           "; ".join(detail))


def test_criterion_6_battery_on_attraction_clouds(battery_attraction_clouds):
    bands = battery_bands(N, DIM)
    passes = 0
    for t, cloud in enumerate(battery_attraction_clouds):
        judged = judge(cloud, reference_battery(BASE_SEED + t, N, DIM))
        passes += all(judged[test].ks <= bands[test] for test in BATTERY_TESTS)
    report(6, passes >= 8,
           "attraction clouds pass projection/product/angle 95% bands in >= 8/10",
           f"{passes}/10 pass all three")


def test_criterion_7_mardia_consistency(battery_attraction_clouds):
    seconds, fourths = [], []
    for cloud in battery_attraction_clouds:
        _, kurt, second = mardia_stats(cloud)
        seconds.append(second)
        fourths.append(kurt)
    ok = all(abs(s - 20.0) <= 1.0 for s in seconds) and \
        all(abs(k - 440.0) <= 40.0 for k in fourths)
    report(7, ok, "attraction clouds give second moment 20 +- 1 and fourth 440 +- 40",
           f"second in [{min(seconds):.2f}, {max(seconds):.2f}], "
           f"fourth in [{min(fourths):.1f}, {max(fourths):.1f}]")


def test_criterion_8_mean_field_rule():
    origin = mean_field_sigma(0.0, DIM)
    worst = 0.0
    for frac in np.linspace(0.0, 2.0, 9):
        r = frac * math.sqrt(DIM)
        predicted = 1.0 + r * r / (2.0 * DIM)
        worst = max(worst, abs(mean_field_sigma(r, DIM) - predicted) / predicted)
    report(8, abs(origin - 1.0) <= 1e-6 and worst <= 0.15,
           "mean-field sigma(r) matches 1 + r^2/(2D) within 15% on [0, 2 sqrt(D)]",
           f"sigma(0) - 1 = {origin - 1:.2e}, worst relative gap {worst:.1%}")


def test_criterion_9_quantized_attraction(tmp_path):
    spec = ExperimentSpec("attract_demo", target="quantized", bits=1, n=64, dim=2,
                          trials=1, seed=BASE_SEED, out=str(tmp_path / "q"))
    assert cmd_attract_demo(spec) == 0
    summary = (tmp_path / "q" / "attract_quantized_summary.csv").read_text()
    fraction = float(summary.splitlines()[1].split(",")[2])
    report(9, fraction >= 0.9,
           "quantized attraction puts >= 90% of coordinates within 2^-(k+2) of codewords",
           f"fraction {fraction:.3f}")


def test_fig1_summary_median_ks_ordering(battery_attraction_clouds,
                                         baseline_minimized_clouds):
    # the EDF-grid rows order as: attraction below prior-sample noise, both
    # far below the minimized baselines
    attract = np.median([radii_ks(c) for c in battery_attraction_clouds])
    gaussian = np.median([radii_ks(sample_standard_normal(Rng(BASE_SEED + t), N, DIM))
                          for t in range(TRIALS)])
    cwae_ks = np.median([radii_ks(c) for c in baseline_minimized_clouds["cwae"]])
    assert attract < gaussian < cwae_ks


def test_criterion_10_byte_identical_reruns(tmp_path):
    tiny = dict(n=16, dim=3, trials=2, seed=5)

    def run_all(out):
        cmd_fig1(ExperimentSpec("fig1_grid", out=str(out / "f1"), steps=25, **tiny))
        # no step budget: the battery's runs end by their stall rule
        cmd_fig2(ExperimentSpec("fig2_battery", out=str(out / "f2"), **tiny))
        cmd_attract_demo(ExperimentSpec("attract_demo", target="quantized", bits=1,
                                        n=32, dim=2, trials=1, seed=3,
                                        out=str(out / "q")))
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    first = run_all(tmp_path)
    second = run_all(tmp_path)
    # with no stop tolerance, a run that ends before its budget with a
    # nonzero last alpha was stopped by the stall rule
    stalled = 0
    for t in range(tiny["trials"]):
        _, trace = run_attraction_trial(ExperimentSpec("fig2_battery", **tiny),
                                        tiny["seed"] + t)
        stalled += len(trace) < ATTRACT_BATTERY_STEPS and trace[-1].alpha > 0.0
    report(10, first == second and len(first) > 10 and stalled == tiny["trials"],
           "reruns with identical specs produce byte-identical CSV/SVG artifacts",
           f"{len(first)} files compared; {stalled}/{tiny['trials']} fig2 runs stalled")
