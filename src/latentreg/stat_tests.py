"""Empirical-distribution diagnostics for point clouds.

KS sup distances of sample EDFs from target CDFs, the chi-squared radii and
distance checks (with the l1 quantile mismatch area), and the battery of
fig2: projections onto random directions against the standard normal, and
pairwise scalar products and angles compared two-sample with a reference
cloud. These are reproduction/diagnostic statistics, not calibrated
p-values; thresholds for the dependent ones come from Monte Carlo runs
(latentreg.calibration, read by battery_bands; see reference_battery).
judge is the one place that pairs a statistic with its target: a Law
(chi-squared for radii and distances, N(0, 1) for projections) or a
reference cloud's sorted values (scalar products and angles).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import calibration
from .cdf_attract import chi2_quantile_table, cloud_stats, midpoint_probs
from .sampling import PointCloud, Rng, _pair_flat_indices, sample_standard_normal, sample_unit_directions
from .specfun import ChiSquare, chi2_cdf, chi2_inv_cdf, normal_cdf, normal_inv_cdf


@dataclass
class TestReport:
    ks_linf: float
    l1_area: float
    sample_size: int


def ks_statistic(values: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample KS statistic sup |EDF - CDF|. ``cdf`` is called once, on
    the array of sorted values, and must return their CDF values."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    m = v.shape[0]
    if m == 0:
        raise ValueError("need at least one value")
    f = np.asarray(cdf(v), dtype=np.float64)
    upper = np.arange(1, m + 1) / m
    lower = np.arange(0, m) / m
    return float(np.max(np.maximum(np.abs(upper - f), np.abs(lower - f))))


def ks_statistic_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic sup |EDF_a - EDF_b|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("need at least one value in each sample")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.shape[0]
    cdf_b = np.searchsorted(b, pooled, side="right") / b.shape[0]
    return float(np.max(np.abs(cdf_a - cdf_b)))


class Law(NamedTuple):
    """A parametric target: cdf gives a KS distance, inv_cdf draws the law, and
    midpoint_table(m) = inv_cdf(midpoint_probs(m)) is an m-value curve's column."""

    cdf: Callable[[np.ndarray], np.ndarray]
    inv_cdf: Callable[[np.ndarray], np.ndarray]
    midpoint_table: Callable[[int], np.ndarray]


def _chi2_law(dim: int) -> Law:
    dist = ChiSquare(dim)
    return Law(lambda t: chi2_cdf(dist, t), lambda p: chi2_inv_cdf(dist, p),
               lambda m: chi2_quantile_table(m, dim))


# lambdas, so that each call looks its function up as a direct call does
NORMAL_LAW = Law(lambda t: normal_cdf(t), lambda p: normal_inv_cdf(p),
                 lambda m: normal_inv_cdf(midpoint_probs(m)))


def chi2_report(sorted_values: np.ndarray, dim: int) -> TestReport:
    """KS distance and quantile-mismatch area of values, sorted ascending,
    against the chi-squared(dim) CDF."""
    m, law = sorted_values.shape[0], _chi2_law(dim)
    ks = ks_statistic(sorted_values, law.cdf)
    area = float(np.mean(np.abs(sorted_values - law.midpoint_table(m))))
    return TestReport(ks, area, int(m))


def projections(x: PointCloud, dirs: PointCloud) -> np.ndarray:
    """x_i . u_k over every point and every direction, pooled."""
    return (x.data @ dirs.data.T).ravel()


def pairwise_scalar_products(x: PointCloud) -> np.ndarray:
    """x_i . x_j over i < j."""
    if x.n < 2:
        raise ValueError("need n >= 2 for pairwise products")
    return (x.data @ x.data.T).ravel()[_pair_flat_indices(x.n)[0]]


def pairwise_angles(x: PointCloud) -> np.ndarray:
    """Angles arccos(xhat_i . xhat_j) over i < j, skipping zero vectors."""
    norms = np.linalg.norm(x.data, axis=1)
    keep = norms > 0.0
    if not np.all(keep):
        warnings.warn(f"angle test: skipping {int((~keep).sum())} zero vector(s)")
    data = x.data[keep]
    if data.shape[0] == 0:
        raise ValueError("angle test: all points are zero vectors")
    if data.shape[0] < 2:
        raise ValueError("angle test: need at least 2 nonzero points")
    unit = data / np.linalg.norm(data, axis=1)[:, None]
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    return np.arccos(gram.ravel()[_pair_flat_indices(unit.shape[0])[0]])


BATTERY_TESTS = ("projections", "scalar_products", "angles")


def _pair_values(x: PointCloud) -> dict[str, np.ndarray]:
    """Sorted scalar products and angles of x, the two-sample statistics."""
    return {"scalar_products": np.sort(pairwise_scalar_products(x)),
            "angles": np.sort(pairwise_angles(x))}


def battery_values(x: PointCloud, dirs: PointCloud) -> dict[str, np.ndarray]:
    """Sorted values of each battery statistic of x, keyed by BATTERY_TESTS;
    projections are onto the unit directions dirs."""
    return {"projections": np.sort(projections(x, dirs)), **_pair_values(x)}


def _battery_targets(reference_values: dict[str, np.ndarray]) -> dict[str, Law | np.ndarray]:
    """Each battery test's target: projections the standard normal law, scalar
    products and angles a reference cloud's sorted values."""
    return {"projections": NORMAL_LAW, **{t: reference_values[t] for t in BATTERY_TESTS[1:]}}


def battery_ks(values: dict[str, np.ndarray],
               reference_values: dict[str, np.ndarray]) -> dict[str, float]:
    """KS distance of each battery statistic: projections one-sample against
    the standard normal CDF, scalar products and angles two-sample against
    a reference cloud's values (both from battery_values)."""
    return {test: ks_statistic(values[test], target.cdf) if isinstance(target, Law)
            else ks_statistic_two_sample(values[test], target)
            for test, target in _battery_targets(reference_values).items()}


def reference_battery(seed: int, n: int, dim: int) -> tuple[PointCloud, dict[str, np.ndarray]]:
    """(dirs, ref_values) of one battery trial: calibration.NUM_DIRS unit
    directions from Rng(seed).derive(3), and the sorted scalar products and
    angles of an n-point prior cloud from Rng(seed).derive(2), the two-sample
    columns of battery_ks (projections are judged against the normal CDF).
    A cloud's KS distances are battery_ks(battery_values(cloud, dirs),
    ref_values)."""
    dirs = sample_unit_directions(Rng(seed).derive(3), calibration.NUM_DIRS, dim)
    return dirs, _pair_values(sample_standard_normal(Rng(seed).derive(2), n, dim))


class Judged(NamedTuple):
    """A statistic's values sorted ascending, its KS report (a chi2_report or a
    battery_ks distance) and the target it is judged and drawn against."""

    values: np.ndarray
    report: TestReport | float
    target: Law | np.ndarray


def judge(cloud: PointCloud, battery=None) -> dict[str, Judged]:
    """Every statistic of a cloud, sorted once. Without a battery they are its
    squared radii and half squared pair distances (cloud_stats), each with its
    chi2_report; with battery = (dirs, reference values) of reference_battery
    they are BATTERY_TESTS, each with its battery_ks distance."""
    if battery is None:
        law = _chi2_law(cloud.dim)
        stats = {stat: np.sort(v) for stat, v in cloud_stats(cloud)._asdict().items()}
        return {stat: Judged(v, chi2_report(v, cloud.dim), law) for stat, v in stats.items()}
    values = battery_values(cloud, battery[0])
    ks = battery_ks(values, battery[1])
    return {test: Judged(values[test], ks[test], target)
            for test, target in _battery_targets(battery[1]).items()}


def battery_bands(n: int, dim: int) -> dict[str, float | None]:
    """The Monte Carlo 95% band of each battery test's KS distance, keyed by
    BATTERY_TESTS, for the reference_battery of that (n, dim); None where no
    band is calibrated. Bands exist only at calibration.N points in
    calibration.DIM dimensions."""
    if (n, dim) != (calibration.N, calibration.DIM):
        return dict.fromkeys(BATTERY_TESTS)
    return {"projections": calibration.PROJECTION_KS_Q95,
            "scalar_products": calibration.SCALAR_KS2_Q95,
            "angles": calibration.ANGLE_KS2_Q95}
