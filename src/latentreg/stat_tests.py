"""Empirical-distribution diagnostics for point clouds.

KS sup distances of sample EDFs from target CDFs, the chi-squared radii and
distance checks (with the l1 quantile mismatch area), and the battery of
fig2: projections onto random directions against the standard normal, and
pairwise scalar products and angles compared two-sample with a reference
cloud. These are reproduction/diagnostic statistics, not calibrated
p-values; thresholds for the dependent ones come from Monte Carlo runs
(latentreg.calibration, read by battery_bands; see reference_battery).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import calibration
from .cdf_attract import chi2_quantile_table, cloud_stats
from .sampling import PointCloud, Rng, _pair_flat_indices, sample_standard_normal, sample_unit_directions
from .specfun import ChiSquare, chi2_cdf, normal_cdf


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


def chi2_report(values: np.ndarray, dim: int) -> TestReport:
    """KS distance and quantile-mismatch area of values against the
    chi-squared(dim) CDF."""
    dist = ChiSquare(dim)
    ks = ks_statistic(values, lambda t: chi2_cdf(dist, t))
    table = chi2_quantile_table(values.shape[0], dim)
    area = float(np.mean(np.abs(np.sort(values) - table)))
    return TestReport(ks, area, int(values.shape[0]))


def radii_test(x: PointCloud) -> TestReport:
    """Squared radii against the chi-squared(dim) CDF."""
    return chi2_report((x.data * x.data).sum(1), x.dim)


def distance_test(x: PointCloud) -> TestReport:
    """Half squared pairwise distances, the values the attraction sorts,
    against the chi-squared(dim) CDF."""
    return chi2_report(cloud_stats(x).distances, x.dim)


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


def battery_ks(values: dict[str, np.ndarray],
               reference_values: dict[str, np.ndarray]) -> dict[str, float]:
    """KS distance of each battery statistic: projections one-sample against
    the standard normal CDF, scalar products and angles two-sample against
    a reference cloud's values (both from battery_values)."""
    ks = {"projections": ks_statistic(values["projections"], normal_cdf)}
    for test in ("scalar_products", "angles"):
        ks[test] = ks_statistic_two_sample(values[test], reference_values[test])
    return ks


def reference_battery(seed: int, n: int, dim: int) -> tuple[PointCloud, dict[str, np.ndarray]]:
    """(dirs, ref_values) of one battery trial: calibration.NUM_DIRS unit
    directions from Rng(seed).derive(3), and the sorted scalar products and
    angles of an n-point prior cloud from Rng(seed).derive(2), the two-sample
    columns of battery_ks (projections are judged against the normal CDF).
    A cloud's KS distances are battery_ks(battery_values(cloud, dirs),
    ref_values)."""
    dirs = sample_unit_directions(Rng(seed).derive(3), calibration.NUM_DIRS, dim)
    return dirs, _pair_values(sample_standard_normal(Rng(seed).derive(2), n, dim))


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
