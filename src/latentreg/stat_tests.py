"""Empirical-distribution diagnostics for point clouds.

The KS sup distance of sorted values' EDF from a target CDF or from another
sorted sample's EDF, and the statistics the battery of fig2 adds to the
chi-squared radii and distances: projections onto random directions, and
pairwise scalar products and angles. These are reproduction/diagnostic
statistics, not calibrated p-values; thresholds for the dependent ones come
from Monte Carlo runs (latentreg.calibration, read by battery_bands; see
reference_battery). judge is the one place that pairs a statistic with its
target and takes their KS distance: a Law (chi-squared for radii and
distances, N(0, 1) for projections), against which Judged.l1_area is the
attraction's quantile mismatch, or a reference cloud's sorted values
(scalar products and angles).
"""

from __future__ import annotations

import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import calibration
from .cdf_attract import _mismatch, chi2_quantile_table, cloud_stats, midpoint_probs
from .sampling import PointCloud, Rng, _pair_flat_indices, sample_standard_normal, sample_unit_directions
from .specfun import ChiSquare, chi2_cdf, chi2_inv_cdf, normal_cdf, normal_inv_cdf


def ks_statistic(sorted_values: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample KS statistic sup |EDF - CDF| of values sorted ascending;
    ``cdf`` is called once, on those values, and returns their CDF values."""
    m = sorted_values.shape[0]
    if m == 0:
        raise ValueError("need at least one value")
    f = np.asarray(cdf(sorted_values), dtype=np.float64)
    upper = np.arange(1, m + 1) / m
    lower = np.arange(0, m) / m
    return float(np.max(np.maximum(np.abs(upper - f), np.abs(lower - f))))


def ks_statistic_two_sample(a_sorted: np.ndarray, b_sorted: np.ndarray) -> float:
    """Two-sample KS statistic sup |EDF_a - EDF_b| of two ascending samples."""
    if a_sorted.shape[0] == 0 or b_sorted.shape[0] == 0:
        raise ValueError("need at least one value in each sample")
    pooled = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, pooled, side="right") / a_sorted.shape[0]
    cdf_b = np.searchsorted(b_sorted, pooled, side="right") / b_sorted.shape[0]
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
    unit = data / norms[keep][:, None]
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    return np.arccos(gram.ravel()[_pair_flat_indices(unit.shape[0])[0]])


BATTERY_TESTS = ("projections", "scalar_products", "angles")


def reference_battery(seed: int, n: int, dim: int) -> tuple[PointCloud, dict[str, np.ndarray]]:
    """(dirs, ref_values) of one battery trial, the battery argument of judge:
    calibration.NUM_DIRS unit directions from Rng(seed).derive(3), and the
    sorted scalar products and angles of an n-point prior cloud from
    Rng(seed).derive(2), the two-sample targets (projections are judged
    against the normal CDF)."""
    dirs = sample_unit_directions(Rng(seed).derive(3), calibration.NUM_DIRS, dim)
    ref = sample_standard_normal(Rng(seed).derive(2), n, dim)
    return dirs, {"scalar_products": np.sort(pairwise_scalar_products(ref)),
                  "angles": np.sort(pairwise_angles(ref))}


class Judged(NamedTuple):
    """A statistic's values sorted ascending, their KS distance from the
    target, and the target they are judged and drawn against."""

    values: np.ndarray
    ks: float
    target: Law | np.ndarray

    def l1_area(self) -> float:
        """Mean |value - target quantile| rank by rank against a Law's
        midpoint table; for radii and distances, the attraction's term."""
        return _mismatch(self.values, self.target.midpoint_table(self.values.shape[0]))


def judge(cloud: PointCloud, battery=None) -> dict[str, Judged]:
    """Every statistic of a cloud, sorted once and judged. Without a battery
    they are its squared radii and half squared pair distances (cloud_stats)
    against chi-squared(dim); with battery = (dirs, reference values) of
    reference_battery they are BATTERY_TESTS: projections onto dirs against
    N(0, 1), scalar products and angles two-sample against the reference."""
    if battery is None:
        targets = dict.fromkeys(("radii", "distances"), _chi2_law(cloud.dim))
        values = {stat: np.sort(v) for stat, v in cloud_stats(cloud)._asdict().items()}
    else:
        targets = {"projections": NORMAL_LAW, **battery[1]}
        values = {"projections": np.sort(projections(cloud, battery[0])),
                  "scalar_products": np.sort(pairwise_scalar_products(cloud)),
                  "angles": np.sort(pairwise_angles(cloud))}
    judged = {}
    for stat, v in values.items():
        target = targets[stat]
        ks = ks_statistic(v, target.cdf) if isinstance(target, Law) else ks_statistic_two_sample(v, target)
        judged[stat] = Judged(v, ks, target)
    return judged


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
