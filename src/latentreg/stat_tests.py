"""Empirical-distribution diagnostics for point clouds.

EDF-vs-CDF reports (Kolmogorov-Smirnov sup distance and the l1 quantile
mismatch area), the chi-squared radii/distance checks, pooled projections
onto random directions against the standard normal, and two-sample
comparisons of pairwise scalar products and angles against a reference
cloud. These are reproduction/diagnostic statistics, not calibrated
p-values; thresholds for the dependent ones come from Monte Carlo runs
(see latentreg.calibration).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cdf_attract import chi2_quantile_table, radii_and_distances
from .sampling import PointCloud, Rng, _pair_indices, sample_unit_directions
from .specfun import ChiSquare, chi2_cdf, normal_cdf, normal_inv_cdf

__all__ = [
    "EdfCurve",
    "TestReport",
    "ks_statistic",
    "ks_statistic_two_sample",
    "edf_vs_cdf",
    "chi2_report",
    "radii_test",
    "distance_test",
    "projection_test",
    "scalar_product_test",
    "angle_test",
    "pairwise_scalar_products",
    "pairwise_angles",
]


@dataclass
class EdfCurve:
    """Sorted statistic values paired with the target quantiles at the
    midpoint probabilities (i - 0.5)/len."""

    sorted_values: np.ndarray
    target_args: np.ndarray
    probs: np.ndarray

    @classmethod
    def from_values(cls, values: np.ndarray,
                    inverse_cdf: Callable[[np.ndarray], np.ndarray]) -> "EdfCurve":
        """``inverse_cdf`` is called once, on the array of all probabilities."""
        sorted_values = np.sort(np.asarray(values, dtype=np.float64))
        m = sorted_values.shape[0]
        probs = (np.arange(m) + 0.5) / m
        target = np.asarray(inverse_cdf(probs), dtype=np.float64)
        return cls(sorted_values, target, probs)


@dataclass
class TestReport:
    name: str
    ks_linf: float
    l1_area: float | None
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


def edf_vs_cdf(values: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray],
               inverse_cdf: Callable[[np.ndarray], np.ndarray] | None = None,
               name: str = "edf") -> TestReport:
    """KS distance of the sample EDF from a target CDF; when an inverse CDF
    is supplied, also the mean |sorted value - target quantile| area. Both
    callables take and return arrays."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one value")
    ks = ks_statistic(values, cdf)
    area = None
    if inverse_cdf is not None:
        curve = EdfCurve.from_values(values, inverse_cdf)
        area = float(np.mean(np.abs(curve.sorted_values - curve.target_args)))
    return TestReport(name, ks, area, int(values.size))


def chi2_report(values: np.ndarray, dim: int, name: str) -> TestReport:
    """KS distance and quantile-mismatch area of values against the
    chi-squared(dim) CDF."""
    dist = ChiSquare(dim)
    ks = ks_statistic(values, lambda t: chi2_cdf(dist, t))
    table = chi2_quantile_table(values.shape[0], dim)
    area = float(np.mean(np.abs(np.sort(values) - table)))
    return TestReport(name, ks, area, int(values.shape[0]))


def radii_test(x: PointCloud) -> TestReport:
    """Squared radii against the chi-squared(dim) CDF."""
    return chi2_report((x.data * x.data).sum(1), x.dim, "radii")


def distance_test(x: PointCloud) -> TestReport:
    """Half squared pairwise distances, the values the attraction sorts,
    against the chi-squared(dim) CDF."""
    return chi2_report(radii_and_distances(x)[1].values, x.dim, "distances")


def projection_test(x: PointCloud, rng: Rng, num_dirs: int = 10) -> TestReport:
    """Projections onto num_dirs random unit directions, pooled, against the
    standard normal CDF."""
    if num_dirs < 1:
        raise ValueError("num_dirs must be >= 1")
    dirs = sample_unit_directions(rng, num_dirs, x.dim)
    pooled = (x.data @ dirs.data.T).ravel()
    report = edf_vs_cdf(pooled, normal_cdf, normal_inv_cdf, name="projections")
    return report


def pairwise_scalar_products(x: PointCloud) -> np.ndarray:
    """x_i . x_j over i < j."""
    if x.n < 2:
        raise ValueError("need n >= 2 for pairwise products")
    gram = x.data @ x.data.T
    iu, ju = _pair_indices(x.n)
    return gram[iu, ju]


def scalar_product_test(x: PointCloud, reference: PointCloud) -> TestReport:
    """Two-sample KS of pairwise scalar products against a reference cloud."""
    stat = ks_statistic_two_sample(pairwise_scalar_products(x),
                                   pairwise_scalar_products(reference))
    return TestReport("scalar_products", stat, None, x.n * (x.n - 1) // 2)


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
    iu, ju = _pair_indices(unit.shape[0])
    return np.arccos(gram[iu, ju])


def angle_test(x: PointCloud, reference: PointCloud) -> TestReport:
    """Two-sample KS of pairwise angles of normalized points against a
    reference cloud."""
    a = pairwise_angles(x)
    b = pairwise_angles(reference)
    return TestReport("angles", ks_statistic_two_sample(a, b), None, a.shape[0])
