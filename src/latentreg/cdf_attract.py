"""Quantile attraction of empirical distributions.

The core algorithm: compute the n squared radii and n' = n(n-1)/2 half
squared pairwise distances of a point cloud (the distances from
sampling._sq_dists, the pair matrix every module builds), sort both, pair
rank i with the chi-squared quantile at probability (i - 0.5)/count, and
gradient-descend the l1 mismatch. Also the coordinate-wise variant that
snaps each coordinate's order statistics onto a 1-D target (Gaussian,
uniform on [0,1], a quantized staircase attracting mass to codeword
centers, or the uniform torus with wrapped moves).

The objective needs only the sorted values: value_terms sorts each
statistic with a plain np.sort and compares it with its table rank by rank.
Only a gradient needs to know which element holds which rank; residual_bundle
ranks the statistics and returns the per-element residuals, which gathered in
rank order are the value's residuals bit for bit. Ranking breaks ties by
element index, so gradients are deterministic across runs. One in-place sort
of packed uint64 keys ranks a statistic: each value's bits with the low
ceil(log2 m) bits replaced by its element index. The order it reads back is
kept when it sorts the values strictly increasing (distinct values have only
one sorted order). A tie or two values that agree above the index bits break
that strict increase, and a stable sort of the nearly sorted gathered values
repairs the order; a negative value, -0.0 or a NaN sends the statistic to a
stable argsort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .sampling import PointCloud, _pair_flat_indices, _sq_dists
from .specfun import ChiSquare, chi2_inv_cdf, normal_inv_cdf


@dataclass(frozen=True)
class TargetQuantiles:
    """Inverse-CDF tables: radii[i] at probability (i+0.5)/n for i = 0..n-1,
    distances[k] at (k+0.5)/n' for k = 0..n'-1 with n' = n(n-1)/2."""

    radii: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=np.float64)
        distances = np.asarray(self.distances, dtype=np.float64)
        n = radii.shape[0]
        if distances.shape[0] != n * (n - 1) // 2:
            raise ValueError("distance table length must be n(n-1)/2")
        for name, table in (("radii", radii), ("distances", distances)):
            if np.any(np.diff(table) <= 0.0):
                raise ValueError(f"{name} table must be strictly increasing")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "distances", distances)

    @property
    def n(self) -> int:
        return self.radii.shape[0]


def midpoint_probs(m: int) -> np.ndarray:
    """The probabilities (k + 0.5)/m, k = 0..m-1, that rank k of m sorted
    values is paired with: the attraction's target quantiles and every EDF
    curve use them."""
    return (np.arange(m) + 0.5) / m


@lru_cache(maxsize=128)
def _chi2_quantile_table(count: int, dim: int) -> np.ndarray:
    table = chi2_inv_cdf(ChiSquare(dim), midpoint_probs(count))
    table.setflags(write=False)
    return table


def chi2_quantile_table(count: int, dim: int) -> np.ndarray:
    """Cached chi-squared(dim) quantiles at probabilities (k + 0.5)/count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return _chi2_quantile_table(count, dim)


def build_target_quantiles(n: int, dim: int) -> TargetQuantiles:
    """Chi-squared(dim) quantile tables for n radii and n(n-1)/2 distances."""
    if n < 2:
        raise ValueError("need n >= 2 for a nonempty distance table")
    return TargetQuantiles(chi2_quantile_table(n, dim),
                           chi2_quantile_table(n * (n - 1) // 2, dim))


class CloudStats(NamedTuple):
    """A cloud's statistics in element order: squared radii (|x_i|^2)_i and
    half squared pair distances (|x_i - x_j|^2 / 2)_{i<j}, pairs enumerated
    row-wise: (0,1), (0,2), ..., (n-2,n-1). The distances are never
    negative."""

    radii: np.ndarray
    distances: np.ndarray


def cloud_stats(x: PointCloud) -> CloudStats:
    """The unsorted statistics the attraction matches to its tables. The
    distances are the upper triangle of the pair matrix
    sampling._sq_dists(x, x, scale=0.5), which clamps them at +0.0; each is
    within 2 (D + 2) eps (|x_i| + |x_j|)^2 of |x_i - x_j|^2 / 2."""
    if x.n < 2:
        raise ValueError("need n >= 2 for pairwise distances")
    upper, _ = _pair_flat_indices(x.n)
    # only the pair entries are kept, so the n x n matrix is freed before the sorts
    return CloudStats((x.data * x.data).sum(1),
                      _sq_dists(x.data, x.data, scale=0.5).ravel()[upper])


def _ranked(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(stable sort order, values in that order).

    One sort of packed uint64 keys: each value's bits with the low
    ceil(log2 m) bits replaced by its element index, so the sorted keys
    carry the order in those bits. Bit patterns of nonnegative doubles sort
    as the values do, so the order is exact unless two values agree above
    the index bits, or a value is negative, -0.0 or NaN; each of those
    breaks the strict increase of the gathered values. Strictly increasing
    values have only one sorted order, so the packed order is kept then.
    Otherwise, when no value has a sign bit or is NaN, equal values share
    their keys' high bits and are already in index order, so a stable sort
    of the nearly sorted gathered values finishes the ranking; any other
    statistic is ranked by a stable argsort of its own."""
    m = values.shape[0]
    mask = np.uint64((1 << (m - 1).bit_length()) - 1)
    keys = values.view(np.uint64) & ~mask
    keys |= np.arange(m, dtype=np.uint64)
    keys.sort()
    keys &= mask
    order = keys.view(np.intp)
    ranked = values[order]
    if not np.all(ranked[1:] > ranked[:-1]):
        # a value with a sign bit, or a NaN, sorts last in the packed order
        if np.signbit(ranked[-1]) or np.isnan(ranked[-1]):
            order = np.argsort(values, kind="stable")
            ranked = values[order]
        else:
            repair = np.argsort(ranked, kind="stable")
            order, ranked = order[repair], ranked[repair]
    return order, ranked


def _mismatch(sorted_values: np.ndarray, table: np.ndarray) -> float:
    """Mean absolute rank-order residual sorted_values - table: the one
    definition of the l1 mismatch, each term of the objective and
    stat_tests.Judged.l1_area."""
    return _mean(np.abs(sorted_values - table))


def _mean(a: np.ndarray) -> float:
    # np.mean's float64 arithmetic (one add.reduce, one division by the
    # count), bit for bit, without its per-call Python overhead
    return float(np.add.reduce(a)) / a.shape[0]


def _check_size(stats: CloudStats, targets: TargetQuantiles) -> None:
    if targets.n != stats.radii.shape[0]:
        raise ValueError(f"target tables are for n={targets.n}, "
                         f"cloud has n={stats.radii.shape[0]}")


def value_terms(stats: CloudStats, targets: TargetQuantiles) -> tuple[float, float]:
    """(radii term, distance term) of the objective. The value needs only the
    sorted values, so a plain np.sort replaces the ranked pass."""
    _check_size(stats, targets)
    return (_mismatch(np.sort(stats.radii), targets.radii),
            _mismatch(np.sort(stats.distances), targets.distances))


class Residuals(NamedTuple):
    """Per-element residual of each statistic against the quantile assigned
    to its rank."""

    radii: np.ndarray
    distances: np.ndarray


def residual_bundle(stats: CloudStats, targets: TargetQuantiles) -> Residuals:
    """The ranked pass a gradient needs: each element's residual against the
    table entry of its rank. Gathered in rank order, the residuals are
    value_terms' residuals bit for bit."""
    _check_size(stats, targets)
    residuals = []
    for values, table in ((stats.radii, targets.radii),
                          (stats.distances, targets.distances)):
        order, ranked = _ranked(values)
        res = np.empty_like(ranked)
        res[order] = ranked - table
        residuals.append(res)
    return Residuals(*residuals)


def gradient_from_residuals(x: PointCloud, residuals: Residuals) -> np.ndarray:
    """Subgradient of cdf_objective, with sign(0) = 0. The distance term's
    coefficient is its true 1/n'."""
    n = x.n
    grad = (2.0 / n) * np.sign(residuals.radii)[:, None] * x.data

    upper, lower = _pair_flat_indices(n)
    pair_weights = (1.0 / residuals.distances.shape[0]) * np.sign(residuals.distances)
    w = np.zeros((n, n))
    w_flat = w.ravel()  # a view: w is C-ordered
    w_flat[upper] = pair_weights
    w_flat[lower] = pair_weights
    grad += w.sum(1)[:, None] * x.data - w @ x.data
    return grad


def cdf_objective(x: PointCloud, targets: TargetQuantiles, norm: str = "l1") -> float:
    """Quantile mismatch; zero iff sorted stats equal the tables. norm is kept
    only for the benchmark's norm="l1" call; any other value raises."""
    if norm != "l1":
        raise ValueError(f"unknown norm {norm!r}; the mismatch is l1")
    term_r, term_d = value_terms(cloud_stats(x), targets)
    return term_r + term_d


_COORD_KINDS = ("gaussian", "uniform01", "quantized", "torus")
# the largest rate at which every codeword centre (m + 0.5)/2^bits, a ratio of
# an odd integer below 2^(bits+1) to a power of two, is an exact double
MAX_BITS = 52


@dataclass(frozen=True)
class CoordinateTarget:
    """1-D target distribution applied independently per coordinate."""

    kind: str
    bits: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _COORD_KINDS:
            raise ValueError(f"unknown coordinate target {self.kind!r}")
        if self.kind == "quantized":
            if self.bits is None or not 1 <= self.bits <= MAX_BITS:
                raise ValueError(f"quantized needs bits in [1, {MAX_BITS}]")
        elif self.bits is not None:
            raise ValueError("bits only applies to quantized")

    @property
    def wraps(self) -> bool:
        return self.kind == "torus"

    def rank_positions(self, n: int) -> np.ndarray:
        """Ideal coordinate values of the 0-based ranks 0..n-1, in rank order."""
        if self.kind == "quantized":
            return _codeword_centres(np.arange(n) / n, self.bits)
        probs = midpoint_probs(n)
        if self.kind == "gaussian":
            return normal_inv_cdf(probs)
        return probs  # uniform01 and torus


def _codeword_centres(u: np.ndarray, bits: int) -> np.ndarray:
    """Centre (floor(u 2^bits) + 0.5) / 2^bits of the codeword cell of each u."""
    scale = float(2 ** bits)
    return (np.floor(u * scale) + 0.5) / scale


def codeword_fraction(cloud: PointCloud, bits: int) -> float:
    """Fraction of coordinate values within 2^-(bits+2) of their codeword
    centre. At bits = 52 that tolerance, 2^-54, is half an ulp of a
    coordinate in [0.5, 1), so only an exact centre counts there."""
    near = np.abs(cloud.data - _codeword_centres(cloud.data, bits)) <= 2.0 ** -(bits + 2)
    return float(np.mean(near))


def coordinate_targets(x: PointCloud, target: CoordinateTarget) -> PointCloud:
    """Per coordinate, map each point's stable rank to the target quantile."""
    positions = target.rank_positions(x.n)
    ideal = np.empty_like(x.data)
    for j in range(x.dim):
        ideal[np.argsort(x.data[:, j], kind="stable"), j] = positions
    return PointCloud(ideal)


def coordinate_step(x: PointCloud, target: CoordinateTarget,
                    alpha: float) -> PointCloud:
    """Convex move x + alpha (ideal - x); the torus target moves along the
    shorter wrapped displacement d - rint(d), which is exact (d = +-1/2
    keeps its sign), and reduces the result modulo 1. Where
    alpha (ideal - x) rounds away, as it does once x is an ulp from its
    target at alpha = 1/2, the coordinate takes the full move instead."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    delta = coordinate_targets(x, target).data - x.data
    if target.wraps:
        delta -= np.rint(delta)
    moved = x.data + alpha * delta
    stuck = (moved == x.data) & (delta != 0.0)
    moved[stuck] += delta[stuck]
    return PointCloud(np.mod(moved, 1.0) if target.wraps else moved)
