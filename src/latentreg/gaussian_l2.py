"""Closed-form L2 geometry of Gaussian-smoothened samples.

Product integrals of Gaussian densities, squared-L2 distances between
kernel-smoothened point clouds (general per-point covariances, the isotropic
shortcut, and the distance to the N(0, I) prior), plus the mean-field rule
for choosing a radius-dependent smoothing width.

Both general distances are E(a, a) + E(b, b) - 2 E(a, b) over one energy
E(a, b) = sum_ij w_i w'_j d(a_i - b_j, A_i, B_j), with w_i = 1/n and
w'_j = 1/m for samples of n and m points: the closed form over all
pairs when both samples have spherical widths, an exactly rounded sum of
per-pair integrals otherwise. The prior is the one-point sample at the
origin with unit width. The equal-width isotropic distance keeps its own
kernel, exp(-|x - y|^2 / 4 sigma^2), which needs no logs of width sums.

Every energy is evaluated in pieces whose whole working set is at most
about _BLOCK_ELEMENTS floats (2 MB), whatever the sample sizes and the
dimension. The spherical and isotropic kernels run over row blocks of the
first cloud against the whole second cloud, in two buffers allocated once
per energy; each block is reduced to floats and the block sums are added
exactly. A cloud against itself gives a symmetric matrix, so its row blocks
run over one triangle of blocks only: the part right of each diagonal block
is counted twice. The full-covariance pairs run in chunks: the covariances
are stacked once per sample, each chunk of pairs forms its covariance sums
in two stacks allocated once per energy, and it takes one batched Cholesky
factorization of them, whose factor is the one stack a chunk allocates; a
sample against itself takes each unordered pair once. The chunk terms
stream into one exactly rounded sum, so no array or list grows with the
number of pairs.

The mean-field width is a bracketed Newton solve of the mismatch's
stationarity condition, written as a difference of logs.

Determinants and quadratic forms go through Cholesky factors and
log-determinants; every product is assembled in log space and exponentiated
last, since the (2pi)^D factors underflow quickly as D grows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .sampling import PointCloud, _sq_dists

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_4PI = math.log(4.0 * math.pi)
_LOG_2 = math.log(2.0)
_EPS = 2.0 ** -52
# floats that bound the working set of one piece of an energy (2 MB): a
# kernel row block fills two buffers with max(1, _BLOCK_ELEMENTS // (2 m))
# rows against m points; a pair chunk has max(1, _BLOCK_ELEMENTS // (4 D^2))
# pairs and fills three (chunk, D, D) stacks, the energy's two sum stacks and
# its own Cholesky factor
_BLOCK_ELEMENTS = 2 ** 18


def _check_covariance(m: np.ndarray,
                      what: str = "covariance") -> tuple[np.ndarray, np.ndarray]:
    """m as a checked covariance matrix, and its lower Cholesky factor."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} must have finite entries")
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-12:
        raise ValueError(f"{what} must be symmetric within 1e-12")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError(f"{what} is not positive-definite") from None
    return m, chol


@dataclass(frozen=True)
class GaussianComponent:
    """A single Gaussian density N(center, covariance).

    The covariance is factored once: the density keeps the inverse Cholesky
    factor and the log-normalizer -(D log 2pi + log det covariance) / 2."""

    center: np.ndarray
    covariance: np.ndarray
    _inv_chol: np.ndarray = field(init=False, repr=False, compare=False)
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=np.float64).reshape(-1)
        cov, chol = _check_covariance(self.covariance)
        if cov.shape[0] != center.shape[0]:
            raise ValueError("center and covariance dimensions differ")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_inv_chol", np.linalg.inv(chol))
        object.__setattr__(self, "_log_norm",
                           -0.5 * (center.shape[0] * _LOG_2PI + _logdet(chol)))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def log_density(self, x: np.ndarray) -> float:
        y = self._inv_chol @ (np.asarray(x, dtype=np.float64).reshape(-1) - self.center)
        return self._log_norm - 0.5 * float(y @ y)

    def density(self, x: np.ndarray) -> float:
        return math.exp(self.log_density(x))


def _logdet(chol: np.ndarray):
    """log det S from the Cholesky factor of S, or the logs of a stack's."""
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(-1)


def gaussian_product_integral(mu: np.ndarray, sigma: np.ndarray,
                              gamma: np.ndarray) -> float:
    """Integral of N(mu, sigma) * N(0, gamma) over R^D.

    The determinant product |sigma| |gamma| |sigma^-1 + gamma^-1| collapses to
    |sigma + gamma| and the exponent's matrix sandwich to (sigma + gamma)^-1,
    so a single factorization of sigma + gamma suffices.
    """
    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    sigma, _ = _check_covariance(sigma, "sigma")
    gamma, _ = _check_covariance(gamma, "gamma")
    if sigma.shape[0] != gamma.shape[0] or sigma.shape[0] != mu.shape[0]:
        raise ValueError("mu, sigma, gamma dimensions differ")
    return math.exp(_log_pair_integral(mu[None], (sigma + gamma)[None])[0])


def _log_spherical(sq_dist: np.ndarray, total: np.ndarray, dim: int) -> np.ndarray:
    """log of the product integral of two spherical Gaussians whose variances
    sum to total, at squared center separation sq_dist: float arrays of one
    shape, both overwritten. The result is left in sq_dist."""
    sq_dist /= total
    np.log(total, out=total)
    total += _LOG_2PI
    total *= dim
    sq_dist += total
    sq_dist *= -0.5
    return sq_dist


@dataclass
class SmoothedSample:
    """A point cloud smoothened into a Gaussian mixture.

    bandwidths is either a length-n array of scalars sigma_i (spherical
    covariance sigma_i^2 I) or a length-n sequence of full DxD covariance
    matrices, kept as one (n, D, D) stack. Every point has weight 1/n.
    """

    points: PointCloud
    bandwidths: np.ndarray | Sequence[np.ndarray]
    spherical: bool = field(init=False)

    def __post_init__(self) -> None:
        n, dim = self.points.n, self.points.dim
        self.spherical = len(self.bandwidths) > 0 and np.ndim(self.bandwidths[0]) == 0
        if self.spherical:
            bw = np.asarray(self.bandwidths, dtype=np.float64).reshape(-1)
            if bw.shape != (n,):
                raise ValueError("bandwidth count must equal point count")
            if not np.all(bw > 0.0):
                raise ValueError("spherical bandwidths must be positive")
            self.bandwidths = bw
        else:
            if len(self.bandwidths) != n:
                raise ValueError("bandwidth count must equal point count")
            for i, b in enumerate(self.bandwidths):
                if np.shape(b) != (dim, dim):
                    raise ValueError(f"covariance {i} has shape {np.shape(b)}, but the "
                                     f"cloud's points need shape {(dim, dim)}")
            self.bandwidths = np.stack([_check_covariance(b)[0] for b in self.bandwidths])

    def covariances(self) -> np.ndarray:
        """The (n, D, D) stack of the point covariances."""
        if self.spherical:
            return self.bandwidths[:, None, None] ** 2 * np.eye(self.points.dim)
        return self.bandwidths


def _log_pair_integral(diff: np.ndarray, cov_sum: np.ndarray) -> np.ndarray:
    """logs of the product integrals of N(diff_k, A_k) and N(0, B_k) over a
    stack of k pairs, from the (k, D) differences and the (k, D, D) stack of
    the sums A_k + B_k, by one batched Cholesky factorization of that stack.
    The factor is the one (k, D, D) array it allocates."""
    try:
        chol = np.linalg.cholesky(cov_sum)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive-definite") from None
    # chol y = diff by forward substitution, one coordinate at a time over
    # the whole stack: np.linalg.solve would LU-factor each triangle again
    y = np.empty_like(diff)
    for c in range(diff.shape[1]):
        y[:, c] = (diff[:, c] - np.einsum("kj,kj->k", chol[:, c, :c], y[:, :c])) / chol[:, c, c]
    return -0.5 * ((y * y).sum(-1) + diff.shape[-1] * _LOG_2PI + _logdet(chol))


def _block_sum(x: np.ndarray, y: np.ndarray | None, kernel, scale: float = 1.0) -> float:
    """Sum of a kernel matrix over the points x against y, or against x
    itself when y is None.

    kernel(rows, cols, sq, spare) gets sq, the block of
    _sq_dists(x, y, scale=scale) over the slices rows of x and cols of y
    (scale can fold in the kernel's own factor), and spare, a free buffer of
    sq's shape. It may overwrite both and returns the block's kernel values.
    Row block [s, e) meets all of y. Against itself the matrix is symmetric,
    so the block meets only the columns [s, n): its diagonal square [s, e)^2
    is counted once and the part to its right twice, which skips about half
    of the pairs. The block floats are added exactly, but each is a float
    sum of its block, so the last bits can move with the block size. The
    distance and spare buffers are allocated once, flat, and hold
    _BLOCK_ELEMENTS floats together: a block has _BLOCK_ELEMENTS // (2 m)
    rows, at least one. Each block views the buffers' heads."""
    symmetric = y is None
    y = x if symmetric else y
    n, m = len(x), len(y)
    block = max(1, _BLOCK_ELEMENTS // (2 * m))
    out = np.empty(min(block, n) * m)
    spare = np.empty_like(out)
    parts = []
    for start in range(0, n, block):
        rows = slice(start, min(start + block, n))
        cols = slice(start if symmetric else 0, m)
        shape = (rows.stop - start, cols.stop - cols.start)
        size = shape[0] * shape[1]
        sq = _sq_dists(x[rows], y[cols], out=out[:size].reshape(shape), scale=scale)
        values = kernel(rows, cols, sq, spare[:size].reshape(shape))
        if symmetric:
            parts.append(float(values[:, :shape[0]].sum()))
            parts.append(2.0 * float(values[:, shape[0]:].sum()))
        else:
            parts.append(float(values.sum()))
    return math.fsum(parts)


def _energy(a: SmoothedSample, b: SmoothedSample, shift: float = 0.0) -> float:
    """sum_ij w_i w'_j exp(log d(a_i - b_j, A_i, B_j) + shift): the L2 inner
    product of the two smoothened samples times exp(shift), the shift added
    in log space, before exponentiating.

    Two spherical samples take the closed form over row blocks, summed
    before the uniform weights are applied; any other pair is an exactly
    rounded sum of per-pair integrals, taken in chunks of
    _BLOCK_ELEMENTS // (4 D^2) pairs, at least one. A sample against itself
    takes one triangle: the n diagonal terms once and each i < j term twice.
    A chunk is a slice of a flat range of pair indices k: across samples
    (i, j) = divmod(k, m), and in the triangle i is the row whose flat range
    holds k. It gathers A_i and B_j into the heads of two stacks allocated
    once per energy and adds them in place, so the Cholesky factor is its
    one fresh stack: a stack of 163 pairs at D = 20 is 512 KB, above glibc's
    mmap threshold, and each fresh one is mapped and faulted in page by
    page. Its terms stream into math.fsum through a generator."""
    dim, n, m = a.points.dim, a.points.n, b.points.n
    w_a, w_b = 1.0 / n, 1.0 / m
    if a.spherical and b.spherical:
        var_a, var_b = a.bandwidths ** 2, b.bandwidths ** 2

        def kernel(rows, cols, sq, total):
            np.add.outer(var_a[rows], var_b[cols], out=total)
            log_d = _log_spherical(sq, total, dim)
            log_d += shift
            return np.exp(log_d, out=log_d)

        total = _block_sum(a.points.data, None if a is b else b.points.data, kernel)
        return total * w_a * w_b
    if a is b:
        # row i of the triangle holds the pairs (i, i..n-1) and ends at
        # flat index ends[i]: the row-major order of np.triu_indices(n)
        ends = np.cumsum(np.arange(n, 0, -1))
        pairs = int(ends[-1])
    else:
        pairs = n * m
    covs_a = a.covariances()
    covs_b = covs_a if a is b else b.covariances()
    pts_a, pts_b = a.points.data, b.points.data
    chunk = max(1, _BLOCK_ELEMENTS // (4 * dim * dim))
    cov_sum = np.empty((min(chunk, pairs), dim, dim))
    spare = np.empty_like(cov_sum)

    def terms():
        for start in range(0, pairs, chunk):
            k = np.arange(start, min(start + chunk, pairs))
            if a is b:
                i = np.searchsorted(ends, k, side="right")
                j = k - ends[i] + n
                coefs = np.where(i == j, 1.0, 2.0) * w_a * w_b
            else:
                i, j = np.divmod(k, m)
                coefs = w_a * w_b
            # the indices are in range; take's default mode="raise" would
            # gather through a fresh copy of out
            sums = np.take(covs_a, i, axis=0, out=cov_sum[:len(k)], mode="clip")
            sums += np.take(covs_b, j, axis=0, out=spare[:len(k)], mode="clip")
            logs = _log_pair_integral(pts_a[i] - pts_b[j], sums)
            yield from (coefs * np.exp(logs + shift)).tolist()

    return math.fsum(terms())


def _distance(a: SmoothedSample, b: SmoothedSample, shift: float = 0.0) -> float:
    """E(a, a) + E(b, b) - 2 E(a, b), each energy times exp(shift)."""
    return _energy(a, a, shift) + _energy(b, b, shift) - 2.0 * _energy(a, b, shift)


def l2_distance_samples(a: SmoothedSample, b: SmoothedSample) -> float:
    """Squared L2 distance between two Gaussian-mixture-smoothened samples."""
    if a.points.dim != b.points.dim:
        raise ValueError("samples must share one dimension")
    return max(_distance(a, b), 0.0)


def _mean_exp_kernel(x: np.ndarray, y: np.ndarray, four_sigma2: float) -> float:
    total = _block_sum(x, None if y is x else y,
                       lambda rows, cols, sq, spare: np.exp(sq, out=sq), -1.0 / four_sigma2)
    return total / (len(x) * len(y))


def l2_distance_samples_isotropic(x: PointCloud, y: PointCloud,
                                  sigma: float) -> float:
    """Equal-bandwidth squared L2 distance with the sqrt(4 pi sigma^2)^D
    normalization dropped (it is a fixed factor that blows up with D):

        (1/n^2) sum exp(-|xi-xi'|^2/4s^2) + (1/m^2) sum exp(-|yj-yj'|^2/4s^2)
        - (2/nm) sum exp(-|xi-yj|^2/4s^2)
    """
    if x.dim != y.dim:
        raise ValueError("clouds must share one dimension")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    four_sigma2 = 4.0 * sigma * sigma
    total = _mean_exp_kernel(x.data, x.data, four_sigma2) \
        + _mean_exp_kernel(y.data, y.data, four_sigma2) \
        - 2.0 * _mean_exp_kernel(x.data, y.data, four_sigma2)
    return max(total, 0.0)


def l2_distance_to_standard_gaussian(x: PointCloud, bandwidths,
                                     scaled: bool = False) -> float:
    """Squared L2 distance between the smoothened cloud and N(0, I):

        (1/n^2) sum_{i,i'} d(x_i - x_i', S_i, S_i') + (4 pi)^{-D/2}
        - (2/n) sum_i d(x_i, S_i, I)

    N(0, I) enters as a one-point sample at the origin with unit width, so
    the three terms are the energies of l2_distance_samples. With
    scaled=True every term is multiplied by sqrt(4 pi)^D, which keeps the
    result O(1) in high dimension (sensible for spherical bandwidths).
    """
    prior = SmoothedSample(PointCloud(np.zeros((1, x.dim))), np.ones(1))
    shift = 0.5 * x.dim * _LOG_4PI if scaled else 0.0
    return max(_distance(SmoothedSample(x, bandwidths), prior, shift), 0.0)


def mean_field_objective(r: float, sigma: float, dim: int) -> float:
    """Squared L2 mismatch of one sigma-smoothened point at radius r against
    N(0, I) when all other points are assumed to already follow the prior:

        (4 pi s^2)^{-D/2} + (4 pi)^{-D/2} - 2 e^{-r^2/(2(1+s^2))} / sqrt(2 pi (1+s^2))^D

    Each term is one exponential whose exponent carries the (4 pi)^{-D/2}
    factor, so a term reads 0 only when it is itself below the smallest
    float (D = 1000, s = 0.3 gives 1.9e-27), and overflow needs
    s < 1/sqrt(4 pi) with D in the hundreds.
    """
    _check_mean_field(r, dim)
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    log_prior = -0.5 * dim * _LOG_4PI
    log_self, log_cross = _mean_field_logs(r, sigma, dim)
    return math.exp(log_prior + log_self) + math.exp(log_prior) \
        - math.exp(log_prior + log_cross)


def _check_mean_field(r: float, dim: int) -> None:
    if not math.isfinite(r):
        raise ValueError(f"radius must be finite, got {r}")
    if not (isinstance(dim, numbers.Integral) and dim >= 1):
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")


def _mean_field_logs(r: float, sigma: float, dim: int) -> tuple[float, float]:
    # logs of the smoothed self term and of the cross term (with its factor
    # 2) of mean_field_objective, each times (4 pi)^{D/2}
    s2 = sigma * sigma
    return (-dim * math.log(sigma),
            _LOG_2 - 0.5 * r * r / (1.0 + s2) + 0.5 * dim * (_LOG_2 - math.log(1.0 + s2)))


def _mean_field_psi(r2: float, sigma: float, dim: int,
                    offset: float) -> tuple[float, float, float]:
    # psi(sigma), its derivative and its rounding level. The mismatch's
    # sigma-dependent part is S - C, the self and cross terms of
    # _mean_field_logs; psi = log(-S') - log(-C') is positive while the
    # mismatch still falls and 0 where it is stationary. As a sum of logs it
    # neither over- nor underflows. With u = 1 + s^2,
    #   psi = -(D+2) log s + (D/2+2) log u + r^2/(2u) - log(D u - r^2)
    #         + offset,
    # with the sigma-free offset = log D - (D/2+1) log 2 that the caller
    # computes once, and psi = +inf where D u <= r^2: C still grows there,
    # so the mismatch falls
    u = 1.0 + sigma * sigma
    gap = dim * u - r2
    if gap <= 0.0:
        return math.inf, 0.0, 0.0
    log_s, log_u = -(dim + 2) * math.log(sigma), (0.5 * dim + 2.0) * math.log(u)
    r_term, log_gap = 0.5 * r2 / u, math.log(gap)
    slope = -(dim + 2) / sigma + (dim + 4) * sigma / u - r2 * sigma / (u * u) \
        - 2.0 * dim * sigma / gap
    # each term rounds to about one ulp of itself, and log(gap) inherits
    # the cancellation of D u - r^2. Both sums are the builtin sum over the
    # terms in this order: from Python 3.12 on it is compensated, and a
    # chain of + would give sigma other last bits there
    level = _EPS * (sum((abs(log_s), abs(log_u), r_term, abs(log_gap), abs(offset)))
                    + (dim * u + r2) / gap)
    return sum((log_s, log_u, r_term, -log_gap, offset)), slope, level


# bracket of mean_field_sigma and its Newton iteration budget
_SIGMA_LO = 0.25
_SIGMA_HI = 8.0
_SIGMA_ITERATIONS = 100


def mean_field_sigma(r: float, dim: int) -> float:
    """Smoothing width minimizing the mean-field mismatch at radius r.

    A bracketed Newton solve of the stationarity condition psi(sigma) = 0
    (see _mean_field_psi) from sigma = sqrt(1 + r^2/D). psi compares the
    sigma-dependent terms only, through their logs: next to the constant
    prior term they would round away at high D, and on their own they leave
    the float range there. The bracket is [max(0.25, sqrt(r^2/D - 1)), 8],
    since the mismatch strictly falls where D (1 + sigma^2) <= r^2. A step
    that leaves the bracket is replaced by bisection. The solve stops once
    |psi| is at its rounding level or a step is under two ulps of sigma,
    after about seven evaluations of psi. Where psi keeps one sign on the
    bracket, the result is the end the mismatch falls toward. Checked
    against a 50-digit minimizer to 1e-12 and a brute force grid up to
    D = 1000; mean_field_sigma(0, dim) == 1 to rounding.
    """
    _check_mean_field(r, dim)
    if not r >= 0.0:
        raise ValueError("radius must be nonnegative")
    r2, offset = r * r, math.log(dim) - (0.5 * dim + 1.0) * _LOG_2
    lo, hi = max(_SIGMA_LO, math.sqrt(max(r2 / dim - 1.0, 0.0))), _SIGMA_HI
    if _mean_field_psi(r2, hi, dim, offset)[0] >= 0.0:
        return hi
    if lo == _SIGMA_LO and _mean_field_psi(r2, lo, dim, offset)[0] <= 0.0:
        return lo
    sigma = min(math.sqrt(1.0 + r2 / dim), hi)
    for _ in range(_SIGMA_ITERATIONS):
        psi, slope, level = _mean_field_psi(r2, sigma, dim, offset)
        if abs(psi) <= level:
            break
        if psi > 0.0:
            lo = sigma
        else:
            hi = sigma
        step = sigma - psi / slope if slope < 0.0 else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - sigma) <= 2.0 * _EPS * sigma:
            return step
        sigma = step
    return sigma
