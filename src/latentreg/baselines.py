"""Reference latent-space regularizers and moment statistics.

The WAE-MMD regularizer (inverse-multiquadric kernel, compared against a
fresh prior sample), the analytic CWAE regularizer, their exact gradients,
and the Mardia-style moment statistics used to sanity-check multivariate
normality. Both regularizers take their constants from the cloud they are
given: the inverse-multiquadric scale 2D from its dimension, CWAE's
gamma_n = (4/(3n))^{2/5} from its size. Each pair matrix is one product of
augmented factors that folds in the kernel's shift and scale (2D + sq, and
gamma_n + sq/(2D-3)), and each gradient reuses its value's pair matrices:
the WAE-MMD weights are the squared kernel entries, the CWAE weights are
the cubes of the inverse square roots that the value sums.
"""

from __future__ import annotations

import numpy as np

from .sampling import PointCloud, _sq_dists


def kernel_matrix(a: PointCloud, b: PointCloud, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of the inverse-multiquadric kernel 2D / (2D + |a_i - b_j|^2),
    written to out when given."""
    if a.dim != b.dim:
        raise ValueError(f"cloud dims {a.dim} and {b.dim} differ")
    c = 2.0 * a.dim
    out = _sq_dists(a.data, b.data, out, shift=c)
    return np.divide(c, out, out=out)


def _mmd_kernels(z: PointCloud, z_tilde: PointCloud, zz: np.ndarray | None = None,
                 zt: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    # (k(z_i, z_j), k(z_i, zt_j)), written to zz and zt
    if z.n < 2:
        raise ValueError("need at least 2 points in z")
    return kernel_matrix(z, z, zz), kernel_matrix(z, z_tilde, zt)


def wae_mmd(z: PointCloud, z_tilde: PointCloud) -> float:
    """MMD-style regularizer against a prior sample z_tilde:

        (1/(n(n-1))) sum_{i != j} k(z_i, z_j) - (2/(n m)) sum_{i,j} k(z_i, zt_j)

    with n points in z, m in z_tilde and k the kernel of kernel_matrix.
    """
    return _wae_mmd(*_mmd_kernels(z, z_tilde))


def _wae_mmd(k_zz: np.ndarray, k_zt: np.ndarray) -> float:
    n, m = k_zt.shape
    self_term = (float(k_zz.sum()) - float(np.trace(k_zz))) / (n * (n - 1))
    return self_term - 2.0 * float(k_zt.sum()) / (n * m)


def wae_mmd_gradient(z: PointCloud, z_tilde: PointCloud) -> np.ndarray:
    """Exact gradient of wae_mmd with respect to the rows of z."""
    return _wae_mmd_gradient(z, z_tilde, *_mmd_kernels(z, z_tilde))


def _wae_mmd_gradient(z: PointCloud, z_tilde: PointCloud, k_zz: np.ndarray,
                      k_zt: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    # d k(z_i, y) / d z_i = a k^2 (z_i - y) with a = -1/D, since dk/ds in
    # s = |z_i - y|^2 is -k^2/(2D); scratch holds each weight matrix k^2 in turn
    n, m = z.n, z_tilde.n
    a = -1.0 / z.dim
    w_self = np.square(k_zz, out=scratch)
    np.fill_diagonal(w_self, 0.0)
    # sum_j w_ij (z_i - z_j) = rowsum(w)_i z_i - (w @ z)_i
    g_self = w_self.sum(1)[:, None] * z.data - w_self @ z.data
    w_cross = np.square(k_zt, out=scratch)
    g_cross = w_cross.sum(1)[:, None] * z.data - w_cross @ z_tilde.data
    return (2.0 * a / (n * (n - 1))) * g_self - (2.0 * a / (n * m)) * g_cross


def _cwae_gamma(n: int) -> float:
    # the bandwidth constant gamma_n = (4/(3n))^{2/5}
    return (4.0 / (3.0 * n)) ** 0.4


def _cwae_roots(z: PointCloud, out: np.ndarray | None = None) -> np.ndarray:
    # (gamma_n + |z_i - z_j|^2/(2D-3))^{-1/2}, written to out: the pair
    # matrix that cwae sums and whose cubes weight its gradient
    if z.dim < 2:
        raise ValueError(f"cwae needs dim >= 2 (2D-3 > 0), got a {z.data.shape} cloud")
    roots = _sq_dists(z.data, z.data, out, scale=1.0 / (2.0 * z.dim - 3.0),
                      shift=_cwae_gamma(z.n))
    np.sqrt(roots, out=roots)
    return np.divide(1.0, roots, out=roots)


def cwae(z: PointCloud) -> float:
    """Analytic projected-smoothing regularizer:

        (1/n^2) sum_{i,j} (g + |z_i-z_j|^2/(2D-3))^{-1/2}
        - (2/n) sum_i (g + 1/2 + |z_i|^2/(2D-3))^{-1/2}

    with g = gamma_n = (4/(3n))^{2/5}, n and D the cloud's size and
    dimension (D >= 2). The i = j diagonal is included, as printed.
    """
    return _cwae(z, _cwae_roots(z))


def _cwae(z: PointCloud, roots: np.ndarray) -> float:
    m = 2.0 * z.dim - 3.0
    r = (z.data * z.data).sum(1)
    pair_term = float(np.sum(roots)) / (z.n * z.n)
    point_term = float(np.sum((_cwae_gamma(z.n) + 0.5 + r / m) ** -0.5)) * 2.0 / z.n
    return pair_term - point_term


def cwae_gradient(z: PointCloud) -> np.ndarray:
    """Exact gradient of cwae with respect to the rows of z."""
    return _cwae_gradient(z, _cwae_roots(z))


def _cwae_gradient(z: PointCloud, roots: np.ndarray,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    # the weights (gamma_n + sq/m)^{-3/2}, cubed roots, go to scratch
    n = z.n
    m = 2.0 * z.dim - 3.0
    r = (z.data * z.data).sum(1)
    w = np.multiply(roots, roots, out=scratch)
    w *= roots
    np.fill_diagonal(w, 0.0)
    g_pair = -(2.0 / (m * n * n)) * (w.sum(1)[:, None] * z.data - w @ z.data)
    u = (_cwae_gamma(n) + 0.5 + r / m) ** -1.5
    g_point = (2.0 / (m * n)) * u[:, None] * z.data
    return g_pair + g_point


def mardia_stats(z: PointCloud) -> tuple[float, float, float]:
    """(skewness_stat, kurtosis_stat, second_moment) =
    ((1/n^2) sum (z_i . z_j)^3, (1/n) sum |z_i|^4, (1/n) sum |z_i|^2).

    For an exact N(0, I) sample these approach (0, D(D+2), D)."""
    gram = z.data @ z.data.T
    n = z.n
    skewness = float(np.sum(gram ** 3)) / (n * n)
    radii = np.diag(gram)
    kurtosis = float(np.sum(radii ** 2)) / n
    second = float(np.sum(radii)) / n
    return skewness, kurtosis, second
