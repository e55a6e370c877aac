"""Reference latent-space regularizers and moment statistics.

The WAE-MMD regularizer (inverse-multiquadric kernel, compared against a
fresh prior sample), the analytic CWAE regularizer, their exact gradients,
and the Mardia-style moment statistics used to sanity-check multivariate
normality. Both regularizers take their constants from the cloud they are
given: the inverse-multiquadric scale 2D from its dimension, CWAE's
gamma_n = (4/(3n))^{2/5} from its size. Each pair matrix is one product of
augmented factors that folds in the kernel's shift and scale (2D + sq, and
gamma_n + sq/(2D-3)). A caller forms them (kernel_matrix, cwae_roots) and
hands the same ones to a value and its gradient, which check their shapes but
not their values: a same-size matrix of another cloud is summed as given. The
WAE-MMD weights are the squared kernel entries, the CWAE weights are the
cubes of the inverse square roots that the value sums.
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


def _check_pairs(name: str, pairs: np.ndarray, n: int, m: int, least: int = 1) -> None:
    # a pair matrix handed in must be the (n, m) one of the clouds it is summed
    # with, whose first has at least `least` points
    if n < least:
        raise ValueError(f"need at least {least} points in z")
    if pairs.shape != (n, m):
        raise ValueError(f"{name} is {pairs.shape}, not ({n}, {m}) for the clouds given")


def wae_mmd(k_zz: np.ndarray, k_zt: np.ndarray) -> float:
    """MMD-style regularizer against a prior sample z_tilde:

        (1/(n(n-1))) sum_{i != j} k(z_i, z_j) - (2/(n m)) sum_{i,j} k(z_i, zt_j)

    with n points in z, m in z_tilde and k the kernel of kernel_matrix, summed
    from k_zz = kernel_matrix(z, z) and k_zt = kernel_matrix(z, z_tilde).
    """
    n, m = k_zt.shape
    _check_pairs("k_zz", k_zz, n, n, least=2)
    self_term = (float(k_zz.sum()) - float(np.trace(k_zz))) / (n * (n - 1))
    return self_term - 2.0 * float(k_zt.sum()) / (n * m)


def wae_mmd_gradient(z: PointCloud, z_tilde: PointCloud, k_zz: np.ndarray,
                     k_zt: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of wae_mmd with respect to the rows of z, from its kernel
    matrices; scratch, when given, holds each (n, n) weight matrix k^2 in turn."""
    if z.dim != z_tilde.dim:
        raise ValueError(f"cloud dims {z.dim} and {z_tilde.dim} differ")
    n, m = z.n, z_tilde.n
    _check_pairs("k_zz", k_zz, n, n, least=2)
    _check_pairs("k_zt", k_zt, n, m)
    # d k(z_i, y) / d z_i = a k^2 (z_i - y) with a = -1/D, since dk/ds in
    # s = |z_i - y|^2 is -k^2/(2D)
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


def _cwae_scale(z: PointCloud) -> float:
    # 2D-3 > 0 for dim >= 2; cwae and cwae_gradient may get roots cwae_roots did not make
    if z.dim < 2:
        raise ValueError(f"cwae needs dim >= 2 (2D-3 > 0), got a {z.data.shape} cloud")
    return 2.0 * z.dim - 3.0


def cwae_roots(z: PointCloud, out: np.ndarray | None = None) -> np.ndarray:
    """(gamma_n + |z_i - z_j|^2/(2D-3))^{-1/2}, written to out when given:
    the pair matrix that cwae sums and whose cubes weight cwae_gradient."""
    roots = _sq_dists(z.data, z.data, out, scale=1.0 / _cwae_scale(z),
                      shift=_cwae_gamma(z.n))
    np.sqrt(roots, out=roots)
    return np.divide(1.0, roots, out=roots)


def cwae(z: PointCloud, roots: np.ndarray) -> float:
    """Analytic projected-smoothing regularizer:

        (1/n^2) sum_{i,j} (g + |z_i-z_j|^2/(2D-3))^{-1/2}
        - (2/n) sum_i (g + 1/2 + |z_i|^2/(2D-3))^{-1/2}

    with g = gamma_n = (4/(3n))^{2/5}, n and D the cloud's size and
    dimension (D >= 2), and roots = cwae_roots(z) the pair term's matrix.
    The i = j diagonal is included, as printed.
    """
    m = _cwae_scale(z)
    _check_pairs("roots", roots, z.n, z.n)
    r = (z.data * z.data).sum(1)
    pair_term = float(np.sum(roots)) / (z.n * z.n)
    point_term = float(np.sum((_cwae_gamma(z.n) + 0.5 + r / m) ** -0.5)) * 2.0 / z.n
    return pair_term - point_term


def cwae_gradient(z: PointCloud, roots: np.ndarray,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of cwae with respect to the rows of z, from its roots;
    scratch, when given, holds the weights (gamma_n + sq/m)^{-3/2}, their cubes."""
    n = z.n
    m = _cwae_scale(z)
    _check_pairs("roots", roots, n, n)
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
