"""Reference latent-space regularizers and moment statistics.

The WAE-MMD regularizer (inverse-multiquadric or exponential kernel, compared
against a fresh prior sample), the analytic CWAE regularizer, their exact
gradients, and the Mardia-style moment statistics used to sanity-check
multivariate normality. Both regularizers take their constants from the
cloud they are given: the inverse-multiquadric scale 2D from its dimension,
CWAE's gamma_n = (4/(3n))^{2/5} from its size. Each gradient reuses its
value's pair matrices: the WAE-MMD weights come from the kernel matrices,
the CWAE weights are the cubes of the inverse square roots that the value
sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import PointCloud, _sq_dists

__all__ = [
    "KernelSpec",
    "kernel_matrix",
    "wae_mmd",
    "wae_mmd_gradient",
    "cwae",
    "cwae_gradient",
    "mardia_stats",
]

_KINDS = ("inverse_multiquadric", "exponential")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice for the MMD regularizer, D being the cloud's dimension.

    inverse_multiquadric: k(x, y) = 2D / (2D + |x-y|^2).
    exponential:          k(x, y) = exp(-|x-y|^2).
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {_KINDS}")

    @classmethod
    def imq(cls) -> "KernelSpec":
        return cls("inverse_multiquadric")

    @classmethod
    def exponential(cls) -> "KernelSpec":
        return cls("exponential")


def kernel_matrix(kernel: KernelSpec, a: PointCloud, b: PointCloud) -> np.ndarray:
    """Matrix of k(a_i, b_j)."""
    if a.dim != b.dim:
        raise ValueError(f"cloud dims {a.dim} and {b.dim} differ")
    return _kernel(kernel, a.dim, _sq_dists(a.data, b.data))


def _kernel(kernel: KernelSpec, dim: int, sq: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    # k as a function of the squared distance, written to out (allocated
    # when None; sq itself is allowed)
    if kernel.kind == "inverse_multiquadric":
        c = 2.0 * dim
        out = np.add(c, sq, out=out)
        return np.divide(c, out, out=out)
    out = np.negative(sq, out=out)
    return np.exp(out, out=out)


def _mmd_kernels(z: PointCloud, z_tilde: PointCloud, kernel: KernelSpec,
                 zz: np.ndarray | None = None, zt: np.ndarray | None = None,
                 gram: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    # (k(z_i, z_j), k(z_i, zt_j)), each written over its squared-distance
    # matrix in zz and zt, with gram as scratch
    if z.n < 2:
        raise ValueError("need at least 2 points in z")
    if z.dim != z_tilde.dim:
        raise ValueError(f"cloud dims {z.dim} and {z_tilde.dim} differ")
    zz = _sq_dists(z.data, z.data, zz, gram)
    zt = _sq_dists(z.data, z_tilde.data, zt, gram)
    return _kernel(kernel, z.dim, zz, zz), _kernel(kernel, z.dim, zt, zt)


def wae_mmd(z: PointCloud, z_tilde: PointCloud, kernel: KernelSpec) -> float:
    """MMD-style regularizer against a prior sample z_tilde:

        (1/(n(n-1))) sum_{i != j} k(z_i, z_j) - (2/(n m)) sum_{i,j} k(z_i, zt_j)

    with n points in z and m in z_tilde.
    """
    return _wae_mmd(*_mmd_kernels(z, z_tilde, kernel))


def _wae_mmd(k_zz: np.ndarray, k_zt: np.ndarray) -> float:
    n, m = k_zt.shape
    self_term = (float(k_zz.sum()) - float(np.trace(k_zz))) / (n * (n - 1))
    return self_term - 2.0 * float(k_zt.sum()) / (n * m)


def _weights_from_kernel(kernel: KernelSpec, dim: int, k: np.ndarray,
                         out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    # (v, a) with d k(z_i, y) / d z_i = a v (z_i - y), v written to out:
    # dk/ds in s = |z_i - y|^2 is -k^2/(2D) (inverse multiquadric) or -k
    # (exponential), so v is k^2 with a = -1/D, or -2k with a = 1
    if kernel.kind == "inverse_multiquadric":
        return np.square(k, out=out), -1.0 / dim
    return np.multiply(-2.0, k, out=out), 1.0


def wae_mmd_gradient(z: PointCloud, z_tilde: PointCloud,
                     kernel: KernelSpec) -> np.ndarray:
    """Exact gradient of wae_mmd with respect to the rows of z."""
    return _wae_mmd_gradient(z, z_tilde, *_mmd_kernels(z, z_tilde, kernel), kernel)


def _wae_mmd_gradient(z: PointCloud, z_tilde: PointCloud, k_zz: np.ndarray,
                      k_zt: np.ndarray, kernel: KernelSpec,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    # scratch holds each weight matrix in turn
    n, m = z.n, z_tilde.n
    w_self, a = _weights_from_kernel(kernel, z.dim, k_zz, scratch)
    np.fill_diagonal(w_self, 0.0)
    # sum_j w_ij (z_i - z_j) = rowsum(w)_i z_i - (w @ z)_i
    g_self = w_self.sum(1)[:, None] * z.data - w_self @ z.data
    w_cross, _ = _weights_from_kernel(kernel, z.dim, k_zt, scratch)
    g_cross = w_cross.sum(1)[:, None] * z.data - w_cross @ z_tilde.data
    return (2.0 * a / (n * (n - 1))) * g_self - (2.0 * a / (n * m)) * g_cross


def _cwae_gamma(n: int) -> float:
    # the bandwidth constant gamma_n = (4/(3n))^{2/5}
    return (4.0 / (3.0 * n)) ** 0.4


def _cwae_roots(z: PointCloud, out: np.ndarray | None = None,
                gram: np.ndarray | None = None) -> np.ndarray:
    # (gamma_n + |z_i - z_j|^2/(2D-3))^{-1/2}, written to out with gram as
    # scratch: the pair matrix that cwae sums and whose cubes weight its gradient
    if z.dim < 2:
        raise ValueError(f"cwae needs dim >= 2 (2D-3 > 0), got a {z.data.shape} cloud")
    roots = _sq_dists(z.data, z.data, out, gram)
    np.divide(roots, 2.0 * z.dim - 3.0, out=roots)
    np.add(_cwae_gamma(z.n), roots, out=roots)
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
