"""Reference latent-space regularizers and moment statistics.

The WAE-MMD regularizer (inverse-multiquadric or exponential kernel, compared
against a fresh prior sample), the analytic CWAE regularizer, their exact
gradients, and the Mardia-style moment statistics used to sanity-check
multivariate normality. Each gradient reuses its value's pair matrices: the
WAE-MMD weights come from the kernel matrices, the CWAE weights are the cubes
of the inverse square roots that the value sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import PointCloud, _sq_dists

__all__ = [
    "KernelSpec",
    "CwaeParams",
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
    """Kernel choice for the MMD regularizer.

    inverse_multiquadric: k(x, y) = 2D / (2D + |x-y|^2), D = dim.
    exponential:          k(x, y) = exp(-|x-y|^2).
    """

    kind: str
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {_KINDS}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")

    @classmethod
    def imq(cls, dim: int) -> "KernelSpec":
        return cls("inverse_multiquadric", dim)

    @classmethod
    def exponential(cls, dim: int) -> "KernelSpec":
        return cls("exponential", dim)


def kernel_matrix(kernel: KernelSpec, a: PointCloud, b: PointCloud) -> np.ndarray:
    """Matrix of k(a_i, b_j)."""
    if not a.dim == b.dim == kernel.dim:
        raise ValueError(f"cloud dims {a.dim}, {b.dim} and kernel.dim {kernel.dim} differ")
    return _kernel(kernel, _sq_dists(a.data, b.data))


def _kernel(kernel: KernelSpec, sq: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # k as a function of the squared distance, written to out (allocated
    # when None; sq itself is allowed)
    if kernel.kind == "inverse_multiquadric":
        c = 2.0 * kernel.dim
        out = np.add(c, sq, out=out)
        return np.divide(c, out, out=out)
    out = np.negative(sq, out=out)
    return np.exp(out, out=out)


def _mmd_sq_dists(z: PointCloud, z_tilde: PointCloud, kernel: KernelSpec,
                  zz: np.ndarray | None = None, zt: np.ndarray | None = None,
                  gram: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    # (|z_i - z_j|^2, |z_i - zt_j|^2), written to zz and zt with gram as scratch
    if z.n < 2:
        raise ValueError("need at least 2 points in z")
    if not z.dim == z_tilde.dim == kernel.dim:
        raise ValueError(f"cloud dims {z.dim}, {z_tilde.dim} and kernel.dim {kernel.dim} differ")
    return _sq_dists(z.data, z.data, zz, gram), _sq_dists(z.data, z_tilde.data, zt, gram)


def _mmd_kernels(z: PointCloud, z_tilde: PointCloud, kernel: KernelSpec,
                 zz: np.ndarray | None = None, zt: np.ndarray | None = None,
                 gram: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    # (k(z_i, z_j), k(z_i, zt_j)), each written over its distance matrix
    zz, zt = _mmd_sq_dists(z, z_tilde, kernel, zz, zt, gram)
    return _kernel(kernel, zz, zz), _kernel(kernel, zt, zt)


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


def _weights_from_kernel(kernel: KernelSpec, k: np.ndarray,
                         out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    # (v, a) with d k(z_i, y) / d z_i = a v (z_i - y), v written to out:
    # dk/ds in s = |z_i - y|^2 is -k^2/(2D) (inverse multiquadric) or -k
    # (exponential), so v is k^2 with a = -1/D, or -2k with a = 1
    if kernel.kind == "inverse_multiquadric":
        return np.square(k, out=out), -1.0 / kernel.dim
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
    w_self, a = _weights_from_kernel(kernel, k_zz, scratch)
    np.fill_diagonal(w_self, 0.0)
    # sum_j w_ij (z_i - z_j) = rowsum(w)_i z_i - (w @ z)_i
    g_self = w_self.sum(1)[:, None] * z.data - w_self @ z.data
    w_cross, _ = _weights_from_kernel(kernel, k_zt, scratch)
    g_cross = w_cross.sum(1)[:, None] * z.data - w_cross @ z_tilde.data
    return (2.0 * a / (n * (n - 1))) * g_self - (2.0 * a / (n * m)) * g_cross


@dataclass(frozen=True)
class CwaeParams:
    """Sample size, dimension and the bandwidth constant gamma_n = (4/(3n))^{2/5}."""

    n: int
    dim: int
    gamma_n: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"dim must be an integer >= 2 (2D-3 > 0), got {self.dim!r}")
        expected = (4.0 / (3.0 * self.n)) ** 0.4
        if abs(self.gamma_n - expected) > 1e-12 * expected:
            raise ValueError(f"gamma_n={self.gamma_n} does not match (4/(3n))^0.4={expected}")

    @classmethod
    def for_cloud(cls, n: int, dim: int) -> "CwaeParams":
        return cls(n, dim, (4.0 / (3.0 * n)) ** 0.4)


def _cwae_sq_dists(z: PointCloud, params: CwaeParams, out: np.ndarray | None = None,
                   gram: np.ndarray | None = None) -> np.ndarray:
    # |z_i - z_j|^2, written to out with gram as scratch
    if (params.n, params.dim) != (z.n, z.dim):
        raise ValueError(f"params for {(params.n, params.dim)} do not fit a {z.data.shape} cloud")
    return _sq_dists(z.data, z.data, out, gram)


def _cwae_roots(z: PointCloud, params: CwaeParams, out: np.ndarray | None = None,
                gram: np.ndarray | None = None) -> np.ndarray:
    # (gamma_n + |z_i - z_j|^2/(2D-3))^{-1/2}, written to out with gram as
    # scratch: the pair matrix that cwae sums and whose cubes weight its gradient
    roots = _cwae_sq_dists(z, params, out, gram)
    np.divide(roots, 2.0 * z.dim - 3.0, out=roots)
    np.add(params.gamma_n, roots, out=roots)
    np.sqrt(roots, out=roots)
    return np.divide(1.0, roots, out=roots)


def cwae(z: PointCloud, params: CwaeParams) -> float:
    """Analytic projected-smoothing regularizer:

        (1/n^2) sum_{i,j} (g + |z_i-z_j|^2/(2D-3))^{-1/2}
        - (2/n) sum_i (g + 1/2 + |z_i|^2/(2D-3))^{-1/2}

    with g = gamma_n. The i = j diagonal is included, as printed.
    """
    return _cwae(z, _cwae_roots(z, params), params)


def _cwae(z: PointCloud, roots: np.ndarray, params: CwaeParams) -> float:
    m = 2.0 * z.dim - 3.0
    r = (z.data * z.data).sum(1)
    pair_term = float(np.sum(roots)) / (z.n * z.n)
    point_term = float(np.sum((params.gamma_n + 0.5 + r / m) ** -0.5)) * 2.0 / z.n
    return pair_term - point_term


def cwae_gradient(z: PointCloud, params: CwaeParams) -> np.ndarray:
    """Exact gradient of cwae with respect to the rows of z."""
    return _cwae_gradient(z, _cwae_roots(z, params), params)


def _cwae_gradient(z: PointCloud, roots: np.ndarray, params: CwaeParams,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    # the weights (gamma_n + sq/m)^{-3/2}, cubed roots, go to scratch
    n = z.n
    m = 2.0 * z.dim - 3.0
    r = (z.data * z.data).sum(1)
    w = np.multiply(roots, roots, out=scratch)
    w *= roots
    np.fill_diagonal(w, 0.0)
    g_pair = -(2.0 / (m * n * n)) * (w.sum(1)[:, None] * z.data - w @ z.data)
    u = (params.gamma_n + 0.5 + r / m) ** -1.5
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
