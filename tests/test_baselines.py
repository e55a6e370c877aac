import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentreg.baselines import (
    _cwae_gamma,
    cwae,
    cwae_gradient,
    cwae_roots,
    kernel_matrix,
    mardia_stats,
    wae_mmd,
    wae_mmd_gradient,
)
from latentreg.optimizer import CwaeObjective
from latentreg.sampling import PointCloud, Rng, _sq_dists, sample_standard_normal

RNG = np.random.default_rng(99)


def mmd_of(z, z_tilde):
    return wae_mmd(kernel_matrix(z, z), kernel_matrix(z, z_tilde))


def mmd_gradient_of(z, z_tilde):
    return wae_mmd_gradient(z, z_tilde, kernel_matrix(z, z), kernel_matrix(z, z_tilde))


def cwae_of(z):
    return cwae(z, cwae_roots(z))


def cwae_gradient_of(z):
    return cwae_gradient(z, cwae_roots(z))


def central_diff(f, data, h=1e-5):
    g = np.zeros_like(data)
    for i in range(data.shape[0]):
        for j in range(data.shape[1]):
            up = data.copy()
            up[i, j] += h
            down = data.copy()
            down[i, j] -= h
            g[i, j] = (f(up) - f(down)) / (2 * h)
    return g


def brute_force_wae(z, z_tilde):
    def k(a, b):
        s = float(((a - b) ** 2).sum())
        return 2 * z.dim / (2 * z.dim + s)

    n, m = z.n, z_tilde.n
    first = sum(k(z.data[i], z.data[j])
                for i in range(n) for j in range(n) if i != j) / (n * (n - 1))
    second = sum(k(z.data[i], z_tilde.data[j])
                 for i in range(n) for j in range(m)) * 2 / (n * m)
    return first - second


def brute_force_cwae(z):
    n, m = z.n, 2 * z.dim - 3
    g = (4 / (3 * n)) ** 0.4
    pair = sum((g + float(((z.data[i] - z.data[j]) ** 2).sum()) / m) ** -0.5
               for i in range(n) for j in range(n)) / (n * n)
    point = sum((g + 0.5 + float((z.data[i] ** 2).sum()) / m) ** -0.5
                for i in range(n)) * 2 / n
    return pair - point


def test_imq_kernel_at_zero_distance():
    for dim in (1, 3, 20):
        k = kernel_matrix(PointCloud(np.zeros((1, dim))), PointCloud(np.zeros((1, dim))))
        assert k[0, 0] == 1.0


def test_clouds_of_different_dims_are_rejected():
    z = PointCloud(RNG.normal(size=(5, 3)))
    z_tilde = PointCloud(RNG.normal(size=(4, 2)))
    with pytest.raises(ValueError, match="dims 3 and 2 differ"):
        kernel_matrix(z, z_tilde)
    with pytest.raises(ValueError, match="dims 3 and 2 differ"):
        wae_mmd_gradient(z, z_tilde, kernel_matrix(z, z), np.ones((5, 4)))


@pytest.mark.parametrize("call", [
    lambda z, y, o: wae_mmd(kernel_matrix(o, o), kernel_matrix(z, y)),
    lambda z, y, o: wae_mmd_gradient(z, y, kernel_matrix(o, o), kernel_matrix(z, y)),
    lambda z, y, o: wae_mmd_gradient(z, y, kernel_matrix(z, z), kernel_matrix(o, y)),
    lambda z, y, o: wae_mmd_gradient(z, y, kernel_matrix(z, z), kernel_matrix(y, z)),
    lambda z, y, o: cwae(z, cwae_roots(o)),
    lambda z, y, o: cwae_gradient(z, cwae_roots(o)),
], ids=["wae_mmd-k_zz", "wae_mmd_gradient-k_zz", "wae_mmd_gradient-k_zt",
        "wae_mmd_gradient-k_zt_transposed", "cwae-roots", "cwae_gradient-roots"])
def test_pair_matrices_of_other_clouds_are_rejected(call):
    # z has 5 points, the prior sample y 4 and the other cloud o 6: unchecked,
    # wae_mmd and cwae sum the wrong matrix to a finite value, and the
    # gradients fail, if at all, on a broadcast
    z, y, o = (PointCloud(RNG.normal(size=(n, 3))) for n in (5, 4, 6))
    with pytest.raises(ValueError, match=r"not \(.*\) for the clouds given"):
        call(z, y, o)


@pytest.mark.parametrize("n,dim", [(200, 20), (7, 2)])
def test_cwae_weights_are_the_cubed_roots(n, dim):
    z = PointCloud(RNG.normal(size=(n, dim)))
    base = (4 / (3 * n)) ** 0.4 + _sq_dists(z.data, z.data) / (2 * dim - 3)
    roots = cwae_roots(z)
    np.testing.assert_allclose(roots, base ** -0.5, rtol=1e-14, atol=0.0)
    weights = np.empty((n, n))
    cwae_gradient(z, roots, weights)  # leaves its weights in scratch
    want = base ** -1.5
    np.fill_diagonal(want, 0.0)
    np.testing.assert_allclose(weights, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n,dim", [(200, 20), (7, 2)])
def test_imq_weights_from_the_kernel_matrix(n, dim):
    z = PointCloud(RNG.normal(size=(n, dim)))
    y = PointCloud(RNG.normal(size=(n, dim)))
    weights = np.empty((n, n))
    # leaves its last weights, the cross term's k^2, in scratch: -k^2/D is
    # d k(z_i, y_j) / d z_i over (z_i - y_j)
    wae_mmd_gradient(z, y, kernel_matrix(z, z), kernel_matrix(z, y), weights)
    c = 2.0 * dim
    want = -2.0 * c / (c + _sq_dists(z.data, y.data)) ** 2
    np.testing.assert_allclose(-weights / dim, want, rtol=1e-14, atol=0.0)


def test_wae_mmd_two_coincident_points():
    # every kernel value is k(0) = 1: the self mean 1 minus twice the cross
    # mean 1, whatever the prior sample's size
    z = PointCloud(np.zeros((2, 3)))
    for m in (1, 2, 5):
        z_tilde = PointCloud(np.zeros((m, 3)))
        assert mmd_of(z, z_tilde) == pytest.approx(-1.0, abs=1e-15)


def test_wae_mmd_duplicated_prior_sample_is_the_same_distribution():
    # the cross term is a mean over the n x m pairs, so listing every prior
    # point twice changes neither the value nor the gradient
    z = PointCloud(RNG.normal(size=(4, 3)))
    z_tilde = PointCloud(RNG.normal(size=(4, 3)))
    doubled = PointCloud(np.concatenate([z_tilde.data, z_tilde.data]))
    assert mmd_of(z, doubled) == pytest.approx(mmd_of(z, z_tilde), abs=1e-14)
    assert np.allclose(mmd_gradient_of(z, doubled), mmd_gradient_of(z, z_tilde),
                       rtol=0.0, atol=1e-14)


def test_wae_mmd_needs_two_points():
    z = PointCloud(np.zeros((1, 2)))
    for call in (mmd_of, mmd_gradient_of):
        with pytest.raises(ValueError, match="at least 2 points"):
            call(z, z)


def test_wae_mmd_matches_brute_force():
    z = PointCloud(RNG.normal(size=(5, 3)))
    for m in (5, 3):
        z_tilde = PointCloud(RNG.normal(size=(m, 3)))
        assert mmd_of(z, z_tilde) == pytest.approx(brute_force_wae(z, z_tilde), abs=1e-12)


def test_wae_mmd_gradient_zero_at_coincident_points():
    z = PointCloud(np.zeros((3, 2)))
    z_tilde = PointCloud(np.zeros((3, 2)))
    g = mmd_gradient_of(z, z_tilde)
    assert np.all(g == 0.0)


def test_wae_mmd_gradient_matches_finite_differences():
    z = PointCloud(RNG.normal(size=(4, 2)))
    for m in (4, 7):
        z_tilde = PointCloud(RNG.normal(size=(m, 2)))
        g = mmd_gradient_of(z, z_tilde)
        fd = central_diff(lambda d: mmd_of(PointCloud(d), z_tilde), z.data)
        assert np.abs(g - fd).max() <= 1e-6 * np.abs(fd).max()


def test_wae_mmd_gradient_translation_invariant():
    z = PointCloud(RNG.normal(size=(4, 3)))
    z_tilde = PointCloud(RNG.normal(size=(4, 3)))
    shift = RNG.normal(size=3)
    g0 = mmd_gradient_of(z, z_tilde)
    g1 = mmd_gradient_of(PointCloud(z.data + shift), PointCloud(z_tilde.data + shift))
    assert np.allclose(g0, g1, atol=1e-14)


def test_cwae_params():
    assert _cwae_gamma(200) == pytest.approx((4 / 600) ** 0.4, rel=1e-12)
    assert _cwae_gamma(200) == pytest.approx(0.13476, abs=1e-5)


def test_cwae_single_point_closed_form():
    z = PointCloud(np.zeros((1, 20)))
    g1 = (4 / 3) ** 0.4
    assert cwae_of(z) == pytest.approx(g1 ** -0.5 - 2 * (g1 + 0.5) ** -0.5,
                                            rel=1e-14)


def test_cwae_matches_brute_force():
    z = PointCloud(RNG.normal(size=(5, 20)))
    assert cwae_of(z) == pytest.approx(brute_force_cwae(z), abs=1e-12)


def test_cwae_rejects_dim1():
    z = PointCloud(RNG.normal(size=(5, 1)))
    for call in (cwae_roots, CwaeObjective().value, CwaeObjective().gradient):
        with pytest.raises(ValueError, match="dim >= 2"):
            call(z)


def test_cwae_gradient_zero_at_origin_point():
    g = cwae_gradient_of(PointCloud(np.zeros((1, 20))))
    assert np.all(g == 0.0)


def test_cwae_gradient_matches_finite_differences():
    z = PointCloud(RNG.normal(size=(4, 20)))
    g = cwae_gradient_of(z)
    fd = central_diff(lambda d: cwae_of(PointCloud(d)), z.data)
    assert np.abs(g - fd).max() <= 1e-6 * np.abs(fd).max()


def test_cwae_gradient_rotation_equivariant():
    z = PointCloud(RNG.normal(size=(5, 6)))
    q, _ = np.linalg.qr(RNG.normal(size=(6, 6)))
    g_rotated = cwae_gradient_of(PointCloud(z.data @ q.T))
    assert np.allclose(g_rotated, cwae_gradient_of(z) @ q.T, atol=1e-12)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_values_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    z = PointCloud(rng.normal(size=(6, 4)))
    z_tilde = PointCloud(rng.normal(size=(6, 4)))
    perm = rng.permutation(6)
    z_p = PointCloud(z.data[perm])
    assert mmd_of(z_p, z_tilde) == pytest.approx(mmd_of(z, z_tilde), rel=1e-12)
    assert cwae_of(z_p) == pytest.approx(cwae_of(z), rel=1e-12)
    assert mardia_stats(z_p) == pytest.approx(mardia_stats(z), rel=1e-12)


def test_mardia_single_origin_point():
    assert mardia_stats(PointCloud(np.zeros((1, 20)))) == (0.0, 0.0, 0.0)


def test_mardia_on_seeded_gaussian_sample():
    dim = 20
    cloud = sample_standard_normal(Rng(314), 2000, dim)
    skew, kurt, second = mardia_stats(cloud)
    assert abs(kurt - dim * (dim + 2)) <= 25.0  # E|z|^4 = D (D + 2) for N(0, I_D)
    assert abs(second - dim) <= 0.7
    assert abs(skew) <= 2000.0 * 0.05  # third-moment statistic hovers near zero
