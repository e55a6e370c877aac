import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from latentreg import gaussian_l2
from latentreg.gaussian_l2 import (
    GaussianComponent,
    SmoothedSample,
    gaussian_product_integral,
    l2_distance_samples,
    l2_distance_samples_isotropic,
    l2_distance_to_standard_gaussian,
    mean_field_objective,
    mean_field_sigma,
)
from latentreg.sampling import PointCloud, _sq_dists


def rand_spd(dim, rng):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + (0.3 + rng.random()) * np.eye(dim)


def mixture_density(points, covs, weights):
    comps = [GaussianComponent(p, c) for p, c in zip(points, covs)]

    def density(x):
        return sum(w * c.density(x) for w, c in zip(weights, comps))

    return density


def quad_l2(density_a, density_b, dim, lim=25.0):
    f = lambda *x: (density_a(x) - density_b(x)) ** 2
    if dim == 1:
        val, _ = integrate.quad(f, -lim, lim, epsabs=1e-10, limit=200)
    else:
        val, _ = integrate.dblquad(lambda y, x: f(x, y), -lim, lim, -lim, lim,
                                   epsabs=1e-9)
    return val


def test_product_integral_identity_covariances():
    assert gaussian_product_integral(np.zeros(1), np.eye(1), np.eye(1)) == \
        pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-14)
    assert gaussian_product_integral(np.zeros(20), np.eye(20), np.eye(20)) == \
        pytest.approx((4 * math.pi) ** -10, rel=1e-13)


def test_product_integral_matches_quadrature_2d():
    rng = np.random.default_rng(11)
    for _ in range(3):
        mu = rng.normal(size=2)
        sigma, gamma = rand_spd(2, rng), rand_spd(2, rng)
        a = GaussianComponent(mu, sigma)
        b = GaussianComponent(np.zeros(2), gamma)
        val, _ = integrate.dblquad(lambda y, x: a.density([x, y]) * b.density([x, y]),
                                   -20, 20, -20, 20, epsabs=1e-10)
        assert gaussian_product_integral(mu, sigma, gamma) == pytest.approx(val, abs=1e-8)


def test_product_integral_rejects_bad_matrices():
    with pytest.raises(ValueError):
        gaussian_product_integral(np.zeros(2), np.eye(2), -np.eye(2))
    skew = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        gaussian_product_integral(np.zeros(2), skew, np.eye(2))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_product_integral_swap_symmetry(dim, seed):
    rng = np.random.default_rng(seed)
    mu = rng.normal(size=dim)
    sigma, gamma = rand_spd(dim, rng), rand_spd(dim, rng)
    a = gaussian_product_integral(mu, sigma, gamma)
    b = gaussian_product_integral(-mu, gamma, sigma)
    assert a == pytest.approx(b, rel=1e-12)


def test_log_density_matches_the_textbook_formula():
    # the factor kept from construction gives the density that a fresh
    # inverse and determinant give, at every query point
    rng = np.random.default_rng(77)
    for dim in (1, 3, 8):
        mu, cov = rng.normal(size=dim), rand_spd(dim, rng)
        comp = GaussianComponent(mu, cov)
        inv, (_, logdet) = np.linalg.inv(cov), np.linalg.slogdet(cov)
        for x in rng.normal(size=(5, dim)):
            d = x - mu
            expected = -0.5 * (d @ inv @ d + dim * math.log(2 * math.pi) + logdet)
            assert comp.log_density(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        with pytest.raises(ValueError):
            comp.log_density(np.zeros(dim + 1))


def test_l2_distance_identical_samples_is_zero():
    rng = np.random.default_rng(12)
    pts = PointCloud(rng.normal(size=(4, 3)))
    bw = [rand_spd(3, rng) for _ in range(4)]
    a = SmoothedSample(pts, bw)
    b = SmoothedSample(PointCloud(pts.data.copy()), [m.copy() for m in bw])
    assert l2_distance_samples(a, b) <= 1e-10


def test_l2_distance_two_single_points_closed_form():
    # one unit-bandwidth bump at 0 vs one at l: 2 (1 - e^{-l^2/4}) / sqrt(4 pi)
    for l in (0.0, 0.5, 2.0):
        a = SmoothedSample(PointCloud(np.array([[0.0]])), np.array([1.0]))
        b = SmoothedSample(PointCloud(np.array([[l]])), np.array([1.0]))
        expected = 2 * (1 - math.exp(-l * l / 4)) / math.sqrt(4 * math.pi)
        assert l2_distance_samples(a, b) == pytest.approx(expected, abs=1e-12)


def test_l2_distance_matches_quadrature():
    rng = np.random.default_rng(13)
    for dim in (1, 2):
        na, nb = 3, 2
        pts_a = rng.normal(size=(na, dim))
        pts_b = rng.normal(size=(nb, dim))
        cov_a = [rand_spd(dim, rng) for _ in range(na)]
        cov_b = [rand_spd(dim, rng) for _ in range(nb)]
        closed = l2_distance_samples(SmoothedSample(PointCloud(pts_a), cov_a),
                                     SmoothedSample(PointCloud(pts_b), cov_b))
        quad = quad_l2(mixture_density(pts_a, cov_a, [1 / na] * na),
                       mixture_density(pts_b, cov_b, [1 / nb] * nb), dim)
        assert closed == pytest.approx(quad, abs=1e-8)


def test_isotropic_trivial_cases():
    x = PointCloud(np.random.default_rng(14).normal(size=(5, 2)))
    assert l2_distance_samples_isotropic(x, PointCloud(x.data.copy()), 0.7) <= 1e-12
    near = l2_distance_samples_isotropic(PointCloud(np.zeros((1, 2))),
                                         PointCloud(np.zeros((1, 2))), 1.0)
    assert near == 0.0
    far = l2_distance_samples_isotropic(PointCloud(np.zeros((1, 2))),
                                        PointCloud(np.full((1, 2), 50.0)), 1.0)
    assert far == pytest.approx(2.0, abs=1e-12)


def test_isotropic_scaling_consistency():
    # the dropped sqrt(4 pi s^2)^D factor reconciles the two formulas (D <= 5;
    # beyond that the general form underflows)
    rng = np.random.default_rng(15)
    for dim in (1, 2, 3, 5):
        sigma = 0.9
        x = PointCloud(rng.normal(size=(4, dim)))
        y = PointCloud(rng.normal(size=(3, dim)))
        plain = l2_distance_samples_isotropic(x, y, sigma)
        general = l2_distance_samples(
            SmoothedSample(x, np.full(4, sigma)),
            SmoothedSample(y, np.full(3, sigma)))
        factor = math.sqrt(4 * math.pi * sigma * sigma) ** dim
        assert plain == pytest.approx(general * factor, rel=1e-9)


def test_isotropic_matches_an_explicit_double_sum():
    # the three means of exp(-|u-v|^2/(4 sigma^2)), one pair at a time
    rng = np.random.default_rng(5)
    x = PointCloud(rng.normal(size=(5, 3)))
    y = PointCloud(rng.normal(size=(4, 3)))

    def mean_kernel(a, b, sigma):
        return sum(math.exp(-float(((u - v) ** 2).sum()) / (4 * sigma * sigma))
                   for u in a.data for v in b.data) / (a.n * b.n)

    for sigma in (0.5, 1.3):
        want = mean_kernel(x, x, sigma) + mean_kernel(y, y, sigma) \
            - 2 * mean_kernel(x, y, sigma)
        assert l2_distance_samples_isotropic(x, y, sigma) == pytest.approx(want, abs=1e-12)


def test_prior_distance_single_standard_point():
    x = PointCloud(np.zeros((1, 4)))
    val = l2_distance_to_standard_gaussian(x, np.array([1.0]), scaled=True)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_prior_distance_sigma1_shortcut():
    # scaled form at unit bandwidths collapses to
    # 1 + 1/n + (2/n^2) sum_{i<i'} e^{-|xi-xi'|^2/4} - (2/n) sum e^{-|xi|^2/4}
    x = PointCloud(np.random.default_rng(16).normal(size=(6, 20)))
    n = x.n
    scaled = l2_distance_to_standard_gaussian(x, np.ones(n), scaled=True)
    cross = sum(math.exp(-np.sum((x.data[i] - x.data[j]) ** 2) / 4)
                for i in range(n) for j in range(i + 1, n))
    self_term = sum(math.exp(-np.sum(x.data[i] ** 2) / 4) for i in range(n))
    shortcut = 1 + 1 / n + 2 / n ** 2 * cross - 2 / n * self_term
    assert scaled == pytest.approx(shortcut, rel=1e-12)


@pytest.mark.parametrize("n", [7, 12, 23])
def test_prior_distance_is_never_negative(n):
    # n unit-width points at the origin are N(0, 1) itself; the three
    # energies cancel to a few -1e-16 before the clamp (n = 7 with
    # full-matrix self-energies, n = 12 and 23 with the triangle)
    assert l2_distance_to_standard_gaussian(PointCloud(np.zeros((n, 1))), np.ones(n)) == 0.0


def test_prior_distance_matches_quadrature_1d():
    pts = np.array([[0.4], [-1.1]])
    sigmas = np.array([0.8, 1.3])
    closed = l2_distance_to_standard_gaussian(PointCloud(pts), sigmas)
    density = mixture_density(pts, [s * s * np.eye(1) for s in sigmas], [0.5, 0.5])
    prior = GaussianComponent(np.zeros(1), np.eye(1))
    val, _ = integrate.quad(lambda t: (density([t]) - prior.density([t])) ** 2,
                            -25, 25, epsabs=1e-10, limit=200)
    assert closed == pytest.approx(val, abs=1e-8)


def test_prior_distance_full_covariance_matches_quadrature_2d():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(2, 2))
    covs = [rand_spd(2, rng), rand_spd(2, rng)]
    closed = l2_distance_to_standard_gaussian(PointCloud(pts), covs)
    density = mixture_density(pts, covs, [0.5, 0.5])
    prior = GaussianComponent(np.zeros(2), np.eye(2))
    val, _ = integrate.dblquad(
        lambda y, x: (density([x, y]) - prior.density([x, y])) ** 2,
        -20, 20, -20, 20, epsabs=1e-9)
    assert closed == pytest.approx(val, abs=1e-8)


def test_full_covariance_sums_match_spherical_paths():
    # the same mixtures, given as widths sigma_i and as matrices sigma_i^2 I:
    # two spherical samples take the closed form over all pairs, any sample
    # with matrices the per-pair sum, in both distances (the prior is a
    # one-point sample with unit width)
    rng = np.random.default_rng(77)
    x = PointCloud(rng.normal(size=(9, 5)))
    y = PointCloud(rng.normal(size=(7, 5)))
    sx, sy = rng.uniform(0.5, 1.5, 9), rng.uniform(0.5, 1.5, 7)
    full_x = [s * s * np.eye(5) for s in sx]
    full_y = [s * s * np.eye(5) for s in sy]
    for scaled in (False, True):
        spherical = l2_distance_to_standard_gaussian(x, sx, scaled=scaled)
        full = l2_distance_to_standard_gaussian(x, full_x, scaled=scaled)
        assert full == pytest.approx(spherical, rel=1e-10)
    spherical = l2_distance_samples(SmoothedSample(x, sx), SmoothedSample(y, sy))
    full = l2_distance_samples(SmoothedSample(x, full_x), SmoothedSample(y, full_y))
    assert spherical > 0.0
    assert full == pytest.approx(spherical, rel=1e-10)
    # widths on one side, matrices on the other
    for a, b in ((SmoothedSample(x, sx), SmoothedSample(y, full_y)),
                 (SmoothedSample(x, full_x), SmoothedSample(y, sy))):
        assert l2_distance_samples(a, b) == pytest.approx(spherical, rel=1e-10)


def test_pair_integral_counts(monkeypatch):
    # a sample against itself takes each unordered pair once, so the
    # self-energies cost n(n+1)/2 integrals each, not n^2; a call takes a
    # stack of pairs, so the integrals are the rows the calls receive
    rows = []
    real = gaussian_l2._log_pair_integral

    def counting(diff, *args):
        rows.append(diff.shape[0])
        return real(diff, *args)

    monkeypatch.setattr(gaussian_l2, "_log_pair_integral", counting)
    rng = np.random.default_rng(5)
    na, nb, dim = 6, 4, 3
    x, y = PointCloud(rng.normal(size=(na, dim))), PointCloud(rng.normal(size=(nb, dim)))
    cov_x, cov_y = [rand_spd(dim, rng) for _ in range(na)], [rand_spd(dim, rng) for _ in range(nb)]
    l2_distance_samples(SmoothedSample(x, cov_x), SmoothedSample(y, cov_y))
    assert sum(rows) == na * (na + 1) // 2 + nb * (nb + 1) // 2 + na * nb
    rows.clear()
    l2_distance_to_standard_gaussian(x, cov_x, scaled=True)
    assert sum(rows) == na * (na + 1) // 2 + na
    rows.clear()
    l2_distance_samples(SmoothedSample(x, np.ones(na)), SmoothedSample(y, np.ones(nb)))
    l2_distance_to_standard_gaussian(x, np.ones(na))
    assert rows == []


def _dense_spherical_energy(a, b, shift):
    # the whole (n, m) kernel matrix at once
    total = np.add.outer(a.bandwidths ** 2, b.bandwidths ** 2)
    sq = _sq_dists(a.points.data, b.points.data)
    log_d = -0.5 * (sq / total + a.points.dim * (math.log(2 * math.pi) + np.log(total)))
    return float(_uniform_weights(a) @ np.exp(log_d + shift) @ _uniform_weights(b))


def _uniform_weights(sample):
    return np.full(sample.points.n, 1 / sample.points.n)


BLOCK_ROWS, M = 8, 5


@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS + 3])
def test_blocked_kernels_match_a_dense_reference(monkeypatch, n):
    # BLOCK_ROWS rows per block against M points (two buffers of
    # BLOCK_ROWS x M); the self-energies split into blocks of
    # _BLOCK_ELEMENTS // (2 n) rows
    monkeypatch.setattr(gaussian_l2, "_BLOCK_ELEMENTS", 2 * BLOCK_ROWS * M)
    rng = np.random.default_rng(n)
    dim = 4
    x, y = PointCloud(rng.normal(size=(n, dim))), PointCloud(rng.normal(size=(M, dim)) + 0.5)
    a = SmoothedSample(x, rng.uniform(0.5, 1.5, n))
    b = SmoothedSample(y, rng.uniform(0.5, 1.5, M))
    for shift in (0.0, 0.5 * dim * math.log(4 * math.pi)):
        for u, v in ((a, a), (b, b), (a, b), (b, a)):
            assert gaussian_l2._energy(u, v, shift) == pytest.approx(
                _dense_spherical_energy(u, v, shift), rel=1e-13, abs=0.0)
    for u, v in ((x, x), (y, y), (x, y), (y, x)):
        dense = float(np.mean(np.exp(-_sq_dists(u.data, v.data) / 2.56)))
        assert gaussian_l2._mean_exp_kernel(u.data, v.data, 2.56) == pytest.approx(
            dense, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("elements", [1, 72, 2 ** 18])
def test_chunked_pair_sums_match_the_per_pair_sum(monkeypatch, elements):
    # 1, 2 and all pairs per chunk at D = 3 (chunks of _BLOCK_ELEMENTS // 36
    # pairs), against one integral per pair
    monkeypatch.setattr(gaussian_l2, "_BLOCK_ELEMENTS", elements)
    rng = np.random.default_rng(8)
    na, nb, dim = 7, 5, 3
    x, y = PointCloud(rng.normal(size=(na, dim))), PointCloud(rng.normal(size=(nb, dim)))
    cov_x, cov_y = [rand_spd(dim, rng) for _ in range(na)], [rand_spd(dim, rng) for _ in range(nb)]
    a, b = SmoothedSample(x, cov_x), SmoothedSample(y, cov_y)
    for u, v in ((a, a), (a, b), (b, a)):
        per_pair = math.fsum(
            wi * wj * gaussian_product_integral(pi - pj, ci, cj)
            for pi, ci, wi in zip(u.points.data, u.covariances(), _uniform_weights(u))
            for pj, cj, wj in zip(v.points.data, v.covariances(), _uniform_weights(v)))
        assert gaussian_l2._energy(u, v) == pytest.approx(per_pair, rel=1e-13, abs=0.0)


def test_uniform_weights_keep_every_bit():
    # the 1/n and 1/m weights enter each energy as the scalar products
    # (total * 1/n) * 1/m and (coef * 1/n) * 1/m; these are the bits that
    # the per-point weight arrays gave
    rng = np.random.default_rng(2024)
    n, m, dim = 6, 4, 3
    x, y = PointCloud(rng.normal(size=(n, dim))), PointCloud(rng.normal(size=(m, dim)) + 0.3)
    sx, sy = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, m)
    cx, cy = ([a @ a.T + np.eye(dim) for a in rng.normal(size=(k, dim, dim))] for k in (n, m))
    a, b = SmoothedSample(x, sx), SmoothedSample(y, sy)
    fa, fb = SmoothedSample(x, cx), SmoothedSample(y, cy)
    shift = 0.5 * dim * math.log(4 * math.pi)
    got = {
        "samples_spherical": l2_distance_samples(a, b),
        "samples_full": l2_distance_samples(fa, fb),
        "samples_mixed": l2_distance_samples(a, fb),
        "prior_spherical": l2_distance_to_standard_gaussian(x, sx),
        "prior_full": l2_distance_to_standard_gaussian(x, cx),
        "prior_spherical_scaled": l2_distance_to_standard_gaussian(x, sx, scaled=True),
        "prior_full_scaled": l2_distance_to_standard_gaussian(x, cx, scaled=True),
        "self_spherical": gaussian_l2._energy(a, a),
        "self_spherical_shifted": gaussian_l2._energy(a, a, shift),
        "cross_spherical": gaussian_l2._energy(a, b),
        "cross_spherical_shifted": gaussian_l2._energy(a, b, shift),
        "self_full": gaussian_l2._energy(fa, fa),
        "self_full_shifted": gaussian_l2._energy(fa, fa, shift),
        "cross_full": gaussian_l2._energy(fa, fb),
        "cross_full_shifted": gaussian_l2._energy(fa, fb, shift),
    }
    assert {k: float(v).hex() for k, v in got.items()} == {
        "samples_spherical": "0x1.3dcca534497b9p-6",
        "samples_full": "0x1.cbc9f075fe8e8p-11",
        "samples_mixed": "0x1.e50d7c9ac79d0p-10",
        "prior_spherical": "0x1.4975d794fa5dcp-7",
        "prior_full": "0x1.b030f570348a6p-7",
        "prior_spherical_scaled": "0x1.caa2c29be1e2ep-2",
        "prior_full_scaled": "0x1.2cd2a4bdc8b16p-1",
        "self_spherical": "0x1.b6758bf10ba9ep-8",
        "self_spherical_shifted": "0x1.312f80a320dc6p-2",
        "cross_spherical": "0x1.241a4d3dbbe49p-7",
        "cross_spherical_shifted": "0x1.96a1871b4bcbdp-2",
        "self_full": "0x1.b1e2f7bf9e90ep-9",
        "self_full_shifted": "0x1.2e00bb49df6eap-3",
        "cross_full": "0x1.95c6e519b312ap-9",
        "cross_full_shifted": "0x1.1a6ff848c2a1ap-3",
    }


@pytest.mark.parametrize("per_chunk", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_chunks_enumerate_the_pairs_in_index_order(monkeypatch, n, per_chunk):
    # the chunks of a sample against itself run through np.triu_indices(n),
    # and against another sample through np.indices((n, m)), in order, each
    # with per_chunk pairs but the last. Point i sits at first coordinate i
    # with covariance (i + 1) I, so the pair (i, j) has the first difference
    # i - j and the covariance sum (i + j + 2) I, which tell i and j
    dim, m = 2, 4
    monkeypatch.setattr(gaussian_l2, "_BLOCK_ELEMENTS", 4 * dim * dim * per_chunk)
    calls = []
    real = gaussian_l2._log_pair_integral

    def recording(diff, cov_sum):
        diffs, sums = diff[:, 0].round().astype(int), cov_sum[:, 0, 0].round().astype(int) - 2
        calls.append(((sums + diffs) // 2, (sums - diffs) // 2))
        return real(diff, cov_sum)

    monkeypatch.setattr(gaussian_l2, "_log_pair_integral", recording)
    rng = np.random.default_rng(n)
    a, b = (SmoothedSample(PointCloud(np.column_stack([np.arange(k), rng.normal(size=k)])),
                           [(i + 1.0) * np.eye(dim) for i in range(k)]) for k in (n, m))
    for u, v, want in ((a, a, np.triu_indices(n)),
                       (a, b, np.indices((n, m)).reshape(2, -1))):
        calls.clear()
        gaussian_l2._energy(u, v)
        sizes = [len(i) for i, _ in calls]
        assert sizes[:-1] == [per_chunk] * (len(sizes) - 1) and 0 < sizes[-1] <= per_chunk
        got = np.concatenate([i for i, _ in calls]), np.concatenate([j for _, j in calls])
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("elements", [4 * 20 * 20 * 7, 2 ** 18, 2 ** 22])
def test_multi_chunk_full_energies_keep_every_bit(monkeypatch, elements):
    # 820 self pairs and 1200 cross pairs at D = 20, in chunks of 7, 163 and
    # all pairs: each pair's integral does not depend on the chunk it falls
    # in, and the terms are summed exactly, so the bits do not move with the
    # chunk boundaries. The covariances are diagonally dominant and built
    # elementwise, since a matrix product's last bits depend on the BLAS
    # kernel
    monkeypatch.setattr(gaussian_l2, "_BLOCK_ELEMENTS", elements)
    rng = np.random.default_rng(40)
    n, m, dim = 40, 30, 20
    x, y = PointCloud(rng.normal(size=(n, dim))), PointCloud(rng.normal(size=(m, dim)) + 0.3)
    cx, cy = ((u + u.transpose(0, 2, 1)) / (2 * dim) + 1.5 * np.eye(dim)
              for u in (rng.uniform(-1.0, 1.0, (k, dim, dim)) for k in (n, m)))
    fa, fb = SmoothedSample(x, list(cx)), SmoothedSample(y, list(cy))
    shift = 0.5 * dim * math.log(4 * math.pi)
    assert float(gaussian_l2._energy(fa, fa, shift)).hex() == "0x1.161791ca5f7e2p-11"
    assert float(gaussian_l2._energy(fa, fb, shift)).hex() == "0x1.1a07969cedeb5p-14"


@pytest.mark.parametrize("per_chunk", [1, 7])
def test_multi_chunk_full_energies_reuse_one_sum_stack(monkeypatch, per_chunk):
    # every chunk of one energy forms its covariance sums in the stack the
    # energy allocated for its first chunk, so no (chunk, D, D) stack but
    # the Cholesky factor is allocated per chunk
    dim = 3
    monkeypatch.setattr(gaussian_l2, "_BLOCK_ELEMENTS", 4 * dim * dim * per_chunk)
    stacks = []
    real = gaussian_l2._log_pair_integral

    def recording(diff, cov_sum):
        stacks.append(cov_sum)
        return real(diff, cov_sum)

    monkeypatch.setattr(gaussian_l2, "_log_pair_integral", recording)
    rng = np.random.default_rng(per_chunk)
    a, b = (SmoothedSample(PointCloud(rng.normal(size=(k, dim))),
                           [rand_spd(dim, rng) for _ in range(k)]) for k in (6, 5))
    for u, v in ((a, a), (a, b)):
        stacks.clear()
        gaussian_l2._energy(u, v)
        assert len(stacks) > 2
        assert all(np.shares_memory(stack, stacks[0]) for stack in stacks[1:])


def test_pair_stack_with_one_indefinite_sum_is_rejected():
    cov_sum = np.stack([2.0 * np.eye(3)] * 4)
    cov_sum[2] = -0.5 * np.eye(3)
    with pytest.raises(ValueError, match="matrix is not positive-definite"):
        gaussian_l2._log_pair_integral(np.zeros((4, 3)), cov_sum)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# traced bytes of one energy call: a piece's working set is 2 MB, and the
# rest is per-point arrays and the interpreter's own allocations
ENERGY_PEAK = 3_000_000


def test_blocked_energies_stay_small_at_n2000():
    # one 2000 x 2000 float matrix is 32 MB; the two row-block buffers hold
    # 2 MB together
    rng = np.random.default_rng(9)
    x = PointCloud(rng.standard_normal((2000, 20)))
    y = PointCloud(rng.standard_normal((2000, 20)))
    widths = rng.uniform(0.5, 1.5, 2000)
    for call in (lambda: l2_distance_to_standard_gaussian(x, widths, scaled=True),
                 lambda: l2_distance_samples_isotropic(x, y, 1.0)):
        assert _traced_peak(call) < ENERGY_PEAK


def test_full_covariance_energies_stay_small_at_n600():
    # 180,300 self pairs and 360,000 cross pairs at D = 3 in chunks of
    # 7,281: the energy's two sum stacks and a chunk's Cholesky factor hold
    # 1.5 MB, and no index, coefficient or term list grows with the pair
    # count (an array of 360,000 floats alone is 2.9 MB)
    rng = np.random.default_rng(600)
    n, dim = 600, 3
    x, y = PointCloud(rng.normal(size=(n, dim))), PointCloud(rng.normal(size=(n, dim)))
    cx, cy = ([c @ c.T / dim + np.eye(dim) for c in rng.normal(size=(n, dim, dim))]
              for _ in range(2))
    a, b = SmoothedSample(x, cx), SmoothedSample(y, cy)
    for call in (lambda: gaussian_l2._energy(a, a), lambda: gaussian_l2._energy(a, b),
                 lambda: l2_distance_to_standard_gaussian(x, cx)):
        assert _traced_peak(call) < ENERGY_PEAK


@pytest.mark.parametrize("n, block", [(1, 8), (7, 8), (40, 8), (43, 8), (43, 1), (2000, None)])
def test_self_energies_take_one_triangle_of_blocks(monkeypatch, n, block):
    # blocks of _BLOCK_ELEMENTS // (2 n) rows, two buffers each; a cloud
    # against itself takes row block [s, e) against the columns [s, n) only:
    # at most n(n + block)/2 kernel entries, not n^2; a cloud against another
    # takes all n m
    if block is not None:
        monkeypatch.setattr(gaussian_l2, "_BLOCK_ELEMENTS", 2 * block * n)
    block = gaussian_l2._BLOCK_ELEMENTS // (2 * n)
    entries = []
    real = gaussian_l2._sq_dists

    def counting(a, b, **buffers):
        entries.append(len(a) * len(b))
        return real(a, b, **buffers)

    monkeypatch.setattr(gaussian_l2, "_sq_dists", counting)
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=(n, 3)), rng.normal(size=(5, 3))
    a = SmoothedSample(PointCloud(x), rng.uniform(0.5, 1.5, n))
    for self_energy in (lambda: gaussian_l2._energy(a, a),
                        lambda: gaussian_l2._mean_exp_kernel(x, x, 2.0)):
        entries.clear()
        self_energy()
        assert len(entries) == -(-n // block)
        assert sum(entries) <= n * (n + block) // 2
    entries.clear()
    gaussian_l2._mean_exp_kernel(x, y, 2.0)
    assert sum(entries) == 5 * n


def test_covariances_must_fit_the_cloud():
    cloud = PointCloud(np.zeros((4, 5)))
    with pytest.raises(ValueError, match=r"covariance 0 has shape \(3, 3\).*\(5, 5\)"):
        SmoothedSample(cloud, [np.eye(3)] * 4)
    with pytest.raises(ValueError, match=r"covariance 3 has shape \(4, 4\).*\(5, 5\)"):
        SmoothedSample(cloud, [np.eye(5)] * 3 + [np.eye(4)])


def test_smoothed_sample_weight_validation():
    pts = PointCloud(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        SmoothedSample(pts, np.array([1.0]))
    with pytest.raises(ValueError):
        SmoothedSample(pts, np.array([1.0, -0.2]))


NAN = float("nan")
NAN_CLOUD = PointCloud(np.arange(6.0).reshape(3, 2))


@pytest.mark.parametrize("call", [
    lambda: mean_field_sigma(NAN, 20),
    lambda: l2_distance_samples_isotropic(NAN_CLOUD, NAN_CLOUD, NAN),
    lambda: l2_distance_to_standard_gaussian(NAN_CLOUD, [1.0, NAN, 1.0]),
    lambda: gaussian_product_integral(np.zeros(2), np.full((2, 2), NAN), np.eye(2)),
    lambda: gaussian_product_integral(np.zeros(2), np.eye(2), [[1.0, 0.0], [0.0, np.inf]]),
], ids=["mean_field_radius", "isotropic_sigma", "spherical_bandwidth", "nan_covariance",
        "inf_covariance"])
def test_nan_inputs_fail_the_domain_checks(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: mean_field_sigma(1.0, 0), ValueError),
    (lambda: mean_field_sigma(1.0, -3), ValueError),
    (lambda: mean_field_sigma(1.0, 2.5), ValueError),
    (lambda: mean_field_sigma(math.inf, 20), ValueError),
    (lambda: mean_field_sigma(-1.0, 20), ValueError),
    (lambda: mean_field_objective(1.0, 1.0, 0), ValueError),
    (lambda: mean_field_objective(1.0, 1.0, 20.0), ValueError),
    (lambda: mean_field_objective(math.inf, 1.0, 20), ValueError),
    (lambda: mean_field_objective(-math.inf, 1.0, 20), ValueError),
    (lambda: mean_field_objective(1.0, NAN, 20), ValueError),
    (lambda: mean_field_objective(1.0, 0.0, 20), ValueError),
    # the search bracket and width are fixed: tol=0 looped forever, and a
    # reversed or NaN bracket returned a value outside [0.25, 8] or nan
    (lambda: mean_field_sigma(1.0, 20, tol=0.0), TypeError),
    (lambda: mean_field_sigma(1.0, 20, lo=8.0, hi=0.25), TypeError),
], ids=["sigma_dim0", "sigma_dim_negative", "sigma_dim_fraction", "sigma_r_inf",
        "sigma_r_negative", "objective_dim0", "objective_dim_float", "objective_r_inf",
        "objective_r_minus_inf", "objective_sigma_nan", "objective_sigma0", "tol", "bracket"])
def test_mean_field_rejects_bad_inputs(call, error):
    with pytest.raises(error):
        call()


def test_mean_field_sigma_at_origin():
    for dim in (2, 5, 20, 50):
        assert mean_field_sigma(0.0, dim) == pytest.approx(1.0, abs=1e-6)


def test_mean_field_sigma_quadratic_rule():
    # 1 + r^2/(2 D) approximation; loose tolerance, the rule is approximate
    r = math.sqrt(20)
    assert mean_field_sigma(r, 20) == pytest.approx(1.5, rel=0.15)


def test_mean_field_sigma_is_local_minimum():
    for r in (0.0, 2.0, 6.0):
        s = mean_field_sigma(r, 20)
        f0 = mean_field_objective(r, s, 20)
        assert f0 <= mean_field_objective(r, s * 1.001, 20)
        assert f0 <= mean_field_objective(r, s * 0.999, 20)


@pytest.mark.parametrize("r, sigma, dim, expected", [
    (1.0, 0.5, 600, 7.162063904737939e-150),  # (4 pi)^{-D/2} alone is subnormal
    (0.0, 0.3, 1000, 1.878508953136509e-27),  # s^{-D} alone overflows
])
def test_mean_field_objective_at_high_dim(r, sigma, dim, expected):
    # the self term dominates; the other two are below 1e-260
    s2 = sigma * sigma
    assert expected == pytest.approx(math.exp(-0.5 * dim * math.log(4.0 * math.pi * s2)),
                                     rel=1e-12)
    assert mean_field_objective(r, sigma, dim) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r, dim", [(10.0, 600), (60.0, 600), (60.0, 1000)])
def test_mean_field_sigma_matches_grid_minimum_at_high_dim(r, dim):
    # brute force over sigma in [0.9, 8] on the two sigma-dependent terms,
    # divided by the cross term's largest value on the grid so that they
    # are of order 1 near the minimum
    grid = np.linspace(0.9, 8.0, 200_001)
    s2 = grid * grid
    log_self = -dim * np.log(grid)
    log_cross = math.log(2.0) - 0.5 * r * r / (1.0 + s2) \
        + 0.5 * dim * (math.log(2.0) - np.log1p(s2))
    shift = log_cross.max()
    with np.errstate(over="ignore"):
        best = grid[np.argmin(np.exp(log_self - shift) - np.exp(log_cross - shift))]
    assert mean_field_sigma(r, dim) == pytest.approx(best, abs=1e-3)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_mean_field_objective_three_term_formula(dim):
    # away from r = 0, sigma = 1, where the three terms cancel to 0
    for r, sigma in ((0.0, 0.5), (1.3, 0.6), (2.5, 1.7)):
        s2 = sigma * sigma
        expected = (4.0 * math.pi * s2) ** (-dim / 2) + (4.0 * math.pi) ** (-dim / 2) \
            - 2.0 * math.exp(-r * r / (2.0 * (1.0 + s2))) \
            / math.sqrt(2.0 * math.pi * (1.0 + s2)) ** dim
        assert mean_field_objective(r, sigma, dim) == pytest.approx(expected, rel=1e-12, abs=0.0)


def _mean_field_psi(r, sigma, dim):
    # the stationarity condition of the mean-field mismatch, log(-S') -
    # log(-C') for its self term S and cross term C, and its rounding level
    # (the ulps of its terms, the cancellation in D u - r^2, and one ulp of
    # sigma times its slope)
    u = 1.0 + sigma * sigma
    gap = dim * u - r * r
    terms = [-(dim + 2) * math.log(sigma), (dim / 2 + 2) * math.log(u), r * r / (2 * u),
             -math.log(gap), math.log(dim) - (dim / 2 + 1) * math.log(2.0)]
    slope = -(dim + 2) / sigma + (dim + 4) * sigma / u - r * r * sigma / u ** 2 \
        - 2 * dim * sigma / gap
    level = 2.0 ** -52 * (sum(map(abs, terms)) + (dim * u + r * r) / gap
                          + sigma * abs(slope))
    return math.fsum(terms), level


def _mean_field_psi_reference(r2, sigma, dim):
    # the solver's psi written as one tuple of its five terms, the sigma-free
    # log D - (D/2+1) log 2 among them, each sum the builtin sum over that
    # tuple: the solver's own psi must give the same bits in every Python
    u = 1.0 + sigma * sigma
    gap = dim * u - r2
    if gap <= 0.0:
        return math.inf, 0.0, 0.0
    terms = (-(dim + 2) * math.log(sigma), (0.5 * dim + 2.0) * math.log(u), 0.5 * r2 / u,
             -math.log(gap), math.log(dim) - (0.5 * dim + 1.0) * math.log(2.0))
    slope = -(dim + 2) / sigma + (dim + 4) * sigma / u - r2 * sigma / (u * u) \
        - 2.0 * dim * sigma / gap
    level = 2.0 ** -52 * (sum(map(abs, terms)) + (dim * u + r2) / gap)
    return sum(terms), slope, level


@pytest.mark.parametrize("dim", [1, 2, 5, 20, 100, 1000])
def test_mean_field_sigma_keeps_the_bits_of_the_reference_psi(monkeypatch, dim):
    radii = [float(r) for r in np.linspace(0.0, 3.0 * math.sqrt(dim) + 5.0, 401)]
    got = [mean_field_sigma(r, dim).hex() for r in radii]
    monkeypatch.setattr(gaussian_l2, "_mean_field_psi",
                        lambda r2, sigma, dim, *offset: _mean_field_psi_reference(r2, sigma, dim))
    assert got == [mean_field_sigma(r, dim).hex() for r in radii]


@pytest.mark.parametrize("r, dim", [(0.0, 20), (0.123, 20), (2.0, 20), (1.0, 1), (5.0, 5)])
def test_mean_field_sigma_matches_an_mpmath_minimizer(r, dim):
    # the stationary point of the two sigma-dependent terms at 50 digits:
    # bisection on mpmath's own numerical derivative, which changes sign
    # once on [0.5, 4]
    with mpmath.workdps(50):
        rr = mpmath.mpf(r)

        def mismatch(s):
            u = 1 + s * s
            return s ** -dim - 2 * (2 / u) ** (mpmath.mpf(dim) / 2) * mpmath.exp(-rr * rr / (2 * u))

        best = mpmath.findroot(lambda s: mpmath.diff(mismatch, s),
                               (mpmath.mpf(0.5), mpmath.mpf(4)), solver="bisect")
    assert mean_field_sigma(r, dim) == pytest.approx(float(best), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 5, 20, 50, 600, 1000])
def test_mean_field_sigma_solves_the_stationarity_condition(dim):
    # each width is an end of the bracket [max(0.25, sqrt(r^2/D - 1)), 8]
    # or a root of psi to its rounding level
    for r in np.linspace(0.0, 3.0 * math.sqrt(dim) + 5.0, 101):
        r = float(r)
        sigma = mean_field_sigma(r, dim)
        if sigma in (0.25, 8.0):
            continue
        assert sigma > math.sqrt(max(r * r / dim - 1.0, 0.0))
        psi, level = _mean_field_psi(r, sigma, dim)
        assert abs(psi) <= level


def test_mean_field_sigma_stops_at_the_bracket_end():
    # at D = 1, r = 10 the mismatch still falls at sigma = 8
    assert mean_field_sigma(10.0, 1) == 8.0
    assert mean_field_objective(10.0, 8.0, 1) < mean_field_objective(10.0, 7.99, 1)
