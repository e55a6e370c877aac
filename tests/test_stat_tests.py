import math

import numpy as np
import pytest

from latentreg import calibration
from latentreg.cdf_attract import build_target_quantiles, cdf_objective, chi2_quantile_table, cloud_stats
from latentreg.sampling import PointCloud, Rng, sample_standard_normal, sample_unit_directions
from latentreg.specfun import ChiSquare, chi2_cdf, chi2_inv_cdf, normal_cdf
from latentreg.stat_tests import (
    BATTERY_TESTS,
    NORMAL_LAW,
    Judged,
    _chi2_law,
    battery_bands,
    judge,
    ks_statistic,
    ks_statistic_two_sample,
    pairwise_angles,
    pairwise_scalar_products,
    projections,
    reference_battery,
)


def battery(x, reference, dirs_rng=None, num_dirs=10):
    """KS distances of the battery with directions from dirs_rng (default
    Rng(3)) and the reference cloud's sorted pair statistics."""
    dirs = sample_unit_directions(dirs_rng or Rng(3), num_dirs, x.dim)
    ref_values = {"scalar_products": np.sort(pairwise_scalar_products(reference)),
                  "angles": np.sort(pairwise_angles(reference))}
    return {test: judged.ks for test, judged in judge(x, (dirs, ref_values)).items()}


def _chi2_judged(sorted_values, dim):
    law = _chi2_law(dim)
    return Judged(sorted_values, ks_statistic(sorted_values, law.cdf), law)


def test_edf_vs_cdf_exact_quantiles():
    for n in (4, 50):
        judged = _chi2_judged(chi2_quantile_table(n, 5), 5)
        assert judged.ks == pytest.approx(0.5 / n, abs=1e-12)
        assert judged.l1_area() == pytest.approx(0.0, abs=1e-12)


def test_edf_vs_cdf_single_median_point():
    dist = ChiSquare(7)
    median = chi2_inv_cdf(dist, 0.5)
    assert ks_statistic(np.array([median]), lambda t: chi2_cdf(dist, t)) \
        == pytest.approx(0.5, abs=1e-10)
    judged = _chi2_judged(np.array([median]), 7)
    assert judged.ks == pytest.approx(0.5, abs=1e-10)
    assert judged.l1_area() == pytest.approx(0.0, abs=1e-12)


def test_edf_vs_cdf_rejects_empty():
    with pytest.raises(ValueError):
        ks_statistic(np.array([]), lambda t: t)


def test_ks_seeded_chi2_samples_within_critical_value():
    # i.i.d. radii: asymptotic 5% critical value 1.358/sqrt(n)
    n, dim = 200, 20
    dist = ChiSquare(dim)
    passes = 0
    for trial in range(100):
        cloud = sample_standard_normal(Rng(830_000 + trial), n, dim)
        ks = ks_statistic(np.sort((cloud.data ** 2).sum(1)), lambda t: chi2_cdf(dist, t))
        passes += ks < 1.358 / math.sqrt(n)
    assert passes >= 90


def test_radii_and_distance_tests_on_prior_samples():
    # distances are dependent, so their threshold is the Monte Carlo band
    radii_pass = dist_pass = 0
    for trial in range(60):
        judged = judge(sample_standard_normal(Rng(840_000 + trial), 200, 20))
        radii_pass += judged["radii"].ks < 1.358 / math.sqrt(200)
        dist_pass += judged["distances"].ks < calibration.DISTANCE_KS_Q95
    assert radii_pass >= 54
    assert dist_pass >= 54


def test_radii_test_detects_shrunk_cloud():
    cloud = sample_standard_normal(Rng(7), 200, 20)
    assert judge(PointCloud(0.5 * cloud.data))["radii"].ks >= 0.4


def test_radii_test_points_at_median():
    # the judge needs a pair for its distances: two antipodal points, both
    # at the median squared radius, give the one-point KS distance 1/2
    x = np.zeros((2, 20))
    x[:, 0] = math.sqrt(chi2_inv_cdf(ChiSquare(20), 0.5)) * np.array([1.0, -1.0])
    assert judge(PointCloud(x))["radii"].ks == pytest.approx(0.5, abs=1e-9)


def test_distance_test_needs_two_points():
    with pytest.raises(ValueError):
        judge(PointCloud(np.zeros((1, 3))))


def test_judge_is_the_reports_on_sorted_values():
    # the judge's KS distances and areas are the primitives' on the sorted
    # statistics, bit for bit, and every array it returns is sorted
    cloud = sample_standard_normal(Rng(61), 40, 6)
    judged = judge(cloud)
    for stat, values in cloud_stats(cloud)._asdict().items():
        ordered = np.sort(values)
        table = chi2_quantile_table(ordered.shape[0], 6)
        assert judged[stat].ks == ks_statistic(ordered, lambda t: chi2_cdf(ChiSquare(6), t))
        assert judged[stat].l1_area() == float(np.mean(np.abs(ordered - table)))
        assert judged[stat].values.tobytes() == ordered.tobytes()
        assert judged[stat].target is judged["radii"].target
    dirs, ref_values = reference_battery(62, 40, 6)
    battery_judged = judge(cloud, (dirs, ref_values))
    assert tuple(battery_judged) == BATTERY_TESTS
    assert battery_judged["projections"].ks == \
        ks_statistic(np.sort(projections(cloud, dirs)), normal_cdf)
    assert battery_judged["projections"].target is NORMAL_LAW
    for test, stat in (("scalar_products", pairwise_scalar_products), ("angles", pairwise_angles)):
        assert battery_judged[test].ks == ks_statistic_two_sample(np.sort(stat(cloud)), ref_values[test])
        assert battery_judged[test].target is ref_values[test]
    for values in [j.values for j in (*judged.values(), *battery_judged.values())] + \
            [ref_values[test] for test in BATTERY_TESTS[1:]]:
        assert np.all(values[1:] >= values[:-1])


@pytest.mark.parametrize("n, dim", [(2, 1), (9, 3), (60, 20), (200, 20)])
def test_judged_areas_sum_to_the_attraction_objective(n, dim):
    # the radii and distance areas of fig1's summary are the two terms of
    # cdf_objective, the quantity ATTRACT_STOP_TOLERANCE bounds, bit for bit
    cloud = sample_standard_normal(Rng(70 + n), n, dim)
    judged = judge(cloud)
    area = judged["radii"].l1_area() + judged["distances"].l1_area()
    assert area.hex() == cdf_objective(cloud, build_target_quantiles(n, dim)).hex()


def test_projection_test_all_points_at_origin():
    dirs = sample_unit_directions(Rng(3), 10, 4)
    pooled = projections(PointCloud(np.zeros((50, 4))), dirs)
    assert pooled.shape == (500,)
    assert ks_statistic(pooled, normal_cdf) == 0.5


def test_projection_test_prior_cloud_within_band():
    cloud = sample_standard_normal(Rng(55), 200, 20)
    reference = sample_standard_normal(Rng(55).derive(2), 200, 20)
    ks = battery(cloud, reference, Rng(55).derive(3))
    assert ks["projections"] <= calibration.PROJECTION_KS_Q95


def test_projection_rotation_invariance_in_law():
    cloud = sample_standard_normal(Rng(17), 100, 5)
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 5)))
    rotated = PointCloud(cloud.data @ q.T)
    stats_base, stats_rot = [], []
    for s in range(100):
        dirs = sample_unit_directions(Rng(10_000 + s), 10, 5)
        stats_base.append(ks_statistic(np.sort(projections(cloud, dirs)), normal_cdf))
        stats_rot.append(ks_statistic(np.sort(projections(rotated, dirs)), normal_cdf))
    lo_b, hi_b = np.quantile(stats_base, [0.25, 0.75])
    lo_r, hi_r = np.quantile(stats_rot, [0.25, 0.75])
    assert max(lo_b, lo_r) <= min(hi_b, hi_r)  # overlapping IQRs


def test_two_sample_ks_basic():
    a = np.array([1.0, 2.0, 3.0])
    assert ks_statistic_two_sample(a, a) == 0.0
    assert ks_statistic_two_sample(np.array([0.0, 1.0]), np.array([5.0, 6.0])) == 1.0
    for empty in ((np.array([]), a), (a, np.array([]))):
        with pytest.raises(ValueError, match="at least one value"):
            ks_statistic_two_sample(*empty)


def test_scalar_product_test_identity_and_scale():
    ref = sample_standard_normal(Rng(66), 200, 20)
    assert battery(ref, ref)["scalar_products"] == 0.0
    # doubling the cloud scales products 4x; measured statistic ~0.29 across
    # seeds, an order of magnitude beyond the null band
    doubled = PointCloud(2.0 * ref.data)
    stat = battery(doubled, ref)["scalar_products"]
    assert stat > 0.25
    assert stat > 10 * calibration.SCALAR_KS2_Q95


def test_scalar_product_test_independent_priors_within_band():
    passes = 0
    for trial in range(20):
        rng = Rng(850_000 + trial)
        a = sample_standard_normal(rng, 200, 20)
        b = sample_standard_normal(rng.derive(2), 200, 20)
        passes += battery(a, b)["scalar_products"] <= calibration.SCALAR_KS2_Q95
    assert passes >= 17


def test_angle_test_identity_and_degenerate_ray():
    ref = sample_standard_normal(Rng(77), 100, 20)
    assert battery(ref, ref)["angles"] == 0.0
    ray = PointCloud(np.outer(np.linspace(1, 2, 50), np.ones(20)))
    assert battery(ray, ref)["angles"] > 0.9


def test_angle_test_cross_in_2d_is_near_uniform():
    cross = PointCloud(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
    ref = sample_standard_normal(Rng(88), 4, 2)
    stat = battery(cross, ref)["angles"]
    # Monte Carlo null band for 4-point clouds in D=2
    null = []
    for trial in range(300):
        rng = Rng(860_000 + trial)
        a = sample_standard_normal(rng, 4, 2)
        b = sample_standard_normal(rng.derive(2), 4, 2)
        null.append(ks_statistic_two_sample(np.sort(pairwise_angles(a)), np.sort(pairwise_angles(b))))
    assert stat <= np.quantile(null, 0.95)


def test_angle_test_skips_zero_vectors_with_warning():
    data = np.vstack([np.zeros((1, 3)), np.random.default_rng(5).normal(size=(5, 3))])
    with pytest.warns(UserWarning, match="zero vector"):
        angles = pairwise_angles(PointCloud(data))
    assert angles.shape[0] == 5 * 4 // 2


def test_angle_test_all_zero_cloud_errors():
    ref = sample_standard_normal(Rng(9), 5, 3)
    with pytest.raises(ValueError), pytest.warns(UserWarning):
        battery(PointCloud(np.zeros((4, 3))), ref)
    one_nonzero = np.vstack([np.zeros((3, 3)), [[1.0, 2.0, 3.0]]])
    with pytest.raises(ValueError, match="at least 2 nonzero"), pytest.warns(UserWarning):
        pairwise_angles(PointCloud(one_nonzero))


@pytest.mark.parametrize("n, dim", [(2, 1), (7, 3), (60, 20)])
def test_pairwise_statistics_are_the_gram_upper_triangle(n, dim):
    # the flat-index gather reads the same elements as gram[triu_indices],
    # in the same row-wise pair order, so the values agree bit for bit; a
    # zero vector is skipped before the angle Gram matrix is built
    data = np.random.default_rng(100 * n + dim).normal(size=(n + 1, dim))
    data[n // 2] = 0.0
    gram = data @ data.T
    iu, ju = np.triu_indices(n + 1, 1)
    assert pairwise_scalar_products(PointCloud(data)).tobytes() == gram[iu, ju].tobytes()
    kept = np.delete(data, n // 2, axis=0)
    unit = kept / np.linalg.norm(kept, axis=1)[:, None]
    cosines = np.clip(unit @ unit.T, -1.0, 1.0)[np.triu_indices(n, 1)]
    with pytest.warns(UserWarning, match="skipping 1 zero vector"):
        angles = pairwise_angles(PointCloud(data))
    assert angles.tobytes() == np.arccos(cosines).tobytes()


def test_edf_invariant_under_monotone_reparameterization():
    dist = ChiSquare(6)
    values = sample_standard_normal(Rng(31), 120, 6)
    radii = np.sort((values.data ** 2).sum(1))
    base = ks_statistic(radii, lambda t: chi2_cdf(dist, t))
    cubed = ks_statistic(radii ** 3, lambda t: chi2_cdf(dist, np.cbrt(t)))
    assert cubed == pytest.approx(base, abs=1e-13)


def test_reports_are_deterministic():
    cloud = sample_standard_normal(Rng(41), 80, 10)
    reference = sample_standard_normal(Rng(43), 80, 10)
    a = battery(cloud, reference, Rng(42), 7)
    b = battery(cloud, reference, Rng(42), 7)
    assert tuple(a) == BATTERY_TESTS
    assert a == b


def test_battery_bands_only_at_the_calibrated_scale():
    n, dim = calibration.N, calibration.DIM
    assert battery_bands(n, dim) == {
        "projections": calibration.PROJECTION_KS_Q95,
        "scalar_products": calibration.SCALAR_KS2_Q95,
        "angles": calibration.ANGLE_KS2_Q95}
    for off_scale in ((n + 1, dim), (n, dim - 1), (100, 20), (16, 3)):
        assert battery_bands(*off_scale) == dict.fromkeys(BATTERY_TESTS)
