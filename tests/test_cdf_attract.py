import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentreg.cdf_attract import (
    MAX_BITS,
    CoordinateTarget,
    TargetQuantiles,
    build_target_quantiles,
    cdf_objective,
    cloud_stats,
    coordinate_step,
    coordinate_targets,
    gradient_from_residuals,
    midpoint_probs,
    residual_bundle,
    value_terms,
)
from latentreg import cdf_attract
from latentreg.sampling import PointCloud, Rng, sample_uniform_cube
from latentreg.specfun import normal_inv_cdf

RNG = np.random.default_rng(2718)


def gradient(cloud, targets):
    return gradient_from_residuals(cloud, residual_bundle(cloud_stats(cloud), targets))


def perfect_targets(cloud):
    return TargetQuantiles(*map(np.sort, cloud_stats(cloud)))


def well_separated_cloud(n, dim, targets):
    """Cloud whose stats sit clearly away from the target quantiles, so tiny
    finite-difference steps cannot flip any sort rank or residual sign."""
    while True:
        cloud = PointCloud(RNG.normal(size=(n, dim)) * 1.6)
        radii, dists = map(np.sort, cloud_stats(cloud))
        gap = min(np.abs(radii - targets.radii).min(),
                  np.abs(dists - targets.distances).min(),
                  np.diff(radii).min(),
                  np.diff(dists).min())
        if gap > 1e-4:
            return cloud


def test_target_tables_closed_form_n2():
    t = build_target_quantiles(2, 2)
    # chi-squared(2) CDF is 1 - e^{-x/2}: quartiles at 2 ln(4/3) and 2 ln 4
    assert t.radii == pytest.approx([2 * math.log(4 / 3), 2 * math.log(4.0)], rel=1e-12)
    assert t.distances.shape == (1,)


def test_target_tables_sizes_and_monotonicity():
    t = build_target_quantiles(200, 20)
    assert t.n == 200
    assert t.distances.shape == (19900,)
    assert np.all(np.diff(t.radii) > 0)
    assert np.all(np.diff(t.distances) > 0)


def test_target_tables_require_two_points():
    with pytest.raises(ValueError):
        build_target_quantiles(1, 5)


def test_target_tables_reject_nonmonotone():
    with pytest.raises(ValueError):
        TargetQuantiles(np.array([1.0, 1.0]), np.array([2.0]))


def test_radii_and_distances_tiny_example():
    x = PointCloud(np.array([[0.0, 0.0], [2.0, 0.0]]))
    radii, dists = cloud_stats(x)
    assert radii == pytest.approx([0.0, 4.0])
    assert dists == pytest.approx([2.0])
    # small integer coordinates make every product and sum exact, so each
    # distance is exact, in the row-wise pair order (0,1), (0,2), ..., and
    # duplicate points give +0.0, with no sign bit
    data = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.0, 0.0], [0.0, 0.0], [3.0, -1.0]])
    n = data.shape[0]
    dists = cloud_stats(PointCloud(data)).distances
    assert dists.tolist() == [0.5 * float(((data[i] - data[j]) ** 2).sum())
                              for i in range(n) for j in range(i + 1, n)]
    assert [k for k, d in enumerate(dists) if d == 0.0] == [3, 6]  # pairs (0,4) and (1,3)
    assert not np.any(np.signbit(dists))


def test_stable_tie_breaking_on_collinear_points():
    # equally spaced collinear points give duplicate pair distances
    x = PointCloud(np.array([[0.0], [1.0], [2.0]]))
    stats, targets = cloud_stats(x), build_target_quantiles(3, 1)
    assert stats.distances == pytest.approx([0.5, 2.0, 0.5])
    # ties resolved by pair enumeration index: (0,1) takes rank 0, (1,2)
    # rank 1, and (0,2) rank 2
    table = targets.distances
    assert residual_bundle(stats, targets).distances.tolist() == \
        [0.5 - table[0], 2.0 - table[2], 0.5 - table[1]]


def test_radii_and_distances_match_brute_force():
    # cloud_stats' stated bound: 2 (D + 2) eps (|x_i| + |x_j|)^2 from brute
    # force, which differences the points before squaring. The last half of
    # the rows repeats the first: at offset 1e3 cancellation takes some of
    # those zero distances below 0, where the clamp has to act
    n, eps = 24, np.finfo(float).eps
    iu, ju = np.triu_indices(n, 1)
    for dim in (1, 4, 20, 1000):
        for offset in (0.0, 1e3):
            data = offset + np.random.default_rng(dim).normal(size=(n, dim))
            data[n // 2:] = data[:n // 2]
            radii, dists = cloud_stats(PointCloud(data))
            norms = np.linalg.norm(data, axis=1)
            bound = 2 * (dim + 2) * eps * (norms[iu] + norms[ju]) ** 2
            assert np.all(np.abs(dists - 0.5 * ((data[iu] - data[ju]) ** 2).sum(1)) <= bound)
            assert not np.any(np.signbit(dists))
            assert np.all(np.abs(radii - norms ** 2) <= dim * eps * norms ** 2)


TIE_KINDS = ["random", "duplicated_rows", "collinear", "long_collinear"]


def _tie_cloud(kind, rng):
    n, dim = int(rng.integers(2, 12)), int(rng.integers(1, 5))
    if kind.endswith("collinear"):
        # equally spaced points on an integer line: exact duplicate pair
        # distances. The long kind has more values than numpy sorts by
        # insertion, so a default-kind argsort there breaks ties out of
        # element order
        n = int(rng.integers(20, 40)) if kind == "long_collinear" else max(n, 3)
        return PointCloud(np.arange(n, dtype=np.float64)[:, None]
                          * rng.integers(1, 4, size=dim))
    data = rng.normal(size=(n, dim))
    if kind == "duplicated_rows":
        data[n // 2:] = data[:n - n // 2]
    return PointCloud(data)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(TIE_KINDS))
@settings(max_examples=60, deadline=None)
def test_ranked_residuals_follow_the_stable_sort(seed, kind):
    # ties take ranks in element order, as a stable sort gives them, so each
    # element's residual is its stable-rank entry of np.sort(v) - table
    rng = np.random.default_rng(seed)
    cloud = _tie_cloud(kind, rng)
    stats = cloud_stats(cloud)
    targets = build_target_quantiles(cloud.n, cloud.dim)
    ties = []
    for values, residuals, table in zip(stats, residual_bundle(stats, targets),
                                        (targets.radii, targets.distances)):
        stable = np.argsort(values, kind="stable")
        assert residuals[stable].tobytes() == (np.sort(values) - table).tobytes()
        ties.append(bool(np.any(np.diff(np.sort(values)) == 0.0)))
    assert any(ties) == (kind != "random")


@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from(TIE_KINDS + ["two_points"]))
@settings(max_examples=60, deadline=None)
def test_value_terms_equal_the_ranked_pass_terms(seed, kind):
    # the value sorts with np.sort; the ranked pass's residuals, gathered in
    # rank order, are sorted values minus table and must give the objective
    # the same bits (their mismatch against a zero table)
    rng = np.random.default_rng(seed)
    if kind == "two_points":
        cloud = PointCloud(rng.normal(size=(2, int(rng.integers(1, 5)))))
    else:
        cloud = _tie_cloud(kind, rng)
    targets = build_target_quantiles(cloud.n, cloud.dim)
    stats = cloud_stats(cloud)
    expected = [term.hex() for term in value_terms(stats, targets)]
    ranked = [residuals[np.argsort(values, kind="stable")]
              for values, residuals in zip(stats, residual_bundle(stats, targets))]
    assert [cdf_attract._mismatch(res, 0.0).hex() for res in ranked] == expected
    assert cdf_objective(cloud, targets).hex() == \
        (float.fromhex(expected[0]) + float.fromhex(expected[1])).hex()


def _stable_ranked(values):
    order = np.argsort(values, kind="stable")
    return order, values[order]


def _assert_stable_ranking(values):
    order, ranked = cdf_attract._ranked(values)
    expected_order, expected_ranked = _stable_ranked(values)
    assert order.tolist() == expected_order.tolist()
    assert ranked.tobytes() == expected_ranked.tobytes()


@pytest.mark.parametrize("size", [1, 2, 4_950, 79_800])
def test_packed_ranking_is_the_stable_argsort(size):
    rng = np.random.default_rng(size)
    _assert_stable_ranking(rng.chisquare(20, size=size))
    _assert_stable_ranking(rng.chisquare(20, size=size)[::-1].copy())


def test_packed_ranking_falls_back_on_ties_zeros_and_shared_high_bits(monkeypatch):
    rng = np.random.default_rng(5)
    ties = rng.integers(0, 50, size=4_950).astype(np.float64)
    zeros = np.where(rng.random(64) < 0.5, 0.0, -0.0)
    mixed = np.concatenate((zeros, rng.random(64)))
    rng.shuffle(mixed)
    # values one ulp apart agree above the 13 index bits of a 4,950-entry
    # key, so the packed sort orders them by element index: descending here
    base = np.full(4_950, 7.0).view(np.uint64) + np.arange(4_950, 0, -1, dtype=np.uint64)
    shared_high_bits = base.view(np.float64)
    signed = rng.normal(size=300)
    signed[[3, 50, 120]] = np.nan
    stable_sorts = []
    argsort = np.argsort

    def counted(values, *args, **kwargs):
        stable_sorts.append((kwargs.get("kind"), values.shape[0]))
        return argsort(values, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    for values in (ties, zeros, mixed, shared_high_bits, signed):
        _assert_stable_ranking(values)
    # each _ranked call above falls back to one stable sort, and the
    # reference adds one more
    assert stable_sorts == [("stable", v.shape[0]) for v in
                            (ties, ties, zeros, zeros, mixed, mixed, shared_high_bits,
                             shared_high_bits, signed, signed)]


def test_residual_bundle_equals_the_stable_argsort_pass_at_n400():
    cloud = PointCloud(np.random.default_rng(400).normal(size=(400, 20)))
    stats, targets = cloud_stats(cloud), build_target_quantiles(400, 20)
    for values, residuals, table in zip(stats, residual_bundle(stats, targets),
                                        (targets.radii, targets.distances)):
        order, ranked = _stable_ranked(values)
        expected = np.empty_like(ranked)
        expected[order] = ranked - table
        assert residuals.tobytes() == expected.tobytes()


@pytest.mark.parametrize("size", [1, 2, 4_950, 79_800])
def test_terms_equal_the_np_mean_form(size):
    # _mismatch takes the mean as add.reduce over the count: np.mean's float64
    # arithmetic, so the terms keep their bits
    rng = np.random.default_rng(size)
    values, table = np.sort(rng.normal(scale=3.0, size=size)), np.sort(rng.normal(size=size))
    expected = float(np.mean(np.abs(values - table)))
    assert cdf_attract._mismatch(values, table).hex() == expected.hex()


def test_objective_zero_on_perfect_cloud():
    cloud = PointCloud(RNG.normal(size=(7, 3)))
    targets = perfect_targets(cloud)
    assert cdf_objective(cloud, targets) == 0.0
    assert np.all(gradient(cloud, targets) == 0.0)


def test_objective_two_point_hand_value():
    x = PointCloud(np.array([[1.0], [-2.0]]))
    targets = build_target_quantiles(2, 1)
    radii = sorted([1.0, 4.0])
    dist = 0.5 * 9.0
    expected = 0.5 * (abs(radii[0] - targets.radii[0]) + abs(radii[1] - targets.radii[1])) \
        + abs(dist - targets.distances[0])
    assert cdf_objective(x, targets) == pytest.approx(expected, rel=1e-12)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_objective_permutation_invariant_translation_sensitive(seed):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.normal(size=(8, 3)))
    targets = build_target_quantiles(8, 3)
    base = cdf_objective(cloud, targets)
    perm = rng.permutation(8)
    assert cdf_objective(PointCloud(cloud.data[perm]), targets) == \
        pytest.approx(base, rel=1e-12)
    shifted = cdf_objective(PointCloud(cloud.data + 3.0), targets)
    assert shifted != pytest.approx(base, rel=1e-6)


def test_gradient_directional_finite_difference():
    targets = build_target_quantiles(5, 3)
    cloud = well_separated_cloud(5, 3, targets)
    grad = gradient(cloud, targets)
    h = 1e-7
    for _ in range(4):
        v = RNG.normal(size=cloud.data.shape)
        v /= np.linalg.norm(v)
        up = cdf_objective(PointCloud(cloud.data + h * v), targets)
        down = cdf_objective(PointCloud(cloud.data - h * v), targets)
        fd = (up - down) / (2 * h)
        assert fd == pytest.approx(float((grad * v).sum()), rel=1e-4)


def test_norm_and_table_size_validation():
    # the benchmark's norm="l1" keyword takes no other value
    targets = build_target_quantiles(3, 2)
    cloud = PointCloud(RNG.normal(size=(3, 2)))
    assert cdf_objective(cloud, targets, norm="l1") == cdf_objective(cloud, targets)
    with pytest.raises(ValueError):
        cdf_objective(cloud, targets, norm="l2")
    with pytest.raises(ValueError):
        cdf_objective(cloud, targets, norm="linf")
    with pytest.raises(ValueError):
        cdf_objective(PointCloud(RNG.normal(size=(4, 2))), targets)


def test_attraction_step_alpha_zero_and_perfect_cloud():
    # an attraction step is x - alpha * g, with the objective and g taken
    # from one cloud's statistics
    cloud = PointCloud(RNG.normal(size=(5, 2)))
    targets = build_target_quantiles(5, 2)
    stats = cloud_stats(cloud)
    residuals = residual_bundle(stats, targets)
    assert sum(value_terms(stats, targets)) == cdf_objective(cloud, targets)
    grad = gradient_from_residuals(cloud, residuals)
    assert np.any(grad != 0.0)
    assert np.array_equal(cloud.data - 0.0 * grad, cloud.data)
    perfect = perfect_targets(cloud)
    assert cdf_objective(cloud, perfect) == 0.0
    assert np.array_equal(cloud.data - 5.0 * gradient(cloud, perfect), cloud.data)


def test_single_small_step_improves_objective():
    # line-search halving must find an improving step when the gradient is live
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.normal(size=(8, 4)) * 1.5)
        targets = build_target_quantiles(8, 4)
        base = cdf_objective(cloud, targets)
        grad = gradient(cloud, targets)
        assert np.linalg.norm(grad) > 1e-8
        alpha = 0.5 * base
        improved = False
        for _ in range(20):
            if cdf_objective(PointCloud(cloud.data - alpha * grad), targets) < base:
                improved = True
                break
            alpha *= 0.5
        assert improved


def test_attraction_monotone_over_first_50_steps():
    # alpha proportional to the objective, uniform start at the standard
    # n=200, D=20 scale; spot check of the 95/100-seed property (the full
    # 100-seed sweep was run once while fixing alpha0 = 0.2)
    targets = build_target_quantiles(200, 20)
    for seed in (2000, 2001, 2002, 2003):
        cloud = sample_uniform_cube(Rng(seed), 200, 20, -1.0, 1.0)
        objs = []
        for _ in range(50):
            obj = cdf_objective(cloud, targets)
            cloud = PointCloud(cloud.data - 0.2 * obj * gradient(cloud, targets))
            objs.append(obj)
        assert all(b < a for a, b in zip(objs, objs[1:]))


def test_coordinate_targets_uniform():
    x = PointCloud(RNG.normal(size=(4, 2)))
    ideal = coordinate_targets(x, CoordinateTarget("uniform01"))
    for j in range(2):
        assert sorted(ideal.data[:, j]) == pytest.approx([0.125, 0.375, 0.625, 0.875])


def test_midpoint_probs_match_rank_positions():
    assert midpoint_probs(4).tolist() == [0.125, 0.375, 0.625, 0.875]
    positions = CoordinateTarget("uniform01").rank_positions(37)
    assert np.array_equal(positions, (np.arange(37) + 0.5) / 37)


@pytest.mark.parametrize("kind,bits", [("gaussian", None), ("uniform01", None),
                                       ("torus", None), ("quantized", 2)])
def test_coordinate_targets_match_the_per_point_rank_formula(kind, bits):
    # each point's stable rank r in its coordinate, mapped one by one:
    # (floor(2^bits r / n) + 0.5) / 2^bits for the staircase, else the
    # target quantile at (r + 0.5)/n; ties keep the point order
    n, dim = 301, 4
    data = np.round(RNG.normal(size=(n, dim)), 1)
    target = CoordinateTarget(kind, bits)
    expected = np.empty_like(data)
    for j in range(dim):
        ranks = np.empty(n, dtype=np.int64)
        ranks[np.argsort(data[:, j], kind="stable")] = np.arange(n)
        if kind == "quantized":
            expected[:, j] = (np.floor(2.0 ** bits * ranks / n) + 0.5) / 2.0 ** bits
        else:
            probs = (ranks + 0.5) / n
            expected[:, j] = normal_inv_cdf(probs) if kind == "gaussian" else probs
    assert np.array_equal(coordinate_targets(PointCloud(data), target).data, expected)


def test_coordinate_targets_quantized():
    x = PointCloud(np.array([[0.9], [0.1], [0.5], [0.3]]))
    ideal = coordinate_targets(x, CoordinateTarget("quantized", bits=1))
    # ranks 0..3 map to floor(2 s / 4) staircase: {0.25, 0.25, 0.75, 0.75}
    assert sorted(ideal.data[:, 0]) == pytest.approx([0.25, 0.25, 0.75, 0.75])
    assert ideal.data[:, 0] == pytest.approx([0.75, 0.25, 0.75, 0.25])


def test_coordinate_targets_gaussian_symmetry():
    x = PointCloud(np.array([[0.3], [-5.0], [7.2]]))
    ideal = coordinate_targets(x, CoordinateTarget("gaussian"))
    expected = [normal_inv_cdf(1 / 6), 0.0, normal_inv_cdf(5 / 6)]
    assert ideal.data[:, 0] == pytest.approx([expected[1], expected[0], expected[2]],
                                             abs=1e-12)


def test_coordinate_target_validation():
    # one name per target, the CLI's
    for kind in ("weird", "quantized_uniform", "torus_uniform01"):
        with pytest.raises(ValueError, match="unknown coordinate target"):
            CoordinateTarget(kind)
    with pytest.raises(ValueError):
        CoordinateTarget("quantized")
    with pytest.raises(ValueError):
        CoordinateTarget("uniform01", bits=2)
    # past MAX_BITS the top centre (2^(bits+1) - 1)/2^(bits+1) rounds to 1.0,
    # and 2 ** bits overflows a double from bits = 1024
    for bits in (0, MAX_BITS + 1, 1100):
        with pytest.raises(ValueError):
            CoordinateTarget("quantized", bits=bits)


def test_codeword_centres_are_exact_up_to_max_bits():
    assert MAX_BITS == 52
    n = 8  # 2^bits r / n is exact, so the floor picks codeword 2^bits r // n
    for bits in (1, 20, MAX_BITS):
        positions = CoordinateTarget("quantized", bits=bits).rank_positions(n)
        expected = [Fraction(2 * (2 ** bits * r // n) + 1, 2 ** (bits + 1)) for r in range(n)]
        assert [Fraction(v) for v in positions] == expected, bits
    top = 2 ** (MAX_BITS + 2) - 1  # the top centre at MAX_BITS + 1, times 2^(MAX_BITS + 2)
    assert Fraction(top / 2.0 ** (MAX_BITS + 2)) != Fraction(top, 2 ** (MAX_BITS + 2))


def test_coordinate_step_alpha_one_hits_targets():
    x = PointCloud(RNG.uniform(size=(9, 3)))
    target = CoordinateTarget("uniform01")
    stepped = coordinate_step(x, target, 1.0)
    for j in range(3):
        assert sorted(stepped.data[:, j]) == pytest.approx(
            [(i + 0.5) / 9 for i in range(9)])


def test_coordinate_step_torus_wraps_shorter_arc():
    x = PointCloud(np.array([[0.95], [0.45], [0.25], [0.65]]))
    target = CoordinateTarget("torus")
    stepped = coordinate_step(x, target, 1.0)
    # rank targets are {0.125, 0.375, 0.625, 0.875}; the 0.95 point owns 0.875
    assert stepped.data[:, 0] == pytest.approx([0.875, 0.375, 0.125, 0.625])
    # wraparound: a point at 0.95 moving to target 0.05 goes +0.10, not -0.90
    two = PointCloud(np.array([[0.95], [0.2]]))
    moved = coordinate_step(two, CoordinateTarget("torus"), 1.0)
    # ranks: 0.2 -> 0.25, 0.95 -> 0.75: plain targets, no wrap needed here;
    # force the wrap case directly through a single point
    one = PointCloud(np.array([[0.95], [0.05]]))
    hit = coordinate_step(one, CoordinateTarget("torus"), 1.0)
    assert np.all((0.0 <= hit.data) & (hit.data < 1.0))
    assert np.all((0.0 <= moved.data) & (moved.data < 1.0))


def test_coordinate_step_alpha_validation():
    x = PointCloud(RNG.uniform(size=(3, 1)))
    for alpha in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            coordinate_step(x, CoordinateTarget("uniform01"), alpha)


def test_coordinate_step_lands_on_a_target_one_ulp_away():
    # half of a one-ulp gap rounds back to x, so the step takes the full move
    for target in (CoordinateTarget("quantized", MAX_BITS),
                   CoordinateTarget("torus")):
        ideal = target.rank_positions(4)
        stepped = coordinate_step(PointCloud(np.nextafter(ideal, 0.0)[:, None]), target, 0.5)
        # the torus wrap keeps every one-ulp displacement, in [0, 0.5) too
        assert stepped.data[:, 0].tolist() == ideal.tolist()


def test_coordinate_step_torus_half_displacement_keeps_its_sign():
    # n = 2 torus targets are 0.25 and 0.75, by rank. A point half a turn
    # from its target, either way as short, moves the way its displacement
    # points: 0.25 -> 0.75 forward (+0.5), 0.75 -> 0.25 backward (-0.5)
    target = CoordinateTarget("torus")
    forward = coordinate_step(PointCloud(np.array([[0.125], [0.25]])), target, 0.5)
    assert forward.data[:, 0].tolist() == [0.1875, 0.5]
    backward = coordinate_step(PointCloud(np.array([[0.75], [0.875]])), target, 0.5)
    assert backward.data[:, 0].tolist() == [0.5, 0.8125]


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_coordinate_step_idempotent_at_alpha_one(seed):
    rng = np.random.default_rng(seed)
    x = PointCloud(rng.uniform(size=(7, 2)))  # continuous draws: no ties
    for kind in ("uniform01", "gaussian"):
        target = CoordinateTarget(kind)
        once = coordinate_step(x, target, 1.0)
        twice = coordinate_step(once, target, 1.0)
        assert np.allclose(once.data, twice.data, atol=1e-15)


def _converged_coordinate_attraction(start, target, max_steps=2000):
    x = start
    for _ in range(max_steps):
        x, previous = coordinate_step(x, target, 0.5), x
        if np.array_equal(x.data, previous.data):
            return x
    raise AssertionError(f"{target} did not converge in {max_steps} steps")


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_coordinate_attraction_keeps_every_rank(seed):
    # a coordinate step is monotone in each coordinate, so a converged
    # attraction keeps each coordinate's rank order, and with it the start's
    # copula: exact marginals, but the target's joint law only from an
    # independent start (ROADMAP item 18)
    n, dim = 200, 5
    cube = sample_uniform_cube(Rng(seed), n, dim, -1.0, 1.0)
    mixed = PointCloud(cube.data @ np.random.default_rng(seed).normal(size=(dim, dim)))
    unit = sample_uniform_cube(Rng(seed), n, dim, 0.0, 1.0)
    starts = [("gaussian", cube), ("gaussian", mixed), ("uniform01", unit), ("torus", unit)]
    for kind, start in starts:
        end = _converged_coordinate_attraction(start, CoordinateTarget(kind))
        for j in range(dim):
            assert np.array_equal(np.argsort(end.data[:, j], kind="stable"),
                                  np.argsort(start.data[:, j], kind="stable")), (kind, j)
    # quantized targets tie whole codeword cells, but no pair swaps order
    end = _converged_coordinate_attraction(unit, CoordinateTarget("quantized", bits=3))
    for j in range(dim):
        in_start_order = end.data[np.argsort(unit.data[:, j], kind="stable"), j]
        assert np.all(np.diff(in_start_order) >= 0.0), j
