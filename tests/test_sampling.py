import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentreg import sampling
from latentreg.sampling import (
    PointCloud,
    Rng,
    _pair_flat_indices,
    _sq_dists,
    sample_standard_normal,
    sample_uniform_cube,
    sample_unit_directions,
)
from latentreg.specfun import ChiSquare, chi2_cdf
from latentreg.stat_tests import ks_statistic


def test_same_seed_identical_streams():
    assert np.array_equal(Rng(7).uniform(100), Rng(7).uniform(100))
    assert np.array_equal(Rng(7).normal(101), Rng(7).normal(101))


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniform(32), Rng(2).uniform(32))


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.integers(min_value=1, max_value=17), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_stream_split_determinism(seed, chunks):
    total = sum(chunks)
    whole_u = Rng(seed).uniform(total)
    r = Rng(seed)
    split_u = np.concatenate([r.uniform(c) for c in chunks])
    assert np.array_equal(whole_u, split_u)
    whole_n = Rng(seed).normal(total)
    r = Rng(seed)
    split_n = np.concatenate([r.normal(c) for c in chunks])
    assert np.array_equal(whole_n, split_n)


def test_cloud_block_vs_row_draws():
    n, dim = 13, 5
    whole = sample_standard_normal(Rng(3), n, dim)
    r = Rng(3)
    rows = np.vstack([r.normal(dim) for _ in range(n)])
    assert np.array_equal(whole.data, rows)


def test_standard_normal_mean_square_norm():
    cloud = sample_standard_normal(Rng(11), 200, 20)
    mean_sq = float((cloud.data ** 2).sum(1).mean())
    assert abs(mean_sq - 20.0) <= 3 * math.sqrt(2 * 20 / 200)


def test_standard_normal_single_scalar():
    cloud = sample_standard_normal(Rng(5), 1, 1)
    assert cloud.data.shape == (1, 1)
    assert np.isfinite(cloud.data[0, 0])


def test_uniform_cube_bounds_and_mean():
    cloud = sample_uniform_cube(Rng(4), 500, 8, -1.0, 1.0)
    assert cloud.data.min() >= -1.0 and cloud.data.max() <= 1.0
    cloud01 = sample_uniform_cube(Rng(4), 4000, 2, 0.0, 1.0)
    n = cloud01.n
    assert np.all(np.abs(cloud01.data.mean(0) - 0.5) <= 3 / math.sqrt(12 * n))


def test_uniform_cube_rejects_bad_bounds():
    with pytest.raises(ValueError):
        sample_uniform_cube(Rng(0), 3, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_uniform_cube(Rng(0), 3, 2, 2.0, -2.0)


def test_unit_directions_norms():
    dirs = sample_unit_directions(Rng(9), 64, 7)
    assert np.allclose(np.linalg.norm(dirs.data, axis=1), 1.0, atol=1e-12)


def test_unit_directions_dim1():
    dirs = sample_unit_directions(Rng(2), 40, 1)
    assert set(np.unique(dirs.data)) <= {-1.0, 1.0}


def test_unit_directions_mean_near_zero():
    count = 4000
    dirs = sample_unit_directions(Rng(14), count, 3)
    assert np.linalg.norm(dirs.data.mean(0)) <= 4 / math.sqrt(count)


def test_radii_ks_against_chi2():
    # 99th-percentile critical value 1.628/sqrt(n); dependence-free i.i.d. radii
    n, dim = 100, 20
    dist = ChiSquare(dim)
    passes = 0
    for trial in range(100):
        cloud = sample_standard_normal(Rng(900_000 + trial), n, dim)
        ks = ks_statistic(np.sort((cloud.data ** 2).sum(1)), lambda t: chi2_cdf(dist, t))
        passes += ks < 1.628 / math.sqrt(n)
    assert passes >= 95


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PointCloud(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0.0]]))


def test_point_cloud_csv_round_trip(tmp_path):
    cloud = sample_standard_normal(Rng(21), 17, 4)
    path = tmp_path / "cloud.csv"
    cloud.to_csv(path)
    back = PointCloud.from_csv(path)
    assert np.array_equal(cloud.data, back.data)


def test_point_cloud_csv_is_per_value_formatted(tmp_path):
    # the bytes of formatting each value on its own, with the awkward floats,
    # at D = 1 and across the chunk boundary
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, -2.0, 7.0, 1e16, 2.0 ** 53]
    rng = np.random.default_rng(4)
    path = tmp_path / "cloud.csv"
    for rows in (1, sampling._CSV_ROWS - 1, sampling._CSV_ROWS, 2 * sampling._CSV_ROWS + 1):
        for dim in (1, 3, 20):
            values = np.resize(np.concatenate(
                [special, rng.normal(scale=10.0 ** rng.integers(-300, 300), size=rows * dim)]),
                rows * dim)
            cloud = PointCloud(rng.permutation(values).reshape(rows, dim))
            cloud.to_csv(path)
            expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in cloud.data)
            assert path.read_bytes() == expected.encode(), (rows, dim)


def test_point_cloud_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("\n1.0,2.0\n   \n3.0,4.0\n\n")
    assert np.array_equal(PointCloud.from_csv(path).data, [[1.0, 2.0], [3.0, 4.0]])
    path.write_text("\n \n")
    with pytest.raises(ValueError, match="no data rows"):
        PointCloud.from_csv(path)


def test_point_cloud_csv_line_numbered_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n1.0\n")
    with pytest.raises(ValueError, match=r":2:"):
        PointCloud.from_csv(path)
    path.write_text("1.0,2.0\n3.0,abc\n")
    with pytest.raises(ValueError, match=r":2:"):
        PointCloud.from_csv(path)


def test_derive_streams_are_independent():
    base = Rng(123)
    a = base.derive(1).uniform(16)
    b = base.derive(2).uniform(16)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, Rng(123).derive(1).uniform(16))


def test_pair_index_caches_are_read_only():
    upper, lower = _pair_flat_indices(5)
    iu, ju = np.triu_indices(5, k=1)
    assert np.array_equal(upper, iu * 5 + ju)
    assert np.array_equal(lower, ju * 5 + iu)
    # row-wise pairs (0,1), (0,2), ..., (3,4), and each one's mirror
    assert list(zip(*np.divmod(upper, 5))) == [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert np.array_equal(np.divmod(lower, 5), np.divmod(upper, 5)[::-1])
    for cached in (upper, lower):
        with pytest.raises(ValueError):
            cached[0] = 1


SQ_DISTS_SHAPES = [(7, 7, 3), (5, 11, 4), (13, 2, 1), (200, 200, 20)]


def _sq_dists_inputs(n, m, dim, offset=0.0):
    rng = Rng(100 * n + m)
    a = offset + 3.0 * rng.normal(n * dim).reshape(n, dim)
    b = offset + 3.0 * rng.normal(m * dim).reshape(m, dim)
    b[0] = a[0]  # a zero distance, where the clamp acts
    return a, b


def _brute_force_within_rounding(a, b, got, scale=1.0, shift=0.0):
    # the product sums D + 2 terms whose magnitudes add up to at most
    # |shift| + |scale| (|a_i| + |b_j|)^2, so a rounding bound is 4 (D + 2)
    # eps times that; brute force differences the points before squaring
    want = shift + scale * ((a[:, None] - b[None]) ** 2).sum(-1)
    norms = np.sqrt((a * a).sum(1))[:, None] + np.sqrt((b * b).sum(1))[None, :]
    bound = 4 * (a.shape[1] + 2) * np.finfo(float).eps * (abs(shift) + abs(scale) * norms ** 2)
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("n, m, dim", SQ_DISTS_SHAPES)
def test_sq_dists_buffers_leave_the_values_unchanged(n, m, dim):
    a, b = _sq_dists_inputs(n, m, dim)
    out = np.full((n, m), np.nan)
    fresh = _sq_dists(a, b)
    assert _sq_dists(a, b, out) is out
    assert out.tobytes() == fresh.tobytes()
    _brute_force_within_rounding(a, b, fresh)
    square = np.full((n, n), np.nan)
    assert _sq_dists(a, a, square).tobytes() == _sq_dists(a, a).tobytes()


@pytest.mark.parametrize("n, m, dim", SQ_DISTS_SHAPES)
@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (1.0 / 37.0, 0.0208), (1.0, 40.0),
                                          (-1.0 / 5.12, 0.0), (-0.3, 2.5)])
def test_sq_dists_scaled_and_shifted_match_brute_force(n, m, dim, offset, scale, shift):
    a, b = _sq_dists_inputs(n, m, dim, offset)
    got = _sq_dists(a, b, scale=scale, shift=shift)
    _brute_force_within_rounding(a, b, got, scale, shift)
    out = np.full((n, m), np.nan)
    assert _sq_dists(a, b, out, scale, shift) is out
    assert out.tobytes() == got.tobytes()


@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (0.25, 3.0), (-0.25, 0.0), (-2.0, -1.5)])
def test_sq_dists_clamp_never_crosses_the_shift(scale, shift):
    # a cloud offset by 1e3 against a copy of itself: cancellation moves
    # each zero distance by up to about 1e-8, to either side, so the clamp
    # has to act on the diagonal
    a, _ = _sq_dists_inputs(200, 200, 20, offset=1e3)
    got = _sq_dists(a, a.copy(), scale=scale, shift=shift)
    assert np.all(got >= shift) if scale > 0 else np.all(got <= shift)
    assert np.any(np.diagonal(got) == shift)


# sha256 of Rng(7).normal(n) rounded to float32. The module's constants fix
# the stream, so the size of the batches Rng.normal draws must not change
# these. The last bit of np.log differs between SIMD implementations, and a
# one-ulp change in a double moves its float32 rounding with probability
# about 2^-29, so the digests hold on any machine.
NORMAL_DIGESTS = {
    1: "0bdc5e2b3cb942398cc53f805d81e60199cc1a2c924207979d0f5e137d94f53d",
    2: "5532eeba0efcc4452d9b18066d5055cf30d748ba180f71771f3a0502f9aa3ef2",
    999: "44507e5f03cb8f45633567a7aafa53d0888070dbfb06af87ce61a72b51d147e3",
    1000: "34d85e41c4373fdaa78fb59b0a3ba5e1626659b0ae8395970d27759479ce2d79",
    6000: "171cf7cae653b0ed9cccbae3c78005559d621bf138f7ec505c2476c1670770f7",
    6001: "619fffa121c56a63fb5dbf34421f5ff00032d08273b432f4d06270f3486a2179",
}


def _digest(values):
    return hashlib.sha256(values.astype(np.float32).tobytes()).hexdigest()


@pytest.mark.parametrize("count", sorted(NORMAL_DIGESTS))
def test_normal_streams_are_pinned(count):
    assert _digest(Rng(7).normal(count)) == NORMAL_DIGESTS[count]


def test_normal_stream_is_pinned_across_calls_with_a_carried_spare():
    rng = Rng(7)
    parts = [rng.normal(k) for k in (3, 5, 1, 1000, 2)]  # odd counts leave a spare
    assert _digest(np.concatenate(parts)) == \
        "b1ea688da67970538bfa0e8e26a414bca1c9bb863f20c7e910e23cd3b4495c0d"
    assert rng._spare_normal == pytest.approx(1.2301707771279933, rel=1e-15)
    # the counter stops at the pair that completed the last request; the
    # uniforms after it are exact on any machine
    assert rng._counter == 1284
    assert hashlib.sha256(rng.uniform(8).tobytes()).hexdigest() == \
        "666bf91ea5e9e8bd8be3fc48416ea69d0b3a749c68b5e957d4fe4bb0038b0a75"
