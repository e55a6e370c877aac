import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentreg.sampling import (
    PointCloud,
    Rng,
    _pair_flat_indices,
    _pair_indices,
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
        ks = ks_statistic((cloud.data ** 2).sum(1), lambda t: chi2_cdf(dist, t))
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
    iu, ju = _pair_indices(5)
    upper, lower = _pair_flat_indices(5)
    assert np.array_equal(upper, iu * 5 + ju)
    assert np.array_equal(lower, ju * 5 + iu)
    for cached in (iu, ju, upper, lower):
        with pytest.raises(ValueError):
            cached[0] = 1
    assert all(np.array_equal(a, b)
               for a, b in zip(_pair_indices(5), np.triu_indices(5, k=1)))


@pytest.mark.parametrize("n, m, dim", [(7, 7, 3), (5, 11, 4), (13, 2, 1), (200, 200, 20)])
def test_sq_dists_buffers_leave_the_values_unchanged(n, m, dim):
    rng = Rng(100 * n + m)
    a = 3.0 * rng.normal(n * dim).reshape(n, dim)
    b = 3.0 * rng.normal(m * dim).reshape(m, dim)
    b[0] = a[0]  # a zero distance, where the clamp acts
    out, gram = np.full((n, m), np.nan), np.full((n, m), np.nan)
    fresh = _sq_dists(a, b)
    assert _sq_dists(a, b, out, gram) is out
    assert out.tobytes() == fresh.tobytes()
    # the Gram expansion as one expression, clamped at 0
    expanded = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * a @ b.T
    assert fresh.tobytes() == np.maximum(expanded, 0.0).tobytes()
    square, square_gram = np.full((n, n), np.nan), np.full((n, n), np.nan)
    assert _sq_dists(a, a, square, square_gram).tobytes() == _sq_dists(a, a).tobytes()
