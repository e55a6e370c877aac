import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from latentreg import specfun
from latentreg.cdf_attract import chi2_quantile_table, midpoint_probs
from latentreg.specfun import (
    ChiSquare,
    chi2_cdf,
    chi2_inv_cdf,
    normal_cdf,
    normal_inv_cdf,
)

Q_GRID = [1e-6, 0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1 - 1e-6]
DOF_GRID = [1, 2, 5, 20, 100]


# P(a, x), the regularized lower incomplete gamma function, is
# chi2_cdf(ChiSquare(2a), 2x) bit for bit for half-integer a: halving 2x and
# 2a is exact

def test_reg_lower_gamma_at_zero():
    assert chi2_cdf(ChiSquare(2), 0.0) == 0.0


def test_reg_lower_gamma_exponential_case():
    # P(1, x) = 1 - exp(-x), so P(1, ln 2) = 1/2
    assert chi2_cdf(ChiSquare(2), 2 * math.log(2.0)) == pytest.approx(0.5, abs=1e-14)


def test_chi2_cdf_against_high_precision_oracle():
    # independent oracle: mpmath at 40 digits for P(a, x), cross-checked
    # against scipy
    mpmath.mp.dps = 40
    for a, x in [(10.0, 10.0), (0.5, 0.2), (0.5, 3.0), (7.5, 2.0), (200.0, 180.0),
                 (200.0, 260.0), (3.0, 50.0), (250.0, 230.0), (250.0, 251.0),
                 (250.0, 290.0), (500.0, 470.0), (500.0, 500.0), (500.0, 501.0),
                 (500.0, 560.0)]:
        oracle = float(mpmath.gammainc(a, 0, x, regularized=True))
        cross = float(special.gammainc(a, x))
        assert abs(oracle - cross) <= 1e-14
        assert chi2_cdf(ChiSquare(int(2 * a)), 2 * x) == pytest.approx(oracle, abs=1e-12)


def test_reg_lower_gamma_domain_errors():
    # shapes a = 0 and a = -2, and x = -0.1 at a = 1
    with pytest.raises(ValueError):
        ChiSquare(0)
    with pytest.raises(ValueError):
        ChiSquare(-4)
    with pytest.raises(ValueError):
        chi2_cdf(ChiSquare(2), -0.2)


def test_non_finite_out_of_domain_entries_raise():
    nan, inf = float("nan"), float("inf")
    for dof in (nan, inf):
        with pytest.raises(ValueError):
            ChiSquare(dof)
    for x in (nan, np.array([1.0, nan])):
        with pytest.raises(ValueError):
            chi2_cdf(ChiSquare(2), x)
    # the upper end of the argument's domain is its limit, not NaN
    assert chi2_cdf(ChiSquare(7), inf) == 1.0
    assert chi2_cdf(ChiSquare(7), np.array([0.0, inf])).tolist() == [0.0, 1.0]


def test_tiny_arguments_raise_no_warning():
    # below x/a of about 1e-16, u = (x - a) / a rounds to -1, where log1p
    # divides by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chi2_cdf(ChiSquare(2), 1e-300) == pytest.approx(5e-301, rel=1e-12)
        assert 0.0 < chi2_cdf(ChiSquare(20), 1e-15) < 1e-150
        assert 0.0 < chi2_inv_cdf(ChiSquare(1), 1e-300) < 1e-20


def test_chi2_cdf_closed_form_dof2():
    # chi2_2 CDF is 1 - exp(-x/2); median at 2 ln 2
    d = ChiSquare(2)
    assert chi2_cdf(d, 2 * math.log(2.0)) == pytest.approx(0.5, abs=1e-12)
    for dof in DOF_GRID:
        assert chi2_cdf(ChiSquare(dof), 0.0) == 0.0


def test_chi2_cdf_median_dof20():
    # median located by bisecting the CDF itself (scipy cross-check in setup)
    med = chi2_inv_cdf(ChiSquare(20), 0.5)
    assert med == pytest.approx(19.3374, abs=1e-4)
    assert med == pytest.approx(stats.chi2.ppf(0.5, 20), rel=1e-10)
    assert chi2_cdf(ChiSquare(20), 19.3374) == pytest.approx(0.5, abs=1e-4)


def test_chi2_cdf_domain_error():
    with pytest.raises(ValueError):
        chi2_cdf(ChiSquare(3), -1e-9)


def test_chi2_dof_validation():
    with pytest.raises(ValueError):
        ChiSquare(0)
    with pytest.raises(ValueError):
        ChiSquare(-4)


def test_chi2_inv_cdf_closed_form_dof2():
    assert chi2_inv_cdf(ChiSquare(2), 0.5) == pytest.approx(2 * math.log(2.0), abs=1e-12)


def test_chi2_inv_cdf_dof1():
    # chi2_1 CDF is erf(sqrt(x/2)); q=0.75 inverts to 2 erfinv(0.75)^2
    expected = 2.0 * special.erfinv(0.75) ** 2
    assert expected == pytest.approx(1.32330, abs=1e-5)
    assert chi2_inv_cdf(ChiSquare(1), 0.75) == pytest.approx(expected, rel=1e-10)


def test_chi2_inv_cdf_domain_errors():
    for q in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            chi2_inv_cdf(ChiSquare(5), q)


def test_chi2_round_trip():
    for dof in DOF_GRID:
        d = ChiSquare(dof)
        for q in Q_GRID:
            x = chi2_inv_cdf(d, q)
            assert abs(chi2_cdf(d, x) - q) <= 1e-10


@given(st.sampled_from(DOF_GRID), st.floats(min_value=0.001, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_chi2_inverse_strictly_increasing(dof, q):
    d = ChiSquare(dof)
    lo = chi2_inv_cdf(d, q * 0.9)
    hi = chi2_inv_cdf(d, min(q * 1.1, 0.9995))
    assert lo < chi2_inv_cdf(d, q) < hi or q * 0.9 == q


def test_chi2_cdf_monotone_on_grid():
    d = ChiSquare(20)
    prev = 0.0
    x = 0.5
    while True:
        cur = chi2_cdf(d, x)
        if cur >= 1 - 1e-15:
            break
        assert cur > prev
        prev = cur
        x += 0.5


def test_wilson_hilferty_agreement():
    d = ChiSquare(20)
    for q in [0.1, 0.25, 0.5, 0.75, 0.9]:
        z = normal_inv_cdf(q)
        wh = 20 * (1 - 2 / (9 * 20) + z * math.sqrt(2 / (9 * 20))) ** 3
        assert chi2_inv_cdf(d, q) == pytest.approx(wh, rel=0.02)


def test_normal_cdf_symmetry():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(1.3) + normal_cdf(-1.3) == pytest.approx(1.0, abs=1e-14)


def test_normal_inv_cdf_values():
    assert normal_inv_cdf(0.5) == pytest.approx(0.0, abs=1e-14)
    assert normal_inv_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_inv_cdf(0.975) == pytest.approx(stats.norm.ppf(0.975), rel=1e-12)


def test_normal_inv_cdf_domain_errors():
    for q in (0.0, 1.0, -1.0, 2.0):
        with pytest.raises(ValueError):
            normal_inv_cdf(q)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_normal_round_trip(q):
    assert abs(normal_cdf(normal_inv_cdf(q)) - q) <= 1e-12


@pytest.mark.parametrize("dof", [1, 2, 400, 1000])
def test_chi2_quantile_table_round_trip_beyond_dof_400(dof):
    # the fig1-scale distance table, n' = 19,900, at shapes up to a = 500
    count = 19900
    table = chi2_quantile_table(count, dof)
    probs = (np.arange(count) + 0.5) / count
    assert np.all(np.diff(table) > 0.0)
    assert np.max(np.abs(chi2_cdf(ChiSquare(dof), table) - probs)) <= 1e-13


def test_chi2_quantile_table_matches_scipy_at_n400():
    # the 79,800-entry distance table of an n=400 attraction. Stopping at
    # |cdf(x) - q| <= 1e-13 bounds each entry's relative error by
    # 1e-13 / (x pdf(x)): below 1e-10 except at the outermost entries. Small
    # dof is where the seed is weakest and the loop doubles x.
    count = 79800
    probs = (np.arange(count) + 0.5) / count
    for dof in (1, 2, 5, 20, 100, 400, 1000):
        table = chi2_quantile_table(count, dof)
        ref = stats.chi2.ppf(probs, dof)
        rel = np.abs(table / ref - 1.0)
        allowed = np.maximum(1e-10, 1.01e-13 / (ref * stats.chi2.pdf(ref, dof)))
        assert np.all(rel <= allowed), dof
        assert np.max(np.abs(stats.chi2.cdf(table, dof) - probs)) <= 1.01e-13, dof


@pytest.mark.parametrize("dof", [1, 20, 1000])
def test_chi2_quantile_newton_work_per_entry(dof, monkeypatch):
    # the seed takes the one full incomplete-gamma evaluation an entry needs
    # at dof >= 20; later Newton moves of at most 5% integrate the density
    # over the move at 4 nodes plus the end, 5 density values each. Measured
    # on this 79,800-entry table: 1.54, 1.00 and 1.00 full evaluations and
    # 14.5, 11.7 and 9.7 density values per entry at dof 1, 20 and 1000
    evaluated, densities = [], []

    def counted_full(a, x):
        evaluated.append(x.size)
        return gamma_parts(a, x)

    def counted_density(a, x, half):
        ratios = density_ratios(a, x, half)
        densities.append(ratios.size)
        return ratios

    gamma_parts, density_ratios = specfun._gamma_parts, specfun._density_ratios
    monkeypatch.setattr(specfun, "_gamma_parts", counted_full)
    monkeypatch.setattr(specfun, "_density_ratios", counted_density)
    count = 79800
    chi2_inv_cdf(ChiSquare(dof), midpoint_probs(count))
    full_bound, density_bound = {1: (1.7, 15.0), 20: (1.1, 12.0), 1000: (1.1, 10.0)}[dof]
    assert sum(evaluated) <= full_bound * count
    assert sum(densities) <= density_bound * count


def test_gauss_legendre_literals_match_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(4)
    assert np.allclose(specfun._GL_NODES, nodes, rtol=0.0, atol=1e-15)
    assert np.allclose([specfun._GL_OUTER, specfun._GL_INNER, specfun._GL_INNER,
                        specfun._GL_OUTER], weights, rtol=0.0, atol=1e-15)


ARRAY_CASES = [
    ("chi2_cdf", lambda v: chi2_cdf(ChiSquare(5), v), np.linspace(0.0, 30.0, 61)),
    ("chi2_inv_cdf", lambda v: chi2_inv_cdf(ChiSquare(5), v), np.array(Q_GRID)),
    ("normal_cdf", normal_cdf, np.linspace(-9.0, 9.0, 61)),
    ("normal_inv_cdf", normal_inv_cdf, np.array(Q_GRID)),
]


@pytest.mark.parametrize("name,fn,values", ARRAY_CASES, ids=[c[0] for c in ARRAY_CASES])
def test_array_results_equal_scalar_results(name, fn, values):
    out = fn(values)
    assert isinstance(out, np.ndarray) and out.shape == values.shape
    scalars = [fn(float(v)) for v in values]
    assert all(type(s) is float for s in scalars)
    assert out.tolist() == scalars
    # the shape of the input is kept, and a 0-d array counts as a scalar
    assert fn(values[:12].reshape(3, 4)).tolist() == out[:12].reshape(3, 4).tolist()
    assert type(fn(np.float64(values[3]))) is float
    assert type(fn(np.asarray(values[3]))) is float


def test_array_with_out_of_domain_entry_raises():
    for q in (0.0, 1.0):
        levels = np.array([0.2, q, 0.7])
        with pytest.raises(ValueError):
            chi2_inv_cdf(ChiSquare(3), levels)
        with pytest.raises(ValueError):
            normal_inv_cdf(levels)
    with pytest.raises(ValueError):
        chi2_cdf(ChiSquare(3), np.array([1.0, -1e-9]))
    with pytest.raises(ValueError):
        chi2_cdf(ChiSquare(4), np.array([[1.0, 2.0], [4.0, -0.2]]))


def test_array_call_spans_several_blocks():
    # more entries than one working block of the cores
    probs = (np.arange(9000) + 0.5) / 9000
    table = chi2_inv_cdf(ChiSquare(20), probs)
    picks = [0, 4095, 4096, 8191, 8192, 8999]
    assert table[picks].tolist() == [chi2_inv_cdf(ChiSquare(20), probs[k]) for k in picks]
