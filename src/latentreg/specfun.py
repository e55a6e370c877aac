"""Special functions backing the target CDFs.

Array-valued, numpy-only chi-squared and standard normal CDFs and quantile
functions. Each takes a scalar or an array, and a chi-squared call takes one
``dof``. A scalar returns a ``float`` and an array keeps its shape; an input
holding any out-of-domain entry raises ``ValueError``. Both forms run the
same array core, so they agree bit for bit; each core iterates every element
to the same stopping rule and drops converged elements from its working set.
Inputs go through in blocks of ``_BLOCK`` elements, which bounds the working
memory of a large call such as a quantile table. Everything here is pure
and thread-safe.

The chi-squared CDF is the regularized lower incomplete gamma function
P(dof/2, x/2). The quantile is one safeguarded Newton loop from the
Wilson-Hilferty seed. The seed takes one incomplete-gamma evaluation, whose
prefactor x^a e^-x / Gamma(a) also gives the density. A later Newton move
that stays in the bracket and moves x by at most 5% adds the 4-node
Gauss-Legendre integral of the density over the move to the CDF; bisection
and doubling moves evaluate it in full. On a 79,800-entry midpoint table (an
n=400 distance table) that is 1.54, 1.00 and 1.00 full evaluations and
14.5, 11.7 and 9.7 density values per entry at dof 1, 20 and 1000.

Tested accuracy: chi2_cdf to 1e-12 absolute against a 40-digit oracle for
dof in [1, 1000]; chi-squared quantiles round trip to 1e-13 with strictly
increasing tables for dof in [1, 1000], and agree with scipy to a relative
error of at most max(1e-10, 1.01e-13 / (x pdf(x))). That bound comes from
the absolute stop rule |cdf(x) - q| <= 9e-14 on the loop's CDF, which is
within 2.2e-15 of a full evaluation, so it is loose where 1 - q is below
about 1e-13: at q = 1 - 1.1e-16 and dof 1 the result is 100.4 where the
true quantile is 68.8. Normal quantiles round trip to 1e-12 on q in
[1e-6, 1 - 1e-6].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 1e-16
_MAX_ITER = 800
_BLOCK = 4096


@dataclass(frozen=True)
class ChiSquare:
    """Chi-squared distribution with ``dof`` degrees of freedom."""

    dof: int

    def __post_init__(self) -> None:
        if not isinstance(self.dof, int) or self.dof < 1:
            raise ValueError(f"dof must be a positive integer, got {self.dof!r}")


def _evaluate(core, x, **params):
    """Run ``core`` on ``x``, flattened, in blocks of _BLOCK elements; a
    float when ``x`` is a scalar."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty(flat.size)
    for start in range(0, out.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        out[block] = core(flat[block], **params)
    return float(out[0]) if x.shape == () else out.reshape(x.shape)


def _check(bad, values, message: str) -> None:
    """Raise ValueError naming the first entry of ``values`` flagged by ``bad``."""
    if np.any(bad):
        raise ValueError(f"{message}, got {float(values[bad][0])}")


def _compact(keep: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    return [a[keep] for a in arrays]


def _horner(coeffs: tuple[float, ...], t):
    """Polynomial with coefficients highest power first, by Horner's rule."""
    acc = coeffs[0] * t + coeffs[1]
    for c in coeffs[2:]:
        acc = acc * t + c
    return acc


def _gamma_parts(a: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The regularized lower incomplete gamma function P(a, x) and the gamma
    prefactor x^a e^-x / Gamma(a), which is x times the gamma(a) density at
    x. P comes from the power series for x < a + 1 and a modified-Lentz
    continued fraction for x >= a + 1, the usual split that keeps both
    branches fast and uniformly accurate; the prefactor is computed once and
    scales both."""
    p = np.where(x == np.inf, 1.0, 0.0)  # P(a, 0) = 0, P(a, inf) = 1
    prefactor = np.zeros_like(x)
    pos = np.flatnonzero((x != 0.0) & (x != np.inf))
    if not pos.size:
        return p, prefactor
    x = x[pos]
    scale = np.exp(_log_prefactor(a, x))
    prefactor[pos] = scale
    below = x < a + 1.0
    series = np.flatnonzero(below)
    if series.size:
        p[pos[series]] = np.minimum(
            _lower_gamma_series(a, x[series]) * scale[series], 1.0)
    fraction = np.flatnonzero(~below)
    if fraction.size:
        p[pos[fraction]] = 1.0 - _upper_gamma_cf(a, x[fraction]) * scale[fraction]
    return p, prefactor


_LOG_2PI = math.log(2.0 * math.pi)
# Stirling's series for lgamma(a) - (a - 1/2) log(a) + a - log(2 pi)/2 in
# powers of 1/a^2, highest first: B_2k / (2k (2k - 1)) for k = 7..1
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


def _shape_term(a: float) -> float:
    """a log(a) - a - lgamma(a). Its direct form cancels terms of size
    a log(a), so for a >= 10 it comes from Stirling's series instead
    (truncation error below 1e-16 there)."""
    if a < 10.0:
        return a * math.log(a) - a - math.lgamma(a)
    return 0.5 * (math.log(a) - _LOG_2PI) - _horner(_STIRLING, 1.0 / (a * a)) / a


def _log_prefactor(a: float, x: np.ndarray) -> np.ndarray:
    """log of x^a e^-x / Gamma(a) for x > 0, as a (log t - u) plus a term in
    a alone, where t = x/a = 1 + u. No intermediate grows with a, so the
    absolute error stays near 1e-16 |x - a| where the direct
    a log(x) - x - lgamma(a) loses digits to cancellation (5e-13 at a=500)."""
    u = (x - a) / a
    with np.errstate(divide="ignore"):  # x/a underflows to 0: the prefactor is 0
        log_t = np.log(x / a)
    # log1p only where it is the better form, so u = -1 never reaches it
    np.log1p(u, out=log_t, where=u > -0.5)
    return a * (log_t - u) + _shape_term(a)


def _lower_gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    total = np.empty_like(x)
    live = np.arange(x.size)
    term = np.full_like(x, 1.0 / a)
    sums = term.copy()
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        sums += term
        done = np.abs(term) < np.abs(sums) * _EPS
        if done.any():
            total[live[done]] = sums[done]
            live, x, term, sums = _compact(~done, live, x, term, sums)
            if not live.size:
                break
    total[live] = sums  # entries that used up _MAX_ITER
    return total  # P(a, x) divided by the prefactor


def _upper_gamma_cf(a: float, x: np.ndarray) -> np.ndarray:
    # Q(a, x) by Lentz's method on the standard continued fraction.
    tiny = 1e-300
    result = np.empty_like(x)
    live = np.arange(x.size)
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = np.divide(1.0, b, out=np.full_like(x, 1.0 / tiny), where=b != 0.0)
    h = d.copy()
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            result[live[done]] = h[done]
            live, b, c, d, h = _compact(~done, live, b, c, d, h)
            if not live.size:
                break
    result[live] = h  # entries that used up _MAX_ITER
    return result  # Q(a, x) divided by the prefactor


def chi2_cdf(dist: ChiSquare, x):
    """CDF of the chi-squared distribution: P(dof/2, x/2)."""
    x = np.asarray(x, dtype=np.float64)
    _check(~(x >= 0.0), x, "chi-squared argument must be nonnegative")
    return _evaluate(_chi2_cdf, x, dof=dist.dof)


def _chi2_cdf(x: np.ndarray, dof: int) -> np.ndarray:
    return _gamma_parts(0.5 * dof, 0.5 * x)[0]


def chi2_inv_cdf(dist: ChiSquare, q):
    """Quantile function of the chi-squared distribution.

    Newton iteration seeded by the Wilson-Hilferty cube approximation (on
    Acklam's normal quantile, without refinement). Each CDF value narrows a
    bracket [lo, hi] that starts at [0, inf); a step that leaves it bisects,
    or doubles x while hi is unbounded. The CDF at the seed is one full
    incomplete-gamma evaluation. After a Newton move that stays in the
    bracket and moves x by at most 5%, the CDF grows by the 4-node
    Gauss-Legendre integral of the density over the move; a bisection or
    doubling evaluates it in full. Each element converges to
    |cdf(x) - q| <= 9e-14, which keeps the round trip through chi2_cdf
    within 1e-13, or stops when a step no longer moves it. On an n=400
    distance table that is 1.00-1.54 full evaluations and 9.7-14.5 density
    values per entry for dof 1-1000. The relative error is at most
    1.01e-13 / (x pdf(x)), which is wide where 1 - q is below about 1e-13.
    """
    q = np.asarray(q, dtype=np.float64)
    _check(~((q > 0.0) & (q < 1.0)), q, "quantile level must lie in (0, 1)")
    return _evaluate(_chi2_inv_cdf, q, dof=dist.dof)


def _chi2_inv_cdf(q: np.ndarray, dof: int) -> np.ndarray:
    d = float(dof)
    a = 0.5 * d

    # Wilson-Hilferty seed; can leave (0, inf) for small q and small dof.
    z = _acklam(q)
    x = d * (1.0 - 2.0 / (9.0 * d) + z * math.sqrt(2.0 / (9.0 * d))) ** 3
    x[~((x > 0.0) & np.isfinite(x))] = 1e-8

    # every CDF value narrows the bracket [lo, hi]; a Newton step that
    # leaves it bisects, or doubles x while hi is still unbounded
    lo = np.zeros_like(x)
    hi = np.full_like(x, np.inf)
    cdf, prefactor = _gamma_parts(a, 0.5 * x)
    root = np.empty_like(x)
    live = np.arange(q.size)
    for _ in range(_MAX_ITER):
        fx = cdf - q
        over = fx > 0.0
        hi = np.where(over, x, hi)
        lo = np.where(over, lo, x)
        # the density at x is prefactor / x
        step = np.divide(fx * x, prefactor, out=np.zeros_like(x), where=prefactor > 0.0)
        x_next = x - step
        newton = (prefactor > 0.0) & (lo < x_next) & (x_next < hi)
        x_next = np.where(newton, x_next, np.where(hi == np.inf, 2.0 * x, 0.5 * (lo + hi)))
        done = (np.abs(fx) <= _STOP) | (x_next == x)
        if done.any():
            root[live[done]] = x[done]
            live, q, x, x_next, lo, hi, cdf, prefactor, newton = _compact(
                ~done, live, q, x, x_next, lo, hi, cdf, prefactor, newton)
            if not live.size:
                break
        short = newton & (np.abs(x_next - x) <= _SHORT_MOVE * x)
        cdf, prefactor = _chi2_cdf_after_move(a, x, x_next, cdf, prefactor, short)
        x = x_next
    root[live] = x  # entries that used up _MAX_ITER
    return root


# Gauss-Legendre rule with 4 nodes on [-1, 1]: nodes -+sqrt(3/7 +- (2/7) sqrt(6/5)),
# weights (18 -+ sqrt(30)) / 36. Written out, since numpy.polynomial's
# leggauss would cost an eigensolver call and its memory at import.
_GL_NODES = (-0.8611363115940526, -0.33998104358485626,
             0.33998104358485626, 0.8611363115940526)
_GL_OUTER, _GL_INNER = 0.34785484513745357, 0.6521451548625464
# offsets of the four nodes and of the move's end from its start, in units
# of half the move
_MOVE_OFFSETS = np.array([1.0 + v for v in _GL_NODES] + [2.0])[:, None]
# the largest move, relative to x, whose CDF change is integrated
_SHORT_MOVE = 0.05
# the quantile loop's stop rule |cdf - q| <= _STOP leaves 1e-14 of the
# promised 1e-13 round trip to the gap between an integrated CDF and a full
# evaluation, at most 2.2e-15 on midpoint tables of 100-79,800 entries for
# dof 1-1000
_STOP = 9e-14


def _density_ratios(a: float, x: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The chi-squared(2a) density at x + half * offset, over the density at
    x, for each of _MOVE_OFFSETS: (1 + s)^(a-1) e^(-half offset / 2) with
    s = half offset / x."""
    return np.exp((a - 1.0) * np.log1p((half / x) * _MOVE_OFFSETS)
                  - (0.5 * half) * _MOVE_OFFSETS)


def _chi2_cdf_after_move(a: float, x: np.ndarray, x_next: np.ndarray, cdf: np.ndarray,
                         prefactor: np.ndarray, short: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The chi-squared(2a) CDF and the gamma prefactor at x_next. A short
    move adds the 4-node Gauss-Legendre integral of the density over
    [x, x_next] to cdf, the CDF at x; any other move evaluates the CDF in
    full."""
    cdf_next = np.empty_like(x)
    prefactor_next = np.empty_like(x)
    full = np.flatnonzero(~short)
    if full.size:
        cdf_next[full], prefactor_next[full] = _gamma_parts(a, 0.5 * x_next[full])
    near = np.flatnonzero(short)
    if near.size:
        start, end = x[near], x_next[near]
        half = 0.5 * (end - start)
        ratio = _density_ratios(a, start, half)
        density = prefactor[near] / start
        area = _GL_OUTER * (ratio[0] + ratio[3]) + _GL_INNER * (ratio[1] + ratio[2])
        cdf_next[near] = cdf[near] + (half * density) * area
        prefactor_next[near] = (end * density) * ratio[4]
    return cdf_next, prefactor_next


_SQRT1_2 = 1.0 / math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# the C library's erfc, exp and log, applied elementwise, so the normal
# functions give the same bits as scalar math-module code
_ERFC = np.frompyfunc(math.erfc, 1, 1)
_EXP = np.frompyfunc(math.exp, 1, 1)
_LOG = np.frompyfunc(math.log, 1, 1)


def _libm(fn, x: np.ndarray) -> np.ndarray:
    return fn(x).astype(np.float64)


def normal_cdf(x):
    """Standard normal CDF."""
    return _evaluate(_normal_cdf, x)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * _libm(_ERFC, -x * _SQRT1_2)


# Acklam's rational approximation for the normal quantile (~1.2e-9 relative),
# refined by two Halley steps to full double precision in _normal_inv_cdf;
# the chi-squared seed uses it unrefined.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00, 1.0)
_P_LOW = 0.02425


def normal_inv_cdf(q):
    """Standard normal quantile function, |cdf(inv(q)) - q| well below 1e-12."""
    q = np.asarray(q, dtype=np.float64)
    _check(~((q > 0.0) & (q < 1.0)), q, "quantile level must lie in (0, 1)")
    return _evaluate(_normal_inv_cdf, q)


def _normal_inv_cdf(q: np.ndarray) -> np.ndarray:
    x = _acklam(q)
    for _ in range(2):
        e = _normal_cdf(x) - q
        u = e * _SQRT_2PI * _libm(_EXP, 0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


def _acklam(q: np.ndarray) -> np.ndarray:
    x = np.empty_like(q)
    low = q < _P_LOW
    high = q > 1.0 - _P_LOW
    for tail, p, sign in ((low, q, 1.0), (high, 1.0 - q, -1.0)):
        t = np.sqrt(-2.0 * _libm(_LOG, p[tail]))
        x[tail] = sign * _horner(_ACKLAM_C, t) / _horner(_ACKLAM_D, t)
    mid = ~(low | high)
    t = q[mid] - 0.5
    r = t * t
    x[mid] = _horner(_ACKLAM_A, r) * t / _horner(_ACKLAM_B, r)
    return x
