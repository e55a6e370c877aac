"""Plain gradient descent over a point cloud for the three regularizers.

Deterministic objectives (CWAE, quantile attraction) get backtracking: a step
that would increase the objective halves alpha, and the accepted objective
sequence is monotone nonincreasing. When 20 halvings find no step that does
not increase it, the run ends with a row whose alpha is 0. A run may also
stop at a step start, without a row, at a stop tolerance or, with a stall
rule, once the objective stops falling. The stochastic MMD objective (fresh
prior sample per step) takes plain steps and ignores both stops.

Each objective keeps the work derived from the last cloud it saw (WAE-MMD's
kernel matrices, CWAE's inverse square roots, the attraction's statistics),
so the value and gradient of one cloud share a single pass. The baselines
write their (n, n) pair, Gram and weight matrices into buffers they own,
allocated at the first cloud and reused by every later one, so a steady-state
step allocates no n x n array; the buffers belong to one objective only.
The attraction's line-search candidates need only a value, so they are
sorted but not ranked; residuals are ranked only for the clouds whose
gradient is taken, each cloud from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import baselines, cdf_attract
from .sampling import PointCloud, Rng, sample_standard_normal, sample_uniform_cube

_MAX_HALVINGS = 20


class OptimizationError(RuntimeError):
    """Non-finite objective or gradient encountered during a run."""

    def __init__(self, step: int, message: str) -> None:
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass
class RunConfig:
    n: int
    dim: int
    seed: int
    max_steps: int = 2000
    alpha0: float = 1.0
    schedule: str = "constant"  # or "proportional_to_objective"
    stop_tolerance: float | None = None
    # (window W, fraction f): stop once the objective has fallen by less than
    # f of the magnitude of its value W accepted steps earlier; the magnitude
    # lets the rule act on a negative objective (CWAE) too
    stall: tuple[int, float] | None = None

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not (np.isfinite(self.alpha0) and self.alpha0 > 0.0):
            raise ValueError(f"alpha0 must be finite and positive, got {self.alpha0}")
        if self.schedule not in ("constant", "proportional_to_objective"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.stall is not None:
            window, fraction = self.stall
            if not (isinstance(window, int) and window >= 1 and 0.0 < fraction < 1.0):
                raise ValueError(f"stall needs an integer window >= 1 and a fraction "
                                 f"in (0, 1), got {self.stall}")


@dataclass
class TraceRow:
    step: int
    objective: float
    alpha: float
    wall_ms: float
    extras: dict[str, float] = field(default_factory=dict)


class _CloudMemo:
    """What an objective derives from one cloud, kept until it is asked about
    another cloud object.

    The key is object identity: run builds a new PointCloud for every
    candidate, asks for the accepted one's value again at the next step
    start, and never mutates a cloud. The objective passes its compute
    function per call, so the memo holds no reference back to it. An entry
    may live in the objective's buffers, which compute overwrites for the
    next cloud, so the memo forgets its cloud before computing."""

    def __init__(self) -> None:
        self._cloud: PointCloud | None = None
        self._entry = None

    def get(self, x: PointCloud, compute):
        """The entry for x; on a miss, compute(x) builds it."""
        if self._cloud is not x:
            self._cloud = None
            self._entry = compute(x)
            self._cloud = x
        return self._entry

    def clear(self) -> None:
        self._cloud = self._entry = None


def _square_buffers(held: tuple[np.ndarray, ...], count: int,
                    n: int) -> tuple[np.ndarray, ...]:
    # held when it is count (n, n) buffers, else count new ones
    if len(held) == count and held[0].shape == (n, n):
        return held
    return tuple(np.empty((n, n)) for _ in range(count))


class WaeMmdObjective:
    """IMQ-kernel MMD against a fresh prior sample drawn at every step.

    value and gradient share one pair of kernel matrices per cloud; a new
    prior sample clears them. The objective owns three (n, n) buffers: the
    two kernel matrices and the gradient weights. A new cloud overwrites the
    memo's matrices."""

    deterministic = False

    def __init__(self, prior_rng: Rng) -> None:
        self.prior_rng = prior_rng
        self._z_tilde: PointCloud | None = None
        self._memo = _CloudMemo()
        self._buffers: tuple[np.ndarray, ...] = ()

    def _matrices(self, x: PointCloud) -> tuple[np.ndarray, np.ndarray]:
        self._buffers = _square_buffers(self._buffers, 3, x.n)
        return baselines._mmd_kernels(x, self._z_tilde, *self._buffers[:2])

    def begin_step(self, step: int, x: PointCloud) -> None:
        self._z_tilde = sample_standard_normal(self.prior_rng, x.n, x.dim)
        self._memo.clear()

    def value(self, x: PointCloud) -> float:
        return baselines._wae_mmd(*self._memo.get(x, self._matrices))

    def gradient(self, x: PointCloud) -> np.ndarray:
        k_zz, k_zt = self._memo.get(x, self._matrices)
        return baselines._wae_mmd_gradient(x, self._z_tilde, k_zz, k_zt, self._buffers[2])

    def trace_extras(self) -> dict[str, float]:
        return {}


class CwaeObjective:
    """The CWAE regularizer, its constants taken from each cloud it is given.
    One matrix of inverse square roots per cloud serves its value, asked for
    twice when a candidate is accepted, and the gradient, whose weights are
    their cubes. The objective owns two (n, n) buffers: the roots and the
    weights. A new cloud overwrites the memo's roots in place."""

    deterministic = True

    def __init__(self) -> None:
        self._memo = _CloudMemo()
        self._buffers: tuple[np.ndarray, ...] = ()

    def _evaluate(self, x: PointCloud) -> tuple[np.ndarray, float]:
        self._buffers = _square_buffers(self._buffers, 2, x.n)
        roots = baselines._cwae_roots(x, self._buffers[0])
        return roots, baselines._cwae(x, roots)

    def begin_step(self, step: int, x: PointCloud) -> None:
        pass

    def value(self, x: PointCloud) -> float:
        return self._memo.get(x, self._evaluate)[1]

    def gradient(self, x: PointCloud) -> np.ndarray:
        roots = self._memo.get(x, self._evaluate)[0]
        return baselines._cwae_gradient(x, roots, self._buffers[1])

    def trace_extras(self) -> dict[str, float]:
        return {}


class CdfAttractionObjective:
    """Quantile mismatch of radii and pairwise distances.

    Each cloud's statistics and terms are kept per cloud object, so the value
    asked for again at the next step start and the gradient that follows
    reuse them. A value needs only sorted statistics, so a line-search
    candidate is sorted but never ranked. The gradient ranks its cloud's
    kept statistics, once per gradient: run asks for one gradient per cloud.
    Nothing else carries over from one cloud to the next."""

    deterministic = True
    # the keys of trace_extras, in trace_to_csv's column order
    TRACE_KEYS = ("distance_term", "radii_term")

    def __init__(self, targets: cdf_attract.TargetQuantiles) -> None:
        self.targets = targets
        self._last_terms: tuple[float, float] = (float("nan"), float("nan"))
        self._memo = _CloudMemo()
        self._residuals: cdf_attract.Residuals | None = None

    def _evaluate(self, x: PointCloud) -> tuple[cdf_attract.CloudStats, tuple[float, float]]:
        stats = cdf_attract.cloud_stats(x)
        return stats, cdf_attract.value_terms(stats, self.targets)

    def begin_step(self, step: int, x: PointCloud) -> None:
        pass

    def value(self, x: PointCloud) -> float:
        term_r, term_d = self._last_terms = self._memo.get(x, self._evaluate)[1]
        return term_r + term_d

    def gradient(self, x: PointCloud) -> np.ndarray:
        # the residuals live until the next gradient: freed within the step,
        # their pages go back to the OS and the line search faults them in
        # again (n=400, D=20: 19k minor page faults per run instead of 3.7k)
        self._residuals = cdf_attract.residual_bundle(self._memo.get(x, self._evaluate)[0],
                                                      self.targets)
        return cdf_attract.gradient_from_residuals(x, self._residuals)

    def trace_extras(self) -> dict[str, float]:
        return {"radii_term": self._last_terms[0],
                "distance_term": self._last_terms[1]}


def initial_cloud(config: RunConfig) -> PointCloud:
    """The cloud every run starts from: uniform on [-1, 1]^dim, seeded by
    config.seed."""
    return sample_uniform_cube(Rng(config.seed), config.n, config.dim, -1.0, 1.0)


def _stalled(stall: tuple[int, float] | None, trace: list[TraceRow],
             value: float) -> bool:
    # every row before a step start is an accepted step
    if stall is None or len(trace) < stall[0]:
        return False
    earlier = trace[-stall[0]].objective
    return earlier - value < stall[1] * abs(earlier)


def run(config: RunConfig, objective) -> tuple[PointCloud, list[TraceRow]]:
    """Gradient descent; returns the final cloud and one trace row per step.

    Each row records the pre-step objective and the alpha actually applied.
    A deterministic objective stops early at a step start, without writing a
    row, once its value falls below stop_tolerance or, with a stall rule
    (W, f), once it has fallen by less than f of the magnitude of its value
    W accepted steps earlier; either stop costs the one value evaluation of
    that step start.
    A run also ends at max_steps, or with an alpha-0 row when 20 halvings
    find no descent."""
    def checked_value(cloud: PointCloud, step: int) -> float:
        value = objective.value(cloud)
        if not np.isfinite(value):
            raise OptimizationError(step, f"objective is not finite ({value})")
        return value

    x = initial_cloud(config)
    trace: list[TraceRow] = []
    for step in range(config.max_steps):
        t0 = time.perf_counter()
        objective.begin_step(step, x)
        value = checked_value(x, step)
        extras = objective.trace_extras()
        if objective.deterministic and (
                (config.stop_tolerance is not None and value < config.stop_tolerance)
                or _stalled(config.stall, trace, value)):
            break
        grad = objective.gradient(x)
        if not np.all(np.isfinite(grad)):
            raise OptimizationError(step, "gradient is not finite")
        if config.schedule == "proportional_to_objective":
            alpha = config.alpha0 * value
        else:
            alpha = config.alpha0
        for _ in range(_MAX_HALVINGS + 1):
            candidate = PointCloud(x.data - alpha * grad)
            if not objective.deterministic or checked_value(candidate, step) <= value:
                break
            alpha *= 0.5
        else:
            # no improving step along -grad within the halving budget
            trace.append(TraceRow(step, value, 0.0,
                                  (time.perf_counter() - t0) * 1e3, extras))
            break
        x = candidate
        trace.append(TraceRow(step, value, alpha,
                              (time.perf_counter() - t0) * 1e3, extras))
    return x, trace


def trace_to_csv(trace: Iterable[TraceRow], path, extra_keys: Sequence[str]) -> None:
    """Write a trace as CSV, the extras in the columns extra_keys (the
    objective's TRACE_KEYS), so a trace with no row has them too. Wall time is
    left out so reruns of the same configuration produce byte-identical files."""
    header = ["step", "objective", "alpha", *extra_keys]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in trace:
            fields = [str(row.step), "%.17g" % row.objective, "%.17g" % row.alpha]
            fields += ["%.17g" % row.extras[k] for k in extra_keys]
            fh.write(",".join(fields) + "\n")
