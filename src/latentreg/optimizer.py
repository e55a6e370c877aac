"""Plain gradient descent over a point cloud for the three regularizers.

An objective gives run value(x) and gradient(x) of a cloud, begin_step(x)
at each step start, trace_extras() for the step's trace row, and the flag
deterministic. Deterministic objectives (CWAE, quantile attraction) get
backtracking: a step that would increase the objective halves alpha, and the
accepted objective sequence is monotone nonincreasing. When 20 halvings find
no step that does not increase it, the run ends with a row whose alpha is 0.
A run may also stop at a step start, without a row, at a stop tolerance or,
with a stall rule, once the objective stops falling. The stochastic MMD
objective (a fresh prior sample drawn in each begin_step) takes plain steps
and ignores both stops.

The three objectives share one base, _PerCloud: the protocol's defaults
(deterministic, a begin_step that does nothing, no trace extras), what an
objective derived from the last cloud it saw (the pair matrices of
baselines.kernel_matrix or cwae_roots, the attraction's statistics), so one
cloud's value and gradient share a single pass, and the (n, n) pair and
weight buffers, allocated for each new cloud size and overwritten by every
later cloud, so a steady-state step allocates no n x n array. value and
gradient stay on each objective's own class and call wae_mmd, cwae and
their gradients by those public names: the benchmark's tracer counts and
times only public functions and the methods a public class defines itself.
The attraction's line-search candidates need only a value, so they are
sorted but not ranked; residuals are ranked only for the clouds whose
gradient is taken, each cloud from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import baselines, cdf_attract
from .sampling import PointCloud, Rng, _write_table, sample_standard_normal, sample_uniform_cube

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


class _PerCloud:
    """What _derive(x) made of the last cloud object, the (n, n) buffers and
    the protocol's defaults. The key is object identity: run builds a new
    PointCloud for every candidate and never mutates one. The kept data may
    live in the buffers, which _derive overwrites, so the cloud is forgotten
    before it derives again."""

    deterministic = True
    _cloud: PointCloud | None = None
    _kept = None
    _buffers: tuple[np.ndarray, ...] = ()

    def _derived(self, x: PointCloud):
        if self._cloud is not x:
            self._cloud = None
            self._kept = self._derive(x)
            self._cloud = x
        return self._kept

    def _square_buffers(self, count: int, n: int) -> tuple[np.ndarray, ...]:
        # the held buffers while they are (n, n), else count new ones
        if not self._buffers or self._buffers[0].shape != (n, n):
            self._buffers = tuple(np.empty((n, n)) for _ in range(count))
        return self._buffers

    def begin_step(self, x: PointCloud) -> None:
        pass

    def trace_extras(self) -> dict[str, float]:
        return {}


class WaeMmdObjective(_PerCloud):
    """IMQ-kernel MMD against a fresh prior sample drawn at every step.

    value and gradient share one pair of kernel matrices per cloud; a new
    prior sample forgets them. The objective owns three (n, n) buffers: the
    two kernel matrices and the gradient weights."""

    deterministic = False

    def __init__(self, prior_rng: Rng) -> None:
        self.prior_rng = prior_rng
        self._z_tilde: PointCloud | None = None

    def _derive(self, x: PointCloud) -> tuple[np.ndarray, np.ndarray]:
        zz, zt, _ = self._square_buffers(3, x.n)
        return baselines.kernel_matrix(x, x, zz), baselines.kernel_matrix(x, self._z_tilde, zt)

    def begin_step(self, x: PointCloud) -> None:
        self._z_tilde = sample_standard_normal(self.prior_rng, x.n, x.dim)
        self._cloud = self._kept = None

    def value(self, x: PointCloud) -> float:
        return baselines.wae_mmd(*self._derived(x))

    def gradient(self, x: PointCloud) -> np.ndarray:
        k_zz, k_zt = self._derived(x)
        return baselines.wae_mmd_gradient(x, self._z_tilde, k_zz, k_zt, self._buffers[2])


class CwaeObjective(_PerCloud):
    """The CWAE regularizer, its constants taken from each cloud it is given.
    One matrix of inverse square roots per cloud serves its value, asked for
    twice when a candidate is accepted, and the gradient, whose weights are
    their cubes. The objective owns two (n, n) buffers: the roots and the
    weights."""

    def _derive(self, x: PointCloud) -> tuple[np.ndarray, float]:
        roots = baselines.cwae_roots(x, self._square_buffers(2, x.n)[0])
        return roots, baselines.cwae(x, roots)

    def value(self, x: PointCloud) -> float:
        return self._derived(x)[1]

    def gradient(self, x: PointCloud) -> np.ndarray:
        return baselines.cwae_gradient(x, self._derived(x)[0], self._buffers[1])


class CdfAttractionObjective(_PerCloud):
    """Quantile mismatch of radii and pairwise distances.

    Each cloud's statistics and terms are kept per cloud object, so the value
    asked for again at the next step start and the gradient that follows
    reuse them. A value needs only sorted statistics, so a line-search
    candidate is sorted but never ranked. The gradient ranks its cloud's
    kept statistics, once per gradient: run asks for one gradient per cloud.
    Nothing else carries over from one cloud to the next."""

    # the keys of trace_extras, in trace_to_csv's column order
    TRACE_KEYS = ("distance_term", "radii_term")

    def __init__(self, targets: cdf_attract.TargetQuantiles) -> None:
        self.targets = targets
        self._last_terms: tuple[float, float] = (float("nan"), float("nan"))
        self._residuals: cdf_attract.Residuals | None = None

    def _derive(self, x: PointCloud) -> tuple[cdf_attract.CloudStats, tuple[float, float]]:
        stats = cdf_attract.cloud_stats(x)
        return stats, cdf_attract.value_terms(stats, self.targets)

    def value(self, x: PointCloud) -> float:
        term_r, term_d = self._last_terms = self._derived(x)[1]
        return term_r + term_d

    def gradient(self, x: PointCloud) -> np.ndarray:
        # the residuals live until the next gradient: freed within the step,
        # their pages go back to the OS and the line search faults them in
        # again (n=400, D=20: 19k minor page faults per run instead of 3.7k)
        self._residuals = cdf_attract.residual_bundle(self._derived(x)[0], self.targets)
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
        objective.begin_step(x)
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


def trace_to_csv(trace: Iterable[TraceRow], path) -> None:
    """Write an attraction trace through _write_table, its extras in the
    TRACE_KEYS columns even when it has no row. Wall time is left out so
    reruns of the same configuration produce byte-identical files."""
    keys = CdfAttractionObjective.TRACE_KEYS
    _write_table(path, ",".join(["step", "objective", "alpha", *keys]),
                 "%d" + ",%.17g" * (2 + len(keys)) + "\n",
                 [(r.step, r.objective, r.alpha, *(r.extras[k] for k in keys)) for r in trace])
