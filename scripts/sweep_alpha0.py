#!/usr/bin/env python3
"""One-time sweeps for the quantile-attraction schedule. Run from the
repository root:

    python scripts/sweep_alpha0.py            # step-size constant alpha0
    python scripts/sweep_alpha0.py --stall    # stall window W and fraction f

The alpha0 sweep runs the radii/distance attraction at n=200, D=20 from a
uniform [-1,1]^D start with alpha = alpha0 * objective, over a grid of alpha0,
and reports steps to reach the stopping threshold plus the floor after 600
steps and whether the first 50 steps decrease monotonically.

Result recorded as ATTRACT_ALPHA0 in latentreg/calibration.py: 0.2 is the
fastest setting that stays monotone with a comfortable stability margin
(0.8 still works; 1.6 oscillates).

The stall sweep runs the test battery's attraction (400-step budget, no stop
tolerance) with and without a stall rule (W, f): stop once the objective has
fallen by less than f of the magnitude of its value W accepted steps
earlier. It uses n=100, D=20 over seeds 100-119, disjoint from the tests'
and the benchmark's, and n=200, D=20 over seeds BASE_SEED + t, t < 10, where
the battery's 95% bands are calibrated. Per setting it reports the value evaluations and steps
summed over the seeds, the mean final objective, and at n=200 how many
clouds pass all three battery bands (criterion 6's check).

Result recorded as ATTRACT_STALL_WINDOW / ATTRACT_STALL_FRACTION in
latentreg/calibration.py: (25, 1e-3), the largest cut in evaluations whose
mean final objective stays within 0.1% of the full runs' at both scales
(n=100: 50,736 -> 17,484 evaluations, +0.03%; n=200: 26,846 -> 9,932,
+0.04%, battery passes 8/10 as without the rule). (10, 1e-3) cuts more but
rises 0.7% at n=100; every setting kept the 8/10 battery passes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from latentreg import calibration  # noqa: E402
from latentreg.cdf_attract import build_target_quantiles  # noqa: E402
from latentreg.optimizer import CdfAttractionObjective, RunConfig, run  # noqa: E402
from latentreg.stat_tests import (  # noqa: E402
    BATTERY_TESTS,
    battery_bands,
    judge,
    reference_battery,
)

N, DIM = 200, 20
SEEDS = (1000, 1001, 1002)
GRID = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)

BATTERY_STEPS = 400
STALL_SCALES = ((100, tuple(range(100, 120))),
                (N, tuple(calibration.BASE_SEED + t for t in range(10))))
STALL_GRID = (None,) + tuple((w, f) for w in (10, 25, 50) for f in (1e-4, 1e-3, 1e-2))


def sweep_alpha0() -> None:
    targets = build_target_quantiles(N, DIM)
    tol = calibration.ATTRACT_STOP_TOLERANCE
    print(f"stop threshold (2x prior-sample floor): {tol:.4f}")
    for alpha0 in GRID:
        rows = []
        for seed in SEEDS:
            cfg = RunConfig(n=N, dim=DIM, seed=seed, max_steps=600, alpha0=alpha0,
                            schedule="proportional_to_objective", stop_tolerance=None)
            _, trace = run(cfg, CdfAttractionObjective(targets))
            objs = np.array([r.objective for r in trace])
            below = np.nonzero(objs < tol)[0]
            steps_to_tol = int(below[0]) if below.size else -1
            rows.append((steps_to_tol, objs[-1], bool(np.all(np.diff(objs[:50]) < 0))))
        summary = ", ".join(f"seed {s}: {r[0]} steps, floor {r[1]:.4f}, mono50={r[2]}"
                            for s, r in zip(SEEDS, rows))
        print(f"alpha0={alpha0:<4}: {summary}")


class _CountedObjective(CdfAttractionObjective):
    """The attraction objective, counting its value evaluations."""

    evals = 0

    def value(self, x):
        self.evals += 1
        return super().value(x)


def _battery_pass(cloud, seed: int) -> bool:
    # criterion 6: projections, scalar products and angles inside their bands
    judged = judge(cloud, reference_battery(seed, cloud.n, cloud.dim))
    bands = battery_bands(cloud.n, cloud.dim)
    return all(judged[test].ks <= bands[test] for test in BATTERY_TESTS)


def sweep_stall() -> None:
    for n, seeds in STALL_SCALES:
        targets = build_target_quantiles(n, DIM)
        calibrated = (n, DIM) == (calibration.N, calibration.DIM)
        print(f"n={n}, D={DIM}, seeds {seeds[0]}..{seeds[-1]}")
        for stall in STALL_GRID:
            evals = steps = passes = 0
            finals = []
            for seed in seeds:
                cfg = RunConfig(n=n, dim=DIM, seed=seed, max_steps=BATTERY_STEPS,
                                alpha0=calibration.ATTRACT_ALPHA0,
                                schedule="proportional_to_objective", stall=stall)
                objective = _CountedObjective(targets)
                final, trace = run(cfg, objective)
                evals += objective.evals
                steps += sum(row.alpha > 0.0 for row in trace)
                finals.append(objective.value(final))
                passes += calibrated and _battery_pass(final, seed)
            line = (f"  stall={str(stall):<13} evals {evals:6d}  steps {steps:5d}  "
                    f"mean final {np.mean(finals):.6f}")
            if calibrated:
                line += f"  battery passes {passes}/{len(seeds)}"
            print(line, flush=True)


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--stall"]:
        sweep_stall()
    elif not argv:
        sweep_alpha0()
    else:
        sys.exit("usage: sweep_alpha0.py [--stall]")


if __name__ == "__main__":
    main()
