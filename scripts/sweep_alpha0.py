#!/usr/bin/env python3
"""One-time sweeps for the quantile-attraction schedule. Run from the
repository root:

    python scripts/sweep_alpha0.py            # step-size constant alpha0
    python scripts/sweep_alpha0.py --stall    # stall window W and fraction f

The alpha0 sweep runs the radii/distance attraction at n=200, D=20 from a
uniform [-1,1]^D start with alpha = alpha0 * objective, over a grid of alpha0,
and reports the floor it reaches after 600 steps. It ranks each alpha0 by
cost: over seeds 1-10 it runs the tolerance-stopped attraction of
fig1's attraction row and attract (cli._attraction_config's recipe, its
alpha0 swept) at n = 50, 100, 200, 400 with D=20 and at D = 5, 50
with n=200, and reports the value evaluations, steps and halved steps summed
over the seeds, and the mean final objective.

Result recorded as ATTRACT_ALPHA0 in latentreg/calibration.py: 0.4. Value
evaluations at alpha0 0.2 -> 0.4 -> 0.8:

    n=400, D=20   566 -> 286 -> 148
    n=200, D=20   286 -> 150 ->  82
    n=100, D=20   150 ->  84 -> 106   (20 halved steps at 0.8)
    n=200, D=5    628 -> 316 -> 170
    n=200, D=50   150 -> 126 -> 177   (49 halved steps at 0.8)
    n=50,  D=20    82 -> 104 -> 141   (20 halved steps at 0.4, 37 at 0.8)

0.4 is the cheapest setting that halves no step at n >= 100: it takes half
of 0.2's evaluations at D = 5 and 20 (126 against 150 at D=50), and it ends
every scale's runs lower (mean final objective 1.547 against 1.629 at
n=400). 0.8 halves steps at n <= 100 and at D=50, and 1.6 at n <= 200 and
at D=50, so neither is kept. At n=50, 0.4 costs more than 0.2; no benchmark
workload runs a tolerance attraction below n=200.

The stall sweep runs the test battery's attraction (the fig2 recipe of
cli._attraction_config: 400-step budget, no stop tolerance, alpha0 =
ATTRACT_STALL_ALPHA0) with and without a stall rule (W, f): stop once the
objective has fallen by less than f of the magnitude of its value W accepted
steps earlier. It uses n=100, D=20 over seeds 100-119, disjoint from the
tests' and the benchmark's, and n=200, D=20 over seeds BASE_SEED + t, t < 10,
where the battery's 95% bands are calibrated. Per setting it reports the
value evaluations and steps summed over the seeds, the mean final objective,
and at n=200 how many clouds pass all three battery bands (criterion 6's).

Result recorded as ATTRACT_STALL_WINDOW / ATTRACT_STALL_FRACTION in
latentreg/calibration.py, with the step constant it ran at,
ATTRACT_STALL_ALPHA0 = 0.2: (25, 1e-3), the largest cut in evaluations whose
mean final objective stays within 0.1% of the full runs' at both scales
(n=100: 50,736 -> 17,484 evaluations, +0.03%; n=200: 26,846 -> 9,932,
+0.04%, battery passes 8/10 as without the rule). (10, 1e-3) cuts more but
rises 0.7% at n=100; every setting kept the 8/10 battery passes.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from latentreg import calibration  # noqa: E402
from latentreg.cdf_attract import build_target_quantiles, cdf_objective  # noqa: E402
from latentreg.cli import ExperimentSpec, _attraction_config  # noqa: E402
from latentreg.optimizer import CdfAttractionObjective, run  # noqa: E402
from latentreg.stat_tests import (  # noqa: E402
    BATTERY_TESTS,
    battery_bands,
    judge,
    reference_battery,
)

N, DIM = 200, 20
SEEDS = (1000, 1001, 1002)
GRID = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)
# (n, D) of the tolerance-stopped runs whose cost each alpha0 is ranked by
COST_SCALES = ((50, DIM), (100, DIM), (N, DIM), (400, DIM), (N, 5), (N, 50))
COST_SEEDS = tuple(range(1, 11))

STALL_SCALES = ((100, tuple(range(100, 120))),
                (N, tuple(calibration.BASE_SEED + t for t in range(10))))
STALL_GRID = (None,) + tuple((w, f) for w in (10, 25, 50) for f in (1e-4, 1e-3, 1e-2))


def _tolerance_cost(alpha0: float, n: int, dim: int) -> tuple[int, int, int, float]:
    """Value evaluations, steps and halved steps summed over COST_SEEDS, and
    the mean final objective, of the runs that stop at the tolerance."""
    targets = build_target_quantiles(n, dim)
    spec = ExperimentSpec("attract_demo", n=n, dim=dim)
    evals = steps = halved = 0
    finals = []
    for seed in COST_SEEDS:
        cfg = replace(_attraction_config(spec, seed), alpha0=alpha0)
        objective = _CountedObjective(targets)
        final, trace = run(cfg, objective)
        evals += objective.evals
        steps += len(trace)
        halved += sum(row.alpha < alpha0 * row.objective for row in trace)
        finals.append(cdf_objective(final, targets))
    return evals, steps, halved, float(np.mean(finals))


def sweep_alpha0() -> None:
    targets = build_target_quantiles(N, DIM)
    spec = ExperimentSpec("attract_demo", n=N, dim=DIM, steps=600)
    print(f"stop threshold (2x prior-sample floor): {calibration.ATTRACT_STOP_TOLERANCE:.4f}")
    for alpha0 in GRID:
        floors = []
        for seed in SEEDS:
            cfg = replace(_attraction_config(spec, seed), alpha0=alpha0, stop_tolerance=None)
            _, trace = run(cfg, CdfAttractionObjective(targets))
            floors.append(trace[-1].objective)
        summary = ", ".join(f"seed {s}: floor {f:.4f}" for s, f in zip(SEEDS, floors))
        print(f"alpha0={alpha0:<4}: 600 steps, {summary}")
        for n, dim in COST_SCALES:
            evals, steps, halved, final = _tolerance_cost(alpha0, n, dim)
            print(f"  tolerance runs n={n:<3} D={dim:<2} seeds {COST_SEEDS[0]}..{COST_SEEDS[-1]}: "
                  f"evals {evals:5d}  steps {steps:4d}  halved {halved:4d}  "
                  f"mean final {final:.4f}", flush=True)


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
        spec = ExperimentSpec("fig2_battery", n=n, dim=DIM)
        calibrated = (n, DIM) == (calibration.N, calibration.DIM)
        print(f"n={n}, D={DIM}, seeds {seeds[0]}..{seeds[-1]}")
        for stall in STALL_GRID:
            evals = steps = passes = 0
            finals = []
            for seed in seeds:
                cfg = replace(_attraction_config(spec, seed), stall=stall)
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
