#!/usr/bin/env python3
"""Regenerate src/latentreg/calibration.py from Monte Carlo runs.

Statistics whose null distributions have no usable closed form here (the
pairwise-distance KS, pooled projections, two-sample product/angle tests, and
the quantile-mismatch objective of true prior samples) get their reference
medians and 95th percentiles estimated from seeded prior draws at the
standard experiment scale n=200, D=20. Run from the repository root:

    python scripts/calibrate_constants.py          # rewrite calibration.py
    python scripts/calibrate_constants.py --check  # compare, write nothing

The constants are reproducible to CHECK_RTOL (1e-12) relative, not bit for
bit: the chi-squared tables, numpy's reductions and the C library's math
may move their last digits between machines and library versions. --check
recomputes every constant and exits 1 if any differs from the committed
value by more than that.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from latentreg.cdf_attract import build_target_quantiles, cdf_objective  # noqa: E402
from latentreg.sampling import Rng, sample_standard_normal, sample_unit_directions  # noqa: E402
from latentreg.stat_tests import (  # noqa: E402
    BATTERY_TESTS,
    battery_ks,
    battery_values,
    distance_test,
    radii_test,
)

N = 200
DIM = 20
TRIALS = 1000
BASE_SEED = 202_400_000
NUM_DIRS = 10

CHECK_RTOL = 1e-12

OUT = Path(__file__).resolve().parents[1] / "src" / "latentreg" / "calibration.py"

TEMPLATE = '''"""Monte Carlo reference constants for the statistical battery.

Null distributions of the dependent statistics (pairwise distances, pooled
projections, two-sample product/angle comparisons) and of the quantile
mismatch of true prior samples, estimated once from {TRIALS} seeded N(0, I)
clouds at n={N}, D={DIM}. Regenerate with scripts/calibrate_constants.py;
its --check mode confirms every value to 1e-12 relative, the precision to
which a rerun on another machine or library version reproduces them.
"""

N = {N}
DIM = {DIM}
TRIALS = {TRIALS}
BASE_SEED = {BASE_SEED}
NUM_DIRS = {NUM_DIRS}

# median quantile-mismatch objective (l1) of true prior samples, and the
# default stopping threshold for attraction runs (2x that sampling floor)
DBAR_MEDIAN = {DBAR_MEDIAN!r}
ATTRACT_STOP_TOLERANCE = {ATTRACT_STOP_TOLERANCE!r}

# default step-size constant for the proportional-to-objective schedule,
# fixed by the sweep in scripts/sweep_alpha0.py
ATTRACT_ALPHA0 = 0.2

# stall rule of the test battery's attraction runs: stop once the objective
# has fallen by less than ATTRACT_STALL_FRACTION of its value
# ATTRACT_STALL_WINDOW accepted steps earlier. Fixed by the stall sweep in
# scripts/sweep_alpha0.py as the largest cut in value evaluations that keeps
# the mean final objective within 0.1% of the 400-step runs': at n=100,
# seeds 100-119, 50,736 -> 17,484 evaluations, +0.03%; at n=200, ten seeds
# from BASE_SEED, 26,846 -> 9,932, +0.04%, battery passes 8/10 either way
ATTRACT_STALL_WINDOW = 25
ATTRACT_STALL_FRACTION = 1e-3

# one-sample KS against chi-squared(DIM)
RADII_KS_MEDIAN = {RADII_KS_MEDIAN!r}
RADII_KS_Q95 = {RADII_KS_Q95!r}
DISTANCE_KS_MEDIAN = {DISTANCE_KS_MEDIAN!r}
DISTANCE_KS_Q95 = {DISTANCE_KS_Q95!r}

# pooled projections onto NUM_DIRS random directions vs the normal CDF
PROJECTION_KS_Q95 = {PROJECTION_KS_Q95!r}

# two-sample KS between independent prior clouds
SCALAR_KS2_Q95 = {SCALAR_KS2_Q95!r}
ANGLE_KS2_Q95 = {ANGLE_KS2_Q95!r}
'''


def constants() -> dict[str, float]:
    """Every constant of calibration.py that the Monte Carlo runs estimate,
    with the scale they ran at, keyed by its name there."""
    targets = build_target_quantiles(N, DIM)
    dbar, radii_ks, dist_ks = [], [], []
    battery = {test: [] for test in BATTERY_TESTS}
    for trial in range(TRIALS):
        rng = Rng(BASE_SEED + trial)
        cloud = sample_standard_normal(rng, N, DIM)
        other = sample_standard_normal(rng.derive(2), N, DIM)
        dbar.append(cdf_objective(cloud, targets))
        radii_ks.append(radii_test(cloud).ks_linf)
        dist_ks.append(distance_test(cloud).ks_linf)
        dirs = sample_unit_directions(rng.derive(3), NUM_DIRS, DIM)
        ks = battery_ks(battery_values(cloud, dirs), battery_values(other, dirs))
        for test in BATTERY_TESTS:
            battery[test].append(ks[test])
        if (trial + 1) % 50 == 0:
            print(f"{trial + 1}/{TRIALS} trials done", flush=True)

    def med(v):
        return float(np.median(v))

    def q95(v):
        return float(np.quantile(v, 0.95))

    dbar_median = med(dbar)
    return {
        "N": N, "DIM": DIM, "TRIALS": TRIALS, "BASE_SEED": BASE_SEED, "NUM_DIRS": NUM_DIRS,
        "DBAR_MEDIAN": dbar_median, "ATTRACT_STOP_TOLERANCE": 2.0 * dbar_median,
        "RADII_KS_MEDIAN": med(radii_ks), "RADII_KS_Q95": q95(radii_ks),
        "DISTANCE_KS_MEDIAN": med(dist_ks), "DISTANCE_KS_Q95": q95(dist_ks),
        "PROJECTION_KS_Q95": q95(battery["projections"]),
        "SCALAR_KS2_Q95": q95(battery["scalar_products"]),
        "ANGLE_KS2_Q95": q95(battery["angles"]),
    }


def check(values: dict[str, float]) -> int:
    """Compare recomputed constants with the committed calibration.py: 0 if
    each agrees to CHECK_RTOL relative, else 1."""
    from latentreg import calibration

    failed = 0
    for name, value in values.items():
        committed = getattr(calibration, name)
        rel = abs(value - committed) / abs(committed)
        verdict = "ok" if rel <= CHECK_RTOL else "DIFFERS"
        failed += verdict != "ok"
        print(f"{name}: committed {committed!r}, recomputed {value!r}, "
              f"relative difference {rel:.1e} {verdict}")
    print(f"{failed} constant(s) differ by more than {CHECK_RTOL:g} relative")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute every constant, write nothing, and exit 1 if any "
                             f"differs from calibration.py by more than {CHECK_RTOL:g} relative")
    args = parser.parse_args(argv)
    values = constants()
    if args.check:
        return check(values)
    OUT.write_text(TEMPLATE.format(**values))
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
