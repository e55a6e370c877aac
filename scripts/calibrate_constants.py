#!/usr/bin/env python3
"""Recompute the Monte Carlo constants of src/latentreg/calibration.py.

Statistics whose null distributions have no usable closed form here (the
pairwise-distance KS, pooled projections, two-sample product/angle tests, and
the quantile-mismatch objective of true prior samples) get their reference
medians and 95th percentiles estimated from seeded prior draws at the scale
that calibration.py itself sets (N, DIM, TRIALS, BASE_SEED, NUM_DIRS). Each
trial's cloud is judged by stat_tests.judge, as in fig1 and fig2, with its
battery reference from stat_tests.reference_battery; its quantile mismatch
is the sum of the radii and distance l1 areas. Run from the
repository root:

    python scripts/calibrate_constants.py          # rewrite the measured values
    python scripts/calibrate_constants.py --check  # compare, write nothing

Writing sets only the NAME = value line of each measured constant in
calibration.py and keeps every other byte: the scale, the hand-set schedule
constants and the comments stay as they are.

The constants are reproducible to CHECK_RTOL (1e-12) relative, not bit for
bit: the chi-squared tables, numpy's reductions and the C library's math
may move their last digits between machines and library versions. --check
recomputes every constant and exits 1 if any differs from the committed
value by more than that.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from latentreg.calibration import BASE_SEED, DIM, N, TRIALS  # noqa: E402
from latentreg.sampling import Rng, sample_standard_normal  # noqa: E402
from latentreg.stat_tests import BATTERY_TESTS, judge, reference_battery  # noqa: E402

CHECK_RTOL = 1e-12

OUT = Path(__file__).resolve().parents[1] / "src" / "latentreg" / "calibration.py"


def constants() -> dict[str, float]:
    """Every constant of calibration.py that the Monte Carlo runs estimate,
    keyed by its name there."""
    dbar, radii_ks, dist_ks = [], [], []
    battery = {test: [] for test in BATTERY_TESTS}
    for trial in range(TRIALS):
        cloud = sample_standard_normal(Rng(BASE_SEED + trial), N, DIM)
        judged = judge(cloud)
        # the two areas sum to cdf_objective against build_target_quantiles(N, DIM)
        dbar.append(judged["radii"].l1_area() + judged["distances"].l1_area())
        radii_ks.append(judged["radii"].ks)
        dist_ks.append(judged["distances"].ks)
        judged = judge(cloud, reference_battery(BASE_SEED + trial, N, DIM))
        for test in BATTERY_TESTS:
            battery[test].append(judged[test].ks)
        if (trial + 1) % 50 == 0:
            print(f"{trial + 1}/{TRIALS} trials done", flush=True)

    def med(v):
        return float(np.median(v))

    def q95(v):
        return float(np.quantile(v, 0.95))

    dbar_median = med(dbar)
    return {
        "DBAR_MEDIAN": dbar_median, "ATTRACT_STOP_TOLERANCE": 2.0 * dbar_median,
        "RADII_KS_MEDIAN": med(radii_ks), "RADII_KS_Q95": q95(radii_ks),
        "DISTANCE_KS_Q95": q95(dist_ks),
        "PROJECTION_KS_Q95": q95(battery["projections"]),
        "SCALAR_KS2_Q95": q95(battery["scalar_products"]),
        "ANGLE_KS2_Q95": q95(battery["angles"]),
    }


def rewrite(text: str, values: dict[str, float]) -> str:
    """text with the line NAME = ... of each name in values set to
    NAME = repr(value), every other byte kept. A name without exactly one such
    line is a ValueError."""
    for name, value in values.items():
        line = re.compile(rf"^{re.escape(name)} = .*$", re.MULTILINE)
        text, count = line.subn(lambda _: f"{name} = {value!r}", text)
        if count != 1:
            raise ValueError(f"expected one line setting {name}, found {count}")
    return text


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
    OUT.write_text(rewrite(OUT.read_text(), values))
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
