"""Monte Carlo reference constants for the statistical battery.

Null distributions of the dependent statistics (pairwise distances, pooled
projections, two-sample product/angle comparisons) and of the quantile
mismatch of true prior samples, estimated once from 1000 seeded N(0, I)
clouds at n=200, D=20. scripts/calibrate_constants.py rewrites only their
lines here; its --check mode confirms each to 1e-12 relative, the precision
to which a rerun on another machine or library version reproduces them.
"""

N = 200
DIM = 20
TRIALS = 1000
BASE_SEED = 202400000
NUM_DIRS = 10

# median quantile-mismatch objective (l1) of true prior samples, and the
# default stopping threshold for attraction runs (2x that sampling floor)
DBAR_MEDIAN = 0.8323357894196424
ATTRACT_STOP_TOLERANCE = 1.6646715788392847

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
RADII_KS_MEDIAN = 0.05794600970121201
RADII_KS_Q95 = 0.09700608857855147
DISTANCE_KS_Q95 = 0.06005923207893232

# pooled projections onto NUM_DIRS random directions vs the normal CDF
PROJECTION_KS_Q95 = 0.03028891898356026

# two-sample KS between independent prior clouds
SCALAR_KS2_Q95 = 0.02176884422110553
ANGLE_KS2_Q95 = 0.013517587939698483
