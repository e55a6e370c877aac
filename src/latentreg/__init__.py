"""Latent-space regularizers and their evaluation battery.

Closed-form L2 distances between Gaussian-smoothened samples, the MMD and
CWAE reference regularizers, quantile attraction of empirical radii/distance
distributions toward chi-squared targets (plus coordinate-wise, quantized and
torus variants), a statistical test battery, and an experiment CLI.
"""

from .baselines import cwae, cwae_gradient, mardia_stats, wae_mmd, wae_mmd_gradient
from .cdf_attract import (
    CoordinateTarget,
    TargetQuantiles,
    build_target_quantiles,
    cdf_objective,
    coordinate_step,
    coordinate_targets,
    midpoint_probs,
)
from .gaussian_l2 import (
    GaussianComponent,
    SmoothedSample,
    gaussian_power_identity,
    gaussian_product_integral,
    l2_distance_samples,
    l2_distance_samples_isotropic,
    l2_distance_to_standard_gaussian,
    mean_field_sigma,
    spherical_product_integral,
)
from .optimizer import CdfAttractionObjective, CwaeObjective, RunConfig, WaeMmdObjective, run
from .sampling import PointCloud, Rng, sample_standard_normal, sample_uniform_cube, sample_unit_directions
from .specfun import ChiSquare, chi2_cdf, chi2_inv_cdf, normal_cdf, normal_inv_cdf, reg_lower_gamma
from .stat_tests import (
    BATTERY_TESTS,
    TestReport,
    battery_ks,
    battery_values,
    distance_test,
    radii_test,
)

__version__ = "0.1.0"
