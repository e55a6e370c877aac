"""Latent-space regularizers and their evaluation battery.

Closed-form L2 distances between Gaussian-smoothened samples, the MMD and
CWAE reference regularizers, quantile attraction of empirical radii/distance
distributions toward chi-squared targets (plus coordinate-wise, quantized and
torus variants), a statistical test battery, and an experiment CLI.

Import each name from the module that defines it; the package root holds
only the modules and __version__.
"""

from . import baselines, cdf_attract, gaussian_l2, optimizer, sampling, specfun, stat_tests

__version__ = "0.1.0"
