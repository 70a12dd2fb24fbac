"""Simulation and estimation for two-arm platform trials that borrow
non-concurrent controls under a futility interim analysis."""

from .adjusted import (
    BootstrapSettings,
    METHOD_SEPARATE,
    METHOD_UNADJUSTED,
    method_label,
    model_based_from_means,
    model_based_variance,
    separate_variance,
)
from .bias import (
    BiasInputs,
    bias_inputs,
    conditional_bias,
    marginal_bias,
    stop_probability,
)
from .datagen import CELLS
from .design import (
    DesignConfig,
    TimeTrendSpec,
    TrendPattern,
    futility_cutoff,
    ncc_weight,
)
from .harness import (
    CHUNK,
    METHODS,
    STATISTICS,
    OperatingCharacteristics,
    ReplicateArrays,
    ReplicateError,
    Scenario,
    Statistic,
    collect_replicates,
    replicate_stream,
    replicate_trial,
    run_replicate,
    run_scenario,
    scenario_grid,
    summarize,
)
from .theta1 import Theta1Method, cumvue_from_means, umvue_from_means

__version__ = "0.1.0"
