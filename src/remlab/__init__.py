"""REML fitting engine and simulation lab for two-level random-regression models.

The package fits random-intercept/random-slope linear mixed models by
restricted maximum likelihood, classifies maximisers that land on the
boundary of the parameter space (correlation at +/-1, a random-effect
variance at zero), scores boundary risk with a closed-form predictor, and
runs the Monte-Carlo experiments and the residual-inflation study that map
out when boundary estimates occur.
"""

from .errors import DataError, DegenerateDataError, EstimabilityError
from .model_system import (
    ClusteredDataset,
    DesignSpec,
    FixedEffects,
    SuffStats,
    VarianceParams,
    build_h,
    moment_q,
    read_dataset_csv,
    simulate,
    simulate_stats,
    sufficient_stats,
    write_dataset_csv,
)
from .predictor import (
    log10_predictor_minus_one,
    log10_predictor_plus_one,
    predictor_minus_one,
    predictor_plus_one,
    predictor_sweep,
    profiled_rho_slope,
)
from .reml_core import (
    Classification,
    ClassifyTolerances,
    FitOptions,
    FitResult,
    GeneralCluster,
    GeneralDataset,
    classify,
    eblups,
    fit_balanced,
    fit_general,
    log_restricted_likelihood,
    log_rl_dense_oracle,
    profile_sigma2_r,
    profiled_log_rl,
    profiled_rl_offset,
    read_general_csv,
)
from .experiments import (
    AnovaRow,
    ExperimentSetting,
    RepRecord,
    SettingSummary,
    VarianceMode,
    anova_balanced,
    derive_seed,
    experiment_catalog,
    factorial_grid,
    interaction_plot_data,
    ls_means,
    run_replicate,
    run_setting,
    run_settings,
    sign_test_plus_vs_minus,
    summarize,
    two_proportion_pvalue,
    with_reps,
)
from .invivo import (
    HmoDataset,
    InvivoRow,
    default_phi_grid,
    fit_hmo,
    ingest_hmo,
    make_surrogate,
    phi_sweep,
    write_hmo_csv,
)

__version__ = "0.1.0"
