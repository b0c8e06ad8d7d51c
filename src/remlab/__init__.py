"""REML fitting engine and simulation lab for two-level random-regression models.

The package fits random-intercept/random-slope linear mixed models by
restricted maximum likelihood, classifies maximisers that land on the
boundary of the parameter space (correlation at +/-1, a random-effect
variance at zero), scores boundary risk with a closed-form predictor, and
runs the Monte-Carlo experiments and the residual-inflation study that map
out when boundary estimates occur.

``import remlab`` is cheap: each public name listed below, and each
submodule, is imported on first access (PEP 562), so a caller pays only for
the modules it uses.  ``remlab fit``, for one, never loads the experiment
pool.
"""

from importlib import import_module as _import_module

# submodule -> the public names it provides at package level
_EXPORTS = {
    "errors": ("DataError", "DegenerateDataError", "EstimabilityError"),
    "model_system": (
        "ClusteredDataset", "DesignSpec", "FixedEffects", "SuffStats", "VarianceMode",
        "VarianceParams", "build_h", "moment_q", "read_dataset_csv", "simulate",
        "simulate_stats", "sufficient_stats", "write_dataset_csv",
    ),
    "predictor": (
        "log10_predictor_minus_one", "log10_predictor_plus_one", "predictor_minus_one",
        "predictor_plus_one", "predictor_sweep",
    ),
    "reml_core": (
        "Classification", "ClassifyTolerances", "FitResult", "GeneralDataset",
        "classify", "eblups", "fit_balanced", "fit_general", "log_restricted_likelihood",
    ),
    "experiments": (
        "AnovaRow", "ExperimentSetting", "RepRecord", "SettingSummary", "anova_balanced",
        "derive_seed", "experiment_catalog", "factorial_grid", "interaction_plot_data",
        "ls_means", "run_replicate", "run_settings", "with_reps",
    ),
    "invivo": (
        "HmoDataset", "InvivoRow", "default_phi_grid", "ingest_hmo",
        "make_surrogate", "phi_sweep", "write_hmo_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
