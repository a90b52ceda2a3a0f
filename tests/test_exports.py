"""Every name a cotn module exports resolves, and the exports are pinned."""

import importlib

import pytest

# The package and each module that declares __all__ (cotn.cli does not).
MODULES = ("cotn", "cotn.oscillator", "cotn.activation", "cotn.tensor",
           "cotn.model", "cotn.data", "cotn.training")

# Each module's public names: one is added or removed only by editing this.
EXPORTS = {
    "cotn": {
        "__version__", "ActivationMode", "Autoencoder", "Forecaster", "LorsParams",
        "MetaActivationTable", "ModelConfig", "TrainConfig", "TrialReport",
        "build_table", "builtin_params", "builtin_type_ids", "gated_activation",
        "gelu", "lors_step", "mot_activation_exact", "multi_trial", "run_training",
        "simulate", "sweep_types", "table_eval", "table_for_type",
    },
    "cotn.oscillator": {
        "N_STEPS_DEFAULT", "LorsParams", "OscState", "ZERO_STATE", "lors_step",
        "stimulus_signal", "simulate", "simulate_many", "builtin_params",
        "builtin_type_ids", "bifurcation_sweep", "write_bifurcation_csv",
    },
    "cotn.activation": {
        "MetaActivationTable", "mot_activation_exact", "fixed_step_activation",
        "build_table", "table_for_type", "table_eval", "table_grad",
        "gelu_value_and_slope", "gelu", "gelu_grad", "gated_activation",
        "write_table", "GeluActivation", "GatedLeeActivation",
    },
    "cotn.tensor": {
        "Tensor", "parameter", "constant", "glorot_uniform", "add", "sub", "mul",
        "scale", "neg", "matmul", "transpose_last2", "softmax_last_axis",
        "layer_norm", "affine", "attention", "apply_activation", "slice_time",
        "slice_last", "concat_last", "shift_time", "conv_time3", "maxpool_time2",
        "repeat_time2", "sum_all", "mean_all", "no_grad", "topo_order", "backward",
        "save_tensors", "load_tensors",
    },
    "cotn.model": {
        "ActivationMode", "ModelConfig", "sinusoidal_position_encoding",
        "causal_mask", "multi_head_attention", "distill_layer", "distill_loss",
        "Forecaster", "Autoencoder", "save_forecaster", "load_forecaster",
        "save_autoencoder", "load_autoencoder",
    },
    "cotn.data": {
        "ParseError", "SCHEMAS", "CleaningAction", "RawSeries", "CleanConfig",
        "FeatureFrame", "NormStats", "WindowView", "WindowBatch", "SplitWindows",
        "Dataset", "load_csv", "clean", "rolling_mean", "rolling_std",
        "log_returns", "featurize", "fit_stats", "normalize",
        "denormalize_feature", "write_stats", "window", "build_dataset",
        "epoch_to_text",
    },
    "cotn.training": {
        "TrainConfig", "TrialReport", "StatsSummary", "SweepEntry", "SweepResult",
        "Adam", "mae", "mse", "fit_autoencoder", "run_training", "sweep_types",
        "multi_trial", "make_synthetic_series", "make_synthetic_frame",
        "write_synthetic_ett_csv", "write_trial_report",
    },
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_exports_are_pinned(name):
    exported = importlib.import_module(name).__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    assert set(exported) == EXPORTS[name]
