"""Chaotic-oscillator meta-activations and a toy transformer forecaster.

The package turns a two-neuron excitatory/inhibitory oscillator into a
scalar activation function (max over a short settled trajectory),
tabulates it, blends it with GELU behind a lambda gate, and trains a
small encoder/decoder attention model with convolutional distillation
and autoencoder-weighted losses on volatile series.
"""

__version__ = "0.1.0"

from .activation import (
    MetaActivationTable,
    build_table,
    gated_activation,
    gelu,
    mot_activation_exact,
    table_eval,
    table_for_type,
)
from .model import ActivationMode, Autoencoder, Forecaster, ModelConfig
from .oscillator import (
    LorsParams,
    builtin_params,
    builtin_type_ids,
    lors_step,
    simulate,
)
from .training import (
    TrainConfig,
    TrialReport,
    multi_trial,
    run_training,
    sweep_types,
)

__all__ = [
    "__version__",
    "ActivationMode",
    "Autoencoder",
    "Forecaster",
    "LorsParams",
    "MetaActivationTable",
    "ModelConfig",
    "TrainConfig",
    "TrialReport",
    "build_table",
    "builtin_params",
    "builtin_type_ids",
    "gated_activation",
    "gelu",
    "lors_step",
    "mot_activation_exact",
    "multi_trial",
    "run_training",
    "simulate",
    "sweep_types",
    "table_eval",
    "table_for_type",
]
