from .adamax import AdamaxState, adamax_update, fit
from .layers import (NumericError, TrainingError, lstm_backward, lstm_forward,
                     lstm_init, mlp_backward, mlp_forward, mlp_init, sigmoid,
                     softmax)
from .params import DimensionError, ParamSet, uniform_init, write_atomic

__all__ = [
    "AdamaxState", "adamax_update", "fit", "NumericError", "TrainingError",
    "lstm_backward", "lstm_forward", "lstm_init", "mlp_backward",
    "mlp_forward", "mlp_init", "sigmoid", "softmax",
    "DimensionError", "ParamSet", "uniform_init", "write_atomic",
]
