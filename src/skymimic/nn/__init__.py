from .adamax import AdamaxState, adamax_update, fit
from .gradcheck import grad_check
from .layers import (NumericError, TrainingError, affine, affine_backward,
                     lstm_backward, lstm_forward, lstm_init,
                     lstm_input_weights, lstm_step, mlp_backward,
                     mlp_forward, mlp_init, sigmoid, softmax)
from .params import DimensionError, ParamSet, uniform_init

__all__ = [
    "AdamaxState", "adamax_update", "fit", "grad_check", "NumericError",
    "TrainingError",
    "affine", "affine_backward", "lstm_backward", "lstm_forward",
    "lstm_init", "lstm_input_weights", "lstm_step", "mlp_backward",
    "mlp_forward", "mlp_init", "sigmoid", "softmax", "DimensionError",
    "ParamSet", "uniform_init",
]
