"""Numeric foundation: tape-based autodiff, parameters, Adam, grad check."""
from .losses import EmptyMaskError, masked_mse
from .optim import AdamState, NonFiniteGradientError, adam_step
from .params import ParamStore
from .tensor import (
    Tensor,
    buffer_pool,
    concat,
    constant,
    embedding,
    matmul,
    no_grad,
    scratch,
    sigmoid,
    step_buffer,
)
from .verify import NonDeterministicObjectiveError, grad_check

__all__ = [
    "AdamState",
    "EmptyMaskError",
    "NonDeterministicObjectiveError",
    "NonFiniteGradientError",
    "ParamStore",
    "Tensor",
    "adam_step",
    "buffer_pool",
    "concat",
    "constant",
    "embedding",
    "grad_check",
    "masked_mse",
    "matmul",
    "no_grad",
    "scratch",
    "sigmoid",
    "step_buffer",
]
