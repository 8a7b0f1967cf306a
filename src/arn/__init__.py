"""Adversarial autoregressive sequence model: library and CLI."""

from .errors import (
    ArnError,
    ConfigError,
    ConvergenceError,
    DomainError,
    EmptyInputError,
    EncodingError,
    NumericsError,
    RankError,
    ShapeError,
    SupportError,
    TrainingAborted,
    VocabError,
)
from .tensor import Tensor, concat, gather_rows, grad_check, no_grad, pick

__all__ = [
    "ArnError",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "EmptyInputError",
    "EncodingError",
    "NumericsError",
    "RankError",
    "ShapeError",
    "SupportError",
    "TrainingAborted",
    "VocabError",
    "Tensor",
    "concat",
    "gather_rows",
    "grad_check",
    "no_grad",
    "pick",
]

__version__ = "0.1.0"
