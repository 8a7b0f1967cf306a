"""Probability primitives: diagonal Gaussians, Gumbel-Softmax, categorical divergences.

All divergences are in nats.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, ShapeError
from .tensor import Tensor, straight_through_hard

_NOISE_CLAMP = 1e-12


@dataclass
class GaussianPosterior:
    """Diagonal Gaussian q(z|x) with differentiable mu and log-variance.

    mu and log_var are Tensors of equal shape; for batched posteriors the
    last axis is the latent dimension.
    """

    mu: Tensor
    log_var: Tensor

    def __post_init__(self):
        if self.mu.shape != self.log_var.shape:
            raise ShapeError(f"mu/log_var shape mismatch: {self.mu.shape} vs {self.log_var.shape}")


@dataclass
class Categorical:
    """Explicit finite distribution on the probability simplex."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if not (np.all(self.probs >= -1e-12) and abs(self.probs.sum() - 1.0) <= 1e-9):
            raise DomainError("probs must be nonnegative and sum to 1")
        self.probs = np.clip(self.probs, 0.0, None)

    def __len__(self):
        return self.probs.size


def reparam_sample(q: GaussianPosterior, noise) -> Tensor:
    """z = mu + exp(log_var / 2) * noise in the dtype of mu, differentiable w.r.t. (mu, log_var)."""
    noise = np.asarray(noise, dtype=q.mu.data.dtype)
    if noise.shape != q.mu.shape:
        raise ShapeError(f"noise shape {noise.shape} != posterior shape {q.mu.shape}")
    return q.mu + (q.log_var * 0.5).exp() * Tensor(noise)


def kl_gauss_std(q: GaussianPosterior) -> Tensor:
    """KL(q || N(0, I)), summed over the last axis.

    Returns a scalar Tensor for a 1-D posterior and a per-row vector for a
    batched 2-D posterior.
    """
    if not (np.isfinite(q.mu.data).all() and np.isfinite(q.log_var.data).all()):
        raise NumericsError("non-finite posterior parameters")
    axis = q.mu.data.ndim - 1
    term = q.mu * q.mu + q.log_var.exp() - q.log_var
    return (term.sum(axis=axis) - q.mu.shape[-1]) * 0.5


def gumbel_noise(uniform_noise) -> np.ndarray:
    """Standard Gumbel draws -log(-log(u)) from uniforms, clamped away from 0 and 1.

    Always float64: in float32 the clamp 1 - 1e-12 rounds to 1 and the draw
    to infinity, so a float32 caller casts the result, not the uniforms.
    The draws are computed in place in one new buffer; the uniforms are not
    written.
    """
    g = np.maximum(uniform_noise, _NOISE_CLAMP, dtype=np.float64)
    np.minimum(g, 1.0 - _NOISE_CLAMP, out=g)
    np.log(g, out=g)
    np.negative(g, out=g)
    np.log(g, out=g)
    return np.negative(g, out=g)


def gumbel_softmax(logits, tau: float, uniform_noise, hard=False) -> Tensor:
    """Relaxed one-hot sample: softmax((logits + g) / tau), g = -log(-log(u)).

    g is cast to the dtype of logits. With hard the forward value is the
    exact one-hot argmax while gradients flow through the soft sample
    (straight-through).
    """
    if not tau > 0:
        raise DomainError(f"temperature must be positive, got {tau}")
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    g = gumbel_noise(uniform_noise)
    if g.shape != logits.shape:
        raise ShapeError(f"noise shape {g.shape} != logits shape {logits.shape}")
    y = ((logits + Tensor(g.astype(logits.data.dtype, copy=False))) * (1.0 / tau)).softmax()
    if hard:
        return straight_through_hard(y)
    return y


def sample_rows(probs: np.ndarray, rng, cum=None, mask=None) -> np.ndarray:
    """One inverse-CDF index per row of a (B, K) array of laws; index K - 1 takes any rounding shortfall.

    cum (float64) and mask (bool), when given, take the running sums and comparisons, in probs' shape.
    """
    # a float32 running sum over 10^4 tokens drifts by up to 1e-5
    cum = np.cumsum(probs, axis=1, dtype=np.float64, out=cum)
    if not np.isfinite(cum[:, -1]).all():  # a NaN or Inf law would sample index 0 or K - 1 unnoticed
        raise NumericsError("non-finite probabilities in sampling")
    cum[:, -1] = 1.0
    u = rng.random(probs.shape[0])
    return np.less(cum, u[:, None], out=mask).sum(axis=1)


def _kl_raw(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def check_support(p: Categorical, q: Categorical) -> None:
    """ShapeError unless p and q have one support size."""
    if len(p) != len(q):
        raise ShapeError(f"support size mismatch: {len(p)} vs {len(q)}")


def kl_categorical(p: Categorical, q: Categorical) -> float:
    """KL(p || q) with 0 log(0/x) = 0; +inf when absolute continuity fails."""
    check_support(p, q)
    return _kl_raw(p.probs, q.probs)


def js_categorical(p: Categorical, q: Categorical) -> float:
    """Jensen-Shannon divergence; symmetric, bounded by ln 2."""
    check_support(p, q)
    m = 0.5 * (p.probs + q.probs)
    return 0.5 * _kl_raw(p.probs, m) + 0.5 * _kl_raw(q.probs, m)


def entropy(p: Categorical) -> float:
    mask = p.probs > 0
    return float(-np.sum(p.probs[mask] * np.log(p.probs[mask])))
