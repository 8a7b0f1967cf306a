"""Finite-categorical verification of the adversarial objective's theory:
the optimal per-outcome discriminator, the expansion of the generator
objective into -(JS + KL) + const, and recovery of p_G = p_d at the
equilibrium of the combined KL + JS objective.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Categorical, entropy, js_categorical, kl_categorical
from .errors import ConvergenceError, DomainError, SupportError


@dataclass
class ToyGame:
    """Explicit K-outcome game: data dist, generator dist, discriminator values."""

    p_d: Categorical
    p_g: Categorical
    d: np.ndarray

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=np.float64)
        if not (len(self.p_d) == len(self.p_g) == self.d.size):
            raise DomainError("p_d, p_g and d must share one support size")
        if np.any(self.d <= 0.0) or np.any(self.d >= 1.0):
            raise DomainError("discriminator values must lie strictly in (0, 1)")


def game_value(game: ToyGame) -> float:
    """sum p_d log p_g - sum p_d log D - sum p_g log(1 - D), exact sums.

    The discriminator minimizes this value under our sign convention.
    """
    pd, pg, d = game.p_d.probs, game.p_g.probs, game.d
    mask = pd > 0
    if np.any(pg[mask] == 0):
        raise SupportError("p_d puts mass where p_g has none")
    like = float(np.sum(pd[mask] * np.log(pg[mask])))
    return like - float(np.sum(pd * np.log(d))) - float(np.sum(pg * np.log(1.0 - d)))


def optimal_discriminator(p_d: Categorical, p_g: Categorical) -> np.ndarray:
    """Componentwise p_d / (p_d + p_g); 0/0 outcomes are returned as NaN."""
    pd, pg = p_d.probs, p_g.probs
    total = pd + pg
    out = np.full_like(pd, np.nan)
    np.divide(pd, total, out=out, where=total > 0)
    return out


def grid_search_discriminator(p_d: Categorical, p_g: Categorical, resolution=1e-5) -> np.ndarray:
    """Per-coordinate exhaustive minimizer of the game value over (0, 1).

    The D-terms are separable across outcomes, so each coordinate minimizes
    -p_d[k] log D - p_g[k] log(1 - D) independently.
    """
    grid = np.arange(resolution, 1.0, resolution)
    log_grid = np.log(grid)
    log_1m = np.log(1.0 - grid)
    out = np.empty(len(p_d))
    for k in range(len(p_d)):
        obj = -p_d.probs[k] * log_grid - p_g.probs[k] * log_1m
        out[k] = grid[int(np.argmin(obj))]
    return out


def verify_identity(p_d: Categorical, p_g: Categorical):
    """Both sides of E_pd[log p_G] - JS = -(JS + KL) - E_pd[log p_d].

    Returns (lhs, rhs, gap). The two sides are computed from independent
    ingredients: raw log sums on the left, KL + entropy on the right.
    """
    pd, pg = p_d.probs, p_g.probs
    mask = pd > 0
    if np.any(pg[mask] == 0):
        raise SupportError("p_d puts mass where p_g has none")
    js = js_categorical(p_d, p_g)
    lhs = float(np.sum(pd[mask] * np.log(pg[mask]))) - js
    rhs = -js - kl_categorical(p_d, p_g) - entropy(p_d)
    return lhs, rhs, abs(lhs - rhs)


def _kl_js_grad(p: np.ndarray, logits: np.ndarray):
    """The gradient of KL(p||q) + JS(p||q) w.r.t. the logits, and q = softmax(logits)."""
    q = np.exp(logits - logits.max())
    q /= q.sum()
    m = 0.5 * (p + q)
    # d/dq of KL + JS, then chain through the softmax parameterization
    g_q = -p / q + 0.5 * np.log(q / m)
    return q * (g_q - np.dot(q, g_q)), q


def solve_nash(p_d: Categorical, init: Categorical, tol: float = 1e-3,
               step: float = 0.1, max_iter: int = 100_000):
    """Minimize KL(p_d||q) + JS(p_d||q) over the simplex by gradient descent
    on softmax logits. Returns the iterate with TV(q, p_d) <= tol.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if np.any(p_d.probs <= 0):
        raise DomainError("p_d must be strictly positive")
    p = p_d.probs
    logits = np.log(np.clip(init.probs, 1e-12, None))
    best_q, best_tv = None, math.inf
    for _ in range(max_iter):
        grad, q = _kl_js_grad(p, logits)
        tv = 0.5 * float(np.abs(q - p).sum())
        if tv < best_tv:
            best_tv, best_q = tv, q
        if tv <= tol:
            return Categorical(q)
        logits = logits - step * grad
        logits -= logits.max()
    raise ConvergenceError(
        f"no convergence to TV <= {tol} in {max_iter} iterations (best {best_tv:.3e})",
        best=Categorical(best_q),
    )


def kl_js_objective(p_d: Categorical, q: Categorical) -> float:
    return kl_categorical(p_d, q) + js_categorical(p_d, q)


def random_simplex(rng, k: int) -> Categorical:
    x = rng.gamma(1.0, 1.0, size=k) + 1e-9
    return Categorical(x / x.sum())


def run_lab(trials: int, k: int, seed: int) -> dict:
    """Full verification suite; returns the CLI-facing report dict."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 17])))
    identity_max_gap = 0.0
    dstar_max_err = 0.0
    nash_tv = 0.0
    for _ in range(trials):
        pd = random_simplex(rng, k)
        pg = random_simplex(rng, k)
        identity_max_gap = max(identity_max_gap, verify_identity(pd, pg)[2])
        dstar = optimal_discriminator(pd, pg)
        grid = grid_search_discriminator(pd, pg)
        dstar_max_err = max(dstar_max_err, float(np.max(np.abs(dstar - grid))))
    for _ in range(max(1, trials // 5)):
        pd = random_simplex(rng, k)
        q = solve_nash(pd, random_simplex(rng, k), tol=1e-3)
        nash_tv = max(nash_tv, 0.5 * float(np.abs(q.probs - pd.probs).sum()))
    return {
        "identity_max_gap": identity_max_gap,
        "dstar_max_err": dstar_max_err,
        "nash_tv": nash_tv,
        "trials": trials,
    }
