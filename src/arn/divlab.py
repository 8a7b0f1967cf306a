"""Finite-categorical verification of the adversarial objective's theory:
the optimal per-outcome discriminator, the expansion of the generator
objective into -(JS + KL) + const, and recovery of p_G = p_d at the
equilibrium of the combined KL + JS objective.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import Categorical, entropy, js_categorical, kl_categorical
from .errors import ConvergenceError, DomainError, SupportError

# the lab's fixed settings, read at call time: D's grid spacing, and the Nash solve's TV bound, step and cap
GRID_STEP = 1e-5
NASH_TOL = 1e-3
NASH_STEP = 0.1
NASH_MAX_ITER = 100_000


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


def _expected_log(p_d: Categorical, p_g: Categorical) -> float:
    """E_pd[log p_g] over the support of p_d; SupportError where p_g is 0 on it."""
    mask = p_d.probs > 0
    if np.any(p_g.probs[mask] == 0):
        raise SupportError("p_d puts mass where p_g has none")
    return float(np.sum(p_d.probs[mask] * np.log(p_g.probs[mask])))


def game_value(game: ToyGame) -> float:
    """sum p_d log p_g - sum p_d log D - sum p_g log(1 - D), exact sums.

    The discriminator minimizes this value under our sign convention.
    """
    pd, pg, d = game.p_d.probs, game.p_g.probs, game.d
    like = _expected_log(game.p_d, game.p_g)
    return like - float(np.sum(pd * np.log(d))) - float(np.sum(pg * np.log(1.0 - d)))


def optimal_discriminator(p_d: Categorical, p_g: Categorical) -> np.ndarray:
    """Componentwise p_d / (p_d + p_g); 0/0 outcomes are returned as NaN."""
    pd, pg = p_d.probs, p_g.probs
    total = pd + pg
    out = np.full_like(pd, np.nan)
    np.divide(pd, total, out=out, where=total > 0)
    return out


def grid_search_discriminator(p_d: Categorical, p_g: Categorical) -> np.ndarray:
    """Per-coordinate exhaustive minimizer of the game value over the GRID_STEP grid in (0, 1).

    The D-terms are separable across outcomes, so each coordinate minimizes
    -p_d[k] log D - p_g[k] log(1 - D) independently.
    """
    grid = np.arange(GRID_STEP, 1.0, GRID_STEP)
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
    js = js_categorical(p_d, p_g)
    lhs = _expected_log(p_d, p_g) - js
    rhs = -js - kl_categorical(p_d, p_g) - entropy(p_d)
    return lhs, rhs, abs(lhs - rhs)


def _kl_js_grad(p: np.ndarray, logits: np.ndarray):
    """The gradient of KL(p||q) + JS(p||q) w.r.t. the logits, and q = softmax(logits)."""
    # inline, not kernels.softmax_rows: its keepdims reductions cost more on one 1-D row,
    # and a Nash solve makes thousands of calls (`arn divlab` ran 8.5% slower on 2-core x86-64)
    q = np.exp(logits - logits.max())
    q /= q.sum()
    m = 0.5 * (p + q)
    # d/dq of KL + JS, then chain through the softmax parameterization
    g_q = -p / q + 0.5 * np.log(q / m)
    return q * (g_q - np.dot(q, g_q)), q


def solve_nash(p_d: Categorical, init: Categorical):
    """Minimize KL(p_d||q) + JS(p_d||q) over the simplex by gradient descent on
    softmax logits; returns the first iterate with TV(q, p_d) <= NASH_TOL.
    """
    if np.any(p_d.probs <= 0):
        raise DomainError("p_d must be strictly positive")
    p = p_d.probs
    logits = np.log(np.clip(init.probs, 1e-12, None))
    for _ in range(NASH_MAX_ITER):
        grad, q = _kl_js_grad(p, logits)
        tv = 0.5 * float(np.abs(q - p).sum())
        if tv <= NASH_TOL:
            return Categorical(q)
        logits = logits - NASH_STEP * grad
        logits -= logits.max()
    raise ConvergenceError(
        f"no convergence to TV <= {NASH_TOL} in {NASH_MAX_ITER} iterations (last TV {tv:.3e})")


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
        q = solve_nash(pd, random_simplex(rng, k))
        nash_tv = max(nash_tv, 0.5 * float(np.abs(q.probs - pd.probs).sum()))
    return {
        "identity_max_gap": identity_max_gap,
        "dstar_max_err": dstar_max_err,
        "nash_tv": nash_tv,
        "trials": trials,
    }
