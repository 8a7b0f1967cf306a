"""Finite-categorical verification of the adversarial objective's theory:
the optimal per-outcome discriminator, the expansion of the generator
objective into -(JS + KL) + const, and recovery of p_G = p_d at the
equilibrium of the combined KL + JS objective.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels, training
from .distributions import Categorical, check_support, entropy, js_categorical, kl_categorical
from .errors import ConvergenceError, DomainError, ShapeError, SupportError

# the lab's fixed settings, read at call time: D's grid spacing, and the Nash solve's TV bound,
# mirror-descent step, per-outcome bound on the step's direction, and iteration cap
GRID_STEP = 1e-5
NASH_TOL = 1e-3
NASH_STEP = 0.8
NASH_CLIP = 1.0
NASH_MAX_ITER = 100_000
# grid points per block of the D* scan: its two 125 KiB work arrays stay in cache, and below
# glibc's 128 KiB mmap threshold, so they are not mapped and faulted in on every call
_GRID_BLOCK = 16_000


@dataclass
class ToyGame:
    """Explicit K-outcome game: data dist, generator dist, discriminator values."""

    p_d: Categorical
    p_g: Categorical
    d: np.ndarray

    def __post_init__(self):
        check_support(self.p_d, self.p_g)
        self.d = np.asarray(self.d, dtype=np.float64)
        if self.d.shape != (len(self.p_d),):
            raise ShapeError(f"d has shape {self.d.shape}, expected ({len(self.p_d)},)")
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
    check_support(p_d, p_g)
    pd, pg = p_d.probs, p_g.probs
    total = pd + pg
    out = np.full_like(pd, np.nan)
    np.divide(pd, total, out=out, where=total > 0)
    return out


@functools.lru_cache(maxsize=1)
def _grid(step: float):
    """The step grid in (0, 1) and its two log arrays, read-only, kept for the last step asked for."""
    grid = np.arange(step, 1.0, step)
    arrays = (grid, np.log(grid), np.log(1.0 - grid))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def grid_search_discriminator(p_d: Categorical, p_g: Categorical) -> np.ndarray:
    """Per-coordinate exhaustive minimizer of the game value over the GRID_STEP grid in (0, 1).

    The D-terms are separable across outcomes, so each coordinate minimizes
    -p_d[k] log D - p_g[k] log(1 - D) independently. The grid is scanned in
    blocks of _GRID_BLOCK points through two block-sized work arrays; a block's
    minimum replaces the best so far only when strictly smaller, so the first
    minimum of the whole grid wins, as with one argmin over it.
    """
    check_support(p_d, p_g)
    grid, log_grid, log_1m = _grid(GRID_STEP)
    obj, term = np.empty(_GRID_BLOCK), np.empty(_GRID_BLOCK)
    best = np.full(len(p_d), np.inf)
    out = np.empty(len(p_d))
    for start in range(0, len(grid), _GRID_BLOCK):
        logs, logs_1m = log_grid[start:start + _GRID_BLOCK], log_1m[start:start + _GRID_BLOCK]
        block_obj, block_term = obj[:len(logs)], term[:len(logs)]
        for k in range(len(p_d)):
            np.multiply(-p_d.probs[k], logs, out=block_obj)
            np.multiply(p_g.probs[k], logs_1m, out=block_term)
            block_obj -= block_term
            i = int(np.argmin(block_obj))
            if block_obj[i] < best[k]:
                best[k] = block_obj[i]
                out[k] = grid[start + i]
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


def _kl_js_grad(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The mirror-descent direction of KL(p||q) + JS(p||q) at q: its gradient in q, centred by <q, .>.

    q times it is the gradient w.r.t. the logits of q = softmax(logits).
    """
    m = 0.5 * (p + q)
    g_q = -p / q + 0.5 * np.log(q / m)
    return g_q - np.dot(q, g_q)


def solve_nash(p_d: Categorical, init: Categorical):
    """Minimize KL(p_d||q) + JS(p_d||q) over the simplex by mirror descent (exponentiated
    gradient) from softmax(log init); returns the first iterate with TV(q, p_d) <= NASH_TOL.

    Each step subtracts NASH_STEP times the direction of _kl_js_grad, clipped to
    [-NASH_CLIP, NASH_CLIP], from the logits: q is multiplied by at most exp(2 NASH_STEP
    NASH_CLIP) per outcome and step, where the -p/q term is unbounded as q nears 0.
    """
    check_support(p_d, init)
    if np.any(p_d.probs <= 0):
        raise DomainError("p_d must be strictly positive")
    p = p_d.probs
    logits = np.log(np.clip(init.probs, 1e-12, None))
    for _ in range(NASH_MAX_ITER):
        q = kernels.softmax_rows(logits)
        tv = 0.5 * float(np.abs(q - p).sum())
        if tv <= NASH_TOL:
            return Categorical(q)
        logits -= NASH_STEP * np.clip(_kl_js_grad(p, q), -NASH_CLIP, NASH_CLIP)
    raise ConvergenceError(
        f"no convergence to TV <= {NASH_TOL} in {NASH_MAX_ITER} iterations (last TV {tv:.3e})")


def random_simplex(rng, k: int) -> Categorical:
    x = rng.gamma(1.0, 1.0, size=k) + 1e-9
    return Categorical(x / x.sum())


def run_lab(trials: int, k: int, seed: int) -> dict:
    """Full verification suite; returns the CLI-facing report dict."""
    rng = training.rng_streams(seed)["lab"]
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
