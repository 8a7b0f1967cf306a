"""Finite-categorical verification of the adversarial objective's theory:
the optimal per-outcome discriminator, the expansion of the generator
objective into -(JS + KL) + const, and recovery of p_G = p_d at the
equilibrium of the combined KL + JS objective.

The identity and discriminator checks take one pair of laws or a stack of
pairs (see distributions.Categorical); the game and the Nash solve take one.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, training
from .distributions import (
    Categorical, check_support, entropy, expected_log, js_categorical, kl_categorical,
)
from .errors import ConfigError, ConvergenceError, DomainError, ShapeError, SupportError

# the lab's fixed settings, read at call time: D's grid spacing, and the Nash solve's TV bound,
# mirror-descent step, per-outcome bound on the step's direction, and iteration cap
GRID_STEP = 1e-5
NASH_TOL = 1e-3
NASH_STEP = 0.8
NASH_CLIP = 1.0
NASH_MAX_ITER = 100_000
# the largest passing value of each figure of run_lab's report; arn divlab exits 3 past any
BOUNDS = {"identity_max_gap": 1e-10, "dstar_max_err": 1e-4, "nash_tv": NASH_TOL}
# grid points between the coarse points of the D* scan, and half its fine window
_STRIDE = 256
# |log D|, |log(1 - D)| >= 2^-53 in (0, 1): a D-term of weight 0 or at least this is 0 or normal
_NORMAL_WEIGHT = 2.0 ** -960


@dataclass
class ToyGame:
    """Explicit K-outcome game: data dist, generator dist, discriminator values."""

    p_d: Categorical
    p_g: Categorical
    d: np.ndarray

    def __post_init__(self):
        check_support(self.p_d, self.p_g)
        _check_one_law(self.p_d)
        self.d = np.asarray(self.d, dtype=np.float64)
        if self.d.shape != (len(self.p_d),):
            raise ShapeError(f"d has shape {self.d.shape}, expected ({len(self.p_d)},)")
        if not (np.all(self.d > 0.0) and np.all(self.d < 1.0)):
            raise DomainError("discriminator values must lie strictly in (0, 1)")


def _check_one_law(p: Categorical) -> None:
    """ShapeError if p is a stack of laws."""
    if p.probs.ndim != 1:
        raise ShapeError(f"expected one law, got a stack of shape {p.probs.shape[:-1]}")


def _expected_log(p_d: Categorical, p_g: Categorical):
    """E_pd[log p_g] over the support of p_d, per law; SupportError where p_g is 0 on it."""
    if np.any(p_g.probs[p_d.probs > 0] == 0):
        raise SupportError("p_d puts mass where p_g has none")
    return expected_log(p_d.probs, p_g.probs)


def game_value(game: ToyGame) -> float:
    """sum p_d log p_g - sum p_d log D - sum p_g log(1 - D), exact sums.

    The discriminator minimizes this value under our sign convention.
    """
    pd, pg, d = game.p_d.probs, game.p_g.probs, game.d
    like = _expected_log(game.p_d, game.p_g)
    return like - float(np.sum(pd * np.log(d))) - float(np.sum(pg * np.log(1.0 - d)))


def optimal_discriminator(p_d: Categorical, p_g: Categorical) -> np.ndarray:
    """Componentwise p_d / (p_d + p_g), in the laws' shape; 0/0 outcomes are returned as NaN."""
    check_support(p_d, p_g)
    pd, pg = p_d.probs, p_g.probs
    total = pd + pg
    out = np.full_like(pd, np.nan)
    np.divide(pd, total, out=out, where=total > 0)
    return out


def _d_terms(a, b, g):
    """-a log g - b log(1 - g) at the grid points g, in the arithmetic of an exhaustive scan."""
    return (-a) * np.log(g) - b * np.log(1.0 - g)


def _scan(a, b, step, n, width):
    """The scan's point for each outcome of weights a, b (1-D): the first minimum over the
    width-point window around the outcome's coarse minimum, clipped to the n-point grid."""
    a, b = a[:, None], b[:, None]
    coarse = np.arange(0, n, _STRIDE)
    centre = coarse[np.argmin(_d_terms(a, b, step + coarse * step), axis=1)]
    lo = np.clip(centre - _STRIDE, 0, n - width)
    points = step + (lo[:, None] + np.arange(width)) * step
    return points[np.arange(len(a)), np.argmin(_d_terms(a, b, points), axis=1)]


def grid_search_discriminator(p_d: Categorical, p_g: Categorical) -> np.ndarray:
    """Per-coordinate minimizer of the game value over the grid np.arange(GRID_STEP, 1.0, GRID_STEP):
    the point that one argmin over the whole grid returns, found coarse to fine, in the laws' shape.

    The D-terms are separable, so each outcome minimizes -p_d[k] log D - p_g[k] log(1 - D) on
    its own, and a stack's outcomes are scanned as one flat list. Grid point i is
    GRID_STEP + i GRID_STEP, as np.arange computes it. The scan evaluates every _STRIDE-th point,
    then the 2 _STRIDE + 1 points around each outcome's coarse minimum, and returns the first
    minimum among those. This is the exhaustive scan's point: the objective is convex in D, and,
    except within one grid step of the minimum, adjacent computed values differ by at least about
    1e-11 relative at this spacing, while rounding moves them by about 1e-16. So the coarse
    minimum is within one stride of the exhaustive one, and the window holds every point that
    ties it. A grid shorter than the window is scanned whole, and so is every grid of a game
    (one pair of laws) with a nonzero weight below _NORMAL_WEIGHT: a subnormal D-term rounds far
    more coarsely. The other games of a stack keep their windows.
    """
    check_support(p_d, p_g)
    step = GRID_STEP
    if not 0.0 < step < 1.0:
        raise ConfigError(f"GRID_STEP must lie in (0, 1) for the grid to hold a point, got {step}")
    n = math.ceil((1.0 - step) / step)  # the length of np.arange(step, 1.0, step)
    pd, pg = p_d.probs, p_g.probs
    tiny = (pd > 0) & (pd < _NORMAL_WEIGHT) | (pg > 0) & (pg < _NORMAL_WEIGHT)
    whole = np.broadcast_to(tiny.any(axis=-1, keepdims=True), pd.shape).reshape(-1)
    a, b = pd.reshape(-1), pg.reshape(-1)
    out = np.empty_like(a)
    for outcomes, width in ((~whole, min(2 * _STRIDE + 1, n)), (whole, n)):
        if outcomes.any():
            out[outcomes] = _scan(a[outcomes], b[outcomes], step, n, width)
    return out.reshape(pd.shape)


def verify_identity(p_d: Categorical, p_g: Categorical):
    """Both sides of E_pd[log p_G] - JS = -(JS + KL) - E_pd[log p_d].

    Returns (lhs, rhs, gap): floats for one pair of laws, arrays for a stack. The two sides
    are computed from independent ingredients: raw log sums on the left, KL + entropy on the
    right.
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
    _check_one_law(p_d)
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


def random_simplex(rng, k: int, batch=()) -> Categorical:
    """A law drawn uniformly from the k-outcome simplex, or a stack of shape batch of them.

    The laws take their k gamma draws each from rng in turn, so a stack draws what as many
    one-law calls draw, in row order.
    """
    x = rng.gamma(1.0, 1.0, size=(*batch, k)) + 1e-9
    return Categorical(x / x.sum(axis=-1, keepdims=True))


def run_lab(trials: int, k: int, seed: int) -> dict:
    """Full verification suite on trials random games; returns the CLI-facing report dict.

    One draw makes every game: each trial's (p_d, p_g), then each Nash solve's (p_d, init).
    The trials' games are checked as one stack, and the solves run one at a time. Each figure
    is the largest over its games, and NaN when any of them is NaN.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    solves = max(1, trials // 5)
    games = random_simplex(training.rng_streams(seed, "lab")["lab"], k, (trials + solves, 2)).probs
    pd, pg = Categorical(games[:trials, 0]), Categorical(games[:trials, 1])
    gaps = verify_identity(pd, pg)[2]
    errors = np.abs(optimal_discriminator(pd, pg) - grid_search_discriminator(pd, pg))
    tvs = [0.5 * float(np.abs(solve_nash(Categorical(p), Categorical(init)).probs - p).sum())
           for p, init in games[trials:]]
    return {
        "identity_max_gap": float(np.max(gaps)),
        "dstar_max_err": float(np.max(errors)),
        "nash_tv": float(np.max(tvs)),
        "trials": trials,
    }
