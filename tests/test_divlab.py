import math

import numpy as np
import pytest

from arn import divlab
from arn.distributions import Categorical
from arn.divlab import (
    ToyGame,
    game_value,
    grid_search_discriminator,
    kl_js_objective,
    optimal_discriminator,
    random_simplex,
    solve_nash,
    verify_identity,
)
from arn.errors import ConvergenceError, DomainError, NumericsError, SupportError


class TestGameValue:
    def test_symmetric_example(self):
        game = ToyGame(Categorical([0.5, 0.5]), Categorical([0.5, 0.5]), np.array([0.5, 0.5]))
        assert abs(game_value(game) - math.log(2)) < 1e-12  # -ln2 + 2 ln2

    def test_finite_on_open_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, q = random_simplex(rng, 4), random_simplex(rng, 4)
            d = rng.uniform(0.01, 0.99, size=4)
            assert np.isfinite(game_value(ToyGame(p, q, d)))

    def test_support_violation(self):
        with pytest.raises(SupportError):
            game_value(ToyGame(Categorical([0.5, 0.5]), Categorical([1.0, 0.0]), np.array([0.5, 0.5])))

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(1)
        p, q = random_simplex(rng, 5), random_simplex(rng, 5)
        d = rng.uniform(0.05, 0.95, size=5)
        exact = game_value(ToyGame(p, q, d))
        n = 1_000_000
        xs_d = rng.choice(5, size=n, p=p.probs)
        xs_g = rng.choice(5, size=n, p=q.probs)
        term1 = np.log(q.probs)[xs_d] - np.log(d)[xs_d]
        term2 = -np.log(1.0 - d)[xs_g]
        est = term1.mean() + term2.mean()
        se = np.sqrt(term1.var() / n + term2.var() / n)
        assert abs(est - exact) <= 3 * se


class TestOptimalDiscriminator:
    def test_equality_gives_half(self):
        p = Categorical([0.25, 0.25, 0.5])
        np.testing.assert_allclose(optimal_discriminator(p, p), 0.5)

    def test_quoted_pair(self):
        d = optimal_discriminator(Categorical([0.8, 0.2]), Categorical([0.2, 0.8]))
        np.testing.assert_allclose(d, [0.8, 0.2])
        grid = grid_search_discriminator(Categorical([0.8, 0.2]), Categorical([0.2, 0.8]))
        assert np.max(np.abs(d - grid)) <= 1e-4

    def test_grid_agrees_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p, q = random_simplex(rng, 5), random_simplex(rng, 5)
            err = np.max(np.abs(optimal_discriminator(p, q) - grid_search_discriminator(p, q)))
            assert err <= 1e-4

    def test_minimizes_over_random_discriminators(self):
        rng = np.random.default_rng(3)
        p, q = random_simplex(rng, 4), random_simplex(rng, 4)
        dstar = optimal_discriminator(p, q)
        best = game_value(ToyGame(p, q, dstar))
        samples = rng.uniform(1e-3, 1 - 1e-3, size=(10_000, 4))
        for d in samples:
            assert game_value(ToyGame(p, q, d)) >= best - 1e-12


class TestIdentity:
    def test_quoted_example(self):
        pd = Categorical([0.5, 0.5])
        pg = Categorical([0.25, 0.75])
        lhs, rhs, gap = verify_identity(pd, pg)
        assert gap <= 1e-12
        from arn.distributions import js_categorical

        assert abs(lhs - (-0.83698 - js_categorical(pd, pg))) < 1e-4

    def test_equality_case(self):
        p = Categorical([0.3, 0.3, 0.4])
        lhs, rhs, gap = verify_identity(p, p)
        assert gap <= 1e-12
        entropy = -np.sum(p.probs * np.log(p.probs))
        assert abs(lhs - (-entropy)) < 1e-12

    def test_random_pairs(self):
        rng = np.random.default_rng(4)
        worst = max(
            verify_identity(random_simplex(rng, 6), random_simplex(rng, 6))[2] for _ in range(200)
        )
        assert worst <= 1e-10


class TestNash:
    def test_immediate_convergence_at_optimum(self):
        p = Categorical([0.7, 0.2, 0.1])
        q = solve_nash(p, p)
        assert kl_js_objective(p, q) < 1e-6

    def test_uniform_target(self):
        rng = np.random.default_rng(5)
        p = Categorical([0.25] * 4)
        q = solve_nash(p, random_simplex(rng, 4))
        assert 0.5 * np.abs(q.probs - p.probs).sum() <= 1e-3

    def test_multi_start(self):
        rng = np.random.default_rng(6)
        p = Categorical([0.7, 0.2, 0.1])
        for _ in range(20):
            q = solve_nash(p, random_simplex(rng, 3))
            assert 0.5 * np.abs(q.probs - p.probs).sum() <= 1e-3

    def test_objective_never_increases_from_init(self):
        rng = np.random.default_rng(7)
        p = Categorical([0.5, 0.3, 0.2])
        init = random_simplex(rng, 3)
        q = solve_nash(p, init)
        assert kl_js_objective(p, q) <= kl_js_objective(p, init) + 1e-12

    def test_iteration_cap_names_the_last_tv(self, monkeypatch):
        monkeypatch.setattr(divlab, "NASH_MAX_ITER", 1)
        p, init = Categorical([0.7, 0.2, 0.1]), Categorical([0.1, 0.2, 0.7])
        # the one iterate is softmax(log init), init itself up to rounding
        tv = 0.5 * np.abs(init.probs - p.probs).sum()
        with pytest.raises(ConvergenceError, match=f"in 1 iterations \\(last TV {tv:.3e}\\)"):
            solve_nash(p, init)
        assert issubclass(ConvergenceError, NumericsError)

    def test_rejects_zero_target(self):
        with pytest.raises(DomainError):
            solve_nash(Categorical([1.0, 0.0]), Categorical([0.5, 0.5]))
