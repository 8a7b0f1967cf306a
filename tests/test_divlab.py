import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arn import divlab, kernels, training
from arn.distributions import Categorical, js_categorical, kl_categorical
from arn.divlab import (
    ToyGame,
    game_value,
    grid_search_discriminator,
    optimal_discriminator,
    random_simplex,
    solve_nash,
    verify_identity,
)
from arn.errors import ConfigError, ConvergenceError, DomainError, NumericsError, ShapeError, SupportError


def kl_js(p: Categorical, q: np.ndarray) -> float:
    """The lab's objective KL(p||q) + JS(p||q)."""
    return kl_categorical(p, Categorical(q)) + js_categorical(p, Categorical(q))


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

    def test_support_size_mismatch(self):
        with pytest.raises(ShapeError, match="support size mismatch: 2 vs 3"):
            ToyGame(Categorical([0.5, 0.5]), Categorical([0.2, 0.3, 0.5]), [0.5, 0.5])

    @pytest.mark.parametrize("d", [[0.5], [0.5, 0.5, 0.5], [[0.5], [0.5]]])
    def test_discriminator_of_wrong_shape(self, d):
        with pytest.raises(ShapeError):
            ToyGame(Categorical([0.5, 0.5]), Categorical([0.2, 0.8]), d)

    @pytest.mark.parametrize("d", [[math.nan, 0.5], [0.5, math.nan], [0.0, 0.5], [0.5, 1.0], [-math.inf, 0.5]])
    def test_discriminator_outside_the_open_interval(self, d):
        with pytest.raises(DomainError, match=r"strictly in \(0, 1\)"):
            ToyGame(Categorical([0.5, 0.5]), Categorical([0.2, 0.8]), d)

    def test_discriminator_near_the_ends_of_the_interval(self):
        game = ToyGame(Categorical([0.5, 0.5]), Categorical([0.2, 0.8]), [5e-7, 1.0 - 5e-7])
        assert np.isfinite(game_value(game))

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


class TestExpectedLog:
    # laws with a zero and no entry equal to 1, so the zero is the only outcome the checks may skip
    def test_zero_of_p_g_on_the_support_of_p_d(self):
        with pytest.raises(SupportError):
            divlab._expected_log(Categorical([0.4, 0.3, 0.3]), Categorical([0.5, 0.5, 0.0]))

    def test_zero_of_both_laws_is_skipped(self):
        p = Categorical([0.5, 0.5, 0.0])
        assert divlab._expected_log(p, p) == math.log(0.5)


class TestOptimalDiscriminator:
    def test_equality_gives_half(self):
        p = Categorical([0.25, 0.25, 0.5])
        np.testing.assert_allclose(optimal_discriminator(p, p), 0.5)

    def test_outcome_of_neither_law_is_nan_without_a_warning(self):
        with np.errstate(all="raise"):
            d = optimal_discriminator(Categorical([0.75, 0.25, 0.0]), Categorical([0.25, 0.75, 0.0]))
        assert d[:2].tolist() == [0.75, 0.25] and math.isnan(d[2])

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

    @staticmethod
    def unblocked_grid_search(p_d, p_g):
        """One argmin over the whole grid per outcome, with the scan's arithmetic."""
        grid = np.arange(divlab.GRID_STEP, 1.0, divlab.GRID_STEP)
        return np.array([grid[np.argmin(-a * np.log(grid) - b * np.log(1.0 - grid))]
                         for a, b in zip(p_d.probs, p_g.probs)])

    def test_scan_equals_one_argmin(self):
        rng = np.random.default_rng(6)
        for k in rng.integers(2, 17, size=40):
            p, q = random_simplex(rng, int(k)), random_simplex(rng, int(k))
            assert grid_search_discriminator(p, q).tobytes() == self.unblocked_grid_search(p, q).tobytes()

    @staticmethod
    def aimed_at(g):
        """Laws whose D* is g: each target comes with an outcome aimed at 1 - g of the same weight,
        so p_d and p_g share one normalizer and p_d / (p_d + p_g) is g itself."""
        g = np.concatenate([g, 1.0 - g])
        w = np.tile(np.random.default_rng(7).uniform(1.0, 2.0, size=len(g) // 2), 2)
        return Categorical(g * w / (g * w).sum()), Categorical((1.0 - g) * w / ((1.0 - g) * w).sum())

    def test_minimum_near_a_coarse_point_or_a_window_end(self):
        # grid point i is step + i step; aim D* at coarse points, at the midpoints between two,
        # where either can be the coarse minimum, at the ends of the windows clipped to the grid's
        # first and last points, and at the neighbours of each
        step, stride = divlab.GRID_STEP, divlab._STRIDE
        grid = np.arange(step, 1.0, step)
        coarse = np.arange(0, len(grid), stride)
        centres = np.concatenate([coarse[[1, 2, 62, 195, -2, -1]], coarse[[1, 62, 195, -2]] + stride // 2,
                                  [1, 2 * stride - 1, len(grid) - 2 * stride, len(grid) - 2]])
        targets = np.concatenate([centres + d for d in (-1, 0, 1)])
        p, q = self.aimed_at(grid[targets])
        found = grid_search_discriminator(p, q)
        assert found.tobytes() == self.unblocked_grid_search(p, q).tobytes()
        hit = np.rint(found[:len(targets)] / step).astype(int) - 1
        assert np.abs(hit - targets).max() <= 1 and np.mean(hit == targets) >= 0.5

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_minimum_on_a_coarse_point_or_a_neighbour(self, offset):
        grid = np.arange(divlab.GRID_STEP, 1.0, divlab.GRID_STEP)
        targets = divlab._STRIDE * np.array([1, 100, 300]) + offset
        p, q = self.aimed_at(grid[targets])
        found = grid_search_discriminator(p, q)
        assert found.tobytes() == self.unblocked_grid_search(p, q).tobytes()
        assert found[:3].tobytes() == grid[targets].tobytes()

    @pytest.mark.parametrize("below", [True, False])
    def test_minimum_outside_the_grid(self, below):
        # D* within half a step of 0 or 1: the first or the last grid point wins
        step = divlab.GRID_STEP
        g = np.array([0.4 * step, 1e-9, 1e-300]) if below else 1.0 - np.array([0.4 * step, 1e-9, 1e-16])
        p, q = self.aimed_at(g)
        found = grid_search_discriminator(p, q)
        assert found.tobytes() == self.unblocked_grid_search(p, q).tobytes()
        grid = np.arange(step, 1.0, step)
        assert (found[:3] == (grid[0] if below else grid[-1])).all()

    @pytest.mark.parametrize("a, b, offset", [
        # midway between two coarse points, where the coarse minimum can be either
        (0.15992373740985288, 0.17324724499535313, divlab._STRIDE // 2),
        # across a coarse point: the point before it, the first of the tie, only the window sees
        (0.1505772195406697, 0.7980900954963174, 0),
    ])
    def test_tie_near_a_coarse_point_keeps_the_first(self, a, b, offset):
        # found by search: this outcome's objective is equal, to the bit, at two adjacent points,
        # the second offset from a coarse point, and smaller nowhere else
        p, q = Categorical([a, 1.0 - a]), Categorical([b, 1.0 - b])
        grid = np.arange(divlab.GRID_STEP, 1.0, divlab.GRID_STEP)
        obj = -p.probs[0] * np.log(grid) - q.probs[0] * np.log(1.0 - grid)
        first, second = np.flatnonzero(obj == obj.min())
        assert second == first + 1 and second % divlab._STRIDE == offset
        assert grid_search_discriminator(p, q)[0] == grid[first]

    @pytest.mark.parametrize("a, b", [(1e-320, 7e-321), (5e-324, 5e-324), (1e-300, 3e-310)])
    def test_subnormal_d_terms(self, a, b):
        # weights this small make the D-terms subnormal, with plateaus and bumps far wider than one
        # stride: the first of these pairs has a minimum that the coarse points miss
        p, q = Categorical([a, 1.0 - a]), Categorical([b, 1.0 - b])
        assert grid_search_discriminator(p, q).tobytes() == self.unblocked_grid_search(p, q).tobytes()

    @pytest.mark.parametrize("step", [1e-5, 1e-3, 1e-2])
    def test_scanned_points_are_the_grid(self, monkeypatch, step):
        # every point the scan evaluates is np.arange's point of that index: the coarse points,
        # then windows that reach the grid's first and last points; and with a subnormal D-term,
        # the whole grid for every outcome
        monkeypatch.setattr(divlab, "GRID_STEP", step)
        rows = []
        d_terms = divlab._d_terms

        def spy(a, b, g):
            rows.append(np.atleast_2d(g))
            return d_terms(a, b, g)

        monkeypatch.setattr(divlab, "_d_terms", spy)
        grid = np.arange(step, 1.0, step)
        p, q = Categorical([0.0, 0.5, 0.5]), Categorical([0.5, 0.0, 0.5])
        found = grid_search_discriminator(p, q)
        assert found[0] == grid[0] and found[1] == grid[-1]
        coarse, windows = rows
        assert coarse.tobytes() == grid[::divlab._STRIDE].tobytes()
        for row in windows:
            i = int(np.rint(row[0] / step)) - 1
            assert row.tobytes() == grid[i:i + len(row)].tobytes()
        assert windows[0][0] == grid[0] and windows[1][-1] == grid[-1]
        assert len(windows[0]) == min(2 * divlab._STRIDE + 1, len(grid))
        rows.clear()
        grid_search_discriminator(Categorical([0.5, 1e-320, 0.5]), q)
        assert all(row.tobytes() == grid.tobytes() for row in rows[1])

    def test_grid_step_is_read_at_each_call(self, monkeypatch):
        p, q = random_simplex(np.random.default_rng(4), 6), random_simplex(np.random.default_rng(5), 6)
        fine = grid_search_discriminator(p, q)
        monkeypatch.setattr(divlab, "GRID_STEP", 1e-3)
        coarse = grid_search_discriminator(p, q)
        coarse_grid = np.arange(1e-3, 1.0, 1e-3)
        assert np.isin(coarse, coarse_grid).all() and not np.isin(fine, coarse_grid).all()
        monkeypatch.undo()
        again = grid_search_discriminator(p, q)
        assert np.isin(again, np.arange(1e-5, 1.0, 1e-5)).all()
        assert again.tobytes() == fine.tobytes()

    def test_grid_step_below_the_default(self, monkeypatch):
        monkeypatch.setattr(divlab, "GRID_STEP", 5e-7)
        p, q = Categorical([0.8, 0.15, 0.05]), Categorical([0.2, 0.3, 0.5])
        err = np.abs(grid_search_discriminator(p, q) - optimal_discriminator(p, q))
        assert err.max() <= 5e-7

    @pytest.mark.parametrize("step", [1.5, 1.0, 0.0, -1e-3, math.nan])
    def test_grid_step_without_a_grid_point_is_a_config_error(self, monkeypatch, step):
        monkeypatch.setattr(divlab, "GRID_STEP", step)
        message = re.escape(f"GRID_STEP must lie in (0, 1) for the grid to hold a point, got {step}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            grid_search_discriminator(Categorical([0.5, 0.5]), Categorical([0.25, 0.75]))

    def test_support_size_mismatch(self):
        with pytest.raises(ShapeError, match="support size mismatch: 2 vs 3"):
            optimal_discriminator(Categorical([0.5, 0.5]), Categorical([0.2, 0.3, 0.5]))

    def test_grid_support_size_mismatch(self):
        with pytest.raises(ShapeError, match="support size mismatch: 2 vs 3"):
            grid_search_discriminator(Categorical([0.5, 0.5]), Categorical([0.2, 0.3, 0.5]))

    def test_minimizes_over_random_discriminators(self):
        rng = np.random.default_rng(3)
        p, q = random_simplex(rng, 4), random_simplex(rng, 4)
        dstar = optimal_discriminator(p, q)
        best = game_value(ToyGame(p, q, dstar))
        samples = rng.uniform(1e-3, 1 - 1e-3, size=(10_000, 4))
        for d in samples:
            assert game_value(ToyGame(p, q, d)) >= best - 1e-12


@st.composite
def dirichlet_games(draw):
    """Two Dirichlet laws on K = 2..16 outcomes, with an optional zero entry in either law, or one
    outcome of subnormal weight in both, and the grid step to scan them at."""
    k = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    concentration = draw(st.sampled_from([0.01, 0.1, 1.0, 10.0]))
    laws = [rng.dirichlet(np.full(k, concentration)) for _ in range(2)]
    i, edit = draw(st.integers(0, k - 1)), draw(st.sampled_from(["none", "zero p_d", "zero p_g", "tiny"]))
    for j, law in enumerate(laws):
        if edit == "tiny":
            law[(i + 1) % k] += law[i]
            law[i] = draw(st.one_of(st.integers(1, 2 ** 20).map(lambda m: m * 5e-324),
                                    st.floats(min_value=5e-324, max_value=divlab._NORMAL_WEIGHT)))
        elif edit == ("zero p_d", "zero p_g")[j]:
            law[i] = 0.0
            assume(law.sum() > 0)
            law /= law.sum()
    return Categorical(laws[0]), Categorical(laws[1]), draw(st.sampled_from([1e-5, 1e-3, 1e-2]))


@settings(max_examples=150, deadline=None, database=None)
@given(game=dirichlet_games())
def test_scan_equals_one_argmin_on_dirichlet_games(game):
    p, q, step = game
    with mock.patch.object(divlab, "GRID_STEP", step):
        found = grid_search_discriminator(p, q)
        assert found.tobytes() == TestOptimalDiscriminator.unblocked_grid_search(p, q).tobytes()


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
        assert kl_categorical(p, q) + js_categorical(p, q) < 1e-6

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
        objective = [kl_categorical(p, r) + js_categorical(p, r) for r in (q, init)]
        assert objective[0] <= objective[1] + 1e-12

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

    def test_support_size_mismatch(self):
        with pytest.raises(ShapeError, match="support size mismatch: 2 vs 3"):
            solve_nash(Categorical([0.5, 0.5]), Categorical([0.2, 0.3, 0.5]))

    def test_direction_times_q_is_the_logit_gradient(self):
        rng = np.random.default_rng(8)
        eps = 1e-5
        for k in rng.integers(2, 17, size=50):
            p = random_simplex(rng, int(k))
            logits = rng.normal(0.0, 2.0, size=int(k))

            def objective(x):
                q = np.exp(x - x.max())
                return kl_js(p, q / q.sum())

            q = np.exp(logits - logits.max())
            q /= q.sum()
            analytic = q * divlab._kl_js_grad(p.probs, q)
            numeric = np.empty(int(k))
            for i in range(int(k)):
                hi, lo = logits.copy(), logits.copy()
                hi[i] += eps
                lo[i] -= eps
                numeric[i] = (objective(hi) - objective(lo)) / (2.0 * eps)
            # the relative error of tensor.grad_check
            denom = np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-6

    def test_direction_is_the_centred_gradient_in_q(self):
        def objective(p, q):  # KL(p||q) + JS(p||q) by their sums, defined off the simplex too
            m = 0.5 * (p + q)
            return np.sum(p * np.log(p / q)) + 0.5 * np.sum(p * np.log(p / m)) + 0.5 * np.sum(q * np.log(q / m))

        rng = np.random.default_rng(10)
        eps = 1e-6
        for k in rng.integers(2, 17, size=50):
            p = random_simplex(rng, int(k)).probs
            q = 0.5 * rng.dirichlet(np.ones(int(k))) + 0.5 / k  # at least 1/32 on each outcome
            numeric = np.array([(objective(p, q + d) - objective(p, q - d)) / (2.0 * eps)
                                for d in eps * np.eye(int(k))])
            numeric -= np.dot(q, numeric)
            assert np.max(np.abs(divlab._kl_js_grad(p, q) - numeric)) <= 1e-8

    def test_returns_the_first_iterate_at_exactly_the_tolerance(self, monkeypatch):
        p, init = Categorical([0.7, 0.2, 0.1]), Categorical([0.1, 0.2, 0.7])
        first = kernels.softmax_rows(np.log(init.probs))
        monkeypatch.setattr(divlab, "NASH_TOL", 0.5 * float(np.abs(first - p.probs).sum()))
        assert solve_nash(p, init).probs.tobytes() == first.tobytes()

    def test_stress_converges_fast_and_descends(self, monkeypatch):
        # random games for K = 2..16, and inits with all mass on one outcome: each solve converges
        # within 50 steps without a floating-point error, and KL + JS falls from every iterate to the next
        monkeypatch.setattr(divlab, "NASH_MAX_ITER", 50)
        iterates = []
        direction = divlab._kl_js_grad

        def spy(p, q):
            iterates.append(q.copy())
            return direction(p, q)

        monkeypatch.setattr(divlab, "_kl_js_grad", spy)
        rng = np.random.default_rng(9)
        for k in range(2, 17):
            games = [(random_simplex(rng, k), random_simplex(rng, k)) for _ in range(200)]
            games += [(random_simplex(rng, k), Categorical(np.eye(k)[j])) for j in range(k)]
            for p, init in games:
                iterates.clear()
                with np.errstate(all="raise"):
                    q = solve_nash(p, init)
                assert 0.5 * np.abs(q.probs - p.probs).sum() <= divlab.NASH_TOL
                objective = [kl_js(p, r) for r in iterates + [q.probs]]
                assert all(b < a for a, b in zip(objective, objective[1:]))


def stacked_games(rng, shape):
    """Random pairs of laws of a (..., K) shape, as the lab draws them."""
    games = random_simplex(rng, shape[-1], (2, *shape[:-1])).probs
    return Categorical(games[0]), Categorical(games[1])


class TestStacks:
    CHECKS = {
        "verify_identity": lambda p, q: np.stack(verify_identity(p, q), axis=-1),
        "optimal_discriminator": optimal_discriminator,
        "grid_search_discriminator": grid_search_discriminator,
        "expected_log": divlab._expected_log,
    }

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_stack_equals_its_games_bit_for_bit(self, name):
        check, rng = self.CHECKS[name], np.random.default_rng(30)
        for k in range(2, 17):
            p, q = stacked_games(rng, (2, 3, k))
            got = np.asarray(check(p, q))
            want = [np.asarray(check(Categorical(a), Categorical(b)))
                    for a, b in zip(p.probs.reshape(-1, k), q.probs.reshape(-1, k))]
            assert got.shape[:2] == (2, 3)
            assert got.tobytes() == np.stack(want).tobytes(), k

    def test_one_game_gives_floats(self):
        p, q = stacked_games(np.random.default_rng(31), (4,))
        assert all(type(x) is float for x in verify_identity(p, q))
        assert type(divlab._expected_log(p, q)) is float

    def test_scan_takes_the_whole_grid_only_for_games_that_need_it(self, monkeypatch):
        # the middle game of three has a subnormal weight: its outcomes, and only those, are
        # scanned over the whole grid, and every game's points equal its own call's
        rng = np.random.default_rng(32)
        p, q = stacked_games(rng, (3, 4))
        tiny = np.array([0.5, 1e-320, 0.25, 0.25 - 1e-320])
        p = Categorical(np.stack([p.probs[0], tiny, p.probs[2]]))
        want = [grid_search_discriminator(Categorical(a), Categorical(b)) for a, b in zip(p.probs, q.probs)]
        widths = []
        d_terms = divlab._d_terms

        def spy(a, b, g):
            widths.append((len(a), g.shape[-1]))
            return d_terms(a, b, g)

        monkeypatch.setattr(divlab, "_d_terms", spy)
        found = grid_search_discriminator(p, q)
        assert found.tobytes() == np.stack(want).tobytes()
        n = len(np.arange(divlab.GRID_STEP, 1.0, divlab.GRID_STEP))
        assert [w for _, w in widths[1::2]] == [2 * divlab._STRIDE + 1, n]
        assert [rows for rows, _ in widths] == [8, 8, 4, 4]

    @pytest.mark.parametrize("tiny_law", [0, 1])
    def test_whole_grid_for_a_weight_below_2_to_the_minus_960_only(self, monkeypatch, tiny_law):
        # the boundary is exclusive: a weight of 2^-960 keeps the windows, the next float below does not
        widths = []
        d_terms = divlab._d_terms

        def spy(a, b, g):
            widths.append(g.shape[-1])
            return d_terms(a, b, g)

        monkeypatch.setattr(divlab, "_d_terms", spy)
        n = len(np.arange(divlab.GRID_STEP, 1.0, divlab.GRID_STEP))
        for weight, width in ((2.0 ** -960, 2 * divlab._STRIDE + 1), (np.nextafter(2.0 ** -960, 0), n)):
            laws = [Categorical([0.5, weight, 0.5]), Categorical([0.25, 0.25, 0.5])]
            widths.clear()
            grid_search_discriminator(laws[tiny_law], laws[1 - tiny_law])
            assert widths[1] == width, weight

    def test_a_stack_of_tiny_games_is_scanned_whole(self):
        p = Categorical([[0.5, 1e-320, 0.5 - 1e-320], [0.5, 0.25, 0.25]])
        q = Categorical([[0.25, 0.25, 0.5], [1e-320, 0.5, 0.5 - 1e-320]])
        want = [TestOptimalDiscriminator.unblocked_grid_search(Categorical(a), Categorical(b))
                for a, b in zip(p.probs, q.probs)]
        assert grid_search_discriminator(p, q).tobytes() == np.stack(want).tobytes()

    def test_expected_log_support_violation_anywhere_in_the_stack(self):
        p = Categorical([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(SupportError):
            divlab._expected_log(p, Categorical([[0.5, 0.5], [1.0, 0.0]]))

    @pytest.mark.parametrize("k", [2, 5, 16])
    def test_random_simplex_stack_draws_what_one_law_calls_draw(self, k):
        stack = random_simplex(np.random.default_rng(33), k, (3, 2))
        rng = np.random.default_rng(33)
        rows = [random_simplex(rng, k).probs for _ in range(6)]
        assert stack.probs.shape == (3, 2, k)
        assert stack.probs.tobytes() == np.stack(rows).tobytes()
        assert random_simplex(np.random.default_rng(33), k).probs.shape == (k,)

    def test_single_law_apis_reject_a_stack(self):
        p = Categorical(np.full((2, 3), 1 / 3))
        with pytest.raises(ShapeError, match=r"expected one law, got a stack of shape \(2,\)"):
            solve_nash(p, p)
        with pytest.raises(ShapeError, match=r"expected one law, got a stack of shape \(2,\)"):
            game_value(ToyGame(p, p, np.full(3, 0.5)))
        with pytest.raises(ShapeError, match=r"expected one law"):
            ToyGame(p, p, np.full((2, 3), 0.5))

    def test_single_law_messages_are_unchanged(self):
        two, three = Categorical([0.5, 0.5]), Categorical([0.2, 0.3, 0.5])
        for fn in (verify_identity, optimal_discriminator, grid_search_discriminator, solve_nash,
                   kl_categorical, js_categorical):
            with pytest.raises(ShapeError, match="^support size mismatch: 2 vs 3$"):
                fn(two, three)


class TestRunLab:
    @staticmethod
    def stub(monkeypatch, q):
        """Replace the solve by one returning q, and the scan by the exact D*; returns each solve's target."""
        targets = []
        monkeypatch.setattr(divlab, "solve_nash", lambda p_d, init: targets.append(p_d) or Categorical(q))
        monkeypatch.setattr(divlab, "grid_search_discriminator", optimal_discriminator)
        return targets

    def test_nash_tv_is_half_the_l1_distance(self, monkeypatch):
        q = [0.1, 0.2, 0.3, 0.4]
        targets = self.stub(monkeypatch, q)
        report = divlab.run_lab(5, 4, 3)
        (p,) = targets
        assert report["nash_tv"] == 0.5 * float(np.abs(np.array(q) - p.probs).sum())

    def test_exact_figures_report_zero(self, monkeypatch):
        self.stub(monkeypatch, [0.25] * 4)
        monkeypatch.setattr(divlab, "random_simplex",
                            lambda rng, k, batch=(): Categorical(np.full((*batch, k), 0.25)))
        monkeypatch.setattr(divlab, "verify_identity", lambda p_d, p_g: (np.zeros(p_d.probs.shape[:-1]),) * 3)
        report = divlab.run_lab(5, 4, 3)
        assert report == {"identity_max_gap": 0.0, "dstar_max_err": 0.0, "nash_tv": 0.0, "trials": 5}
        assert all(type(report[name]) is float for name in divlab.BOUNDS)

    @pytest.mark.parametrize("trials, k, seed", [(1, 2, 0), (4, 3, 1), (5, 8, 2), (11, 16, 3), (33, 9, 4)])
    def test_equals_a_loop_over_the_trials(self, trials, k, seed):
        # the lab as one game at a time: each trial's pair, then each solve's pair, from one stream
        rng = training.rng_streams(seed)["lab"]
        gap = err = tv = 0.0
        for _ in range(trials):
            pd, pg = random_simplex(rng, k), random_simplex(rng, k)
            gap = max(gap, verify_identity(pd, pg)[2])
            err = max(err, float(np.max(np.abs(optimal_discriminator(pd, pg) - grid_search_discriminator(pd, pg)))))
        for _ in range(max(1, trials // 5)):
            pd = random_simplex(rng, k)
            q = solve_nash(pd, random_simplex(rng, k))
            tv = max(tv, 0.5 * float(np.abs(q.probs - pd.probs).sum()))
        want = {"identity_max_gap": gap, "dstar_max_err": err, "nash_tv": tv, "trials": trials}
        assert json.dumps(divlab.run_lab(trials, k, seed)) == json.dumps(want)

    def test_one_call_of_each_check_and_of_the_draw(self, monkeypatch):
        calls = {name: [] for name in ("random_simplex", "verify_identity", "optimal_discriminator",
                                       "grid_search_discriminator", "solve_nash")}
        for name, seen in calls.items():
            fn = getattr(divlab, name)
            monkeypatch.setattr(divlab, name, lambda *a, _fn=fn, _seen=seen, **kw: _seen.append(a) or _fn(*a, **kw))
        divlab.run_lab(12, 4, 5)
        assert {name: len(seen) for name, seen in calls.items()} == {
            "random_simplex": 1, "verify_identity": 1, "optimal_discriminator": 1,
            "grid_search_discriminator": 1, "solve_nash": 2}
        assert calls["random_simplex"][0][1:] == (4, (14, 2))
        assert calls["verify_identity"][0][0].probs.shape == (12, 4)

    @pytest.mark.parametrize("trial", [0, 3])
    def test_a_nan_identity_gap_is_the_figure(self, monkeypatch, trial):
        def verify(p_d, p_g):
            gaps = np.zeros(p_d.probs.shape[:-1])
            gaps[trial] = math.nan
            return gaps, gaps, gaps

        monkeypatch.setattr(divlab, "verify_identity", verify)
        assert math.isnan(divlab.run_lab(5, 4, 3)["identity_max_gap"])

    def test_a_nan_nash_iterate_is_the_figure(self, monkeypatch):
        monkeypatch.setattr(divlab, "solve_nash", lambda p_d, init: mock.Mock(probs=np.full(len(p_d), math.nan)))
        assert math.isnan(divlab.run_lab(5, 4, 3)["nash_tv"])

    def test_a_nan_scan_point_is_the_figure(self, monkeypatch):
        scan = divlab.grid_search_discriminator
        monkeypatch.setattr(divlab, "grid_search_discriminator",
                            lambda p_d, p_g: np.where(np.arange(len(p_d)) == 1, math.nan, scan(p_d, p_g)))
        assert math.isnan(divlab.run_lab(5, 4, 3)["dstar_max_err"])

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trial_is_a_config_error(self, trials):
        # a report over no game would pass every bound
        with pytest.raises(ConfigError, match=f"^trials must be >= 1, got {trials}$"):
            divlab.run_lab(trials, 4, 0)

    @pytest.mark.parametrize("trials, solves", [(1, 1), (9, 1), (10, 2), (24, 4)])
    def test_one_nash_solve_per_five_trials_and_at_least_one(self, monkeypatch, trials, solves):
        targets = self.stub(monkeypatch, [0.5, 0.5])
        divlab.run_lab(trials, 2, 0)
        assert len(targets) == solves
