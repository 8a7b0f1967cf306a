import math

import numpy as np
import pytest

from arn.distributions import (
    Categorical,
    GaussianPosterior,
    check_support,
    entropy,
    expected_log,
    gumbel_noise,
    gumbel_softmax,
    js_categorical,
    kl_categorical,
    kl_gauss_std,
    reparam_sample,
    sample_rows,
)
from arn.errors import DomainError, NumericsError, ShapeError
from arn.tensor import Tensor, grad_check


def posterior(mu, log_var):
    return GaussianPosterior(Tensor(np.asarray(mu, dtype=float)), Tensor(np.asarray(log_var, dtype=float)))


class TestReparam:
    def test_standard_passthrough(self):
        n = np.array([0.3, -1.2])
        z = reparam_sample(posterior([0.0, 0.0], [0.0, 0.0]), n)
        np.testing.assert_array_equal(z.data, n)

    def test_mean_at_zero_noise(self):
        z = reparam_sample(posterior([1.0], [0.0]), np.zeros(1))
        np.testing.assert_array_equal(z.data, [1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reparam_sample(posterior([1.0], [0.0]), np.zeros(2))

    def test_scale_is_the_root_of_the_variance(self):
        z = reparam_sample(posterior([1.0], [math.log(4.0)]), np.array([0.5]))
        assert abs(z.item() - 2.0) < 1e-12  # 1 + sqrt(4) * 0.5

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(100_000)
        q = posterior(np.ones(100_000), np.full(100_000, np.log(4.0)))
        z = reparam_sample(q, noise).data
        assert abs(z.mean() - 1.0) < 0.03
        assert abs(z.std() - 2.0) < 0.03


class TestGaussKL:
    def test_zero_at_prior(self):
        assert kl_gauss_std(posterior([0.0, 0.0], [0.0, 0.0])).item() == 0.0

    def test_quoted_values(self):
        assert abs(kl_gauss_std(posterior([1.0], [0.0])).item() - 0.5) < 1e-9
        assert abs(kl_gauss_std(posterior([0.0], [1.0])).item() - (math.e - 2) / 2) < 1e-9

    def test_nonnegative_and_zero_only_at_prior(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu = rng.standard_normal(4)
            lv = rng.standard_normal(4)
            val = kl_gauss_std(posterior(mu, lv)).item()
            assert val > 0.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(2)
        mu = rng.standard_normal(3)
        lv = rng.standard_normal(3) * 0.5
        closed = kl_gauss_std(posterior(mu, lv)).item()
        n = 100_000
        z = mu + np.exp(0.5 * lv) * rng.standard_normal((n, 3))
        log_q = -0.5 * (((z - mu) ** 2) / np.exp(lv) + np.log(2 * np.pi) + lv).sum(axis=1)
        log_p = -0.5 * ((z ** 2) + np.log(2 * np.pi)).sum(axis=1)
        est = log_q - log_p
        se = est.std() / np.sqrt(n)
        assert abs(est.mean() - closed) <= 3 * se

    def test_batched_rows(self):
        q = posterior([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(kl_gauss_std(q).data, [0.0, 0.5])
        # more rows than latent dimensions: the constant is the latent size, not the batch
        q = posterior([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], np.zeros((3, 2)))
        np.testing.assert_allclose(kl_gauss_std(q).data, [0.0, 0.5, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["mu", "log_var"])
    def test_nonfinite_posterior_is_a_numeric_error(self, field, bad):
        values = {"mu": np.zeros((2, 3)), "log_var": np.zeros((2, 3))}
        values[field][1, 2] = bad
        with pytest.raises(NumericsError):
            kl_gauss_std(posterior(values["mu"], values["log_var"]))


class TestGumbel:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        y = gumbel_softmax(Tensor(rng.standard_normal(6)), 0.7, rng.random(6))
        assert abs(y.data.sum() - 1.0) < 1e-12

    def test_invalid_temperature(self):
        for tau in (0.0, -1.0):
            with pytest.raises(DomainError):
                gumbel_softmax(Tensor(np.zeros(3)), tau, np.full(3, 0.5))

    def test_uniform_symmetry(self):
        rng = np.random.default_rng(4)
        n = 100_000
        y = gumbel_softmax(Tensor(np.zeros((n, 4))), 0.01, rng.random((n, 4)))
        freqs = np.bincount(y.data.argmax(axis=1), minlength=4) / n
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)

    def test_gumbel_max_frequencies(self):
        rng = np.random.default_rng(5)
        n = 100_000
        logits = np.log([0.7, 0.2, 0.1])
        y = gumbel_softmax(Tensor(np.tile(logits, (n, 1))), 0.5, rng.random((n, 3)))
        freqs = np.bincount(y.data.argmax(axis=1), minlength=3) / n
        np.testing.assert_allclose(freqs, [0.7, 0.2, 0.1], atol=0.01)

    def test_hard_straight_through(self):
        rng = np.random.default_rng(6)
        noise = rng.random(5)
        logits = Tensor(rng.standard_normal(5), requires_grad=True)
        y = gumbel_softmax(logits, 0.5, noise, hard=True)
        assert set(np.unique(y.data)) <= {0.0, 1.0} and y.data.sum() == 1.0
        (y * Tensor(np.arange(5.0))).sum().backward()
        assert logits.grad is not None and np.any(logits.grad != 0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        noise = rng.random(6)

        def f(x):
            y = gumbel_softmax(x, 0.7, noise)
            return (y * Tensor(np.linspace(-1, 1, 6))).sum()

        assert grad_check(f, Tensor(rng.standard_normal(6))) <= 1e-5


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_noise_is_the_out_of_place_formula_and_leaves_the_uniforms(self, dtype):
        u = np.random.default_rng(8).random((3, 4, 5)).astype(dtype)
        u[0, 0, :3] = [0.0, 1.0, 1.0 - 1e-13]
        before = u.copy()
        want = -np.log(-np.log(np.clip(u.astype(np.float64), 1e-12, 1.0 - 1e-12)))
        got = gumbel_noise(u)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert u.tobytes() == before.tobytes()
        assert np.all(np.isfinite(got))


@pytest.mark.parametrize("probs", [[math.nan, 1.0], [0.5, math.nan], [math.nan, math.nan], [math.inf, 0.0],
                                   [-math.inf, 1.0], [1.5, -0.5], [0.5, 0.6], []])
def test_categorical_rejects_what_is_not_a_law(probs):
    with pytest.raises(DomainError, match="nonnegative and sum to 1"):
        Categorical(probs)


def test_categorical_tolerances_include_their_bounds():
    """An entry down to -1e-12 is clipped to 0, and a sum within 1e-9 of 1 passes; a step past either fails."""
    assert Categorical([-1e-12, 0.5, 0.5]).probs.tolist() == [0.0, 0.5, 0.5]
    with pytest.raises(DomainError):
        Categorical([np.nextafter(-1e-12, -1), 0.5, 0.5])
    top = 1.0 + 1e-9  # then the largest float whose distance above 1 is at most 1e-9
    while top - 1.0 > 1e-9:
        top = np.nextafter(top, 0)
    while np.nextafter(top, 2) - 1.0 <= 1e-9:
        top = np.nextafter(top, 2)
    assert Categorical([top - 0.5, 0.5]).probs.sum() == top
    with pytest.raises(DomainError):
        Categorical([np.nextafter(top, 2) - 0.5, 0.5])


class TestCategoricalDivergences:
    def test_kl_zero_at_equality(self):
        for p in (Categorical([0.2, 0.3, 0.5]), Categorical([1.0, 0.0])):
            assert kl_categorical(p, p) == 0.0

    def test_kl_quoted_values(self):
        assert abs(kl_categorical(Categorical([0.5, 0.5]), Categorical([0.25, 0.75])) - 0.14384) < 1e-4
        assert abs(kl_categorical(Categorical([1.0, 0.0]), Categorical([0.5, 0.5])) - math.log(2)) < 1e-12

    def test_kl_support_violation_is_infinite(self):
        assert kl_categorical(Categorical([0.5, 0.5]), Categorical([1.0, 0.0])) == math.inf
        assert kl_categorical(Categorical([0.25, 0.25, 0.5]), Categorical([0.5, 0.5, 0.0])) == math.inf

    def test_entropy_skips_zero_entries(self):
        assert abs(entropy(Categorical([0.5, 0.0, 0.5])) - math.log(2)) < 1e-15  # 0 log 0 = 0, not nan

    def test_js_quoted_values(self):
        assert js_categorical(Categorical([0.3, 0.7]), Categorical([0.3, 0.7])) == 0.0
        assert abs(js_categorical(Categorical([1.0, 0.0]), Categorical([0.0, 1.0])) - math.log(2)) < 1e-12
        assert abs(js_categorical(Categorical([0.5, 0.5]), Categorical([1.0, 0.0])) - 0.21576) < 1e-4

    def test_js_symmetric_and_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.gamma(1.0, 1.0, 5) + 1e-9
            y = rng.gamma(1.0, 1.0, 5) + 1e-9
            p, q = Categorical(x / x.sum()), Categorical(y / y.sum())
            assert js_categorical(p, q) == js_categorical(q, p)
            assert -1e-12 <= js_categorical(p, q) <= math.log(2) + 1e-12


def law_stack(rng, shape, zeros=0):
    """Dirichlet(1) laws of the given (..., K) shape, each with its first `zeros` outcomes set to 0."""
    x = rng.gamma(1.0, 1.0, size=shape) + 1e-9
    x[..., :zeros] = 0.0
    return x / x.sum(axis=-1, keepdims=True)


STACKED = {"kl": kl_categorical, "js": js_categorical, "entropy": lambda p, q: entropy(p)}


class TestCategoricalStacks:
    @pytest.mark.parametrize("name", list(STACKED))
    def test_zero_free_stack_equals_its_rows_bit_for_bit(self, name):
        fn, rng = STACKED[name], np.random.default_rng(20)
        for k in range(2, 17):
            p, q = law_stack(rng, (3, 4, k)), law_stack(rng, (3, 4, k))
            got = fn(Categorical(p), Categorical(q))
            assert isinstance(got, np.ndarray) and got.shape == (3, 4)
            want = [fn(Categorical(a), Categorical(b)) for a, b in zip(p.reshape(-1, k), q.reshape(-1, k))]
            assert all(type(w) is float for w in want)
            assert got.reshape(-1).tobytes() == np.array(want).tobytes(), k

    @pytest.mark.parametrize("name", list(STACKED))
    def test_stack_with_zero_outcomes_agrees_with_its_rows(self, name):
        # a zero term is summed as 0 in the stack and skipped in one law's compacted sum, so
        # the two may differ in the last bits; q = 0 < p is +inf either way
        fn, rng = STACKED[name], np.random.default_rng(21)
        for k in range(2, 17):
            p = law_stack(rng, (30, k), zeros=rng.integers(0, k))
            q = law_stack(rng, (30, k), zeros=rng.integers(0, k))
            p, q = rng.permuted(p, axis=1), rng.permuted(q, axis=1)
            got = fn(Categorical(p), Categorical(q))
            want = np.array([fn(Categorical(a), Categorical(b)) for a, b in zip(p, q)])
            assert (np.isinf(got) == np.isinf(want)).all() and (got[np.isinf(got)] > 0).all()
            np.testing.assert_allclose(got[np.isfinite(got)], want[np.isfinite(want)], rtol=1e-14, atol=0)

    def test_support_violation_is_infinite_row_by_row(self):
        p = Categorical([[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]])
        q = Categorical([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        with np.errstate(all="raise"):
            assert kl_categorical(p, q).tolist() == [math.inf, 0.0, 0.0]
            assert entropy(q).tolist() == [0.0, math.log(2), 0.0]

    def test_expected_log_skips_zero_weights_whatever_x_is(self):
        p = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
        x = np.array([[0.25, 0.25, 0.0], [math.nan, 0.5, -1.0]])
        with np.errstate(all="raise"):
            assert expected_log(p, x).tolist() == [math.log(0.25), math.log(0.5)]
        assert type(expected_log(p[0], x[0])) is float

    def test_len_is_the_support_size(self):
        assert len(Categorical(np.full((4, 3, 5), 0.2))) == 5

    def test_each_row_is_validated(self):
        # the rows' sums are 0.5 and 1.5, the stack's mean sum 1
        with pytest.raises(DomainError, match="nonnegative and sum to 1"):
            Categorical([[0.25, 0.25], [0.75, 0.75]])
        with pytest.raises(DomainError, match="nonnegative and sum to 1"):
            Categorical([[0.5, 0.5], [1.5, -0.5]])

    def test_a_scalar_is_not_a_law(self):
        with pytest.raises(ShapeError, match="outcome axis"):
            Categorical(1.0)

    def test_stack_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"stack shape mismatch: \(2,\) vs \(3,\)"):
            check_support(Categorical(np.full((2, 4), 0.25)), Categorical(np.full((3, 4), 0.25)))
        with pytest.raises(ShapeError, match=r"stack shape mismatch: \(\) vs \(1,\)"):
            kl_categorical(Categorical([0.5, 0.5]), Categorical([[0.5, 0.5]]))
        with pytest.raises(ShapeError, match="^support size mismatch: 2 vs 3$"):
            js_categorical(Categorical(np.full((2, 2), 0.5)), Categorical(np.full((2, 3), 1 / 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_sample_rows_rejects_a_non_finite_entry_anywhere(bad, at):
    probs = np.full((2, 3), 1 / 3)
    probs[1, at] = bad
    with pytest.raises(NumericsError, match="non-finite probabilities"):
        sample_rows(probs, np.random.default_rng(0))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sample_rows_into_scratch_arrays_draws_the_same_ids(dtype):
    probs = np.random.default_rng(9).dirichlet(np.full(50, 0.3), size=12).astype(dtype)
    want = sample_rows(probs, np.random.default_rng(10))
    cum, mask = np.full(probs.shape, np.nan), np.ones(probs.shape, bool)
    got = sample_rows(probs, np.random.default_rng(10), cum, mask)
    np.testing.assert_array_equal(got, want)
    u = np.random.default_rng(10).random(len(probs))
    np.testing.assert_array_equal(mask, cum < u[:, None])
    np.testing.assert_array_equal(got, mask.sum(axis=1))
    assert cum[:, -1].tolist() == [1.0] * len(probs)
