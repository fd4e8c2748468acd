import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtopic.nncore import (
    AdamState,
    GaussianPrior,
    GradcheckReport,
    activation,
    adam_step,
    dirichlet_laplace_prior,
    glorot_uniform,
    gradcheck,
    inference_backward,
    inference_forward,
    init_inference_network,
    kl_diag_gaussian,
    kl_grads,
    kl_rows,
    log_softmax,
    named_rng,
    reparameterize,
    sigmoid,
    softmax,
    softmax_backward,
    softplus,
)

from oracles import adam_scalar_reference, prior_variance_reference

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestActivations:
    def test_softplus_at_zero_is_log_two(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_softplus_survives_large_inputs(self):
        out = softplus(np.array([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[2] == pytest.approx(1000.0, abs=1e-12)

    def test_sigmoid_matches_definition_both_branches(self):
        for x in (-3.0, -0.5, 0.0, 0.5, 3.0):
            assert sigmoid(np.array(x)) == pytest.approx(1 / (1 + math.exp(-x)))
        assert np.isfinite(sigmoid(np.array([-1000.0, 1000.0]))).all()

    def test_softmax_hand_value(self):
        out = softmax(np.array([2.0, 0.0, 0.0]))
        e2 = math.exp(2.0)
        np.testing.assert_allclose(out, [e2 / (e2 + 2), 1 / (e2 + 2), 1 / (e2 + 2)],
                                   rtol=0, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax(rng.normal(size=(6, 9)), axis=-1)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert (out > 0).all()

    @given(st.lists(finite_floats, min_size=2, max_size=8), finite_floats)
    @settings(max_examples=60, deadline=None)
    def test_softmax_shift_invariance(self, values, shift):
        x = np.array(values)
        np.testing.assert_allclose(softmax(x), softmax(x + shift), atol=1e-12)

    def test_log_softmax_consistent_with_softmax(self):
        x = np.random.default_rng(5).normal(size=(4, 7)) * 10
        np.testing.assert_allclose(np.exp(log_softmax(x)), softmax(x), atol=1e-12)

    def test_activation_dispatch(self):
        x = np.array([0.5, -1.0])
        np.testing.assert_array_equal(activation("softplus", x), softplus(x))
        np.testing.assert_array_equal(activation("softmax", x), softmax(x))
        with pytest.raises(ValueError, match="unknown activation"):
            activation("relu", x)


class TestReparameterize:
    def test_zero_noise_gives_softmax_of_mean(self):
        mu = np.array([2.0, 0.0, 0.0])
        out = reparameterize(mu, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(out, softmax(mu), atol=1e-15)

    def test_noise_scale_follows_logvar(self):
        mu = np.zeros(2)
        eps = np.array([1.0, 0.0])
        # logvar 2*log(3) means a standard draw moves the logit by 3
        out = reparameterize(mu, np.full(2, 2 * math.log(3.0)), eps)
        np.testing.assert_allclose(out, softmax(np.array([3.0, 0.0])), atol=1e-14)

    @given(st.lists(finite_floats, min_size=2, max_size=6),
           st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_result_lies_on_simplex(self, mu, eps):
        k = min(len(mu), len(eps))
        out = reparameterize(np.array(mu[:k]), np.zeros(k), np.array(eps[:k]))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert (out >= 0).all()

    def test_batched_rows_match_single_calls(self):
        rng = np.random.default_rng(8)
        mu = rng.normal(size=(5, 4))
        logvar = rng.normal(size=(5, 4)) * 0.3
        eps = rng.normal(size=(5, 4))
        batch = reparameterize(mu, logvar, eps)
        for i in range(5):
            np.testing.assert_allclose(batch[i], reparameterize(mu[i], logvar[i], eps[i]),
                                       atol=1e-15)


class TestPrior:
    def test_variance_formula_k2_alpha1(self):
        prior = dirichlet_laplace_prior(2, 1.0)
        np.testing.assert_allclose(prior.mean, 0.0)
        np.testing.assert_allclose(prior.variance, 0.5)

    def test_variance_formula_default_alpha_k25(self):
        # alpha = 1/K: (K)(1 - 2/K) + K*K/K^2 = K - 2 + 1 = 24 at K = 25
        prior = dirichlet_laplace_prior(25, 1.0 / 25)
        np.testing.assert_allclose(prior.variance, 24.0)

    @given(st.integers(min_value=2, max_value=200),
           st.floats(min_value=1e-3, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_variance_matches_reference(self, k, alpha):
        prior = dirichlet_laplace_prior(k, alpha)
        assert prior.variance[0] == pytest.approx(prior_variance_reference(k, alpha))

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="num_topics"):
            dirichlet_laplace_prior(1, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            dirichlet_laplace_prior(5, 0.0)

    def test_prior_validation(self):
        with pytest.raises(ValueError, match="same shape"):
            GaussianPrior(mean=np.zeros(3), variance=np.ones(2))
        with pytest.raises(ValueError, match="positive"):
            GaussianPrior(mean=np.zeros(2), variance=np.array([1.0, 0.0]))


class TestKl:
    def test_identical_distributions_give_zero(self):
        prior = GaussianPrior(mean=np.array([0.3, -1.0]), variance=np.array([2.0, 0.5]))
        mu = prior.mean.copy()
        logvar = np.log(prior.variance)
        assert kl_diag_gaussian(mu, logvar, prior) == pytest.approx(0.0, abs=1e-14)

    def test_unit_shift_hand_value(self):
        # KL(N(1,1) || N(0,1)) = 0.5 per dimension
        prior = GaussianPrior(mean=np.zeros(1), variance=np.ones(1))
        assert kl_diag_gaussian(np.ones(1), np.zeros(1), prior) == pytest.approx(0.5)

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6),
           st.lists(st.floats(min_value=-4, max_value=4), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_never_negative(self, mu, logvar):
        k = min(len(mu), len(logvar))
        prior = GaussianPrior(mean=np.zeros(k), variance=np.full(k, 1.7))
        assert kl_diag_gaussian(np.array(mu[:k]), np.array(logvar[:k]), prior) >= -1e-12

    def test_rows_match_scalar_calls(self):
        rng = np.random.default_rng(2)
        prior = GaussianPrior(mean=rng.normal(size=4), variance=np.full(4, 0.8))
        mu = rng.normal(size=(3, 4))
        logvar = rng.normal(size=(3, 4))
        rows = kl_rows(mu, logvar, prior)
        for i in range(3):
            assert rows[i] == pytest.approx(kl_diag_gaussian(mu[i], logvar[i], prior))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        prior = GaussianPrior(mean=rng.normal(size=5), variance=np.full(5, 1.3))
        mu = rng.normal(size=5)
        logvar = rng.normal(size=5) * 0.5

        def loss(params):
            kl = kl_diag_gaussian(params["mu"], params["logvar"], prior)
            d_mu, d_logvar = kl_grads(params["mu"], params["logvar"], prior)
            return kl, {"mu": d_mu, "logvar": d_logvar}

        report = gradcheck(loss, {"mu": mu, "logvar": logvar})
        assert report.max_relative_error < 1e-8

    def test_shape_mismatch_rejected(self):
        prior = GaussianPrior(mean=np.zeros(3), variance=np.ones(3))
        with pytest.raises(ValueError, match="share one shape"):
            kl_diag_gaussian(np.zeros(2), np.zeros(2), prior)


class TestAdam:
    def test_zero_gradient_leaves_parameters_alone(self):
        params = {"w": np.array([1.0, -2.0])}
        adam_step(params, {"w": np.zeros(2)}, AdamState())
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_signed_learning_rate(self):
        state = AdamState(learning_rate=0.01)
        params = {"w": np.array([0.0, 0.0])}
        adam_step(params, {"w": np.array([5.0, -0.3])}, state)
        np.testing.assert_allclose(params["w"], [-0.01, 0.01], rtol=1e-6)

    def test_hundred_steps_match_scalar_recurrence(self):
        grad = lambda p: 2.0 * (p - 3.0)
        expected = adam_scalar_reference(grad, p0=0.0, steps=100)
        params = {"p": np.array([0.0])}
        state = AdamState()
        for _ in range(100):
            adam_step(params, {"p": np.array([grad(params["p"][0])])}, state)
        assert params["p"][0] == pytest.approx(expected, rel=1e-12)

    def test_descends_a_quadratic(self):
        params = {"p": np.array([10.0])}
        state = AdamState(learning_rate=0.05)
        for _ in range(2000):
            adam_step(params, {"p": 2.0 * (params["p"] - 3.0)}, state)
        assert abs(params["p"][0] - 3.0) < 1e-2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState())

    def test_moment_buffers_track_each_parameter(self):
        state = AdamState()
        params = {"a": np.zeros(2), "b": np.zeros((2, 2))}
        grads = {"a": np.ones(2), "b": np.ones((2, 2))}
        adam_step(params, grads, state)
        assert set(state.first_moment) == {"a", "b"}
        assert state.first_moment["b"].shape == (2, 2)
        assert state.step == 1


class TestEncoder:
    def test_init_shapes_and_zero_biases(self):
        params = init_inference_network(12, 4, np.random.default_rng(0), hidden_dim=7)
        assert params["W_hidden"].shape == (7, 12)
        assert params["W_mu"].shape == (4, 7)
        assert params["W_logvar"].shape == (4, 7)
        np.testing.assert_array_equal(params["b_hidden"], np.zeros(7))
        np.testing.assert_array_equal(params["b_mu"], np.zeros(4))

    def test_glorot_limit_respected(self):
        w = glorot_uniform(np.random.default_rng(1), (30, 50))
        limit = math.sqrt(6.0 / 80)
        assert np.abs(w).max() <= limit

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            init_inference_network(0, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dimensions"):
            init_inference_network(3, 1, np.random.default_rng(0))

    def test_forward_matches_manual_composition(self):
        rng = np.random.default_rng(6)
        net = init_inference_network(5, 3, rng, hidden_dim=4)
        params = {f"enc.{k}": v for k, v in net.items()}
        x = rng.normal(size=(2, 5))
        mu, logvar, _ = inference_forward(params, "enc", x)
        hidden = softplus(x @ params["enc.W_hidden"].T + params["enc.b_hidden"])
        np.testing.assert_allclose(mu, hidden @ params["enc.W_mu"].T + params["enc.b_mu"],
                                   atol=1e-14)
        np.testing.assert_allclose(
            logvar, hidden @ params["enc.W_logvar"].T + params["enc.b_logvar"], atol=1e-14)

    def test_dropout_mask_scales_hidden_layer(self):
        rng = np.random.default_rng(7)
        net = init_inference_network(5, 3, rng, hidden_dim=4)
        params = {f"enc.{k}": v for k, v in net.items()}
        x = rng.normal(size=(1, 5))
        mask = np.zeros((1, 4))
        mu, logvar, _ = inference_forward(params, "enc", x, dropout_mask=mask)
        # all hidden units dropped: only the head biases survive
        np.testing.assert_allclose(mu[0], params["enc.b_mu"], atol=1e-14)
        np.testing.assert_allclose(logvar[0], params["enc.b_logvar"], atol=1e-14)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        net = init_inference_network(6, 3, rng, hidden_dim=5)
        params = {f"enc.{k}": v for k, v in net.items()}
        x = rng.normal(size=(4, 6))
        w_mu = rng.normal(size=(4, 3))
        w_lv = rng.normal(size=(4, 3))

        def loss(p):
            mu, logvar, cache = inference_forward(p, "enc", x)
            value = float(np.sum(w_mu * mu) + np.sum(w_lv * logvar))
            grads = {k: np.zeros_like(v) for k, v in p.items()}
            inference_backward(p, "enc", cache, w_mu, w_lv, grads)
            return value, grads

        report = gradcheck(loss, params)
        assert report.max_relative_error < 1e-7

    def test_softmax_backward_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(3, 4))
        weights = rng.normal(size=(3, 4))

        def loss(p):
            theta = softmax(p["logits"], axis=-1)
            value = float(np.sum(weights * theta))
            return value, {"logits": softmax_backward(theta, weights)}

        report = gradcheck(loss, {"logits": logits})
        assert report.max_relative_error < 1e-8


class TestGradcheck:
    def test_exact_gradient_passes(self):
        a = np.array([2.0, -1.0, 0.5])

        def loss(p):
            return float(np.sum(a * p["w"] ** 2)), {"w": 2.0 * a * p["w"]}

        report = gradcheck(loss, {"w": np.array([1.0, 2.0, 3.0])})
        assert report.ok
        assert report.max_relative_error < 1e-9

    def test_wrong_gradient_is_flagged(self):
        def loss(p):
            return float(np.sum(p["w"] ** 2)), {"w": 3.0 * p["w"]}

        report = gradcheck(loss, {"w": np.array([1.0, -2.0])})
        assert report.max_relative_error > 0.1
        assert report.ok is False

    def test_non_finite_error_fails(self):
        report = GradcheckReport(per_block={"w": float("nan")},
                                 max_relative_error=float("nan"), step=1e-5)
        assert not report.ok

    def test_caller_parameters_untouched(self):
        w = np.array([1.0, 2.0])
        before = w.copy()

        def loss(p):
            return float(np.sum(p["w"])), {"w": np.ones_like(p["w"])}

        gradcheck(loss, {"w": w})
        np.testing.assert_array_equal(w, before)

    def test_large_blocks_subsample_coordinates(self):
        big = np.zeros(500)

        def loss(p):
            return float(np.sum(p["w"] ** 2)), {"w": 2.0 * p["w"]}

        report = gradcheck(loss, {"w": big}, max_coords_per_block=8)
        assert report.per_block["w"] < 1e-9


class TestNamedRng:
    def test_same_seed_and_name_reproduce(self):
        a = named_rng(11, "noise").normal(size=5)
        b = named_rng(11, "noise").normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_name(self):
        a = named_rng(11, "noise").normal(size=5)
        b = named_rng(11, "dropout").normal(size=5)
        assert not np.array_equal(a, b)

    def test_streams_differ_by_seed(self):
        a = named_rng(11, "noise").normal(size=5)
        b = named_rng(12, "noise").normal(size=5)
        assert not np.array_equal(a, b)
