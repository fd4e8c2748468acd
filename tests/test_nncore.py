import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtopic.nncore import (
    AdamState,
    GradcheckReport,
    adam_step,
    glorot_uniform,
    gradcheck,
    inference_backward,
    inference_forward,
    kl_grads,
    kl_rows,
    named_rng,
    prior_variance,
    sigmoid,
    softmax,
    softmax_backward,
    softplus,
)

from mmtopic.models import ModelConfig, init_params, param_shapes

from oracles import (adam_scalar_reference, prior_variance_reference,
                     sigmoid_masked_reference)

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

    @pytest.mark.parametrize("make_x", [
        lambda rng: rng.normal(size=(64, 100)) * 5,
        lambda rng: rng.uniform(-800, 800, size=(64, 100)),
        lambda rng: np.array([sign * v for v in (0.0, 700.0, 800.0, 1e-300, np.inf)
                              for sign in (1.0, -1.0)]),
        lambda rng: rng.normal(size=(4000, 100)) * 30,
    ], ids=["normal-x5", "uniform-800", "edges", "large-x30"])
    def test_sigmoid_bytes_equal_the_masked_formula(self, make_x):
        x = make_x(np.random.default_rng(0))
        assert sigmoid(x).tobytes() == sigmoid_masked_reference(x).tobytes()

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

    @given(st.lists(finite_floats, min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_softmax_lies_on_simplex(self, values):
        out = softmax(np.array(values))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert (out >= 0).all()

    def test_softmax_batched_rows_match_single_calls(self):
        x = np.random.default_rng(8).normal(size=(5, 4)) * 3
        batch = softmax(x, axis=-1)
        for i in range(5):
            np.testing.assert_allclose(batch[i], softmax(x[i]), atol=1e-15)


class TestPrior:
    def test_variance_formula_k2_alpha1(self):
        assert prior_variance(2, 1.0) == 0.5

    def test_variance_formula_default_alpha_k25(self):
        # alpha = 1/K: (K)(1 - 2/K) + K*K/K^2 = K - 2 + 1 = 24 at K = 25
        assert prior_variance(25, 1.0 / 25) == pytest.approx(24.0)

    @given(st.integers(min_value=2, max_value=200),
           st.floats(min_value=1e-3, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_variance_matches_reference(self, k, alpha):
        assert prior_variance(k, alpha) == pytest.approx(prior_variance_reference(k, alpha))

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="num_topics"):
            prior_variance(1, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            prior_variance(5, 0.0)


class TestKl:
    def test_identical_distributions_give_zero(self):
        variance = 2.0
        rows = kl_rows(np.zeros((2, 3)), np.full((2, 3), math.log(variance)), variance)
        np.testing.assert_allclose(rows, 0.0, atol=1e-14)

    def test_unit_shift_hand_value(self):
        # KL(N(1,1) || N(0,1)) = 0.5 per dimension
        assert kl_rows(np.ones(1), np.zeros(1), 1.0) == pytest.approx(0.5)

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6),
           st.lists(st.floats(min_value=-4, max_value=4), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_never_negative(self, mu, logvar):
        k = min(len(mu), len(logvar))
        assert kl_rows(np.array(mu[:k]), np.array(logvar[:k]), 1.7) >= -1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        mu = rng.normal(size=(3, 5))
        logvar = rng.normal(size=(3, 5)) * 0.5

        def loss(params):
            kl = float(np.sum(kl_rows(params["mu"], params["logvar"], 1.3)))
            d_mu, d_logvar = kl_grads(params["mu"], params["logvar"], 1.3)
            return kl, {"mu": d_mu, "logvar": d_logvar}

        report = gradcheck(loss, {"mu": mu, "logvar": logvar})
        assert report.max_relative_error < 1e-8


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

    def test_gradient_for_unknown_block_rejected(self):
        with pytest.raises(ValueError, match="gradient for 'v' has no parameter block"):
            adam_step({"w": np.zeros(2)}, {"v": np.zeros(2)}, AdamState())

    def test_moment_buffers_track_each_parameter(self):
        state = AdamState()
        params = {"a": np.zeros(2), "b": np.zeros((2, 2))}
        grads = {"a": np.ones(2), "b": np.ones((2, 2))}
        adam_step(params, grads, state)
        assert set(state.first_moment) == {"a", "b"}
        assert state.first_moment["b"].shape == (2, 2)
        assert state.step == 1


def encoder_params(input_dim, num_topics, rng, hidden_dim):
    """The ``enc`` blocks of a zeroshot model whose encoder reads ``input_dim``
    columns, drawn by ``init_params``."""
    config = ModelConfig(kind="zeroshot", num_topics=num_topics, hidden_dim=hidden_dim)
    params = init_params(config, input_dim, 1, 2, rng)
    return {name: p for name, p in params.items() if name.startswith("enc.")}


class TestEncoder:
    def test_init_shapes_and_zero_biases(self):
        config = ModelConfig(kind="zeroshot", num_topics=4, hidden_dim=7)
        shapes = param_shapes(config, 12, 3, 10)
        params = init_params(config, 12, 3, 10, np.random.default_rng(0))
        assert shapes == {"enc.W_hidden": (7, 12), "enc.b_hidden": (7,),
                          "enc.W_mu": (4, 7), "enc.b_mu": (4,),
                          "enc.W_logvar": (4, 7), "enc.b_logvar": (4,), "beta": (4, 10)}
        assert {n: p.shape for n, p in params.items()} == shapes
        for name in ("enc.b_hidden", "enc.b_mu", "enc.b_logvar"):
            np.testing.assert_array_equal(params[name], np.zeros(shapes[name]))

    def test_glorot_limit_respected(self):
        w = glorot_uniform(np.random.default_rng(1), (30, 50))
        limit = math.sqrt(6.0 / 80)
        assert np.abs(w).max() <= limit

    def test_forward_matches_manual_composition(self):
        rng = np.random.default_rng(6)
        params = encoder_params(5, 3, rng, hidden_dim=4)
        x = rng.normal(size=(2, 5))
        mu, logvar, _ = inference_forward(params, "enc", x)
        hidden = softplus(x @ params["enc.W_hidden"].T + params["enc.b_hidden"])
        np.testing.assert_allclose(mu, hidden @ params["enc.W_mu"].T + params["enc.b_mu"],
                                   atol=1e-14)
        np.testing.assert_allclose(
            logvar, hidden @ params["enc.W_logvar"].T + params["enc.b_logvar"], atol=1e-14)

    def test_dropout_mask_scales_hidden_layer(self):
        rng = np.random.default_rng(7)
        params = encoder_params(5, 3, rng, hidden_dim=4)
        x = rng.normal(size=(1, 5))
        mask = np.zeros((1, 4))
        mu, logvar, _ = inference_forward(params, "enc", x, dropout_mask=mask)
        # all hidden units dropped: only the head biases survive
        np.testing.assert_allclose(mu[0], params["enc.b_mu"], atol=1e-14)
        np.testing.assert_allclose(logvar[0], params["enc.b_logvar"], atol=1e-14)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        params = encoder_params(6, 3, rng, hidden_dim=5)
        x = rng.normal(size=(4, 6))
        w_mu = rng.normal(size=(4, 3))
        w_lv = rng.normal(size=(4, 3))

        def loss(p):
            mu, logvar, cache = inference_forward(p, "enc", x)
            value = float(np.sum(w_mu * mu) + np.sum(w_lv * logvar))
            return value, inference_backward(p, "enc", cache, w_mu, w_lv)

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
