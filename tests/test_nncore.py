import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmtopic.nncore as nncore_module
from mmtopic.nncore import (
    AdamState,
    GradcheckReport,
    _softplus_parts,
    adam_step,
    glorot_uniform,
    gradcheck,
    inference_backward,
    inference_forward,
    kl_grads,
    kl_rows,
    named_rng,
    prior_variance,
    softmax,
    softmax_backward,
)

from mmtopic.models import ModelConfig, init_params, param_shapes

from oracles import (adam_scalar_reference, prior_variance_reference,
                     sigmoid_masked_reference)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


INPUTS = [
    lambda rng: rng.normal(size=(64, 100)) * 5,
    lambda rng: rng.uniform(-800, 800, size=(64, 100)),
    lambda rng: np.array([sign * v for v in (0.0, 700.0, 800.0, 1e-300, np.inf)
                          for sign in (1.0, -1.0)]),
    lambda rng: rng.normal(size=(4000, 100)) * 30,
]
INPUT_IDS = ["normal-x5", "uniform-800", "edges", "large-x30"]


def encoder_d_pre(pre):
    """The gradient ``inference_backward`` carries to the encoder's
    pre-activations ``pre`` (flattened into one row of hidden units) under
    a unit upstream gradient and no dropout, read off the hidden bias's
    gradient: softplus' at ``pre``."""
    h = pre.size
    params = {"enc.W_hidden": np.zeros((h, 1)), "enc.b_hidden": pre.reshape(-1),
              "enc.W_mu": np.ones((1, h)), "enc.b_mu": np.zeros(1),
              "enc.W_logvar": np.zeros((1, h)), "enc.b_logvar": np.zeros(1)}
    with np.errstate(invalid="ignore"):  # 0 * inf in the logvar head at pre = inf
        _, _, cache = inference_forward(params, "enc", np.zeros((1, 1)))
        grads = inference_backward(params, "enc", cache, np.ones((1, 1)), np.zeros((1, 1)))
    return grads["enc.b_hidden"].reshape(pre.shape)


class TestActivations:
    def test_softplus_at_zero_is_log_two(self):
        out, _ = _softplus_parts(np.zeros(1))
        assert out[0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_softplus_survives_large_inputs(self):
        pre = np.array([-1000.0, 0.0, 1000.0])
        out, e = _softplus_parts(pre)
        np.testing.assert_array_equal(pre, [0.0, 0.0, 1000.0])  # left as max(pre, 0)
        np.testing.assert_array_equal(e, [0.0, 1.0, 0.0])  # exp(-|pre|)
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[2] == pytest.approx(1000.0, abs=1e-12)

    @pytest.mark.parametrize("make_x", INPUTS[:3], ids=INPUT_IDS[:3])
    def test_softplus_within_two_ulp_of_logaddexp(self, make_x):
        x = make_x(np.random.default_rng(0))
        ours, reference = _softplus_parts(x.copy())[0], np.logaddexp(0.0, x)
        # both are >= 0, so their bit patterns order like their values
        ulps = np.abs(ours.view(np.int64) - reference.view(np.int64))
        assert ulps.max() <= 2

    def test_sigmoid_matches_definition_both_branches(self):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        np.testing.assert_allclose(encoder_d_pre(x), 1 / (1 + np.exp(-x)), rtol=1e-15)
        assert np.isfinite(encoder_d_pre(np.array([-1000.0, 1000.0]))).all()

    @pytest.mark.parametrize("make_x", INPUTS, ids=INPUT_IDS)
    def test_sigmoid_bytes_equal_the_masked_formula(self, make_x):
        x = make_x(np.random.default_rng(0))
        assert encoder_d_pre(x).tobytes() == sigmoid_masked_reference(x).tobytes()

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
        # the moments are flat, one entry per parameter in arena order
        arena = np.zeros(6)
        params = {"a": arena[:2], "b": arena[2:].reshape(2, 2)}
        grads = {"a": np.ones(2), "b": np.full((2, 2), 2.0)}
        state = AdamState()
        adam_step(params, grads, state)
        assert state.first_moment.shape == state.second_moment.shape == (6,)
        np.testing.assert_allclose(state.first_moment, 0.01 * np.repeat([1.0, 2.0], [2, 4]))
        np.testing.assert_allclose(state.second_moment, 0.001 * np.repeat([1.0, 4.0], [2, 4]))
        assert state.step == 1

    def test_arena_steps_match_a_per_block_recurrence(self):
        config = ModelConfig(kind="multimodal_contrast", num_topics=3, hidden_dim=5)
        params = init_params(config, 4, 6, 7, np.random.default_rng(0))
        expected = {name: p.copy() for name, p in params.items()}
        moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
        rng, state = np.random.default_rng(1), AdamState(learning_rate=0.01)
        for t in range(1, 201):
            grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 3)
                     for name, p in reversed(params.items())}
            adam_step(params, grads, state)
            for name, g in grads.items():  # the textbook recurrence, block by block
                m, v = moments[name]
                m[...] = 0.99 * m + 0.01 * g
                v[...] = 0.999 * v + 0.001 * g * g
                expected[name] -= 0.01 * (m / (1 - 0.99 ** t)) / (
                    np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        for name, p in params.items():
            np.testing.assert_allclose(p, expected[name], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("layout", ["separate", "reordered", "gap", "partial",
                                        "transposed"])
    def test_blocks_that_do_not_tile_one_buffer_rejected(self, layout):
        arena = np.zeros(12)
        a, b = arena[:4], arena[4:8].reshape(2, 2)
        params = {"separate": {"a": np.zeros(4), "b": np.zeros((2, 2))},
                  "reordered": {"b": b, "a": a},
                  "gap": {"a": a, "b": arena[8:].reshape(2, 2)},
                  "partial": {"a": a, "b": b},
                  "transposed": {"a": a, "b": b.T}}[layout]
        grads = {name: np.ones_like(p) for name, p in params.items()}
        with pytest.raises(ValueError, match="tile one float64 buffer"):
            adam_step(params, grads, AdamState())
        np.testing.assert_array_equal(arena, 0.0)

    def test_missing_gradient_rejected(self):
        arena = np.zeros(4)
        with pytest.raises(ValueError, match=r"no gradient for the blocks \['b'\]"):
            adam_step({"a": arena[:2], "b": arena[2:]}, {"a": np.ones(2)}, AdamState())

    def test_chunks_give_the_whole_buffer_bytes(self):
        # blocks straddle every chunk boundary; a dropped or repeated element
        # at a boundary leaves a parameter or moment off the reference
        chunk = nncore_module._ADAM_CHUNK
        sizes = (chunk - 5, chunk + 11, chunk - 3, 1000)
        arena = np.random.default_rng(3).normal(size=sum(sizes))
        params, start = {}, 0
        for i, size in enumerate(sizes):
            params[f"b{i}"] = arena[start:start + size]
            start += size
        p, m, v = arena.copy(), np.zeros(arena.size), np.zeros(arena.size)
        rng, state = np.random.default_rng(4), AdamState(learning_rate=0.01)
        for t in range(1, 4):
            grads = {name: rng.normal(size=b.size) for name, b in params.items()}
            adam_step(params, grads, state)
            g = np.concatenate(list(grads.values()))  # one pass per step, whole buffer
            root_c2 = math.sqrt(1.0 - 0.999 ** t)
            m *= 0.99
            m += g * (1.0 - 0.99)
            v *= 0.999
            v += g * (1.0 - 0.999) * g
            p -= m / (np.sqrt(v) + 1e-8 * root_c2) * (0.01 * root_c2 / (1.0 - 0.99 ** t))
        assert state.scratch.size == chunk
        assert arena.tobytes() == p.tobytes()
        assert state.first_moment.tobytes() == m.tobytes()
        assert state.second_moment.tobytes() == v.tobytes()

    def test_moments_for_another_arena_size_rejected(self):
        state = AdamState()
        adam_step({"w": np.zeros(4)}, {"w": np.ones(4)}, state)
        with pytest.raises(ValueError, match=r"moments for 4 parameters, arena of 6"):
            adam_step({"w": np.zeros(6)}, {"w": np.ones(6)}, state)

    @pytest.mark.parametrize("name", ["grad", "scratch", "blocks", "arena"])
    def test_buffers_adam_step_owns_are_not_arguments(self, name):
        with pytest.raises(TypeError, match=name):
            AdamState(**{name: np.zeros(2)})


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
        hidden = np.logaddexp(0.0, x @ params["enc.W_hidden"].T + params["enc.b_hidden"])
        np.testing.assert_allclose(mu, hidden @ params["enc.W_mu"].T + params["enc.b_mu"],
                                   atol=1e-14)
        np.testing.assert_allclose(
            logvar, hidden @ params["enc.W_logvar"].T + params["enc.b_logvar"], atol=1e-14)

    def test_forward_allocates_three_hidden_arrays(self):
        # the pre-activations (then max(pre, 0)), exp(-|pre|) and the hidden
        # layer, each (rows, H), then the two (rows, K) heads: no softplus
        # temporaries
        rng = np.random.default_rng(11)
        params = encoder_params(20, 5, rng, hidden_dim=100)
        x, mask = rng.normal(size=(2000, 20)), np.ones((2000, 100))
        tracemalloc.start()
        try:
            inference_forward(params, "enc", x, dropout_mask=mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2000 * (3 * 100 + 4 * 5) + 64 * 1024

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
        report = GradcheckReport(per_block={"w": float("nan")})
        assert not report.ok

    def test_nan_in_a_later_block_fails(self):
        # Python's max keeps an earlier value when a NaN comes later
        def loss(p):
            return float(np.sum(p["a"] ** 2 + p["b"])), \
                {"a": 2.0 * p["a"], "b": np.full_like(p["b"], np.nan)}

        report = gradcheck(loss, {"a": np.array([1.0, -2.0]), "b": np.array([0.5])})
        assert report.per_block["a"] < 1e-8
        assert np.isnan(report.max_relative_error)
        assert report.ok is False

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

    # each would otherwise report ok=True for a 50x wrong gradient, or raise
    # a stray error naming nothing
    @pytest.mark.parametrize("params, coords, message", [
        ({"w": np.ones(3)}, 0, "max_coords_per_block must be >= 1, got 0"),
        ({}, 32, "at least one parameter block"),
        ({"w": np.ones(3), "v": np.ones(2)}, 32, r"lack the blocks \['v'\]"),
    ])
    def test_checks_that_cannot_fail_are_refused(self, params, coords, message):
        def loss(p):
            return float(np.sum(p["w"] ** 2)), {"w": 100.0 * p["w"]}

        with pytest.raises(ValueError, match=message):
            gradcheck(loss, params, max_coords_per_block=coords)


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
