import dataclasses
import math
import sys
import threading
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

import mmtopic.metrics as metrics_module
import mmtopic.models as models_module
from mmtopic.corpus import SyntheticSpec, Vocabulary, generate_synthetic
from mmtopic.models import (
    ENCODERS,
    ModelConfig,
    batch_objective,
    infer_topic_distribution,
    infonce,
    init_params,
    l1_normalize_bow,
    param_shapes,
    reconstruct_image_features,
    train,
)
from mmtopic.nncore import (AdamState, _openblas_thread_calls, adam_step, glorot_uniform,
                            gradcheck, named_rng, one_blas_thread, softmax)

from conftest import make_corpus, run_fresh_python
from oracles import contrast_loss_reference, infonce_reference, mzs_loss_reference

KINDS = ("zeroshot", "combined", "multimodal_zeroshot", "multimodal_contrast")


# One document's model inputs, drawn directly rather than counted from tokens.
Doc = namedtuple("Doc", "bow text_embedding image_embedding")


def make_doc(rng, vocab_size=12, text_dim=5, image_dim=4):
    return Doc(
        bow=rng.integers(0, 4, size=vocab_size).astype(np.float64),
        text_embedding=rng.normal(size=text_dim),
        image_embedding=rng.normal(size=image_dim),
    )


def make_params(kind, *, num_topics=3, vocab_size=12, text_dim=5, image_dim=4,
                hidden_dim=6, seed=0, **overrides):
    config = ModelConfig(kind=kind, num_topics=num_topics, hidden_dim=hidden_dim,
                         **overrides)
    params = init_params(config, text_dim, image_dim, vocab_size,
                         np.random.default_rng(seed))
    return config, params


def make_batch(kind, params, rng, n=3):
    """Random inputs and noise for ``n`` documents, shaped as ``make_params``
    shapes a kind's encoders."""
    if kind == "multimodal_contrast":
        inputs = {"x_text": rng.normal(size=(n, 5)),
                  "x_image": rng.normal(size=(n, 4)),
                  "bow": rng.integers(0, 4, size=(n, 12)).astype(np.float64)}
        return inputs, (rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
    dim = params["enc.W_hidden"].shape[1]
    inputs = {"x": rng.normal(size=(n, dim)),
              "bow": rng.integers(0, 4, size=(n, 12)).astype(np.float64)}
    if kind == "multimodal_zeroshot":
        inputs["image_target"] = rng.normal(size=(n, 4))
    return inputs, rng.normal(size=(n, 3))


class TestModelConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelConfig(kind="pagerank", num_topics=5)

    def test_kinds_come_from_the_encoder_table(self):
        assert models_module.KINDS == tuple(models_module.ENCODERS) == KINDS
        assert models_module.MULTIMODAL_KINDS == ("multimodal_zeroshot", "multimodal_contrast")

    def test_batch_size_default_depends_on_kind(self):
        assert ModelConfig(kind="zeroshot", num_topics=5).batch_size == 64
        assert ModelConfig(kind="multimodal_contrast", num_topics=5).batch_size == 32

    def test_prior_alpha_defaults_to_inverse_topic_count(self):
        assert ModelConfig(kind="zeroshot", num_topics=20).prior_alpha == pytest.approx(0.05)

    def test_explicit_values_kept(self):
        cfg = ModelConfig(kind="combined", num_topics=4, batch_size=7, prior_alpha=0.3)
        assert cfg.batch_size == 7 and cfg.prior_alpha == 0.3

    def test_dict_round_trip(self):
        cfg = ModelConfig(kind="multimodal_zeroshot", num_topics=6, image_loss_weight=2.5)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field,value", [
        ("num_topics", 1), ("epochs", -1), ("batch_size", 0), ("learning_rate", 0.0),
        ("dropout_rate", 1.0), ("hidden_dim", 0), ("image_loss_weight", -0.1),
        ("contrastive_weight", -1.0), ("temperature", 0.0), ("prior_alpha", -2.0),
        ("seed", -1),
        *((f.name, value) for f in dataclasses.fields(ModelConfig)
          if str(f.type).startswith("float") for value in (math.nan, math.inf)),
    ])
    def test_out_of_range_fields_rejected(self, field, value):
        kwargs = {"kind": "zeroshot", "num_topics": 5, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be "):
            ModelConfig(**kwargs)

    def test_a_huge_integer_is_compared_without_overflow(self):
        # Finiteness is tested on floats only: math.isfinite(10 ** 400) raises OverflowError.
        assert ModelConfig(kind="zeroshot", num_topics=5, epochs=10 ** 400).epochs == 10 ** 400
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            ModelConfig(kind="zeroshot", num_topics=5, seed=-10 ** 400)

    def test_a_topic_count_too_large_for_the_default_prior_is_named(self):
        # 1.0 / num_topics would raise OverflowError, naming no field.
        with pytest.raises(ValueError, match="^num_topics must be < 1.79"):
            ModelConfig(kind="zeroshot", num_topics=10 ** 400)

    def test_a_topic_count_too_large_for_a_float_is_named_with_any_prior(self):
        # Training would raise OverflowError from prior_variance, naming no field.
        with pytest.raises(ValueError, match="^num_topics must be < 1.79"):
            ModelConfig(kind="zeroshot", num_topics=10 ** 400, prior_alpha=0.5)

    @pytest.mark.parametrize("field,value", [
        (f.name, sign * 10 ** 400) for f in dataclasses.fields(ModelConfig)
        if str(f.type).startswith("float") for sign in (1, -1)],
        ids=lambda v: v if isinstance(v, str) else "-10**400" if v < 0 else "10**400")
    def test_a_float_field_refuses_an_integer_too_large_for_a_float(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got -?1000"):
            ModelConfig(kind="zeroshot", num_topics=5, **{field: value})

    @pytest.mark.parametrize("field,value,wanted", [
        ("learning_rate", True, "a JSON number"), ("epochs", True, "a JSON integer"),
        ("prior_alpha", True, "a JSON number or null"), ("epochs", 2.5, "a JSON integer"),
        ("hidden_dim", 2.5, "a JSON integer"), ("batch_size", 1.5, "a JSON integer or null"),
        ("num_topics", 2.0, "a JSON integer"), ("kind", None, "a JSON string"),
    ])
    def test_mistyped_fields_rejected(self, field, value, wanted):
        kwargs = {"kind": "zeroshot", "num_topics": 5, field: value}
        with pytest.raises(TypeError, match=f"field '{field}' must be {wanted}, got"):
            ModelConfig(**kwargs)

    def test_integers_fit_float_fields(self):
        cfg = ModelConfig(kind="zeroshot", num_topics=5, learning_rate=1, prior_alpha=2)
        assert cfg.learning_rate == 1 and cfg.prior_alpha == 2


class TestInputs:
    def test_l1_normalize_rows_sum_to_one(self):
        bow = np.array([[2.0, 0.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, 2.0]])
        out = l1_normalize_bow(bow, np.zeros_like(bow))
        np.testing.assert_allclose(out[0], [0.5, 0.0, 0.5])
        np.testing.assert_array_equal(out[1], 0.0)
        assert out[2].sum() == pytest.approx(1.0)

    def test_encoder_input_dim_per_kind(self, tiny_corpus):
        # each encoder's width is the column count training feeds it
        for kind in KINDS:
            config = ModelConfig(kind=kind, num_topics=3, hidden_dim=6)
            params = init_params(config, tiny_corpus.text_dim, tiny_corpus.image_dim,
                                 len(tiny_corpus.vocabulary), np.random.default_rng(0))
            inputs = models_module._batch_inputs(
                tiny_corpus, kind, np.array([2, 0]), tiny_corpus.bow_matrix(np.array([2, 0])))
            for prefix, key, _, _ in ENCODERS[kind]:
                assert params[f"{prefix}.W_hidden"].shape[1] == inputs[key].shape[1]

    def test_batch_inputs_gather_rows(self, tiny_corpus):
        rows = np.array([3, 1, 3])
        t = tiny_corpus.text_dim
        text, image = tiny_corpus.text_embeddings[rows], tiny_corpus.image_embeddings[rows]
        counts = tiny_corpus.bow_matrix()[rows]
        # the batch's own counts, as bow_matrix codes and counts them
        batch = {kind: models_module._batch_inputs(tiny_corpus, kind, rows,
                                                   tiny_corpus.bow_matrix(rows))
                 for kind in KINDS}
        assert {kind: set(inputs) for kind, inputs in batch.items()} == {
            "zeroshot": {"x", "bow"}, "combined": {"x", "bow"},
            "multimodal_zeroshot": {"x", "bow", "image_target"},
            "multimodal_contrast": {"x_text", "x_image", "bow"}}
        for inputs in batch.values():
            np.testing.assert_array_equal(inputs["bow"], counts)
        np.testing.assert_array_equal(batch["zeroshot"]["x"], text)
        combined = batch["combined"]["x"]
        # written in one buffer, byte for byte the concatenation of the text
        # rows and the separately normalized counts
        totals = counts.sum(axis=1, keepdims=True)
        bow = np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)
        assert combined.tobytes() == np.concatenate([text, bow], axis=1).tobytes()
        np.testing.assert_allclose(combined[:, t:].sum(axis=1), 1.0)
        np.testing.assert_array_equal(batch["multimodal_zeroshot"]["x"],
                                      np.concatenate([text, image], axis=1))
        np.testing.assert_array_equal(batch["multimodal_zeroshot"]["image_target"], image)
        np.testing.assert_array_equal(batch["multimodal_contrast"]["x_text"], text)
        np.testing.assert_array_equal(batch["multimodal_contrast"]["x_image"], image)

    def test_batch_inputs_pass_a_lone_feature_uncopied(self, tiny_corpus):
        everything = slice(None)
        bow = tiny_corpus.bow_matrix(everything)
        mzs = models_module._batch_inputs(tiny_corpus, "multimodal_zeroshot", everything, bow)
        assert np.shares_memory(mzs["image_target"], tiny_corpus.image_embeddings)
        contrast = models_module._batch_inputs(tiny_corpus, "multimodal_contrast", everything,
                                               bow)
        assert np.shares_memory(contrast["x_text"], tiny_corpus.text_embeddings)
        assert np.shares_memory(contrast["x_image"], tiny_corpus.image_embeddings)

    def test_init_params_blocks_per_kind(self):
        _, p = make_params("zeroshot")
        assert set(p) == {"enc.W_hidden", "enc.b_hidden", "enc.W_mu", "enc.b_mu",
                          "enc.W_logvar", "enc.b_logvar", "beta"}
        _, p = make_params("multimodal_zeroshot")
        assert "gamma" in p and p["gamma"].shape == (3, 4)
        _, p = make_params("multimodal_contrast")
        assert "enc_text.W_hidden" in p and "enc_image.W_hidden" in p
        assert p["enc_text.W_hidden"].shape == (6, 5)
        assert p["enc_image.W_hidden"].shape == (6, 4)


def one_doc_components(kind, doc, params, config, eps):
    """One document's objective components for a single-encoder kind fed
    the concatenated text and image embeddings."""
    x = np.concatenate([doc.text_embedding, doc.image_embedding])
    inputs = {"x": x[None], "bow": doc.bow[None], "image_target": doc.image_embedding[None]}
    _, _, comps = batch_objective(kind, inputs, params, config, eps[None],
                                  want_grads=False)
    return {name: float(rows[0]) for name, rows in comps.items()}


class TestMultimodalZeroshotLoss:
    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(21)
        config, params = make_params("multimodal_zeroshot", image_loss_weight=3.0)
        doc = make_doc(rng)
        eps = rng.normal(size=3)
        out = one_doc_components("multimodal_zeroshot", doc, params, config, eps)
        x = np.concatenate([doc.text_embedding, doc.image_embedding])
        total, recon, kl, image = mzs_loss_reference(
            x, doc.bow, doc.image_embedding, params, 3, config.prior_alpha, 3.0, eps)
        assert out["total"] == pytest.approx(total, rel=1e-9)
        assert out["recon"] == pytest.approx(recon, rel=1e-9)
        assert out["kl"] == pytest.approx(kl, rel=1e-9)
        assert out["image"] == pytest.approx(image, rel=1e-9)

    def test_zero_image_weight_reduces_to_unimodal_objective(self):
        rng = np.random.default_rng(22)
        config, params = make_params("multimodal_zeroshot", image_loss_weight=0.0)
        doc = make_doc(rng)
        eps = rng.normal(size=3)
        multi = one_doc_components("multimodal_zeroshot", doc, params, config, eps)
        uni = one_doc_components("zeroshot", doc, params, config, eps)
        assert multi["image"] == 0.0
        assert abs(multi["total"] - uni["total"]) <= 1e-12
        assert abs(multi["recon"] - uni["recon"]) <= 1e-12
        assert abs(multi["kl"] - uni["kl"]) <= 1e-12

    def test_parallel_reconstruction_zeroes_image_term(self):
        rng = np.random.default_rng(23)
        config, params = make_params("multimodal_zeroshot", image_loss_weight=5.0)
        doc = make_doc(rng)
        # every topic maps to the same image vector, so any mixture
        # reconstructs it exactly and the cosine penalty vanishes
        params["gamma"] = np.tile(doc.image_embedding, (3, 1))
        out = one_doc_components("multimodal_zeroshot", doc, params, config,
                                 rng.normal(size=3))
        assert out["image_dist"] == pytest.approx(0.0, abs=1e-9)
        assert out["image"] == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_reconstruction_pays_full_weight(self):
        rng = np.random.default_rng(24)
        config, params = make_params("multimodal_zeroshot", image_loss_weight=5.0)
        doc = Doc(
            bow=rng.integers(0, 4, size=12).astype(np.float64),
            text_embedding=rng.normal(size=5),
            image_embedding=np.array([2.0, 0.0, 0.0, 0.0]),
        )
        params["gamma"] = np.tile(np.array([0.0, 3.0, 0.0, 0.0]), (3, 1))
        out = one_doc_components("multimodal_zeroshot", doc, params, config,
                                 rng.normal(size=3))
        assert out["image_dist"] == pytest.approx(1.0, abs=1e-12)
        assert out["image"] == pytest.approx(5.0, abs=1e-9)


class TestInfonce:
    def test_single_identical_pair_hand_value(self):
        theta = np.array([[0.2, 0.5, 0.3]])
        # one document: positives cancel the matching denominator term,
        # leaving 2 * log(4) regardless of the mixture
        expected = 2.0 * math.log(4.0)
        assert infonce(theta, theta, 0.07, 1.0) == pytest.approx(expected, rel=1e-12)
        assert infonce(theta, theta, 0.5, 2.0) == pytest.approx(2 * expected, rel=1e-12)

    def test_zero_weight_gives_zero(self):
        rng = np.random.default_rng(31)
        t = rng.dirichlet(np.ones(4), size=3)
        m = rng.dirichlet(np.ones(4), size=3)
        assert infonce(t, m, 0.07, 0.0) == 0.0

    def test_matches_quadruple_loop_reference(self):
        rng = np.random.default_rng(32)
        t = rng.dirichlet(np.ones(4), size=5)
        m = rng.dirichlet(np.ones(4), size=5)
        ours = infonce(t, m, 0.07, 100.0)
        ref = infonce_reference(t, m, 0.07, 100.0)
        assert ours == pytest.approx(ref, rel=1e-10)

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(33)
        t = rng.dirichlet(np.ones(4), size=6)
        m = rng.dirichlet(np.ones(4), size=6)
        perm = rng.permutation(6)
        assert infonce(t[perm], m[perm], 0.07, 1.0) == pytest.approx(
            infonce(t, m, 0.07, 1.0), rel=1e-10)

    def test_alignment_lowers_the_loss(self):
        rng = np.random.default_rng(34)
        t = rng.dirichlet(np.ones(6), size=8)
        mismatched = infonce(t, np.roll(t, 2, axis=0), 0.07, 1.0)
        assert infonce(t, t, 0.07, 1.0) < mismatched

    def test_invalid_inputs_rejected(self):
        t = np.ones((2, 3)) / 3
        with pytest.raises(ValueError, match="identical"):
            infonce(t, np.ones((3, 3)) / 3, 0.07, 1.0)
        with pytest.raises(ValueError, match="temperature"):
            infonce(t, t, 0.0, 1.0)
        with pytest.raises(ValueError, match="identical"):
            infonce(np.ones(3) / 3, np.ones(3) / 3, 0.07, 1.0)
        with pytest.raises(ValueError, match="at least one document"):
            infonce(np.empty((0, 3)), np.empty((0, 3)), 0.07, 1.0)


class TestContrastLoss:
    def make_batch(self, rng, n=4):
        return [make_doc(rng) for _ in range(n)]

    def components(self, docs, params, config, eps):
        inputs = {"x_text": np.stack([d.text_embedding for d in docs]),
                  "x_image": np.stack([d.image_embedding for d in docs]),
                  "bow": np.stack([d.bow for d in docs])}
        _, _, comps = batch_objective("multimodal_contrast", inputs, params, config, eps,
                                      want_grads=False)
        return comps

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(41)
        config, params = make_params("multimodal_contrast", contrastive_weight=50.0)
        docs = self.make_batch(rng)
        eps_t = rng.normal(size=(4, 3))
        eps_m = rng.normal(size=(4, 3))
        out = self.components(docs, params, config, (eps_t, eps_m))
        ref = contrast_loss_reference(
            [d.text_embedding for d in docs], [d.image_embedding for d in docs],
            [d.bow for d in docs], params, 3, config.prior_alpha,
            config.temperature, 50.0, eps_t, eps_m)
        assert np.sum(out["total"]) == pytest.approx(ref, rel=1e-9)

    def test_components_sum_to_total(self):
        rng = np.random.default_rng(42)
        config, params = make_params("multimodal_contrast")
        docs = self.make_batch(rng)
        out = self.components(docs, params, config,
                              (rng.normal(size=(4, 3)), rng.normal(size=(4, 3))))
        assert out["total"].shape == (4,)
        np.testing.assert_allclose(
            out["total"],
            out["recon"] + out["kl_text"] + out["kl_image"] + out["contrastive"],
            rtol=1e-12)

    def test_zero_weight_decouples_documents(self):
        rng = np.random.default_rng(43)
        config, params = make_params("multimodal_contrast", contrastive_weight=0.0)
        docs = self.make_batch(rng)
        eps = (rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        before = self.components(docs, params, config, eps)["total"]
        bumped = list(docs)
        bumped[2] = Doc(
            bow=docs[2].bow,
            text_embedding=docs[2].text_embedding + 1.0,
            image_embedding=docs[2].image_embedding - 1.0)
        after = self.components(bumped, params, config, eps)["total"]
        for i in (0, 1, 3):
            assert abs(after[i] - before[i]) <= 1e-12
        assert after[2] != before[2]


class TestReconstruction:
    def test_one_shift_gives_softmax_bytes_and_log_softmax_loss(self):
        rng = np.random.default_rng(12)
        theta = softmax(rng.normal(size=(5, 3)), axis=-1)
        beta = rng.normal(size=(3, 12)) * 4
        bows = rng.integers(0, 4, size=(5, 12)).astype(np.float64)
        recon, probs = models_module._recon_forward(theta, beta, bows)
        logits = theta @ beta
        shifted = logits - np.max(logits, axis=-1, keepdims=True)
        logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
        assert probs.tobytes() == softmax(logits, axis=-1).tobytes()
        assert recon.tobytes() == (-np.sum(bows * logp, axis=-1)).tobytes()

    def test_forward_and_backward_hold_few_batch_by_vocabulary_arrays(self):
        rng = np.random.default_rng(13)
        b, k, v = 64, 50, 2000
        theta = softmax(rng.normal(size=(b, k)), axis=-1)
        beta = rng.normal(size=(k, v))
        bows = rng.integers(0, 3, size=(b, v)).astype(np.float64)
        tracemalloc.start()
        try:
            _, probs = models_module._recon_forward(theta, beta, bows)
            models_module._recon_backward(theta, beta, bows, probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * b * v * 8 + 64 * 1024

    @pytest.mark.parametrize("kind", KINDS)
    def test_objective_leaves_its_inputs_alone(self, kind):
        rng = np.random.default_rng(14)
        config, params = make_params(kind)
        inputs, noise = make_batch(kind, params, rng)
        before = {key: array.tobytes() for key, array in inputs.items()}
        batch_objective(kind, inputs, params, config, noise)
        assert {key: array.tobytes() for key, array in inputs.items()} == before


class TestGradients:
    def run_check(self, kind, n=3, **config_overrides):
        rng = np.random.default_rng(51)
        config, params = make_params(kind, **config_overrides)
        inputs, noise = make_batch(kind, params, rng, n)

        def loss(p):
            total, grads, _ = batch_objective(kind, inputs, p, config, noise)
            return total, grads

        report = gradcheck(loss, params, rng=np.random.default_rng(7))
        assert report.ok
        return report

    @pytest.mark.parametrize("kind", ["zeroshot", "combined"])
    def test_unimodal_gradients(self, kind):
        assert self.run_check(kind).max_relative_error < 1e-6

    def test_multimodal_zeroshot_gradients(self):
        report = self.run_check("multimodal_zeroshot", image_loss_weight=2.0)
        assert report.max_relative_error < 1e-6

    def test_contrast_gradients(self):
        report = self.run_check("multimodal_contrast", contrastive_weight=20.0)
        assert report.max_relative_error < 1e-6

    @pytest.mark.parametrize("n", [1, 8])
    def test_contrast_gradients_at_batch_size(self, n):
        """One document is the edge case for the stacked Gram's halves."""
        report = self.run_check("multimodal_contrast", n, contrastive_weight=20.0)
        assert report.max_relative_error < 1e-6


@pytest.mark.parametrize("kind", KINDS)
class TestParamLayout:
    """``param_shapes`` states every kind's blocks once; initialization and
    the objective's gradients follow it."""

    def test_init_params_follow_param_shapes(self, kind):
        config, params = make_params(kind)
        assert [(n, p.shape) for n, p in params.items()] \
            == list(param_shapes(config, 5, 4, 12).items())

    def test_draw_order_is_glorot_in_shape_order(self, kind):
        config, params = make_params(kind, seed=8)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        init_params(config, 5, 4, 12, rng_a)
        drawn = {name: glorot_uniform(rng_b, shape)
                 for name, shape in param_shapes(config, 5, 4, 12).items()
                 if len(shape) == 2}
        for name, weights in drawn.items():
            assert params[name].tobytes() == weights.tobytes()
        assert rng_a.random() == rng_b.random()

    def test_init_params_tile_one_buffer(self, kind):
        config, params = make_params(kind, seed=8)
        arena = params["enc.W_hidden" if kind != "multimodal_contrast"
                       else "enc_text.W_hidden"].base
        rng = np.random.default_rng(8)
        drawn = [glorot_uniform(rng, shape) if len(shape) == 2 else np.zeros(shape)
                 for shape in param_shapes(config, 5, 4, 12).values()]
        assert arena.tobytes() == np.concatenate([d.ravel() for d in drawn]).tobytes()
        start = arena.__array_interface__["data"][0]
        for p in params.values():
            assert p.base is arena and p.flags.c_contiguous
            assert p.__array_interface__["data"][0] == start
            start += p.nbytes
        assert start == arena.__array_interface__["data"][0] + arena.nbytes

    def test_objective_grads_match_params(self, kind):
        config, params = make_params(kind)
        inputs, noise = make_batch(kind, params, np.random.default_rng(3))
        _, grads, _ = batch_objective(kind, inputs, params, config, noise)
        assert sorted((n, g.shape) for n, g in grads.items()) \
            == sorted((n, p.shape) for n, p in params.items())


class TestTraining:
    def test_zero_epochs_keeps_initialization(self, tiny_corpus):
        config = ModelConfig(kind="zeroshot", num_topics=3, epochs=0, hidden_dim=8)
        model = train(tiny_corpus, config)
        assert model.loss_trace == []
        expected = init_params(config, tiny_corpus.text_dim, tiny_corpus.image_dim,
                               len(tiny_corpus.vocabulary), named_rng(config.seed, "init"))
        np.testing.assert_array_equal(model.topic_word_matrix, expected["beta"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_stops_naming_epoch_and_batch(self, tiny_corpus):
        config = ModelConfig(kind="multimodal_zeroshot", num_topics=2, epochs=3,
                             hidden_dim=8, batch_size=2, learning_rate=1e6)
        with pytest.raises(ValueError, match=r"loss nan at epoch 1/3, batch 2/2"):
            train(tiny_corpus, config)

    def test_same_seed_reproduces_bit_identical_model(self, tiny_corpus):
        config = ModelConfig(kind="multimodal_contrast", num_topics=3, epochs=3,
                             hidden_dim=8, batch_size=2, seed=5)
        a = train(tiny_corpus, config)
        b = train(tiny_corpus, config)
        np.testing.assert_array_equal(a.topic_word_matrix, b.topic_word_matrix)
        np.testing.assert_array_equal(a.doc_topics, b.doc_topics)
        assert a.loss_trace == b.loss_trace

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_training_equals_one_draw_per_batch_and_encoder(self, kind, rate):
        # The reference draws each batch's noise and dropout uniforms per
        # encoder and counts the batch with bow_matrix; train draws and codes
        # in blocks. No stored hash, so this holds on any SIMD feature set.
        corpus = make_corpus([[f"w{(3 * d + j) % 9}" for j in range(d % 5)] + ["oov"] * (d % 3)
                              for d in range(70)], vocabulary=Vocabulary.from_terms(
                                  [f"w{i}" for i in range(9)]))
        config = ModelConfig(kind=kind, num_topics=3, epochs=2, hidden_dim=6, batch_size=4,
                             dropout_rate=rate, seed=7)
        n, size = corpus.num_documents, config.batch_size
        assert n % size and n // size > models_module._BLOCK_BATCHES
        encoders = ENCODERS[kind]
        params = init_params(config, corpus.text_dim, corpus.image_dim, len(corpus.vocabulary),
                             named_rng(config.seed, "init"))
        shuffle, dropout, noise_rng = (named_rng(config.seed, name)
                                       for name in ("shuffle", "dropout", "noise"))
        adam, trace = AdamState(learning_rate=config.learning_rate), []
        for _ in range(config.epochs):
            order, sums = shuffle.permutation(n), {}
            for start in range(0, n, size):
                idx = order[start:start + size]
                noise = tuple(noise_rng.standard_normal((idx.size, config.num_topics))
                              for _ in encoders)
                masks = None if rate == 0.0 else tuple(
                    (dropout.random((idx.size, config.hidden_dim)) >= rate) * (1.0 / (1.0 - rate))
                    for _ in encoders)
                _, grads, comps = batch_objective(
                    kind, models_module._batch_inputs(corpus, kind, idx, corpus.bow_matrix(idx)),
                    params, config, noise, dropout_masks=masks)
                adam_step(params, grads, adam)
                for name, rows in comps.items():
                    sums[name] = sums.get(name, 0.0) + float(np.sum(rows))
            trace.append({name: value / n for name, value in sums.items()})
        prefix, _, features, _ = encoders[0]
        doc_topics = np.concatenate([models_module._posterior_mean(
            params, prefix, models_module._encoder_input(features, models_module._columns(
                corpus, slice(start, start + size), features))) for start in range(0, n, size)])
        model = train(corpus, config)
        assert list(model.params) == list(params)
        for name, block in params.items():
            assert model.params[name].tobytes() == block.tobytes(), name
        assert model.doc_topics.tobytes() == doc_topics.tobytes()
        assert model.loss_trace == trace

    def test_different_seed_changes_model(self, tiny_corpus):
        base = dict(kind="zeroshot", num_topics=3, epochs=2, hidden_dim=8)
        a = train(tiny_corpus, ModelConfig(seed=0, **base))
        b = train(tiny_corpus, ModelConfig(seed=1, **base))
        assert not np.array_equal(a.topic_word_matrix, b.topic_word_matrix)

    # Key order is part of the checkpoint bytes.
    @pytest.mark.parametrize("kind,keys", [
        ("zeroshot", ["recon", "kl", "total"]),
        ("combined", ["recon", "kl", "total"]),
        ("multimodal_zeroshot", ["recon", "kl", "image_dist", "image", "total"]),
        ("multimodal_contrast",
         ["recon", "kl_text", "kl_image", "contrastive", "nce", "total"]),
    ])
    def test_trace_records_every_component(self, tiny_corpus, kind, keys):
        config = ModelConfig(kind=kind, num_topics=3, epochs=2, hidden_dim=8)
        model = train(tiny_corpus, config)
        assert len(model.loss_trace) == 2
        assert [list(epoch) for epoch in model.loss_trace] == [keys, keys]

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_objective_and_adam_step_per_batch(self, tiny_corpus, kind, monkeypatch):
        calls = {"batch_objective": 0, "adam_step": 0, "inference_forward": 0}
        for name in calls:
            real = getattr(models_module, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(models_module, name, counted)
        config = ModelConfig(kind=kind, num_topics=3, epochs=3, hidden_dim=8,
                             batch_size=3)
        train(tiny_corpus, config)
        blocks = math.ceil(tiny_corpus.num_documents / config.batch_size)
        batches = config.epochs * blocks
        encoders = 2 if kind == "multimodal_contrast" else 1
        # the posterior-mean doc_topics pass runs the first encoder once per block
        assert calls == {"batch_objective": batches, "adam_step": batches,
                         "inference_forward": batches * encoders + blocks}

    def test_batches_never_hold_a_corpus_wide_count_matrix(self):
        # Each batch, and each block of the doc_topics pass, counts its own
        # documents' tokens.
        corpus, _ = generate_synthetic(SyntheticSpec(
            num_topics_true=2, vocab_size=2000, docs=400, doc_length=4,
            embed_dim_text=4, embed_dim_image=4, seed=0))
        n, v = corpus.num_documents, len(corpus.vocabulary)
        for kind in KINDS:
            config = ModelConfig(kind=kind, num_topics=2, epochs=1, hidden_dim=4,
                                 batch_size=16)
            tracemalloc.start()
            try:
                train(corpus, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * v * 8, kind

    def test_doc_topics_pass_never_holds_the_whole_encoder_input(self):
        corpus, _ = generate_synthetic(SyntheticSpec(
            num_topics_true=2, vocab_size=50, docs=2000, doc_length=4,
            embed_dim_text=128, embed_dim_image=128, seed=0))
        config = ModelConfig(kind="multimodal_zeroshot", num_topics=2, epochs=1,
                             hidden_dim=4, batch_size=16)
        tracemalloc.start()
        try:
            train(corpus, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < corpus.num_documents * (corpus.text_dim + corpus.image_dim) * 8

    def test_doc_topics_pass_never_holds_a_whole_hidden_layer(self):
        corpus, _ = generate_synthetic(SyntheticSpec(
            num_topics_true=2, vocab_size=50, docs=3000, doc_length=4,
            embed_dim_text=4, embed_dim_image=4, seed=0))
        for kind in KINDS:
            config = ModelConfig(kind=kind, num_topics=2, epochs=1, hidden_dim=256,
                                 batch_size=64)
            tracemalloc.start()
            try:
                train(corpus, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < corpus.num_documents * config.hidden_dim * 8, kind

    @pytest.mark.parametrize("docs", [5, 70, 133])
    def test_doc_topics_pass_runs_full_batch_sized_blocks(self, docs, monkeypatch):
        # Plain slices of batch_size rows, the last one holding the remainder.
        corpus, _ = generate_synthetic(SyntheticSpec(
            num_topics_true=2, vocab_size=30, docs=docs, doc_length=4,
            embed_dim_text=4, embed_dim_image=4, seed=0))
        sizes = []
        real = models_module.inference_forward

        def counted(params, prefix, x, dropout_mask=None):
            sizes.append(len(x))
            return real(params, prefix, x, dropout_mask)

        monkeypatch.setattr(models_module, "inference_forward", counted)
        train(corpus, ModelConfig(kind="combined", num_topics=2, epochs=0,
                                  hidden_dim=4, batch_size=64))
        assert sizes == [64] * (docs // 64) + ([docs % 64] if docs % 64 else [])

    def test_loss_descends_on_planted_data(self, tiny_planted):
        corpus, _ = tiny_planted
        config = ModelConfig(kind="zeroshot", num_topics=3, epochs=15, hidden_dim=16)
        model = train(corpus, config)
        assert model.loss_trace[-1]["total"] < model.loss_trace[0]["total"]

    def test_doc_topics_are_posterior_mean_mixtures(self, tiny_corpus):
        # inference must build the encoder input training built, for every kind
        bows = tiny_corpus.bow_matrix()
        for kind in KINDS:
            config = ModelConfig(kind=kind, num_topics=3, epochs=1, hidden_dim=8)
            model = train(tiny_corpus, config)
            assert model.doc_topics.shape == (tiny_corpus.num_documents, 3)
            np.testing.assert_allclose(model.doc_topics.sum(axis=1), 1.0, atol=1e-12)
            for i, doc in enumerate(tiny_corpus.documents):
                theta = infer_topic_distribution(
                    model, text_embedding=doc.text_embedding,
                    image_embedding=doc.image_embedding, bow=bows[i])
                np.testing.assert_allclose(model.doc_topics[i], theta, atol=1e-12)

    def test_model_labels_and_matrices(self, tiny_corpus):
        config = ModelConfig(kind="multimodal_zeroshot", num_topics=3, epochs=1,
                             hidden_dim=8, seed=2)
        model = train(tiny_corpus, config)
        assert model.kind == "multimodal_zeroshot"
        assert model.num_topics == 3
        assert model.label == "multimodal_zeroshot-k3-seed2"
        assert model.topic_word_matrix.shape == (3, len(tiny_corpus.vocabulary))
        assert model.topic_image_matrix.shape == (3, tiny_corpus.image_dim)

        uni = train(tiny_corpus, ModelConfig(kind="zeroshot", num_topics=3, epochs=1,
                                             hidden_dim=8))
        assert uni.topic_image_matrix is None


# Trains a combined model at a size where a two-thread OpenBLAS splits the
# encoder's first matrix product, and prints a digest of its parameters and
# of one inferred topic mixture.
BLAS_PROBE = """
import hashlib
from mmtopic.corpus import SyntheticSpec, Vocabulary, generate_synthetic
from mmtopic.models import ModelConfig, infer_topic_distribution, train
corpus, _ = generate_synthetic(SyntheticSpec(
    num_topics_true=5, vocab_size=200, docs=300, doc_length=30,
    embed_dim_text=16, embed_dim_image=16, seed=0))
model = train(corpus, ModelConfig(kind="combined", num_topics=10, epochs=2))
theta = infer_topic_distribution(model, text_embedding=corpus.text_embeddings[0],
                                 bow=corpus.bow_matrix()[0])
digest = hashlib.sha256()
for name in sorted(model.params):
    digest.update(model.params[name].tobytes())
digest.update(theta.tobytes())
print(digest.hexdigest())
"""


class TestBlasThreads:
    def test_parameters_do_not_depend_on_the_openblas_thread_setting(self):
        one, two = (run_fresh_python(BLAS_PROBE, OPENBLAS_NUM_THREADS=threads)
                    for threads in ("1", "2"))
        assert one == two

    def test_training_runs_on_one_thread_and_restores_the_count(self, tiny_corpus,
                                                                  monkeypatch):
        calls = _openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not use its bundled OpenBLAS")
        get_threads, set_threads = calls
        seen = []
        real_objective = models_module.batch_objective

        def recording_objective(*args, **kwargs):
            seen.append(get_threads())
            return real_objective(*args, **kwargs)

        monkeypatch.setattr(models_module, "batch_objective", recording_objective)
        before = get_threads()
        set_threads(2)
        try:
            model = train(tiny_corpus, ModelConfig(kind="combined", num_topics=2,
                                                   epochs=1, hidden_dim=4))
            assert get_threads() == 2
            infer_topic_distribution(model, text_embedding=tiny_corpus.text_embeddings[0],
                                     bow=tiny_corpus.bow_matrix()[0])
            assert get_threads() == 2
        finally:
            set_threads(before)
        assert seen and set(seen) == {1}

    def test_evaluation_runs_on_one_thread_and_restores_the_count(self, tiny_corpus,
                                                                    monkeypatch):
        calls = _openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not use its bundled OpenBLAS")
        get_threads, set_threads = calls
        seen = []
        for module, name in ((metrics_module, "_npmi_per_topic"),
                             (models_module, "_nce_terms")):
            def recording(*args, real=getattr(module, name), name=name, **kwargs):
                seen.append((name, get_threads()))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, recording)
        model = train(tiny_corpus, ModelConfig(kind="zeroshot", num_topics=2,
                                               epochs=1, hidden_dim=4))
        before = get_threads()
        set_threads(2)
        try:
            metrics_module.compute_metric_report(model, tiny_corpus, n_descriptors=2)
            infonce(np.eye(2), np.eye(2), temperature=0.5, weight=1.0)
            assert get_threads() == 2
        finally:
            set_threads(before)
        assert seen == [("_npmi_per_topic", 1), ("_nce_terms", 1)]

    def test_overlapping_pins_on_many_threads_keep_one_thread(self):
        calls = _openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not use its bundled OpenBLAS")
        get_threads, set_threads = calls
        seen = []

        def pin_repeatedly():
            for _ in range(300):
                with one_blas_thread:
                    seen.append(get_threads())

        before, interval = get_threads(), sys.getswitchinterval()
        set_threads(2)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pin_repeatedly) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert get_threads() == 2
        finally:
            sys.setswitchinterval(interval)
            set_threads(before)
        assert len(seen) == 1800 and set(seen) == {1}


@pytest.fixture(scope="module")
def models(tiny_corpus):
    out = {}
    for kind in KINDS:
        config = ModelConfig(kind=kind, num_topics=3, epochs=1, hidden_dim=8)
        out[kind] = train(tiny_corpus, config)
    return out


@pytest.fixture(scope="module")
def tiny_corpus():
    # module-scoped copy so the trained models above can be shared
    return make_corpus([
        ["apple", "banana", "apple", "cherry"],
        ["banana", "cherry", "durian"],
        ["apple", "durian", "durian", "cherry", "banana"],
        ["cherry", "apple", "banana"],
    ])


class TestInference:
    def test_each_kind_returns_a_mixture(self, models, tiny_corpus):
        doc = tiny_corpus.documents[0]
        bow = tiny_corpus.bow_matrix()[0]
        for kind, model in models.items():
            theta = infer_topic_distribution(
                model, text_embedding=doc.text_embedding,
                image_embedding=doc.image_embedding, bow=bow)
            assert theta.shape == (3,)
            assert theta.sum() == pytest.approx(1.0, abs=1e-12)
            assert (theta >= 0).all()

    def test_contrast_accepts_either_modality(self, models, tiny_corpus):
        doc = tiny_corpus.documents[1]
        model = models["multimodal_contrast"]
        from_text = infer_topic_distribution(model, text_embedding=doc.text_embedding)
        from_image = infer_topic_distribution(model, image_embedding=doc.image_embedding)
        both = infer_topic_distribution(model, text_embedding=doc.text_embedding,
                                        image_embedding=doc.image_embedding)
        np.testing.assert_array_equal(both, from_text)
        assert from_image.sum() == pytest.approx(1.0, abs=1e-12)

    def test_missing_modalities_rejected(self, models, tiny_corpus):
        doc = tiny_corpus.documents[0]
        bow = tiny_corpus.bow_matrix()[0]
        with pytest.raises(ValueError, match="zeroshot inference needs text_embedding$"):
            infer_topic_distribution(models["zeroshot"],
                                     image_embedding=doc.image_embedding)
        with pytest.raises(ValueError, match="needs text_embedding and bow$"):
            infer_topic_distribution(models["combined"],
                                     text_embedding=doc.text_embedding)
        with pytest.raises(ValueError, match="needs text_embedding and image_embedding$"):
            infer_topic_distribution(models["multimodal_zeroshot"],
                                     text_embedding=doc.text_embedding, bow=bow)
        with pytest.raises(ValueError, match="needs text_embedding or image_embedding$"):
            infer_topic_distribution(models["multimodal_contrast"], bow=bow)

    def test_wrong_width_rejected(self, models):
        with pytest.raises(ValueError, match="expected"):
            infer_topic_distribution(models["zeroshot"], text_embedding=np.ones(99))
        with pytest.raises(ValueError, match=r"text_embedding \+ image_embedding .*expected"):
            infer_topic_distribution(models["multimodal_zeroshot"],
                                     text_embedding=np.ones(4), image_embedding=np.ones(9))

    @pytest.mark.parametrize("kind, argument", [("zeroshot", "text_embedding"),
                                                ("combined", "bow")])
    def test_non_finite_input_rejected(self, models, tiny_corpus, kind, argument):
        inputs = {"text_embedding": tiny_corpus.text_embeddings[0].copy(),
                  "bow": tiny_corpus.bow_matrix()[0].copy()}
        inputs[argument][0] = np.nan
        with pytest.raises(ValueError, match=f"{argument} holds a non-finite value"):
            infer_topic_distribution(models[kind], **inputs)


class TestImageReconstruction:
    def test_one_hot_mixture_selects_gamma_row(self, tiny_corpus):
        model = train(tiny_corpus, ModelConfig(kind="multimodal_zeroshot", num_topics=3,
                                               epochs=1, hidden_dim=8))
        one_hot = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(reconstruct_image_features(model, one_hot),
                                   model.topic_image_matrix[1], atol=1e-15)

    def test_uniform_mixture_averages_rows(self, tiny_corpus):
        model = train(tiny_corpus, ModelConfig(kind="multimodal_zeroshot", num_topics=3,
                                               epochs=1, hidden_dim=8))
        out = reconstruct_image_features(model, np.full(3, 1 / 3))
        np.testing.assert_allclose(out, model.topic_image_matrix.mean(axis=0), atol=1e-12)

    def test_matches_weighted_sum_loop(self, tiny_corpus):
        model = train(tiny_corpus, ModelConfig(kind="multimodal_zeroshot", num_topics=3,
                                               epochs=1, hidden_dim=8))
        theta = np.array([0.2, 0.5, 0.3])
        expected = sum(theta[k] * model.topic_image_matrix[k] for k in range(3))
        np.testing.assert_allclose(reconstruct_image_features(model, theta), expected,
                                   atol=1e-12)

    def test_kinds_without_image_matrix_rejected(self, tiny_corpus):
        model = train(tiny_corpus, ModelConfig(kind="zeroshot", num_topics=3,
                                               epochs=1, hidden_dim=8))
        with pytest.raises(ValueError, match="no topic-image matrix"):
            reconstruct_image_features(model, np.full(3, 1 / 3))

    def test_wrong_topic_count_rejected(self, tiny_corpus):
        model = train(tiny_corpus, ModelConfig(kind="multimodal_zeroshot", num_topics=3,
                                               epochs=1, hidden_dim=8))
        with pytest.raises(ValueError, match="topic_dist"):
            reconstruct_image_features(model, np.full(4, 0.25))

    def test_non_finite_topic_dist_rejected(self, tiny_corpus):
        model = train(tiny_corpus, ModelConfig(kind="multimodal_zeroshot", num_topics=3,
                                               epochs=1, hidden_dim=8))
        with pytest.raises(ValueError, match="topic_dist holds a non-finite value"):
            reconstruct_image_features(model, np.array([0.5, np.nan, 0.5]))
