import math

import numpy as np
import pytest

from mmtopic.corpus import MultimodalDocument
from mmtopic.models import (
    ContrastLoss,
    ModelConfig,
    batch_objective,
    encoder_input_dim,
    infer_topic_distribution,
    infonce,
    init_params,
    l1_normalize_bow,
    loss_multimodal_contrast,
    loss_multimodal_zeroshot,
    loss_zeroshot,
    prepare_inputs,
    reconstruct_image_features,
    train,
)
from mmtopic.nncore import gradcheck, named_rng

from conftest import make_corpus
from oracles import contrast_loss_reference, infonce_reference, mzs_loss_reference

KINDS = ("zeroshot", "combined", "multimodal_zeroshot", "multimodal_contrast")


def make_doc(rng, vocab_size=12, text_dim=5, image_dim=4, doc_id="d0"):
    return MultimodalDocument(
        id=doc_id,
        tokens=(),
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


class TestModelConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelConfig(kind="pagerank", num_topics=5)

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
    ])
    def test_out_of_range_fields_rejected(self, field, value):
        kwargs = {"kind": "zeroshot", "num_topics": 5, field: value}
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


class TestInputs:
    def test_l1_normalize_rows_sum_to_one(self):
        bow = np.array([[2.0, 0.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, 2.0]])
        out = l1_normalize_bow(bow)
        np.testing.assert_allclose(out[0], [0.5, 0.0, 0.5])
        np.testing.assert_array_equal(out[1], 0.0)
        assert out[2].sum() == pytest.approx(1.0)

    def test_encoder_input_dim_per_kind(self):
        assert encoder_input_dim("zeroshot", 10, 7, 99) == 10
        assert encoder_input_dim("combined", 10, 7, 99) == 109
        assert encoder_input_dim("multimodal_zeroshot", 10, 7, 99) == 17
        with pytest.raises(ValueError, match="single-encoder"):
            encoder_input_dim("multimodal_contrast", 10, 7, 99)

    def test_prepare_inputs_shapes(self, tiny_corpus):
        n = tiny_corpus.num_documents
        v = len(tiny_corpus.vocabulary)
        t, m = tiny_corpus.text_dim, tiny_corpus.image_dim
        assert prepare_inputs(tiny_corpus, "zeroshot")["x"].shape == (n, t)
        combined = prepare_inputs(tiny_corpus, "combined")
        assert combined["x"].shape == (n, t + v)
        np.testing.assert_allclose(combined["x"][:, t:].sum(axis=1), 1.0)
        mzs = prepare_inputs(tiny_corpus, "multimodal_zeroshot")
        assert mzs["x"].shape == (n, t + m)
        np.testing.assert_array_equal(mzs["image_target"], tiny_corpus.image_matrix())
        contrast = prepare_inputs(tiny_corpus, "multimodal_contrast")
        assert contrast["x_text"].shape == (n, t)
        assert contrast["x_image"].shape == (n, m)

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


class TestMultimodalZeroshotLoss:
    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(21)
        config, params = make_params("multimodal_zeroshot", image_loss_weight=3.0)
        doc = make_doc(rng)
        eps = rng.normal(size=3)
        out = loss_multimodal_zeroshot(doc, params, config, eps)
        x = np.concatenate([doc.text_embedding, doc.image_embedding])
        total, recon, kl, image = mzs_loss_reference(
            x, doc.bow, doc.image_embedding, params, 3, config.prior_alpha, 3.0, eps)
        assert out.total == pytest.approx(total, rel=1e-9)
        assert out.recon == pytest.approx(recon, rel=1e-9)
        assert out.kl == pytest.approx(kl, rel=1e-9)
        assert out.image == pytest.approx(image, rel=1e-9)

    def test_zero_image_weight_reduces_to_unimodal_objective(self):
        rng = np.random.default_rng(22)
        config, params = make_params("multimodal_zeroshot", image_loss_weight=0.0)
        doc = make_doc(rng)
        eps = rng.normal(size=3)
        multi = loss_multimodal_zeroshot(doc, params, config, eps)
        x = np.concatenate([doc.text_embedding, doc.image_embedding])
        uni = loss_zeroshot(x, doc.bow, params, config, eps)
        assert multi.image == 0.0
        assert abs(multi.total - uni.total) <= 1e-12
        assert abs(multi.recon - uni.recon) <= 1e-12
        assert abs(multi.kl - uni.kl) <= 1e-12

    def test_parallel_reconstruction_zeroes_image_term(self):
        rng = np.random.default_rng(23)
        config, params = make_params("multimodal_zeroshot", image_loss_weight=5.0)
        doc = make_doc(rng)
        # every topic maps to the same image vector, so any mixture
        # reconstructs it exactly and the cosine penalty vanishes
        params["gamma"] = np.tile(doc.image_embedding, (3, 1))
        out = loss_multimodal_zeroshot(doc, params, config, rng.normal(size=3))
        assert out.image_dist == pytest.approx(0.0, abs=1e-9)
        assert out.image == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_reconstruction_pays_full_weight(self):
        rng = np.random.default_rng(24)
        config, params = make_params("multimodal_zeroshot", image_loss_weight=5.0)
        doc = MultimodalDocument(
            id="d0", tokens=(),
            bow=rng.integers(0, 4, size=12).astype(np.float64),
            text_embedding=rng.normal(size=5),
            image_embedding=np.array([2.0, 0.0, 0.0, 0.0]),
        )
        params["gamma"] = np.tile(np.array([0.0, 3.0, 0.0, 0.0]), (3, 1))
        out = loss_multimodal_zeroshot(doc, params, config, rng.normal(size=3))
        assert out.image_dist == pytest.approx(1.0, abs=1e-12)
        assert out.image == pytest.approx(5.0, abs=1e-9)

    def test_zero_reconstruction_rejected(self):
        rng = np.random.default_rng(25)
        config, params = make_params("multimodal_zeroshot")
        params["gamma"] = np.zeros_like(params["gamma"])
        with pytest.raises(ValueError, match="exactly zero"):
            loss_multimodal_zeroshot(make_doc(rng), params, config, rng.normal(size=3))

    def test_wrong_embedding_width_rejected(self):
        rng = np.random.default_rng(26)
        config, params = make_params("multimodal_zeroshot")
        doc = make_doc(rng, text_dim=9)
        with pytest.raises(ValueError, match="expected"):
            loss_multimodal_zeroshot(doc, params, config, rng.normal(size=3))


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


class TestContrastLoss:
    def make_batch(self, rng, n=4):
        return [make_doc(rng, doc_id=f"d{i}") for i in range(n)]

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(41)
        config, params = make_params("multimodal_contrast", contrastive_weight=50.0)
        docs = self.make_batch(rng)
        eps_t = rng.normal(size=(4, 3))
        eps_m = rng.normal(size=(4, 3))
        out = loss_multimodal_contrast(docs, params, config, (eps_t, eps_m))
        ref = contrast_loss_reference(
            [d.text_embedding for d in docs], [d.image_embedding for d in docs],
            [d.bow for d in docs], params, 3, config.prior_alpha,
            config.temperature, 50.0, eps_t, eps_m)
        assert out.total == pytest.approx(ref, rel=1e-9)

    def test_components_sum_to_total(self):
        rng = np.random.default_rng(42)
        config, params = make_params("multimodal_contrast")
        docs = self.make_batch(rng)
        out = loss_multimodal_contrast(docs, params, config,
                                       (rng.normal(size=(4, 3)), rng.normal(size=(4, 3))))
        assert isinstance(out, ContrastLoss)
        assert out.total == pytest.approx(
            out.recon + out.kl_text + out.kl_image + out.contrastive, rel=1e-12)
        assert out.per_document.shape == (4,)
        assert out.per_document.sum() == pytest.approx(out.total, rel=1e-12)

    def test_zero_weight_decouples_documents(self):
        rng = np.random.default_rng(43)
        config, params = make_params("multimodal_contrast", contrastive_weight=0.0)
        docs = self.make_batch(rng)
        eps = (rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        before = loss_multimodal_contrast(docs, params, config, eps).per_document
        bumped = list(docs)
        bumped[2] = MultimodalDocument(
            id="d2", tokens=(), bow=docs[2].bow,
            text_embedding=docs[2].text_embedding + 1.0,
            image_embedding=docs[2].image_embedding - 1.0)
        after = loss_multimodal_contrast(bumped, params, config, eps).per_document
        for i in (0, 1, 3):
            assert abs(after[i] - before[i]) <= 1e-12
        assert after[2] != before[2]

    def test_empty_batch_rejected(self):
        config, params = make_params("multimodal_contrast")
        with pytest.raises(ValueError, match="at least one document"):
            loss_multimodal_contrast([], params, config,
                                     (np.zeros((0, 3)), np.zeros((0, 3))))


class TestGradients:
    def run_check(self, kind, **config_overrides):
        rng = np.random.default_rng(51)
        config, params = make_params(kind, **config_overrides)
        n = 3
        if kind == "multimodal_contrast":
            inputs = {"x_text": rng.normal(size=(n, 5)),
                      "x_image": rng.normal(size=(n, 4)),
                      "bow": rng.integers(0, 4, size=(n, 12)).astype(np.float64)}
            noise = (rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
        else:
            dim = encoder_input_dim(kind, 5, 4, 12)
            inputs = {"x": rng.normal(size=(n, dim)),
                      "bow": rng.integers(0, 4, size=(n, 12)).astype(np.float64)}
            if kind == "multimodal_zeroshot":
                inputs["image_target"] = rng.normal(size=(n, 4))
            noise = rng.normal(size=(n, 3))

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

    def test_different_seed_changes_model(self, tiny_corpus):
        base = dict(kind="zeroshot", num_topics=3, epochs=2, hidden_dim=8)
        a = train(tiny_corpus, ModelConfig(seed=0, **base))
        b = train(tiny_corpus, ModelConfig(seed=1, **base))
        assert not np.array_equal(a.topic_word_matrix, b.topic_word_matrix)

    @pytest.mark.parametrize("kind,keys", [
        ("zeroshot", {"total", "recon", "kl"}),
        ("combined", {"total", "recon", "kl"}),
        ("multimodal_zeroshot", {"total", "recon", "kl", "image", "image_dist"}),
        ("multimodal_contrast",
         {"total", "recon", "kl_text", "kl_image", "contrastive", "nce"}),
    ])
    def test_trace_records_every_component(self, tiny_corpus, kind, keys):
        config = ModelConfig(kind=kind, num_topics=3, epochs=2, hidden_dim=8)
        model = train(tiny_corpus, config)
        assert len(model.loss_trace) == 2
        assert set(model.loss_trace[0]) == keys

    def test_loss_descends_on_planted_data(self, tiny_planted):
        corpus, _ = tiny_planted
        config = ModelConfig(kind="zeroshot", num_topics=3, epochs=15, hidden_dim=16)
        model = train(corpus, config)
        assert model.loss_trace[-1]["total"] < model.loss_trace[0]["total"]

    def test_doc_topics_are_posterior_mean_mixtures(self, tiny_corpus):
        config = ModelConfig(kind="zeroshot", num_topics=3, epochs=1, hidden_dim=8)
        model = train(tiny_corpus, config)
        assert model.doc_topics.shape == (tiny_corpus.num_documents, 3)
        np.testing.assert_allclose(model.doc_topics.sum(axis=1), 1.0, atol=1e-12)
        for i, doc in enumerate(tiny_corpus.documents):
            theta = infer_topic_distribution(model, text_embedding=doc.text_embedding)
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
        for kind, model in models.items():
            theta = infer_topic_distribution(
                model, text_embedding=doc.text_embedding,
                image_embedding=doc.image_embedding, bow=doc.bow)
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
        with pytest.raises(ValueError, match="text_embedding is required"):
            infer_topic_distribution(models["zeroshot"],
                                     image_embedding=doc.image_embedding)
        with pytest.raises(ValueError, match="text_embedding and bow"):
            infer_topic_distribution(models["combined"],
                                     text_embedding=doc.text_embedding)
        with pytest.raises(ValueError, match="both"):
            infer_topic_distribution(models["multimodal_zeroshot"],
                                     text_embedding=doc.text_embedding)
        with pytest.raises(ValueError, match="text or image"):
            infer_topic_distribution(models["multimodal_contrast"], bow=doc.bow)

    def test_wrong_width_rejected(self, models):
        with pytest.raises(ValueError, match="expected"):
            infer_topic_distribution(models["zeroshot"], text_embedding=np.ones(99))


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
