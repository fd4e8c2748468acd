"""Acceptance gate for the toolkit.

Ten end-to-end checks over a planted synthetic corpus: gradient
correctness, optimization behavior, topic recovery, oracle equivalence of
every metric, assignment optimality, objective reductions, the contrastive
alignment property, the image-loss weight tradeoff, determinism and
persistence, and single-modality inference. Each test prints one
``[C#] ... PASS/FAIL`` line (visible with ``pytest -s``) before asserting.
"""

import time

import numpy as np
import pytest

from mmtopic.corpus import SyntheticSpec, generate_synthetic, save_corpus
from mmtopic.descriptors import top_keywords
from mmtopic.harness import ExperimentPlan, load_model, run_plan, save_model
from mmtopic.metrics import iec, ieps, irbo, npmi, rbo, topic_diversity
from mmtopic.models import (
    ModelConfig,
    batch_objective,
    infer_topic_distribution,
    infonce,
    init_params,
    train,
)
from mmtopic.nncore import gradcheck
from mmtopic.overlap import hungarian, topic_similarity_matrix

from oracles import (
    hungarian_brute_force,
    iec_reference,
    ieps_reference,
    npmi_reference,
    rbo_reference,
    topic_diversity_reference,
)

PLANTED_SPEC = SyntheticSpec(
    num_topics_true=5, vocab_size=200, docs=1000, doc_length=40,
    embed_dim_text=16, embed_dim_image=16,
    topic_word_concentration=0.5, embedding_noise=0.02, seed=42)

TRAIN_EPOCHS = {"zeroshot": 100, "combined": 100,
                "multimodal_zeroshot": 200, "multimodal_contrast": 100}
SEEDS = range(5)


def announce(tag: str, description: str, ok: bool, detail: str):
    print(f"\n[{tag}] {description}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def planted():
    return generate_synthetic(PLANTED_SPEC)


@pytest.fixture(scope="module")
def models(planted):
    """Five seeds per kind on the planted corpus, with training wall time."""
    corpus, _ = planted
    by_kind = {}
    timings = {}
    for kind, epochs in TRAIN_EPOCHS.items():
        t0 = time.perf_counter()
        by_kind[kind] = [
            train(corpus, ModelConfig(kind=kind, num_topics=5, epochs=epochs, seed=s))
            for s in SEEDS
        ]
        timings[kind] = time.perf_counter() - t0
    return by_kind, timings


@pytest.fixture(scope="module")
def weight_sweep_models(planted, models):
    """Concatenated-embedding models across image loss weights 1, 60, 240."""
    corpus, _ = planted
    by_kind, _ = models
    sweep = {1.0: by_kind["multimodal_zeroshot"]}
    for weight in (60.0, 240.0):
        sweep[weight] = [
            train(corpus, ModelConfig(kind="multimodal_zeroshot", num_topics=5,
                                      epochs=200, image_loss_weight=weight, seed=s))
            for s in SEEDS
        ]
    return sweep


def random_objective_instance(kind, point_seed, *, vocab_size=50, num_topics=5,
                              text_dim=16, image_dim=16, batch=8):
    """One random parameter point plus a frozen batch for a model kind."""
    rng = np.random.default_rng(point_seed)
    config = ModelConfig(kind=kind, num_topics=num_topics, dropout_rate=0.0)
    params = init_params(config, text_dim, image_dim, vocab_size, rng)
    for arr in params.values():
        arr += 0.05 * rng.normal(size=arr.shape)
    bows = rng.integers(0, 5, size=(batch, vocab_size)).astype(np.float64)
    if kind == "multimodal_contrast":
        inputs = {"x_text": rng.normal(size=(batch, text_dim)),
                  "x_image": rng.normal(size=(batch, image_dim)),
                  "bow": bows}
        noise = (rng.normal(size=(batch, num_topics)),
                 rng.normal(size=(batch, num_topics)))
    else:
        text = rng.normal(size=(batch, text_dim))
        image = rng.normal(size=(batch, image_dim))
        inputs = {"x": np.concatenate([text, image], axis=1), "bow": bows,
                  "image_target": image}
        noise = rng.normal(size=(batch, num_topics))
    return config, params, inputs, noise


def test_c01_gradient_correctness():
    t0 = time.perf_counter()
    errors = []
    for point in range(10):
        for kind in ("multimodal_zeroshot", "multimodal_contrast"):
            config, params, inputs, noise = random_objective_instance(kind, 1000 + point)

            def loss(p):
                total, grads, _ = batch_objective(kind, inputs, p, config, noise)
                return total, grads

            report = gradcheck(loss, params, rng=np.random.default_rng(point))
            errors.append(report.max_relative_error)
    worst = np.max(errors)  # propagates a NaN, which Python's max can drop
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60
    announce("C1", "analytic gradients match finite differences on both "
             "multimodal objectives", ok,
             f"max rel err {worst:.2e} < 1e-4 over 20 points; {elapsed:.1f}s < 60s")
    assert worst < 1e-4
    assert elapsed < 60


def test_c02_loss_descent_and_nonnegative_kl(models):
    by_kind, _ = models
    kl_keys = {"zeroshot": ("kl",), "combined": ("kl",),
               "multimodal_zeroshot": ("kl",),
               "multimodal_contrast": ("kl_text", "kl_image")}
    descends = True
    min_kl = np.inf
    for kind, kind_models in by_kind.items():
        for model in kind_models:
            trace = model.loss_trace
            if not trace[99]["total"] < trace[0]["total"]:
                descends = False
            for epoch in trace:
                for key in kl_keys[kind]:
                    min_kl = min(min_kl, epoch[key])
    ok = descends and min_kl >= -1e-12
    announce("C2", "epoch-100 loss beats epoch-1 and KL stays nonnegative "
             "for all kinds and seeds", ok,
             f"descent={descends}, min KL component {min_kl:.2e} >= -1e-12")
    assert descends
    assert min_kl >= -1e-12


def test_c03_topic_recovery(planted, models):
    _, planted_topics = planted
    by_kind, timings = models
    truth = [list(t.terms[:10]) for t in planted_topics]
    per_seed = []
    for model in by_kind["multimodal_zeroshot"]:
        learned = [top_keywords(model.topic_word_matrix, model.vocabulary, t, 10)
                   for t in range(5)]
        _, total = hungarian(topic_similarity_matrix(learned, truth), maximize=True)
        per_seed.append(total / 5)
    mean_rbo = float(np.mean(per_seed))
    train_seconds = timings["multimodal_zeroshot"]
    ok = mean_rbo >= 0.6 and train_seconds < 600
    announce("C3", "planted topics recovered by keyword overlap", ok,
             f"5-seed mean aligned RBO {mean_rbo:.3f} >= 0.6 "
             f"(per seed {[round(v, 3) for v in per_seed]}); "
             f"training {train_seconds:.0f}s < 600s")
    assert mean_rbo >= 0.6
    assert train_seconds < 600


def test_c04_metric_oracle_equivalence():
    rng = np.random.default_rng(4000)
    items = [f"w{i}" for i in range(14)]
    worst = {"rbo": 0.0, "irbo": 0.0, "td": 0.0, "npmi": 0.0, "iec": 0.0, "ieps": 0.0}

    for _ in range(100):
        # ranked-list metrics
        length = int(rng.integers(3, 9))
        a = list(rng.permutation(items))[:length]
        b = list(rng.permutation(items))[:length]
        p = float(rng.uniform(0.5, 0.95))
        worst["rbo"] = max(worst["rbo"], abs(rbo(a, b, p=p) - rbo_reference(a, b, p)))

        topics = [list(rng.permutation(items))[:length] for _ in range(3)]
        ref_irbo = 1.0 - np.mean([rbo_reference(topics[i], topics[j], 0.9)
                                  for i in range(3) for j in range(i + 1, 3)])
        worst["irbo"] = max(worst["irbo"], abs(irbo(topics) - ref_irbo))
        worst["td"] = max(worst["td"], abs(topic_diversity(topics, n=length)
                                           - topic_diversity_reference(topics, length)))

        # window-counted coherence on a toy reference corpus
        docs = [[items[i] for i in rng.integers(0, 10,
                                                size=rng.integers(3, 9))]
                for _ in range(8)]
        npmi_topics = [list(rng.choice(items[:12], size=3, replace=False))
                       for _ in range(2)]
        worst["npmi"] = max(worst["npmi"], abs(npmi(npmi_topics, docs, window=3)
                                               - npmi_reference(npmi_topics, docs, 3)))

        # image-set metrics
        sets = [rng.normal(size=(4, 6)) for _ in range(3)]
        worst["iec"] = max(worst["iec"], abs(iec(sets) - iec_reference(sets)))
        worst["ieps"] = max(worst["ieps"], abs(ieps(sets) - ieps_reference(sets)))

    overall = max(worst.values())
    ok = overall < 1e-9
    announce("C4", "all six metrics match brute-force oracles on 100 random "
             "instances each", ok,
             "worst abs diff " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))
    assert overall < 1e-9


def test_c05_hungarian_optimality():
    rng = np.random.default_rng(5000)
    worst = 0.0
    for n in range(1, 8):
        for _ in range(100):
            matrix = rng.uniform(-10, 10, size=(n, n))
            for maximize in (False, True):
                _, total = hungarian(matrix, maximize=maximize)
                _, expected = hungarian_brute_force(matrix, maximize=maximize)
                worst = max(worst, abs(total - expected))
    ok = worst < 1e-9
    announce("C5", "assignment totals equal factorial brute force for n <= 7",
             ok, f"worst abs diff {worst:.1e} over 700 matrices, both directions")
    assert worst < 1e-9


def test_c06_objective_reductions():
    rng = np.random.default_rng(6000)

    # image weight 0: the concatenated-embedding loss collapses to the
    # unimodal loss term for term
    config, params, _, _ = random_objective_instance("multimodal_zeroshot", 6001)
    zero_cfg = ModelConfig(kind="multimodal_zeroshot", num_topics=5,
                           image_loss_weight=0.0, dropout_rate=0.0)
    worst_reduction = 0.0
    for _ in range(20):
        bow = rng.integers(0, 5, size=(1, 50)).astype(np.float64)
        text, image = rng.normal(size=(1, 16)), rng.normal(size=(1, 16))
        eps = rng.normal(size=(1, 5))
        x = np.concatenate([text, image], axis=1)
        _, _, multi = batch_objective("multimodal_zeroshot",
                                      {"x": x, "bow": bow, "image_target": image},
                                      params, zero_cfg, eps, want_grads=False)
        _, _, uni = batch_objective("zeroshot", {"x": x, "bow": bow}, params, zero_cfg,
                                    eps, want_grads=False)
        worst_reduction = max(worst_reduction,
                              abs(multi["total"][0] - uni["total"][0]),
                              abs(multi["recon"][0] - uni["recon"][0]),
                              abs(multi["kl"][0] - uni["kl"][0]),
                              abs(multi["image"][0]))

    # contrastive weight 0: no document's loss depends on any other document
    c_config, c_params, _, _ = random_objective_instance("multimodal_contrast", 6002)
    free_cfg = ModelConfig(kind="multimodal_contrast", num_topics=5,
                           contrastive_weight=0.0, dropout_rate=0.0)
    docs = [(rng.integers(0, 5, size=50).astype(np.float64),
             rng.normal(size=16), rng.normal(size=16)) for _ in range(8)]
    bows, texts, images = (np.stack(column) for column in zip(*docs))
    eps = (rng.normal(size=(8, 5)), rng.normal(size=(8, 5)))

    def per_document(x_text, x_image):
        _, _, comps = batch_objective(
            "multimodal_contrast", {"x_text": x_text, "x_image": x_image, "bow": bows},
            c_params, free_cfg, eps, want_grads=False)
        return comps["total"]

    base = per_document(texts, images)
    worst_coupling = 0.0
    for j in (0, 3, 7):
        bumped_texts, bumped_images = texts.copy(), images.copy()
        bumped_texts[j] += 2.0
        bumped_images[j] -= 2.0
        after = per_document(bumped_texts, bumped_images)
        others = [i for i in range(8) if i != j]
        worst_coupling = max(worst_coupling,
                             float(np.max(np.abs(after[others] - base[others]))))

    ok = worst_reduction <= 1e-12 and worst_coupling <= 1e-12
    announce("C6", "zero image weight reduces to the unimodal loss; zero "
             "contrastive weight decouples documents", ok,
             f"reduction diff {worst_reduction:.1e}, coupling {worst_coupling:.1e}, "
             "both <= 1e-12")
    assert worst_reduction <= 1e-12
    assert worst_coupling <= 1e-12


def test_c07_infonce_prefers_aligned_batches():
    rng = np.random.default_rng(7000)
    n, k = 16, 10
    wins = 0
    for _ in range(50):
        theta_text = rng.dirichlet(np.ones(k), size=n)
        noise = rng.dirichlet(np.ones(k), size=n)
        theta_image = theta_text + 0.3 * noise
        theta_image /= theta_image.sum(axis=1, keepdims=True)
        aligned = infonce(theta_text, theta_image, 0.07, 1.0)
        shuffled = infonce(theta_text, np.roll(theta_image, 1, axis=0), 0.07, 1.0)
        if aligned < shuffled:
            wins += 1
    ok = wins >= 48
    announce("C7", "aligned cross-modality batches score lower InfoNCE than "
             "cyclically shuffled ones", ok, f"{wins}/50 trials >= 48/50")
    assert wins >= 48


def test_c08_image_weight_tradeoff(weight_sweep_models):
    means = {}
    for weight, sweep_models in weight_sweep_models.items():
        means[weight] = float(np.mean([m.loss_trace[-1]["image_dist"]
                                       for m in sweep_models]))
    w1, w60, w240 = means[1.0], means[60.0], means[240.0]
    steps_ok = (w60 < w1 + 0.01) and (w240 < w60 + 0.01)
    announce("C8", "final image cosine distance is non-increasing as the "
             "image loss weight grows", steps_ok,
             f"5-seed means {w1:.4f} -> {w60:.4f} -> {w240:.4f}; "
             "each step decreases or moves < 0.01")
    assert steps_ok


def test_c09_determinism_and_persistence(planted, models, tmp_path):
    corpus, _ = planted
    by_kind, _ = models

    # retraining with one (corpus, config, seed) triple is bit-identical
    config = ModelConfig(kind="multimodal_contrast", num_topics=5, epochs=3, seed=9)
    retrain_identical = np.array_equal(train(corpus, config).topic_word_matrix,
                                       train(corpus, config).topic_word_matrix)

    # checkpoint round trip preserves every array bit
    model = by_kind["multimodal_zeroshot"][0]
    loaded = load_model(save_model(model, tmp_path / "model.mmtm"))
    round_trip_exact = (
        loaded.config == model.config
        and all(np.array_equal(loaded.params[n], model.params[n])
                for n in model.params)
        and np.array_equal(loaded.doc_topics, model.doc_topics))

    # a completed plan re-run rewrites nothing
    small_spec = SyntheticSpec(num_topics_true=2, vocab_size=30, docs=12,
                               doc_length=15, embed_dim_text=5, embed_dim_image=4,
                               topic_word_concentration=0.5, embedding_noise=0.05,
                               seed=3)
    small_corpus, _ = generate_synthetic(small_spec)
    dataset = save_corpus(small_corpus, tmp_path / "toy.jsonl")
    plan = ExperimentPlan.from_dict({
        "datasets": [str(dataset)], "models": [{"kind": "zeroshot"}],
        "topic_counts": [2], "seeds": 2, "epochs": 2, "descriptor_size": 3,
        "output_dir": str(tmp_path / "runs")})
    run_plan(plan)
    tree = {p: (p.stat().st_mtime_ns, p.read_bytes())
            for p in sorted((tmp_path / "runs").rglob("*")) if p.is_file()}
    run_plan(plan)
    rerun_untouched = tree == {
        p: (p.stat().st_mtime_ns, p.read_bytes())
        for p in sorted((tmp_path / "runs").rglob("*")) if p.is_file()}

    ok = retrain_identical and round_trip_exact and rerun_untouched
    announce("C9", "bit-identical retraining, exact checkpoint round trip, "
             "no-op plan re-run", ok,
             f"retrain={retrain_identical}, round_trip={round_trip_exact}, "
             f"rerun_untouched={rerun_untouched}")
    assert retrain_identical
    assert round_trip_exact
    assert rerun_untouched


def test_c10_single_modality_inference(planted, models):
    corpus, _ = planted
    by_kind, _ = models
    agreements = []
    simplex_ok = True
    for model in by_kind["multimodal_contrast"]:
        for doc in corpus.documents[:5]:
            for theta in (
                infer_topic_distribution(model, text_embedding=doc.text_embedding),
                infer_topic_distribution(model, image_embedding=doc.image_embedding),
            ):
                if not (abs(theta.sum() - 1.0) < 1e-9 and (theta >= 0).all()):
                    simplex_ok = False
        image_theta = np.stack([
            infer_topic_distribution(model, image_embedding=d.image_embedding)
            for d in corpus.documents])
        agreements.append(float(np.mean(
            image_theta.argmax(axis=1) == model.doc_topics.argmax(axis=1))))
    min_agreement = min(agreements)
    ok = simplex_ok and min_agreement >= 0.70
    announce("C10", "contrastive models infer from either modality alone and "
             "image-only topics agree with full-document topics", ok,
             f"simplex={simplex_ok}; argmax agreement per seed "
             f"{[round(a, 3) for a in agreements]}, min {min_agreement:.3f} >= 0.70")
    assert simplex_ok
    assert min_agreement >= 0.70
