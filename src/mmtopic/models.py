"""VAE-style neural topic models over precomputed embeddings.

Four kinds share one substrate:

- ``zeroshot``: encodes the text embedding alone.
- ``combined``: encodes the text embedding concatenated with the
  L1-normalized bag-of-words.
- ``multimodal_zeroshot``: encodes the concatenation of text and image
  embeddings and adds a cosine loss that makes a per-topic image-feature
  matrix reconstruct the document's image embedding from its topic mixture.
- ``multimodal_contrast``: one encoder per modality, bag-of-words
  reconstruction from the text-side mixture, a KL term per modality, and a
  temperature-scaled InfoNCE term that pulls the two mixtures of the same
  document together against every mixture in the batch.

All kinds reconstruct the raw bag-of-words counts through a shared
topic-word weight matrix. Objectives are minimized; every reported
component (reconstruction, KL, image cosine, contrastive) carries its
sign so the components sum to the total. Gradients are derived manually
per layer and validated by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .corpus import Corpus, MultimodalDocument, Vocabulary
from .nncore import (
    AdamState,
    GaussianPrior,
    adam_step,
    dirichlet_laplace_prior,
    glorot_uniform,
    inference_backward,
    inference_forward,
    init_inference_network,
    kl_grads,
    kl_rows,
    log_softmax,
    named_rng,
    softmax,
    softmax_backward,
)

KINDS = ("zeroshot", "combined", "multimodal_zeroshot", "multimodal_contrast")
MULTIMODAL_KINDS = ("multimodal_zeroshot", "multimodal_contrast")

# Norm products below this are treated as degenerate in cosine terms.
_COSINE_TINY = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    """Training configuration. ``batch_size`` and ``prior_alpha`` default to
    kind-dependent values (64 documents, 32 for the contrastive kind;
    Dirichlet concentration 1/num_topics) and are resolved at construction
    so serialized configs are complete."""

    kind: str
    num_topics: int
    epochs: int = 100
    batch_size: int | None = None
    learning_rate: float = 2e-3
    dropout_rate: float = 0.2
    hidden_dim: int = 100
    image_loss_weight: float = 1.0
    contrastive_weight: float = 100.0
    temperature: float = 0.07
    prior_alpha: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if self.num_topics < 2:
            raise ValueError("num_topics must be >= 2")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size is None:
            object.__setattr__(self, "batch_size",
                               32 if self.kind == "multimodal_contrast" else 64)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.image_loss_weight < 0:
            raise ValueError("image_loss_weight must be >= 0")
        if self.contrastive_weight < 0:
            raise ValueError("contrastive_weight must be >= 0")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.prior_alpha is None:
            object.__setattr__(self, "prior_alpha", 1.0 / self.num_topics)
        if self.prior_alpha <= 0:
            raise ValueError("prior_alpha must be positive")

    def prior(self) -> GaussianPrior:
        return dirichlet_laplace_prior(self.num_topics, self.prior_alpha)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def l1_normalize_bow(bow: np.ndarray) -> np.ndarray:
    """Bag-of-words scaled to sum to one; an all-zero row stays zero."""
    bow = np.asarray(bow, dtype=np.float64)
    totals = bow.sum(axis=-1, keepdims=True)
    return np.divide(bow, totals, out=np.zeros_like(bow), where=totals > 0)


def encoder_input_dim(kind: str, text_dim: int, image_dim: int, vocab_size: int) -> int:
    if kind == "zeroshot":
        return text_dim
    if kind == "combined":
        return text_dim + vocab_size
    if kind == "multimodal_zeroshot":
        return text_dim + image_dim
    raise ValueError(f"single-encoder input undefined for kind {kind!r}")


def init_params(config: ModelConfig, text_dim: int, image_dim: int,
                vocab_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Initialize all parameter blocks for a model kind. Draw order is
    fixed (encoders, then topic-word weights, then topic-image weights) so
    a seeded generator reproduces the same initialization."""
    k = config.num_topics
    params = {}
    if config.kind == "multimodal_contrast":
        for prefix, dim in (("enc_text", text_dim), ("enc_image", image_dim)):
            block = init_inference_network(dim, k, rng, hidden_dim=config.hidden_dim)
            params.update({f"{prefix}.{name}": arr for name, arr in block.items()})
    else:
        dim = encoder_input_dim(config.kind, text_dim, image_dim, vocab_size)
        block = init_inference_network(dim, k, rng, hidden_dim=config.hidden_dim)
        params.update({f"enc.{name}": arr for name, arr in block.items()})
    params["beta"] = glorot_uniform(rng, (k, vocab_size))
    if config.kind == "multimodal_zeroshot":
        params["gamma"] = glorot_uniform(rng, (k, image_dim))
    return params


def _recon_forward(theta: np.ndarray, beta: np.ndarray, bows: np.ndarray):
    """Negative log likelihood of raw counts under softmax(theta @ beta)."""
    logits = theta @ beta
    logp = log_softmax(logits, axis=-1)
    recon = -np.sum(bows * logp, axis=-1)
    return recon, logits


def _recon_backward(theta, beta, bows, logits, grads):
    """Returns d(sum recon)/d(theta); accumulates the beta gradient."""
    probs = softmax(logits, axis=-1)
    d_logits = probs * bows.sum(axis=-1, keepdims=True) - bows
    grads["beta"] += theta.T @ d_logits
    return d_logits @ beta.T


def _cosine_rows(a: np.ndarray, b: np.ndarray):
    """Row-wise cosine with an epsilon-guarded norm product."""
    dots = np.sum(a * b, axis=-1)
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    q = na * nb + _COSINE_TINY
    return dots / q, (dots, na, nb, q)


def _vae_objective(x, bows, params, config: ModelConfig, prior: GaussianPrior,
                   eps, dropout_mask=None, image_targets=None, want_grads=True):
    """Shared single-encoder objective, summed over the batch.

    Per document: recon + KL (+ image_loss_weight * (1 - cos) against the
    image target when one is supplied). Returns (total, grads, components)
    where components holds per-document arrays.
    """
    mu, logvar, cache = inference_forward(params, "enc", x, dropout_mask)
    sigma = np.exp(0.5 * logvar)
    theta = softmax(mu + sigma * eps, axis=-1)
    recon, logits = _recon_forward(theta, params["beta"], bows)
    kl = kl_rows(mu, logvar, prior)
    components = {"recon": recon, "kl": kl}

    if image_targets is not None:
        recon_img = theta @ params["gamma"]
        cos, cos_cache = _cosine_rows(image_targets, recon_img)
        image_dist = 1.0 - cos
        components["image_dist"] = image_dist
        components["image"] = config.image_loss_weight * image_dist
    total_rows = recon + kl + components.get("image", 0.0)
    components["total"] = total_rows
    total = float(np.sum(total_rows))
    if not want_grads:
        return total, None, components

    grads = {name: np.zeros_like(p) for name, p in params.items()}
    d_theta = _recon_backward(theta, params["beta"], bows, logits, grads)
    if image_targets is not None:
        dots, _, nr, q = cos_cache
        nr_safe = np.maximum(nr, _COSINE_TINY)
        # d cos / d r for r = theta @ gamma, target u fixed:
        #   u / q - dots * |u| * (r / |r|) / q^2
        nu = np.linalg.norm(image_targets, axis=-1)
        d_cos_dr = (image_targets / q[:, None]
                    - (dots * nu / (q * q * nr_safe))[:, None] * recon_img)
        d_img_dr = -config.image_loss_weight * d_cos_dr
        grads["gamma"] += theta.T @ d_img_dr
        d_theta = d_theta + d_img_dr @ params["gamma"].T
    d_z = softmax_backward(theta, d_theta)
    d_mu_kl, d_logvar_kl = kl_grads(mu, logvar, prior)
    d_mu = d_z + d_mu_kl
    d_logvar = d_z * eps * 0.5 * sigma + d_logvar_kl
    inference_backward(params, "enc", cache, d_mu, d_logvar, grads)
    return total, grads, components


def _nce_terms(theta_text: np.ndarray, theta_image: np.ndarray, temperature: float):
    """Per-document InfoNCE terms and the normalized pair weights.

    For each anchor document the two ordered cross-modality pairings are the
    positives; the denominator runs over every modality pairing against
    every document in the batch, the anchor's own pairings included:

        nce_i = -2 * (t_i . m_i) / tau + 2 * logsumexp_{j, c, d} (x_i^c . x_j^d) / tau

    Computed with a per-anchor max shift for stability. The weight matrices
    P[cd][i, j] = exp(s) / denominator_i feed the backward pass.
    """
    mats = (theta_text, theta_image)
    sims = {}
    for a in range(2):
        for b in range(2):
            sims[(a, b)] = (mats[a] @ mats[b].T) / temperature
    stacked = np.concatenate([sims[(a, b)] for a in range(2) for b in range(2)], axis=1)
    shift = stacked.max(axis=1, keepdims=True)
    denom = np.sum(np.exp(stacked - shift), axis=1)
    log_denom = shift[:, 0] + np.log(denom)
    weights = {key: np.exp(s - log_denom[:, None]) for key, s in sims.items()}
    positives = np.sum(theta_text * theta_image, axis=-1) / temperature
    nce = -2.0 * positives + 2.0 * log_denom
    return nce, weights


def _nce_theta_grads(theta_text, theta_image, temperature, weights):
    """Gradients of sum_i nce_i with respect to both mixture matrices."""
    t, m = theta_text, theta_image
    p = weights
    scale = 2.0 / temperature
    d_t = scale * (-m
                   + p[(0, 0)] @ t + p[(0, 1)] @ m
                   + p[(0, 0)].T @ t + p[(1, 0)].T @ m)
    d_m = scale * (-t
                   + p[(1, 0)] @ t + p[(1, 1)] @ m
                   + p[(0, 1)].T @ t + p[(1, 1)].T @ m)
    return d_t, d_m


def infonce(theta_text: np.ndarray, theta_image: np.ndarray,
            temperature: float, weight: float) -> float:
    """Weighted InfoNCE over a batch of paired topic mixtures: ``weight``
    times the per-document negative log ratios averaged over the batch."""
    theta_text = np.asarray(theta_text, dtype=np.float64)
    theta_image = np.asarray(theta_image, dtype=np.float64)
    if theta_text.ndim != 2 or theta_text.shape != theta_image.shape:
        raise ValueError("expected two matrices of identical (batch, topics) shape")
    if theta_text.shape[0] < 1:
        raise ValueError("batch must contain at least one document")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    nce, _ = _nce_terms(theta_text, theta_image, temperature)
    return float(weight * np.mean(nce))


def _contrast_objective(x_text, x_image, bows, params, config: ModelConfig,
                        prior: GaussianPrior, eps_text, eps_image,
                        dropout_masks=(None, None), want_grads=True):
    """Two-encoder contrastive objective, summed over the batch.

    Per document: recon (from the text-side mixture) + KL per modality +
    contrastive_weight * nce. The contrastive term couples documents, so
    gradients are computed for the batch as a whole.
    """
    mask_t, mask_m = dropout_masks
    mu_t, logvar_t, cache_t = inference_forward(params, "enc_text", x_text, mask_t)
    mu_m, logvar_m, cache_m = inference_forward(params, "enc_image", x_image, mask_m)
    sigma_t = np.exp(0.5 * logvar_t)
    sigma_m = np.exp(0.5 * logvar_m)
    theta_t = softmax(mu_t + sigma_t * eps_text, axis=-1)
    theta_m = softmax(mu_m + sigma_m * eps_image, axis=-1)

    recon, logits = _recon_forward(theta_t, params["beta"], bows)
    kl_t = kl_rows(mu_t, logvar_t, prior)
    kl_m = kl_rows(mu_m, logvar_m, prior)
    nce, weights = _nce_terms(theta_t, theta_m, config.temperature)
    contrastive = config.contrastive_weight * nce
    total_rows = recon + kl_t + kl_m + contrastive
    components = {"recon": recon, "kl_text": kl_t, "kl_image": kl_m,
                  "contrastive": contrastive, "nce": nce, "total": total_rows}
    total = float(np.sum(total_rows))
    if not want_grads:
        return total, None, components

    grads = {name: np.zeros_like(p) for name, p in params.items()}
    d_theta_t = _recon_backward(theta_t, params["beta"], bows, logits, grads)
    d_nce_t, d_nce_m = _nce_theta_grads(theta_t, theta_m, config.temperature, weights)
    d_theta_t = d_theta_t + config.contrastive_weight * d_nce_t
    d_theta_m = config.contrastive_weight * d_nce_m

    d_z_t = softmax_backward(theta_t, d_theta_t)
    d_z_m = softmax_backward(theta_m, d_theta_m)
    d_mu_kl_t, d_logvar_kl_t = kl_grads(mu_t, logvar_t, prior)
    d_mu_kl_m, d_logvar_kl_m = kl_grads(mu_m, logvar_m, prior)
    inference_backward(params, "enc_text", cache_t,
                       d_z_t + d_mu_kl_t,
                       d_z_t * eps_text * 0.5 * sigma_t + d_logvar_kl_t, grads)
    inference_backward(params, "enc_image", cache_m,
                       d_z_m + d_mu_kl_m,
                       d_z_m * eps_image * 0.5 * sigma_m + d_logvar_kl_m, grads)
    return total, grads, components


def batch_objective(kind: str, inputs: dict, params: dict, config: ModelConfig,
                    noise, dropout_masks=None, want_grads=True):
    """Evaluate one kind's training objective on a prepared batch.

    ``inputs`` uses the keys ``x``/``bow`` (plus ``image_target`` for
    ``multimodal_zeroshot``) for single-encoder kinds, or
    ``x_text``/``x_image``/``bow`` for ``multimodal_contrast``. ``noise`` is
    the standard-normal draw matching the mixture shape, a (text, image)
    pair for the contrastive kind. Returns (total, grads, components).
    """
    prior = config.prior()
    if kind == "multimodal_contrast":
        eps_t, eps_m = noise
        masks = dropout_masks if dropout_masks is not None else (None, None)
        return _contrast_objective(inputs["x_text"], inputs["x_image"], inputs["bow"],
                                   params, config, prior, eps_t, eps_m,
                                   dropout_masks=masks, want_grads=want_grads)
    image_targets = inputs.get("image_target") if kind == "multimodal_zeroshot" else None
    return _vae_objective(inputs["x"], inputs["bow"], params, config, prior, noise,
                          dropout_mask=dropout_masks, image_targets=image_targets,
                          want_grads=want_grads)


@dataclass(frozen=True)
class ZeroshotLoss:
    total: float
    recon: float
    kl: float


@dataclass(frozen=True)
class MultimodalZeroshotLoss:
    total: float
    recon: float
    kl: float
    image: float
    image_dist: float


@dataclass(frozen=True)
class ContrastLoss:
    total: float
    recon: float
    kl_text: float
    kl_image: float
    contrastive: float
    per_document: np.ndarray


def _check_dim(name: str, vec: np.ndarray, expected: int):
    if vec.shape != (expected,):
        raise ValueError(f"{name} has shape {vec.shape}, expected ({expected},)")


def loss_zeroshot(embedding, bow, params, config: ModelConfig, noise_draw) -> ZeroshotLoss:
    """Unimodal objective for one document: reconstruction of the raw counts
    plus KL against the logistic-normal Dirichlet prior."""
    x = np.atleast_2d(np.asarray(embedding, dtype=np.float64))
    _check_dim("embedding", x[0], params["enc.W_hidden"].shape[1])
    bows = np.atleast_2d(np.asarray(bow, dtype=np.float64))
    eps = np.atleast_2d(np.asarray(noise_draw, dtype=np.float64))
    _, _, comps = _vae_objective(x, bows, params, config, config.prior(), eps,
                                 want_grads=False)
    return ZeroshotLoss(total=float(comps["total"][0]),
                        recon=float(comps["recon"][0]),
                        kl=float(comps["kl"][0]))


def loss_multimodal_zeroshot(doc: MultimodalDocument, params, config: ModelConfig,
                             noise_draw) -> MultimodalZeroshotLoss:
    """Objective for one document of the concatenated-embedding multimodal
    kind: recon + KL + image_loss_weight * (1 - cosine(image embedding,
    reconstructed image features)).

    Raises if the reconstructed image feature vector is exactly zero, where
    the cosine is undefined.
    """
    x = np.concatenate([doc.text_embedding, doc.image_embedding])
    _check_dim("concatenated embeddings", x, params["enc.W_hidden"].shape[1])
    bows = np.atleast_2d(np.asarray(doc.bow, dtype=np.float64))
    eps = np.atleast_2d(np.asarray(noise_draw, dtype=np.float64))
    _, _, comps = _vae_objective(np.atleast_2d(x), bows, params, config, config.prior(),
                                 eps, image_targets=np.atleast_2d(doc.image_embedding),
                                 want_grads=False)
    # Recompute the reconstruction norm to reject the degenerate direction.
    mu, logvar, _ = inference_forward(params, "enc", np.atleast_2d(x))
    theta = softmax(mu + np.exp(0.5 * logvar) * eps, axis=-1)
    if np.linalg.norm(theta @ params["gamma"]) == 0.0:
        raise ValueError("reconstructed image features are exactly zero; "
                         "cosine loss is undefined")
    return MultimodalZeroshotLoss(total=float(comps["total"][0]),
                                  recon=float(comps["recon"][0]),
                                  kl=float(comps["kl"][0]),
                                  image=float(comps["image"][0]),
                                  image_dist=float(comps["image_dist"][0]))


def loss_multimodal_contrast(docs, params, config: ModelConfig,
                             noise_draws) -> ContrastLoss:
    """Batch objective for the two-encoder contrastive kind. ``noise_draws``
    is a (text, image) pair of standard-normal matrices. Components are
    batch sums; ``per_document`` carries each document's own contribution
    (its reconstruction, KL terms, and weighted InfoNCE term)."""
    if len(docs) < 1:
        raise ValueError("batch must contain at least one document")
    x_text = np.stack([d.text_embedding for d in docs])
    x_image = np.stack([d.image_embedding for d in docs])
    bows = np.stack([d.bow for d in docs]).astype(np.float64)
    eps_t, eps_m = (np.asarray(e, dtype=np.float64) for e in noise_draws)
    inputs = {"x_text": x_text, "x_image": x_image, "bow": bows}
    _, _, comps = batch_objective("multimodal_contrast", inputs, params, config,
                                  (eps_t, eps_m), want_grads=False)
    return ContrastLoss(total=float(np.sum(comps["total"])),
                        recon=float(np.sum(comps["recon"])),
                        kl_text=float(np.sum(comps["kl_text"])),
                        kl_image=float(np.sum(comps["kl_image"])),
                        contrastive=float(np.sum(comps["contrastive"])),
                        per_document=comps["total"].copy())


@dataclass
class TrainedTopicModel:
    """A trained model: configuration, vocabulary, all parameter blocks,
    the per-epoch loss trace, and the posterior-mean document-topic matrix
    computed without sampling noise or dropout."""

    config: ModelConfig
    vocabulary: Vocabulary
    params: dict[str, np.ndarray]
    loss_trace: list[dict[str, float]]
    doc_topics: np.ndarray

    @property
    def kind(self) -> str:
        return self.config.kind

    @property
    def num_topics(self) -> int:
        return self.config.num_topics

    @property
    def topic_word_matrix(self) -> np.ndarray:
        return self.params["beta"]

    @property
    def topic_image_matrix(self) -> np.ndarray | None:
        return self.params.get("gamma")

    @property
    def label(self) -> str:
        return f"{self.config.kind}-k{self.config.num_topics}-seed{self.config.seed}"


def prepare_inputs(corpus: Corpus, kind: str) -> dict[str, np.ndarray]:
    """Stack the corpus into the input matrices a kind trains on."""
    bows = corpus.bow_matrix()
    text = corpus.text_matrix()
    image = corpus.image_matrix()
    if kind == "zeroshot":
        return {"x": text, "bow": bows}
    if kind == "combined":
        return {"x": np.concatenate([text, l1_normalize_bow(bows)], axis=1), "bow": bows}
    if kind == "multimodal_zeroshot":
        return {"x": np.concatenate([text, image], axis=1), "bow": bows,
                "image_target": image}
    if kind == "multimodal_contrast":
        return {"x_text": text, "x_image": image, "bow": bows}
    raise ValueError(f"unknown model kind {kind!r}")


def _slice_inputs(inputs: dict, idx: np.ndarray) -> dict:
    return {key: arr[idx] for key, arr in inputs.items()}


def _draw_noise(kind: str, rng: np.random.Generator, n: int, k: int):
    if kind == "multimodal_contrast":
        return rng.standard_normal((n, k)), rng.standard_normal((n, k))
    return rng.standard_normal((n, k))


def _draw_masks(kind: str, rng: np.random.Generator, n: int, hidden: int, rate: float):
    if rate == 0.0:
        return (None, None) if kind == "multimodal_contrast" else None
    scale = 1.0 / (1.0 - rate)

    def one():
        return (rng.random((n, hidden)) >= rate) * scale

    if kind == "multimodal_contrast":
        return one(), one()
    return one()


def train(corpus: Corpus, config: ModelConfig) -> TrainedTopicModel:
    """Train a topic model with minibatch Adam.

    All randomness (initialization, shuffling, dropout, sampling noise)
    flows from ``config.seed`` through separate named streams, so identical
    (corpus, config) pairs produce bit-identical parameters. The loss trace
    records, per epoch, the batch-size-weighted mean of every objective
    component per document. Raises ``ValueError`` naming the epoch and
    batch (counted from 1) whose loss is not finite.
    """
    kind = config.kind
    inputs = prepare_inputs(corpus, kind)
    n = corpus.num_documents
    k = config.num_topics

    init_rng = named_rng(config.seed, "init")
    shuffle_rng = named_rng(config.seed, "shuffle")
    dropout_rng = named_rng(config.seed, "dropout")
    noise_rng = named_rng(config.seed, "noise")

    params = init_params(config, corpus.text_dim, corpus.image_dim,
                         len(corpus.vocabulary), init_rng)
    adam = AdamState(learning_rate=config.learning_rate)
    trace: list[dict[str, float]] = []

    batches = math.ceil(n / config.batch_size)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        sums: dict[str, float] = {}
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            batch = _slice_inputs(inputs, idx)
            noise = _draw_noise(kind, noise_rng, idx.size, k)
            masks = _draw_masks(kind, dropout_rng, idx.size, config.hidden_dim,
                                config.dropout_rate)
            total, grads, comps = batch_objective(kind, batch, params, config, noise,
                                                  dropout_masks=masks)
            if not math.isfinite(total):
                raise ValueError(
                    f"training diverged: loss {total} at epoch {epoch + 1}/{config.epochs}, "
                    f"batch {batch_no + 1}/{batches}")
            adam_step(params, grads, adam)
            for name, rows in comps.items():
                sums[name] = sums.get(name, 0.0) + float(np.sum(rows))
        trace.append({name: value / n for name, value in sums.items()})

    doc_topics = _mean_doc_topics(kind, inputs, params)
    return TrainedTopicModel(config=config, vocabulary=corpus.vocabulary,
                             params=params, loss_trace=trace, doc_topics=doc_topics)


def _mean_theta(params: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    mu, _, _ = inference_forward(params, prefix, x)
    return softmax(mu, axis=-1)


def _mean_doc_topics(kind: str, inputs: dict, params: dict) -> np.ndarray:
    if kind == "multimodal_contrast":
        return _mean_theta(params, "enc_text", inputs["x_text"])
    return _mean_theta(params, "enc", inputs["x"])


def infer_topic_distribution(model: TrainedTopicModel, *,
                             text_embedding=None, image_embedding=None,
                             bow=None) -> np.ndarray:
    """Posterior-mean topic distribution for one document.

    The contrastive kind accepts either modality and prefers the text
    encoder when both are given; the other kinds require their full input
    and raise on anything less.
    """
    kind = model.kind
    text = None if text_embedding is None else np.asarray(text_embedding, dtype=np.float64)
    image = None if image_embedding is None else np.asarray(image_embedding, dtype=np.float64)

    if kind == "multimodal_contrast":
        if text is not None:
            _check_dim("text_embedding", text, model.params["enc_text.W_hidden"].shape[1])
            return _mean_theta(model.params, "enc_text", np.atleast_2d(text))[0]
        if image is not None:
            _check_dim("image_embedding", image, model.params["enc_image.W_hidden"].shape[1])
            return _mean_theta(model.params, "enc_image", np.atleast_2d(image))[0]
        raise ValueError("multimodal_contrast inference needs a text or image embedding")

    if kind == "zeroshot":
        if text is None:
            raise ValueError("zeroshot models support text input only; "
                             "a text_embedding is required")
        x = text
    elif kind == "combined":
        if text is None or bow is None:
            raise ValueError("combined models require text_embedding and bow")
        x = np.concatenate([text, l1_normalize_bow(np.asarray(bow, dtype=np.float64))])
    else:  # multimodal_zeroshot
        if text is None or image is None:
            raise ValueError("multimodal_zeroshot models require both "
                             "text_embedding and image_embedding")
        x = np.concatenate([text, image])
    _check_dim("encoder input", x, model.params["enc.W_hidden"].shape[1])
    return _mean_theta(model.params, "enc", np.atleast_2d(x))[0]


def reconstruct_image_features(model: TrainedTopicModel, topic_dist) -> np.ndarray:
    """Mixture of the model's per-topic image feature rows weighted by a
    topic distribution. Only defined for kinds that learn one."""
    gamma = model.topic_image_matrix
    if gamma is None:
        raise ValueError(f"model kind {model.kind!r} has no topic-image matrix")
    theta = np.asarray(topic_dist, dtype=np.float64)
    _check_dim("topic_dist", theta, model.num_topics)
    return theta @ gamma
