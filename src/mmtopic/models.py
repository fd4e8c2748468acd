"""VAE-style neural topic models over precomputed embeddings.

The four kinds share one objective and differ in what :data:`ENCODERS`
lists for them and in the terms that follow from it. Each table entry is
one inference network: its parameter prefix, the batch input it reads,
the document features stacked into that input, and the name of its KL
component. The features alone set the encoder's input width, what each
training batch gathers from the corpus and the inputs inference needs.

- ``zeroshot``: one encoder over the text embedding.
- ``combined``: one encoder over the text embedding concatenated with the
  L1-normalized bag-of-words.
- ``multimodal_zeroshot``: one encoder over the concatenated text and image
  embeddings, plus a cosine loss that makes a per-topic image-feature matrix
  reconstruct the document's image embedding from its topic mixture.
- ``multimodal_contrast``: a text encoder and an image encoder, plus a
  temperature-scaled InfoNCE term that pulls the two mixtures of the same
  document together against every mixture in the batch.

:func:`batch_objective` runs every listed encoder, reconstructs the raw
bag-of-words counts from the first encoder's mixture through a shared
topic-word weight matrix, adds one KL term per encoder, then the image
term or the InfoNCE term, and back-propagates the same way. The first
encoder's posterior mean is a document's topic mixture. Objectives are
minimized; every reported component carries its sign so the components
sum to the total. Gradients are derived manually per layer, returned per
block, and validated by finite differences. :func:`param_shapes` alone
lists a kind's parameter blocks, for initialization and checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Corpus, Vocabulary, _check_json_fields
from .nncore import (
    AdamState,
    adam_step,
    encoder_hidden,
    glorot_uniform,
    inference_backward,
    inference_forward,
    kl_grads,
    kl_rows,
    named_rng,
    one_blas_thread,
    prior_variance,
    softmax,
    softmax_backward,
)

KINDS = ("zeroshot", "combined", "multimodal_zeroshot", "multimodal_contrast")
MULTIMODAL_KINDS = ("multimodal_zeroshot", "multimodal_contrast")

# Per kind, one (parameter prefix, input key, features, KL component) per
# encoder. Features are "text" and "image" (the embeddings) and "bow" (the
# bag-of-words, L1-normalized in the input), concatenated in the listed
# order. Table order is the order of initialization, noise and dropout draws
# and KL components; inference runs the first encoder whose features are
# all given.
ENCODERS = {
    "zeroshot": (("enc", "x", ("text",), "kl"),),
    "combined": (("enc", "x", ("text", "bow"), "kl"),),
    "multimodal_zeroshot": (("enc", "x", ("text", "image"), "kl"),),
    "multimodal_contrast": (("enc_text", "x_text", ("text",), "kl_text"),
                            ("enc_image", "x_image", ("image",), "kl_image")),
}

# The infer_topic_distribution argument that carries each feature.
_FEATURE_ARGUMENTS = {"text": "text_embedding", "image": "image_embedding", "bow": "bow"}

# Norm products below this are treated as degenerate in cosine terms.
_COSINE_TINY = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    """Training configuration. ``batch_size`` and ``prior_alpha`` default to
    kind-dependent values (64 documents, 32 for the contrastive kind;
    Dirichlet concentration 1/num_topics) and are resolved at construction
    so serialized configs are complete. Each field must hold its annotated
    JSON type (never a boolean), and ``seed`` may not be negative."""

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
        _check_json_fields(self, "config")
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def prior(self) -> float:
        """Variance of the zero-mean Gaussian prior in each topic dimension."""
        return prior_variance(self.num_topics, self.prior_alpha)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def l1_normalize_bow(bow: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Float64 bag-of-words scaled to sum to one, written into ``out``,
    which must hold zeros: an all-zero row stays zero."""
    totals = bow.sum(axis=-1, keepdims=True)
    return np.divide(bow, totals, out=out, where=totals > 0)


def _encoder_input(features: tuple[str, ...], columns: dict) -> np.ndarray:
    """One encoder's input: its feature columns side by side along the last
    axis, written into one buffer, with the raw counts under ``bow``
    L1-normalized on the way. A single embedding is passed through as is,
    not copied."""
    if features in (("text",), ("image",)):
        return columns[features[0]]
    widths = np.array([columns[f].shape[-1] for f in features])
    ends = np.cumsum(widths)
    x = np.zeros(columns[features[0]].shape[:-1] + (ends[-1],))
    for feature, start, end in zip(features, ends - widths, ends):
        if feature == "bow":
            l1_normalize_bow(columns[feature], out=x[..., start:end])
        else:
            x[..., start:end] = columns[feature]
    return x


def param_shapes(config: ModelConfig, text_dim: int | None, image_dim: int | None,
                 vocab_size: int | None) -> dict[str, tuple]:
    """Every parameter block of a model kind and its shape, in draw order:
    per encoder the hidden layer and the mu and logvar heads (weights, then
    biases), then the topic-word weights, then the topic-image weights for
    ``multimodal_zeroshot``. A width passed as None stays None."""
    k, h = config.num_topics, config.hidden_dim
    widths = {"text": text_dim, "image": image_dim, "bow": vocab_size}
    shapes = {}
    for prefix, _, features, _ in ENCODERS[config.kind]:
        dims = [widths[f] for f in features]
        width = None if None in dims else sum(dims)
        for layer, rows, cols in (("hidden", h, width), ("mu", k, h), ("logvar", k, h)):
            shapes[f"{prefix}.W_{layer}"] = (rows, cols)
            shapes[f"{prefix}.b_{layer}"] = (rows,)
    shapes["beta"] = (k, vocab_size)
    if config.kind == "multimodal_zeroshot":
        shapes["gamma"] = (k, image_dim)
    return shapes


def init_params(config: ModelConfig, text_dim: int, image_dim: int,
                vocab_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot-uniform weight matrices and zero bias vectors for every block
    of :func:`param_shapes`, drawn in its order so a seeded generator
    reproduces the same initialization. The blocks are views that tile one
    float64 buffer in that order, the layout ``adam_step`` updates."""
    shapes = param_shapes(config, text_dim, image_dim, vocab_size)
    arena = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    params, start = {}, 0
    for name, shape in shapes.items():
        params[name] = arena[start:start + math.prod(shape)].reshape(shape)
        if len(shape) == 2:
            params[name][...] = glorot_uniform(rng, shape)
        start += params[name].size
    return params


def _recon_forward(theta: np.ndarray, beta: np.ndarray, bows: np.ndarray):
    """Negative log likelihood of raw counts under softmax(theta @ beta), and
    those word probabilities: one shift and one ``exp``, in place in 2 (B, V) arrays."""
    logits = theta @ beta
    logits -= np.max(logits, axis=-1, keepdims=True)
    probs = np.exp(logits)
    row_sums = np.sum(probs, axis=-1, keepdims=True)
    logits -= np.log(row_sums)
    logits *= bows
    probs /= row_sums
    return -np.sum(logits, axis=-1), probs


def _recon_backward(theta, beta, bows, probs):
    """Gradients of sum recon with respect to theta and beta; overwrites probs."""
    probs *= bows.sum(axis=-1, keepdims=True)
    probs -= bows
    return probs @ beta.T, theta.T @ probs


def _cosine_rows(a: np.ndarray, b: np.ndarray):
    """Row-wise cosine with an epsilon-guarded norm product."""
    dots = np.sum(a * b, axis=-1)
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    q = na * nb + _COSINE_TINY
    return dots / q, (dots, na, nb, q)


def _nce_terms(theta_text: np.ndarray, theta_image: np.ndarray, temperature: float):
    """Per-document InfoNCE terms and the normalized pair weights.

    Stack the batch's B text and B image mixtures as X = [T; M], (2B, K),
    and take one Gram G = X X^T / tau. Anchor i's two ordered
    cross-modality pairings are its positives, G[i, B+i] = G[B+i, i]; its
    denominator runs over every pairing in rows i and B+i of G, the
    anchor's own pairings included:

        nce_i = -2 * G[i, B+i] + 2 * logsumexp(G[i, :], G[B+i, :])

    Computed with a per-anchor max shift for stability. The (2B, 2B) weights
    W[r, c] = exp(G[r, c]) / denominator_(r mod B) feed the backward pass.
    """
    x = np.concatenate([theta_text, theta_image])
    gram = x @ x.T / temperature
    rows = gram.reshape(2, len(theta_text), -1)  # rows[c, i]: anchor i, modality c
    shift = rows.max(axis=(0, 2))
    log_denom = shift + np.log(np.sum(np.exp(rows - shift[:, None]), axis=(0, 2)))
    weights = np.exp(rows - log_denom[:, None]).reshape(gram.shape)
    nce = -2.0 * np.diagonal(gram, len(theta_text)) + 2.0 * log_denom
    return nce, weights


def _nce_theta_grads(theta_text, theta_image, temperature, weights):
    """Gradients of sum_i nce_i with respect to both mixture matrices:
    2/tau ((W + W^T) X - X with its halves swapped), split at row B."""
    x = np.concatenate([theta_text, theta_image])
    swapped = np.roll(x, len(theta_text), axis=0)
    return np.split(2.0 / temperature * ((weights + weights.T) @ x - swapped), 2)


@one_blas_thread
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


def batch_objective(kind: str, inputs: dict, params: dict, config: ModelConfig,
                    noise, dropout_masks=None, want_grads=True):
    """Evaluate one kind's training objective on a prepared batch, summed
    over the batch.

    ``inputs`` holds ``bow`` plus each encoder's input key from
    :data:`ENCODERS` (and ``image_target`` for ``multimodal_zeroshot``).
    ``noise`` is the standard-normal draw matching the mixture shape, one
    per encoder: a bare array for single-encoder kinds, a (text, image) pair
    for the contrastive kind; ``dropout_masks`` follows the same shape, or
    is None for no dropout. Per document the objective is recon + one KL per
    encoder (+ image_loss_weight * (1 - cos) for ``multimodal_zeroshot``,
    + contrastive_weight * nce for two encoders). The contrastive term
    couples documents, so gradients are computed for the batch as a whole.
    Returns (total, grads, components) where components holds per-document
    arrays.
    """
    encoders = ENCODERS[kind]
    if isinstance(noise, np.ndarray):
        noise = (noise,)
    if dropout_masks is None or isinstance(dropout_masks, np.ndarray):
        dropout_masks = (dropout_masks,) * len(encoders)
    prior = config.prior()
    passes = []  # (mu, logvar, sigma, theta, cache) per encoder
    for (prefix, key, _, _), eps, mask in zip(encoders, noise, dropout_masks,
                                               strict=True):
        mu, logvar, cache = inference_forward(params, prefix, inputs[key], mask)
        sigma = np.exp(0.5 * logvar)
        passes.append((mu, logvar, sigma, softmax(mu + sigma * eps, axis=-1), cache))
    thetas = [theta for _, _, _, theta, _ in passes]
    bows = inputs["bow"]

    recon, probs = _recon_forward(thetas[0], params["beta"], bows)
    components = {"recon": recon}
    total_rows = recon
    for (_, _, _, kl_name), (mu, logvar, _, _, _) in zip(encoders, passes):
        components[kl_name] = kl_rows(mu, logvar, prior)
        total_rows = total_rows + components[kl_name]
    if kind == "multimodal_zeroshot":
        image_targets = inputs["image_target"]
        recon_img = thetas[0] @ params["gamma"]
        cos, (dots, nu, nr, q) = _cosine_rows(image_targets, recon_img)
        components["image_dist"] = 1.0 - cos
        components["image"] = config.image_loss_weight * components["image_dist"]
        total_rows = total_rows + components["image"]
    if len(encoders) == 2:
        nce, weights = _nce_terms(thetas[0], thetas[1], config.temperature)
        components["contrastive"] = config.contrastive_weight * nce
        components["nce"] = nce
        total_rows = total_rows + components["contrastive"]
    components["total"] = total_rows
    total = float(np.sum(total_rows))
    if not want_grads:
        return total, None, components

    d_theta, d_beta = _recon_backward(thetas[0], params["beta"], bows, probs)
    d_thetas = [d_theta]
    grads = {"beta": d_beta}
    if kind == "multimodal_zeroshot":
        nr_safe = np.maximum(nr, _COSINE_TINY)
        # d cos / d r for r = theta @ gamma, target u fixed:
        #   u / q - dots * |u| * (r / |r|) / q^2
        d_cos_dr = (image_targets / q[:, None]
                    - (dots * nu / (q * q * nr_safe))[:, None] * recon_img)
        d_img_dr = -config.image_loss_weight * d_cos_dr
        grads["gamma"] = thetas[0].T @ d_img_dr
        d_thetas[0] = d_thetas[0] + d_img_dr @ params["gamma"].T
    if len(encoders) == 2:
        d_nce_t, d_nce_m = _nce_theta_grads(thetas[0], thetas[1], config.temperature,
                                            weights)
        d_thetas[0] = d_thetas[0] + config.contrastive_weight * d_nce_t
        d_thetas.append(config.contrastive_weight * d_nce_m)
    for (prefix, _, _, _), (mu, logvar, sigma, theta, cache), eps, d_theta in zip(
            encoders, passes, noise, d_thetas):
        d_z = softmax_backward(theta, d_theta)
        d_mu_kl, d_logvar_kl = kl_grads(mu, logvar, prior)
        grads.update(inference_backward(params, prefix, cache, d_z + d_mu_kl,
                                        d_z * eps * 0.5 * sigma + d_logvar_kl))
    return total, grads, components


def _check_dim(name: str, vec: np.ndarray, expected: int):
    if vec.shape != (expected,):
        raise ValueError(f"{name} has shape {vec.shape}, expected ({expected},)")


def _finite_array(name: str, value) -> np.ndarray:
    array = np.asarray(value, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a non-finite value")
    return array


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


def _columns(corpus: Corpus, rows, features) -> dict[str, np.ndarray]:
    """The named features of the documents at ``rows``: ``text`` and
    ``image`` embedding rows and the raw in-vocabulary counts under
    ``bow``."""
    columns = {name: matrix[rows] for name, matrix in (
        ("text", corpus.text_embeddings), ("image", corpus.image_embeddings)) if name in features}
    if "bow" in features:
        columns["bow"] = corpus.bow_matrix(rows)
    return columns


def _batch_inputs(corpus: Corpus, kind: str, rows) -> dict[str, np.ndarray]:
    """The :func:`batch_objective` inputs of the documents at ``rows``, each
    feature built once: every encoder's input under its key, the raw counts
    under ``bow``, and the image rows under ``image_target`` for
    ``multimodal_zeroshot``."""
    encoders = ENCODERS[kind]
    columns = _columns(corpus, rows, {"bow"}.union(*(f for _, _, f, _ in encoders)))
    inputs = {key: _encoder_input(features, columns) for _, key, features, _ in encoders}
    inputs["bow"] = columns["bow"]
    if kind == "multimodal_zeroshot":
        inputs["image_target"] = columns["image"]
    return inputs


@one_blas_thread
def train(corpus: Corpus, config: ModelConfig) -> TrainedTopicModel:
    """Train a topic model with minibatch Adam.

    All randomness (initialization, shuffling, dropout, sampling noise)
    flows from ``config.seed`` through separate named streams, and BLAS runs
    on one thread, so identical (corpus, config) pairs produce bit-identical
    parameters whatever the BLAS thread setting. The loss trace
    records, per epoch, the batch-size-weighted mean of every objective
    component per document. ``doc_topics`` is computed ``batch_size`` rows
    at a time, so no (N, ...) encoder input or hidden layer is built.
    Raises ``ValueError`` naming the epoch and batch (counted from 1) whose
    loss is not finite.
    """
    params = init_params(config, corpus.text_dim, corpus.image_dim,
                         len(corpus.vocabulary), named_rng(config.seed, "init"))
    trace = _fit(corpus, config, params)
    prefix, _, features, _ = ENCODERS[config.kind][0]
    n = corpus.num_documents
    doc_topics = np.empty((n, config.num_topics))
    for start in range(0, n, config.batch_size):
        rows = slice(start, start + config.batch_size)
        doc_topics[rows] = _posterior_mean(params, prefix, _encoder_input(
            features, _columns(corpus, rows, features)))
    return TrainedTopicModel(config=config, vocabulary=corpus.vocabulary,
                             params=params, loss_trace=trace, doc_topics=doc_topics)


def _fit(corpus: Corpus, config: ModelConfig, params: dict) -> list[dict[str, float]]:
    """The epochs of :func:`train`: Adam on ``params`` in place, returning
    the loss trace. Its state and the last batch are freed on return, so
    the ``doc_topics`` pass does not hold them."""
    kind = config.kind
    encoders = ENCODERS[kind]
    n = corpus.num_documents
    k = config.num_topics
    shuffle_rng = named_rng(config.seed, "shuffle")
    dropout_rng = named_rng(config.seed, "dropout")
    noise_rng = named_rng(config.seed, "noise")
    adam = AdamState(learning_rate=config.learning_rate)
    trace: list[dict[str, float]] = []
    rate = config.dropout_rate
    scale = 1.0 / (1.0 - rate)  # inverted dropout keeps expected activations

    batches = math.ceil(n / config.batch_size)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        sums: dict[str, float] = {}
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            batch = _batch_inputs(corpus, kind, idx)
            noise = tuple(noise_rng.standard_normal((idx.size, k)) for _ in encoders)
            masks = None if rate == 0.0 else tuple(
                (dropout_rng.random((idx.size, config.hidden_dim)) >= rate) * scale
                for _ in encoders)
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
    return trace


def _posterior_mean(params: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    """Posterior-mean topic mixtures of encoder inputs, without noise or dropout."""
    hidden = encoder_hidden(params, prefix, x)[0]
    return softmax(hidden @ params[prefix + ".W_mu"].T + params[prefix + ".b_mu"], axis=-1)


@one_blas_thread
def infer_topic_distribution(model: TrainedTopicModel, *,
                             text_embedding=None, image_embedding=None,
                             bow=None) -> np.ndarray:
    """Posterior-mean topic distribution for one document.

    Runs the first encoder in :data:`ENCODERS` order whose features are all
    given, so the contrastive kind accepts either modality and prefers text,
    and the other kinds need their full input. Raises ``ValueError`` naming
    the inputs the kind needs when no encoder's features are all given, and
    one naming the argument that holds a NaN or an infinity.
    """
    given = {feature: _finite_array(_FEATURE_ARGUMENTS[feature], value)
             for feature, value in (("text", text_embedding), ("image", image_embedding),
                                    ("bow", bow)) if value is not None}
    encoders = ENCODERS[model.kind]
    for prefix, _, features, _ in encoders:
        if all(f in given for f in features):
            x = _encoder_input(features, given)
            _check_dim(" + ".join(_FEATURE_ARGUMENTS[f] for f in features), x,
                       model.params[f"{prefix}.W_hidden"].shape[1])
            return _posterior_mean(model.params, prefix, np.atleast_2d(x))[0]
    needs = " or ".join(" and ".join(_FEATURE_ARGUMENTS[f] for f in features)
                        for _, _, features, _ in encoders)
    raise ValueError(f"{model.kind} inference needs {needs}")


def reconstruct_image_features(model: TrainedTopicModel, topic_dist) -> np.ndarray:
    """Mixture of the model's per-topic image feature rows weighted by a
    topic distribution, which must be finite. Only defined for kinds that
    learn one."""
    gamma = model.topic_image_matrix
    if gamma is None:
        raise ValueError(f"model kind {model.kind!r} has no topic-image matrix")
    theta = _finite_array("topic_dist", topic_dist)
    _check_dim("topic_dist", theta, model.num_topics)
    return theta @ gamma
