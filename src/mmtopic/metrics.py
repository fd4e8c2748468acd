"""Topic quality metrics over keywords and image descriptors.

Keyword-side: NPMI coherence against a reference corpus, word-embedding
coherence, topic diversity, and inverted rank-biased overlap. Image-side:
embedding coherence within a topic's image set (IEC) and pairwise image-set
similarity across topics (IEPS). Cosine-based scores keep their
mathematical range [-1, 1]; embeddings are arbitrary vectors, not
necessarily nonnegative.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .corpus import TokenIds
from .descriptors import topic_documents, topic_keywords
from .models import MULTIMODAL_KINDS
from .nncore import one_blas_thread

logger = logging.getLogger(__name__)

_NPMI_EPS = 1e-12


def _boolean_window_counts(token_ids: TokenIds, terms, window: int):
    """Boolean presence counts per sliding window for the distinct ``terms``.

    Windows are contiguous spans of ``window`` tokens with step 1 inside
    each document; a document no longer than the window (an empty one
    included) is one window. Returns (word_counts, pair_counts,
    total_windows): ``word_counts[i]`` counts the windows holding
    ``terms[i]``, ``pair_counts[i, j]`` for ``i < j`` the windows holding
    both (the lower triangle stays 0), as integer-valued float64 arrays.

    A window is counted once per term, at the term's last occurrence in it:
    one at document position ``p`` whose term next occurs at ``q`` (or
    never) is last in the window starts ``max(0, p - window + 1) ..
    min(p, q - window, max(length - window, 0))``. A word count sums these
    spans, a pair count the overlaps of its two terms' spans."""
    r = len(terms)
    index = token_ids.index
    lookup = np.full(len(index), r, dtype=np.int32 if r * r < 2 ** 31 else np.int64)
    for j, term in enumerate(terms):
        i = index.get(term)
        if i is not None:
            lookup[i] = j
    offsets = token_ids.offsets
    lengths = np.diff(offsets)
    # Longer windows count the same; the clamp keeps int32 sums in range.
    window = min(window, max(int(lengths.max()), 1))
    last = np.maximum(lengths - window, 0)
    first_window = np.cumsum(last + 1) - (last + 1)
    total = int(first_window[-1] + last[-1] + 1)
    # Positions and window numbers, in int32 while they fit.
    size = np.int32 if offsets[-1] + offsets.size < 2 ** 31 else np.int64
    pos = np.flatnonzero(lookup[token_ids.ids] < r).astype(size)
    term = lookup[token_ids.ids[pos]]
    doc = np.repeat(np.arange(lengths.size, dtype=size), lengths)[pos]
    order = np.argsort(term.astype(np.int64) * int(offsets[-1]) + pos)
    prev, succ = order[:-1], order[1:]
    same = (term[prev] == term[succ]) & (doc[prev] == doc[succ])
    prev, succ = prev[same], succ[same]  # occurrence prev's term next occurs at succ
    pos -= offsets[:-1].astype(size)[doc]
    hi = np.minimum(pos, last.astype(size)[doc])
    hi[prev] = np.minimum(hi[prev], pos[succ] - window)
    # Window numbers across the corpus: spans in two documents never overlap.
    base = first_window.astype(size)[doc]
    lo = np.maximum(pos - (window - 1), 0) + base
    hi += base
    del pos, doc, base, order, prev, succ, same  # freed before the r x r tables
    word_counts = np.bincount(term, weights=np.maximum(hi - lo + 1, 0), minlength=r)
    # Term tokens closer than ``window`` are fewer than ``window`` term tokens
    # apart. Spans of one term never overlap, so such pairs weigh 0.
    pair_counts = np.zeros(r * r)
    for d in range(1, min(window, term.size)):
        overlap = np.minimum(hi[d:], hi[:-d]) - np.maximum(lo[d:], lo[:-d]) + 1
        a, b = term[:-d], term[d:]
        np.maximum(overlap, 0, out=overlap)
        pair_counts += np.bincount(np.minimum(a, b) * r + np.maximum(a, b),
                                   weights=overlap, minlength=r * r)
    return word_counts, pair_counts.reshape(r, r), total


def _npmi_per_topic(topics, token_ids: TokenIds, window: int = 10) -> list[float]:
    if window < 1:
        raise ValueError("window must be >= 1")
    if not topics or any(len(t) < 2 for t in topics):
        raise ValueError("each topic needs at least two words")
    if token_ids.offsets.size < 2:
        raise ValueError("reference corpus is empty")
    local = {}
    for t in topics:
        for w in t:
            local.setdefault(w, len(local))
    word_counts, pair_counts, total = _boolean_window_counts(token_ids, list(local), window)

    scores = []
    for t_idx, topic in enumerate(topics):
        ids = np.array([local[w] for w in topic])
        a, b = (ids[side] for side in np.triu_indices(len(ids), k=1))
        keep = (word_counts[a] > 0) & (word_counts[b] > 0)  # skip absent words
        a, b = a[keep], b[keep]
        if a.size == 0:
            logger.warning("topic %d: no top-word pair occurs in the reference "
                           "corpus; contributing 0", t_idx)
            scores.append(0.0)
            continue
        # A repeated word shares every window it occurs in with itself.
        p_ij = np.where(a == b, word_counts[a],
                        pair_counts[np.minimum(a, b), np.maximum(a, b)]) / total
        p_ij[p_ij == 0.0] = _NPMI_EPS
        pmi = np.log(p_ij / (word_counts[a] / total * (word_counts[b] / total)))
        # Both words in every window: perfect association by convention,
        # since the normalizer log(p_ij) vanishes.
        pair_scores = np.divide(pmi, -np.log(p_ij), out=np.ones_like(pmi),
                                where=p_ij < 1.0)
        scores.append(float(np.mean(pair_scores)))
    return scores


def npmi(topics, reference_docs, window: int = 10) -> float:
    """Mean NPMI coherence over topics.

    Probabilities are boolean sliding-window presence frequencies over the
    reference documents (lists of token strings). Pairs with a word that
    never occurs are skipped; a topic with no scorable pair contributes 0
    and is flagged in the log.
    """
    token_ids = TokenIds.from_token_lists(reference_docs)
    return float(np.mean(_npmi_per_topic(topics, token_ids, window)))


def _we_per_topic(topics, word_vectors) -> list[float | None]:
    values: list[float | None] = []
    for t_idx, topic in enumerate(topics):
        vecs = [word_vectors[w] for w in topic if w in word_vectors]
        if len(vecs) < 2:
            logger.warning("topic %d: fewer than two embedded terms; skipped "
                           "from word-embedding coherence", t_idx)
            values.append(None)
            continue
        values.append(_mean_pair_cosine(vecs))
    return values


def we_coherence(topics, word_vectors) -> float:
    """Mean pairwise cosine similarity of each topic's embedded top words,
    averaged over topics. Topics with fewer than two terms in the vector
    vocabulary are skipped; if every topic is skipped this raises."""
    values = [v for v in _we_per_topic(topics, word_vectors) if v is not None]
    if not values:
        raise ValueError("no topic has two or more embedded terms")
    return float(np.mean(values))


def topic_diversity(topics, n: int = 10) -> float:
    """Fraction of distinct words among the top-``n`` slots of all topics."""
    if not topics:
        raise ValueError("at least one topic is required")
    if n < 1:
        raise ValueError("n must be >= 1")
    if any(len(t) < n for t in topics):
        raise ValueError(f"every topic needs at least {n} words")
    unique = set()
    for t in topics:
        unique.update(t[:n])
    return len(unique) / (n * len(topics))


def _rbo_matrix(rankings_a, rankings_b, p: float) -> np.ndarray:
    """Extrapolated rank-biased overlap of every ranking in ``rankings_a``
    with every one in ``rankings_b``, as a (len(a), len(b)) matrix. All
    rankings share one non-zero length and hold no duplicates."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    lengths = {len(r) for r in (*rankings_a, *rankings_b)}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError("lists must be non-empty and of equal length")
    if any(len(set(r)) != len(r) for r in (*rankings_a, *rankings_b)):
        raise ValueError("lists must not contain duplicates")
    ids: dict = {}
    a, b = (np.array([[ids.setdefault(x, len(ids)) for x in r] for r in rankings])
            for rankings in (rankings_a, rankings_b))
    d = a.shape[1]
    # rank_x[s, w] is item w's depth in ranking s, or d where s lacks it.
    rank_a, rank_b = (np.full((len(x), len(ids)), d) for x in (a, b))
    for rank, x in ((rank_a, a), (rank_b, b)):
        np.put_along_axis(rank, x, np.arange(d), axis=1)
    # overlap[s, t] is |a_s[:i+1] & b_t[:i+1]| after depth i: the new item
    # of a_s met anywhere in b_t's prefix, plus the new item of b_t met in
    # a_s's shorter prefix, so a match at the same depth counts once.
    overlap = np.zeros((len(a), len(b)), dtype=np.int64)
    tail = np.zeros(overlap.shape)
    for i in range(d):
        overlap += rank_b[:, a[:, i]].T <= i
        overlap += rank_a[:, b[:, i]] < i
        tail += overlap / (i + 1) * p ** (i + 1)
    return overlap / d * p ** d + (1.0 - p) / p * tail


def rbo(list_a, list_b, p: float = 0.9) -> float:
    """Extrapolated rank-biased overlap of two equal-length rankings
    without duplicates; 1 for identical lists, 0 for disjoint ones."""
    return float(_rbo_matrix([list(list_a)], [list(list_b)], p)[0, 0])


def irbo(topics, p: float = 0.9) -> float:
    """Inverted rank-biased overlap: 1 minus the mean pairwise RBO over all
    topic pairs. 1 means fully distinct topics, 0 means identical ones."""
    if len(topics) < 2:
        raise ValueError("at least two topics are required")
    return 1.0 - _upper_mean(_rbo_matrix(topics, topics, p))


def _upper_mean(matrix: np.ndarray) -> float:
    """Mean of a square matrix above its diagonal: over all unordered pairs."""
    return float(np.mean(matrix[np.triu_indices(len(matrix), k=1)]))


def _unit(vectors) -> np.ndarray:
    arr = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=-1)
    if np.any(norms == 0.0):
        raise ValueError("cosine undefined for a zero-norm embedding")
    return arr / norms[..., None]


def _mean_pair_cosine(vectors) -> float:
    """Mean cosine over all pairs of rows, from one Gram of unit vectors."""
    unit = _unit(vectors)
    return _upper_mean(unit @ unit.T)


def _iec_per_topic(topic_image_sets) -> list[float]:
    values = []
    for t_idx, images in enumerate(topic_image_sets):
        arr = np.asarray(images, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ValueError(f"topic {t_idx}: at least two image embeddings required")
        values.append(_mean_pair_cosine(arr))
    return values


def iec(topic_image_sets) -> float:
    """Image embedding coherence: for each topic, the mean pairwise cosine
    similarity of its descriptor image embeddings; averaged over topics."""
    if not topic_image_sets:
        raise ValueError("at least one topic image set is required")
    return float(np.mean(_iec_per_topic(topic_image_sets)))


def ieps(topic_image_sets) -> float:
    """Image embedding pairwise similarity across topics: for each pair of
    topics, the mean cosine over all cross-set image pairs; averaged over
    the topic pairs. Lower values mean more visually distinct topics."""
    k = len(topic_image_sets)
    if k < 2:
        raise ValueError("at least two topic image sets are required")
    sizes = {np.asarray(s).shape[0] for s in topic_image_sets}
    if len(sizes) != 1:
        raise ValueError(f"image sets must share one size, got {sorted(sizes)}")
    # Two unit sets' mean cross-pair cosine is the dot product of their means.
    means = np.stack([_unit(s).mean(axis=0) for s in topic_image_sets])
    return _upper_mean(means @ means.T)


def load_word_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a text word-vector file: one ``term v1 ... vd`` per line.
    Dimensions must agree across lines."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            term, values = parts[0], parts[1:]
            if not values:
                raise ValueError(f"line {lineno}: no vector components")
            try:
                vec = np.array([float(x) for x in values])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric vector component")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"line {lineno}: non-finite vector component")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ValueError(f"line {lineno}: dimension {vec.size} differs "
                                 f"from {dim}")
            vectors[term] = vec
    if not vectors:
        raise ValueError(f"{path}: no vectors found")
    return vectors


@dataclass(frozen=True)
class MetricReport:
    """All metric values for one trained model; metrics that do not apply
    (image metrics for unimodal kinds, word-embedding coherence without
    vectors) stay None and render as blank cells."""

    model_id: str
    npmi: float | None = None
    we: float | None = None
    td: float | None = None
    irbo: float | None = None
    iec: float | None = None
    ieps: float | None = None
    per_topic: dict | None = None
    params: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def values(self) -> dict[str, float | None]:
        return {"npmi": self.npmi, "we": self.we, "td": self.td,
                "irbo": self.irbo, "iec": self.iec, "ieps": self.ieps}


@one_blas_thread
def compute_metric_report(model, corpus, *, word_vectors=None,
                          n_descriptors: int = 10, window: int = 10,
                          rbo_p: float = 0.9,
                          model_id: str | None = None) -> MetricReport:
    """Evaluate a trained model on its corpus.

    Keyword metrics always apply. Word-embedding coherence runs only when
    vectors are supplied. Image metrics run for multimodal kinds, over the
    top image descriptors each topic selects from the corpus.
    """
    topics = topic_keywords(model.topic_word_matrix, model.vocabulary, n_descriptors)
    npmi_topics = _npmi_per_topic(topics, corpus.token_ids, window)
    per_topic: dict = {"npmi": npmi_topics}
    report = {
        "npmi": float(np.mean(npmi_topics)),
        "td": topic_diversity(topics, n=n_descriptors),
        "irbo": irbo(topics, p=rbo_p),
        "we": None, "iec": None, "ieps": None,
    }
    if word_vectors is not None:
        we_topics = _we_per_topic(topics, word_vectors)
        per_topic["we"] = we_topics
        present = [v for v in we_topics if v is not None]
        report["we"] = float(np.mean(present)) if present else None

    if model.kind in MULTIMODAL_KINDS:
        image_sets = corpus.image_embeddings[
            topic_documents(model.doc_topics, corpus, n_descriptors)]
        iec_topics = _iec_per_topic(image_sets)
        per_topic["iec"] = iec_topics
        report["iec"] = float(np.mean(iec_topics))
        report["ieps"] = ieps(image_sets)

    return MetricReport(
        model_id=model_id if model_id is not None else model.label,
        per_topic=per_topic,
        params={"n_descriptors": n_descriptors, "window": window, "rbo_p": rbo_p},
        **report,
    )
