"""Topic descriptors: the top keywords of each topic and the documents
whose images represent it best.

Keywords rank a topic's row of the topic-word matrix; images rank documents
by the topic's share of their inferred mixture. Image selection never looks
at the topic-image feature matrix, so it works for every model kind. A
topic's descriptor is the record its file line holds, with image references
only: ``{"topic_id", "keywords", "images": [{"doc_id", "image_ref"}]}``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .corpus import Corpus, Vocabulary, atomic_write_text
from .models import TrainedTopicModel

DEFAULT_DESCRIPTOR_SIZE = 10


def _rank_rows(scores: np.ndarray, n: int) -> np.ndarray:
    """Column positions of the ``n`` largest entries of every row, ties
    broken by ascending position."""
    k, m = scores.shape
    if n < 1 or n > m:
        raise ValueError(f"n must lie in [1, {m}], got {n}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite to rank them")
    # Sorting the n or more entries at or above each row's n-th largest keeps
    # the full sort's order.
    kth = np.negative(scores, order="C")  # rows contiguous for partition
    kth.partition(n - 1, axis=1)
    rows, cols = np.nonzero(scores >= -kth[:, n - 1:n])
    order = np.lexsort((cols, -scores[rows, cols], rows))
    return cols[order][np.searchsorted(rows, np.arange(k))[:, None] + np.arange(n)]


def _ranked(model: TrainedTopicModel, n: int, corpus: Corpus | None = None) -> list[list]:
    """A model's :func:`topic_keywords` or, given its ``corpus``, its
    :func:`topic_documents` rows, as fresh lists. A ranking is kept with the
    array it ranks, which is frozen, and redone for a replaced array."""
    matrix = model.topic_word_matrix if corpus is None else model.doc_topics
    key = n, None if corpus is None else corpus.num_documents
    held, rows = model._rankings.get(key, (None, None))
    if held is not matrix:
        matrix.flags.writeable = False
        rows = (topic_keywords(matrix, model.vocabulary, n) if corpus is None
                else topic_documents(matrix, corpus, n).tolist())
        model._rankings[key] = matrix, rows
    return [list(row) for row in rows]


def topic_keywords(topic_word_matrix: np.ndarray, vocabulary: Vocabulary,
                   n: int = DEFAULT_DESCRIPTOR_SIZE) -> list[list[str]]:
    """The ``n`` highest-weight terms of every topic row, weight ties
    broken by ascending vocabulary index."""
    terms = vocabulary.terms
    return [[terms[i] for i in row] for row in _rank_rows(topic_word_matrix, n).tolist()]


def top_keywords(topic_word_matrix: np.ndarray, vocabulary: Vocabulary,
                 topic_id: int, n: int = DEFAULT_DESCRIPTOR_SIZE) -> list[str]:
    """:func:`topic_keywords` of one topic."""
    k = topic_word_matrix.shape[0]
    if not 0 <= topic_id < k:
        raise ValueError(f"topic_id {topic_id} out of range for {k} topics")
    return topic_keywords(topic_word_matrix[topic_id:topic_id + 1], vocabulary, n)[0]


def topic_documents(doc_topics: np.ndarray, corpus: Corpus,
                    n: int = DEFAULT_DESCRIPTOR_SIZE) -> np.ndarray:
    """(K, n) corpus positions of the documents carrying the most mass in
    each topic's column of the document-topic matrix, ties broken by
    ascending document position."""
    if len(doc_topics) != corpus.num_documents:
        raise ValueError(f"doc_topics has {len(doc_topics)} rows, corpus has "
                         f"{corpus.num_documents} documents")
    return _rank_rows(doc_topics.T, n)


def describe_topics(model: TrainedTopicModel, corpus: Corpus,
                    n: int = DEFAULT_DESCRIPTOR_SIZE) -> list[dict]:
    """The descriptor record of every topic of a model."""
    return [{"topic_id": t, "keywords": words,
             "images": [{"doc_id": corpus.ids[i], "image_ref": corpus.image_refs[i]}
                        for i in docs]}
            for t, (words, docs) in enumerate(zip(_ranked(model, n), _ranked(model, n, corpus)))]


def write_descriptors(descriptors: list[dict], path: str | Path) -> Path:
    """Write :func:`describe_topics` records as JSON lines, one per topic."""
    path = Path(path)
    atomic_write_text(path, "".join(json.dumps(d) + "\n" for d in descriptors))
    return path
