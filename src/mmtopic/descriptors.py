"""Topic descriptors: the top keywords of each topic and the documents
whose images represent it best.

Keywords rank a topic's row of the topic-word matrix; images rank documents
by the topic's share of their inferred mixture. Image selection never looks
at the topic-image feature matrix, so it works for every model kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, Vocabulary, atomic_write_text
from .models import TrainedTopicModel

DEFAULT_DESCRIPTOR_SIZE = 10


@dataclass(frozen=True)
class TopicImage:
    doc_id: str
    image_ref: str | None
    embedding: np.ndarray


@dataclass(frozen=True)
class TopicDescriptors:
    topic_id: int
    keywords: tuple[str, ...]
    images: tuple[TopicImage, ...]


def top_keywords(topic_word_matrix: np.ndarray, vocabulary: Vocabulary,
                 topic_id: int, n: int = DEFAULT_DESCRIPTOR_SIZE) -> list[str]:
    """The ``n`` highest-weight terms of one topic row, weight ties broken
    by ascending vocabulary index."""
    k, v = topic_word_matrix.shape
    if not 0 <= topic_id < k:
        raise ValueError(f"topic_id {topic_id} out of range for {k} topics")
    if n < 1 or n > v:
        raise ValueError(f"n must lie in [1, {v}], got {n}")
    row = topic_word_matrix[topic_id]
    order = np.lexsort((np.arange(v), -row))
    return [vocabulary.terms[i] for i in order[:n]]


def top_images(doc_topics: np.ndarray, corpus: Corpus, topic_id: int,
               n: int = DEFAULT_DESCRIPTOR_SIZE) -> list[TopicImage]:
    """The ``n`` documents carrying the most mass in one topic's column of
    the document-topic matrix, ties broken by ascending document position."""
    docs, k = doc_topics.shape
    if docs != corpus.num_documents:
        raise ValueError(f"doc_topics has {docs} rows, corpus has "
                         f"{corpus.num_documents} documents")
    if not 0 <= topic_id < k:
        raise ValueError(f"topic_id {topic_id} out of range for {k} topics")
    if n < 1 or n > docs:
        raise ValueError(f"n must lie in [1, {docs}], got {n}")
    column = doc_topics[:, topic_id]
    order = np.lexsort((np.arange(docs), -column))
    picks = []
    for i in order[:n]:
        d = corpus.documents[i]
        picks.append(TopicImage(doc_id=d.id, image_ref=d.image_ref,
                                embedding=d.image_embedding))
    return picks


def describe_topics(model: TrainedTopicModel, corpus: Corpus,
                    n: int = DEFAULT_DESCRIPTOR_SIZE) -> list[TopicDescriptors]:
    """Keywords and representative images for every topic of a model."""
    out = []
    for t in range(model.num_topics):
        out.append(TopicDescriptors(
            topic_id=t,
            keywords=tuple(top_keywords(model.topic_word_matrix, model.vocabulary, t, n)),
            images=tuple(top_images(model.doc_topics, corpus, t, n)),
        ))
    return out


def write_descriptors(descriptors: list[TopicDescriptors], path: str | Path) -> Path:
    """One JSON object per topic: id, keywords, and image document ids with
    their refs. Embeddings stay in the corpus; only references are written."""
    path = Path(path)
    atomic_write_text(path, "".join(json.dumps({
        "topic_id": d.topic_id,
        "keywords": list(d.keywords),
        "images": [{"doc_id": im.doc_id, "image_ref": im.image_ref} for im in d.images],
    }) + "\n" for d in descriptors))
    return path
