import dataclasses
import json

import numpy as np
import pytest

from mmtopic.corpus import Vocabulary
from mmtopic.descriptors import describe_topics, top_images, top_keywords, write_descriptors
from mmtopic.models import ModelConfig, train

from conftest import make_corpus


@pytest.fixture
def vocab():
    return Vocabulary.from_terms([f"w{i:02d}" for i in range(8)])


class TestTopKeywords:
    def test_ranks_by_row_weight(self, vocab):
        beta = np.zeros((2, 8))
        beta[0, 3] = 5.0
        beta[0, 1] = 4.0
        beta[0, 6] = 3.0
        assert top_keywords(beta, vocab, 0, 3) == ["w03", "w01", "w06"]

    def test_ties_break_toward_lower_vocab_index(self, vocab):
        beta = np.zeros((1, 8))
        beta[0, [2, 5, 7]] = 1.0
        assert top_keywords(beta, vocab, 0, 3) == ["w02", "w05", "w07"]
        # an all-tied row just yields vocabulary order
        assert top_keywords(np.zeros((1, 8)), vocab, 0, 4) == ["w00", "w01", "w02", "w03"]

    def test_matches_full_sort_on_random_rows(self):
        rng = np.random.default_rng(17)
        v = 40
        vocab = Vocabulary.from_terms([f"t{i:02d}" for i in range(v)])
        beta = rng.normal(size=(5, v))
        for t in range(5):
            expected = [vocab.terms[i]
                        for i in sorted(range(v), key=lambda i: (-beta[t, i], i))[:20]]
            assert top_keywords(beta, vocab, t, 20) == expected

    def test_positive_rescaling_leaves_ranking_alone(self, vocab):
        rng = np.random.default_rng(18)
        beta = rng.normal(size=(3, 8))
        for t in range(3):
            assert top_keywords(beta, vocab, t, 5) == \
                top_keywords(2.5 * beta + 7.0, vocab, t, 5)

    def test_bounds_checked(self, vocab):
        beta = np.zeros((2, 8))
        with pytest.raises(ValueError, match="topic_id"):
            top_keywords(beta, vocab, 2, 3)
        with pytest.raises(ValueError, match="n must lie"):
            top_keywords(beta, vocab, 0, 9)
        with pytest.raises(ValueError, match="n must lie"):
            top_keywords(beta, vocab, 0, 0)


class TestTopImages:
    def make(self, n_docs=6):
        return make_corpus([[f"tok{i}"] for i in range(n_docs)])

    def test_ranks_documents_by_topic_share(self):
        corpus = self.make(4)
        doc_topics = np.array([
            [0.1, 0.9],
            [0.7, 0.3],
            [0.4, 0.6],
            [0.2, 0.8],
        ])
        picks = top_images(doc_topics, corpus, 1, 2)
        assert [p.doc_id for p in picks] == ["d0", "d3"]
        np.testing.assert_array_equal(picks[0].embedding,
                                      corpus.documents[0].image_embedding)
        assert picks[0].image_ref == "img0"

    def test_ties_break_toward_earlier_document(self):
        corpus = self.make(4)
        doc_topics = np.tile([0.5, 0.5], (4, 1))
        picks = top_images(doc_topics, corpus, 0, 3)
        assert [p.doc_id for p in picks] == ["d0", "d1", "d2"]

    def test_matches_full_sort_on_random_columns(self):
        rng = np.random.default_rng(19)
        corpus = self.make(50)
        doc_topics = rng.dirichlet(np.ones(4), size=50)
        for t in range(4):
            expected = sorted(range(50), key=lambda i: (-doc_topics[i, t], i))[:4]
            picks = top_images(doc_topics, corpus, t, 4)
            assert [p.doc_id for p in picks] == [f"d{i}" for i in expected]

    def test_bounds_checked(self):
        corpus = self.make(4)
        doc_topics = np.full((4, 2), 0.5)
        with pytest.raises(ValueError, match="topic_id"):
            top_images(doc_topics, corpus, 5, 2)
        with pytest.raises(ValueError, match="n must lie"):
            top_images(doc_topics, corpus, 0, 5)
        with pytest.raises(ValueError, match="rows"):
            top_images(np.full((3, 2), 0.5), corpus, 0, 2)


@pytest.fixture(scope="module")
def described():
    corpus = make_corpus([
        ["sun", "moon", "sun"],
        ["moon", "star"],
        ["sun", "star", "star"],
        ["moon", "moon", "sun"],
    ])
    model = train(corpus, ModelConfig(kind="multimodal_zeroshot", num_topics=2,
                                      epochs=2, hidden_dim=8))
    return corpus, model, describe_topics(model, corpus, n=3)


class TestDescribeAndWrite:
    def test_one_descriptor_per_topic(self, described):
        corpus, model, descriptors = described
        assert [d.topic_id for d in descriptors] == [0, 1]
        for d in descriptors:
            assert len(d.keywords) == 3
            assert len(d.images) == 3
            assert d.keywords == tuple(
                top_keywords(model.topic_word_matrix, model.vocabulary, d.topic_id, 3))

    def test_round_trips_through_jsonl(self, described, tmp_path):
        _, _, descriptors = described
        path = write_descriptors(descriptors, tmp_path / "topics.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["topic_id"] == 0
        assert first["keywords"] == list(descriptors[0].keywords)
        assert first["images"][0] == {"doc_id": descriptors[0].images[0].doc_id,
                                      "image_ref": descriptors[0].images[0].image_ref}
        # embeddings are deliberately not serialized
        assert "embedding" not in first["images"][0]

    def test_failed_write_keeps_previous_file(self, described, tmp_path):
        _, _, descriptors = described
        path = write_descriptors(descriptors, tmp_path / "topics.jsonl")
        before = path.read_bytes()
        # the second topic cannot be serialized, so the write fails partway
        broken = [descriptors[1], dataclasses.replace(descriptors[0], keywords=(object(),))]
        with pytest.raises(TypeError):
            write_descriptors(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["topics.jsonl"]
