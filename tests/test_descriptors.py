import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmtopic.descriptors as descriptors_module
from mmtopic.corpus import Vocabulary
from mmtopic.descriptors import (
    _rank_rows,
    describe_topics,
    top_keywords,
    topic_documents,
    topic_keywords,
    write_descriptors,
)
from mmtopic.harness import load_model, save_model
from mmtopic.metrics import compute_metric_report
from mmtopic.models import ModelConfig, TrainedTopicModel, train
from mmtopic.overlap import overlap_report, topic_similarity_matrix

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


def ranked_reference(rows, n):
    """Positions of each row's ``n`` largest entries by a full sort, ties
    toward the lower position."""
    return [sorted(range(len(row)), key=lambda i: (-row[i], i))[:n] for row in rows]


class TestTopicRanking:
    @given(st.integers(1, 6).flatmap(lambda m: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=1, max_size=5),
        st.integers(1, m))))
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_on_tied_integer_rows(self, case):
        rows, n = case
        expected = ranked_reference(rows, n)
        matrix = np.array(rows, dtype=np.float64)
        vocab = Vocabulary.from_terms([f"t{i}" for i in range(matrix.shape[1])])
        assert topic_keywords(matrix, vocab, n) == [[vocab.terms[i] for i in r] for r in expected]
        corpus = make_corpus([["tok"]] * matrix.shape[1])
        assert topic_documents(matrix.T, corpus, n).tolist() == expected

    @given(st.integers(1, 8).flatmap(lambda m: st.tuples(
        st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300]),
                          min_size=m, max_size=m), min_size=1, max_size=5),
        st.integers(1, m))))
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort_with_signed_zeros(self, case):
        rows, n = case
        matrix = np.array(rows)
        np.testing.assert_array_equal(
            _rank_rows(matrix, n), np.argsort(-matrix, axis=1, kind="stable")[:, :n])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _rank_rows(np.array([[1.0, bad, 2.0]]), 3)


def fake_model(doc_topics, corpus):
    """An untrained model with these ``doc_topics`` and all-tied keywords."""
    k = doc_topics.shape[1]
    return TrainedTopicModel(config=ModelConfig(kind="zeroshot", num_topics=k),
                             vocabulary=corpus.vocabulary,
                             params={"beta": np.zeros((k, len(corpus.vocabulary)))},
                             loss_trace=[], doc_topics=doc_topics)


class TestTopImages:
    """Documents ranked by :func:`topic_documents`, and the images
    :func:`describe_topics` builds from them."""

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
        assert topic_documents(doc_topics, corpus, 2).tolist() == [[1, 2], [0, 3]]
        picks = describe_topics(fake_model(doc_topics, corpus), corpus, 2)[1]["images"]
        assert picks == [{"doc_id": "d0", "image_ref": "img0"},
                         {"doc_id": "d3", "image_ref": "img3"}]

    def test_ties_break_toward_earlier_document(self):
        corpus = self.make(4)
        doc_topics = np.tile([0.5, 0.5], (4, 1))
        assert topic_documents(doc_topics, corpus, 3).tolist() == [[0, 1, 2], [0, 1, 2]]
        picks = describe_topics(fake_model(doc_topics, corpus), corpus, 3)[0]["images"]
        assert [p["doc_id"] for p in picks] == ["d0", "d1", "d2"]

    def test_matches_full_sort_on_random_columns(self):
        rng = np.random.default_rng(19)
        corpus = self.make(50)
        doc_topics = rng.dirichlet(np.ones(4), size=50)
        expected = ranked_reference(doc_topics.T.tolist(), 4)
        assert topic_documents(doc_topics, corpus, 4).tolist() == expected
        descriptors = describe_topics(fake_model(doc_topics, corpus), corpus, 4)
        assert [[p["doc_id"] for p in d["images"]] for d in descriptors] == \
            [[f"d{i}" for i in row] for row in expected]

    def test_bounds_checked(self):
        corpus = self.make(4)
        doc_topics = np.full((4, 2), 0.5)
        with pytest.raises(ValueError, match="n must lie"):
            topic_documents(doc_topics, corpus, 5)
        with pytest.raises(ValueError, match="n must lie"):
            topic_documents(doc_topics, corpus, 0)
        with pytest.raises(ValueError, match="rows"):
            topic_documents(np.full((3, 2), 0.5), corpus, 2)
        with pytest.raises(ValueError, match="rows"):
            describe_topics(fake_model(np.full((3, 2), 0.5), corpus), corpus, 2)


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
        assert [d["topic_id"] for d in descriptors] == [0, 1]
        for d in descriptors:
            assert len(d["images"]) == 3
            assert d["keywords"] == top_keywords(model.topic_word_matrix, model.vocabulary,
                                                 d["topic_id"], 3)

    def test_round_trips_through_jsonl(self, described, tmp_path):
        _, _, descriptors = described
        path = write_descriptors(descriptors, tmp_path / "topics.jsonl")
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == descriptors

    def test_file_bytes_pinned(self, tmp_path):
        corpus = dataclasses.replace(make_corpus([[f"tok{i}"] for i in range(4)]),
                                     image_refs=("img0", None, "img2", "img3"))
        doc_topics = np.array([[0.1, 0.9], [0.7, 0.3], [0.4, 0.6], [0.2, 0.8]])
        descriptors = describe_topics(fake_model(doc_topics, corpus), corpus, 2)
        path = write_descriptors(descriptors, tmp_path / "topics.jsonl")
        assert path.read_bytes().splitlines()[0] == (
            b'{"topic_id": 0, "keywords": ["tok0", "tok1"], "images": '
            b'[{"doc_id": "d1", "image_ref": null}, {"doc_id": "d2", "image_ref": "img2"}]}')

    def test_failed_write_keeps_previous_file(self, described, tmp_path):
        _, _, descriptors = described
        path = write_descriptors(descriptors, tmp_path / "topics.jsonl")
        before = path.read_bytes()
        # the second topic cannot be serialized, so the write fails partway
        broken = [descriptors[1], {**descriptors[0], "keywords": [object()]}]
        with pytest.raises(TypeError):
            write_descriptors(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["topics.jsonl"]


class TestRankingMemo:
    """``describe_topics``, ``compute_metric_report`` and ``overlap_report``
    share one ranking of each model's arrays, kept on the model."""

    @pytest.fixture
    def models(self):
        rng = np.random.default_rng(23)
        vocab = [f"w{i}" for i in range(12)]
        corpus = make_corpus([list(rng.choice(vocab, size=8)) for _ in range(10)])
        return corpus, [train(corpus, ModelConfig(kind="multimodal_zeroshot", num_topics=3,
                                                  epochs=2, hidden_dim=8, seed=seed))
                        for seed in (0, 1)]

    @staticmethod
    def outputs(model_a, model_b, corpus, n=4):
        """Bytes of every output the three callers write."""
        return (json.dumps(describe_topics(model_a, corpus, n)),
                json.dumps(compute_metric_report(model_a, corpus, n_descriptors=n).to_dict()),
                json.dumps(overlap_report(model_a, model_b, n=n).to_dict()))

    def test_each_array_is_ranked_once(self, models, monkeypatch):
        corpus, (a, b) = models
        calls = []
        real = descriptors_module._rank_rows
        monkeypatch.setattr(descriptors_module, "_rank_rows",
                            lambda scores, n: calls.append(scores.shape) or real(scores, n))
        for _ in range(2):
            self.outputs(a, b, corpus)
            self.outputs(b, a, corpus)
        # beta and doc_topics of each model, at n = 4
        assert sorted(calls) == sorted([(3, 12), (3, 10)] * 2)

    def test_a_replaced_array_is_ranked_anew(self, models):
        corpus, (a, b) = models
        self.outputs(a, b, corpus)
        beta = np.ascontiguousarray(a.topic_word_matrix[::-1, ::-1])
        doc_topics = np.ascontiguousarray(a.doc_topics[::-1])
        a.params["beta"], a.doc_topics = beta, doc_topics
        keywords = topic_keywords(beta, a.vocabulary, 4)
        descriptors = describe_topics(a, corpus, 4)
        assert [d["keywords"] for d in descriptors] == keywords
        assert [[p["doc_id"] for p in d["images"]] for d in descriptors] == \
            [[corpus.ids[i] for i in row] for row in topic_documents(doc_topics, corpus, 4)]
        fresh = TrainedTopicModel(config=a.config, vocabulary=a.vocabulary, params=a.params,
                                  loss_trace=a.loss_trace, doc_topics=doc_topics)
        assert compute_metric_report(a, corpus, n_descriptors=4) == \
            compute_metric_report(fresh, corpus, n_descriptors=4)
        assert overlap_report(a, b, n=4).similarity.tolist() == topic_similarity_matrix(
            keywords, topic_keywords(b.topic_word_matrix, b.vocabulary, 4)).tolist()

    def test_ranked_arrays_cannot_be_written(self, models, tmp_path):
        corpus, (a, b) = models
        loaded = load_model(save_model(a, tmp_path / "a.mmtm"))
        for model in (a, loaded):
            for array in (model.params["beta"], model.doc_topics):
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 1.0
        # A replacement array is frozen when it is ranked.
        a.params["beta"] = a.topic_word_matrix.copy()
        describe_topics(a, corpus, 4)
        with pytest.raises(ValueError, match="read-only"):
            a.params["beta"][0, 0] = 1.0

    def test_a_ranked_model_writes_the_bytes_of_a_fresh_load(self, models, tmp_path):
        corpus, (a, b) = models
        paths = save_model(a, tmp_path / "a.mmtm"), save_model(b, tmp_path / "b.mmtm")
        ranked = [load_model(p) for p in paths]
        first = self.outputs(*ranked, corpus)
        assert self.outputs(*ranked, corpus) == first
        assert self.outputs(*(load_model(p) for p in paths), corpus) == first
