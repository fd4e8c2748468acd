import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmtopic.corpus import (
    Corpus,
    DatasetFormatError,
    SyntheticSpec,
    TokenIds,
    Vocabulary,
    build_vocabulary,
    generate_synthetic,
    load_corpus,
    load_stopwords,
    preprocess_tokens,
    save_corpus,
    vectorize,
)

from conftest import make_corpus


class TestPreprocess:
    def test_strips_case_punctuation_digits_and_stopwords(self):
        tokens = preprocess_tokens("The dog, the DOG ran 2 times!", {"the"})
        assert tokens == ["dog", "dog", "ran", "times"]

    def test_digit_bearing_tokens_removed_entirely(self):
        assert preprocess_tokens("room42 is b2b ready", set()) == ["is", "ready"]

    def test_punctuation_only_tokens_vanish(self):
        assert preprocess_tokens("1234 ... ;;", set()) == []

    def test_interior_punctuation_kept(self):
        assert preprocess_tokens("don't stop-me now", set()) == ["don't", "stop-me", "now"]

    def test_bundled_stopword_list_loads(self):
        sw = load_stopwords()
        assert "the" in sw and "and" in sw
        assert preprocess_tokens("The cat and the hat", sw) == ["cat", "hat"]


class TestVocabulary:
    def test_cap_keeps_most_frequent(self):
        vocab = build_vocabulary([["a", "b", "b", "c", "c", "c"]], cap=2)
        assert vocab.terms == ("c", "b")

    def test_frequency_tie_breaks_lexicographically(self):
        vocab = build_vocabulary([["b", "a"]], cap=1)
        assert vocab.terms == ("a",)

    def test_zero_distinct_tokens_rejected(self):
        with pytest.raises(ValueError, match="no distinct tokens"):
            build_vocabulary([[], []])

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Vocabulary.from_terms(["a", "a"])

    def test_vectorize_counts_in_vocabulary_tokens(self):
        vocab = Vocabulary.from_terms(["a", "b", "c"])
        bow = vectorize(["a", "c", "a", "zzz"], vocab)
        assert bow.tolist() == [2, 0, 1]

    @given(st.lists(st.sampled_from(["a", "b", "c", "out"]), max_size=30))
    def test_vectorize_total_matches_in_vocab_count(self, tokens):
        vocab = Vocabulary.from_terms(["a", "b", "c"])
        bow = vectorize(tokens, vocab)
        assert bow.sum() == sum(1 for t in tokens if t in vocab)
        assert (bow >= 0).all()


class TestCorpusValidation:
    def test_bow_must_match_tokens(self, tiny_corpus):
        doc = tiny_corpus.documents[0]
        bad = np.array(doc.bow, copy=True)
        bad[0] += 1
        with pytest.raises(ValueError, match="does not match its tokens"):
            Corpus(vocabulary=tiny_corpus.vocabulary,
                   documents=(doc.__class__(
                       id=doc.id, tokens=doc.tokens, bow=bad,
                       text_embedding=np.array(doc.text_embedding),
                       image_embedding=np.array(doc.image_embedding)),))

    def test_arrays_frozen_after_construction(self, tiny_corpus):
        with pytest.raises(ValueError):
            tiny_corpus.documents[0].bow[0] = 99

    def test_corpus_without_in_vocab_tokens_rejected(self):
        with pytest.raises(ValueError, match="in-vocabulary"):
            make_corpus([["only"]], vocabulary=Vocabulary.from_terms(["other"]))


class TestTokenIds:
    def test_ids_and_offsets_rebuild_every_token(self):
        docs = [("b", "oov", "b"), (), ("a", "oov")]
        ids = TokenIds.from_token_lists(docs)
        assert ids.ids.dtype == np.int32 and ids.offsets.dtype == np.int64
        assert ids.offsets.tolist() == [0, 3, 3, 5]
        assert ids.index == {"b": 0, "oov": 1, "a": 2}
        terms = list(ids.index)
        assert [tuple(terms[i] for i in ids.ids[a:b])
                for a, b in zip(ids.offsets[:-1], ids.offsets[1:])] == docs

    def test_corpus_builds_once_on_first_use(self, tmp_path, tiny_corpus):
        loaded = load_corpus(save_corpus(tiny_corpus, tmp_path / "c.jsonl"))
        assert "token_ids" not in vars(loaded)
        first = loaded.token_ids
        assert loaded.token_ids is first
        assert loaded == Corpus(vocabulary=loaded.vocabulary,
                                documents=loaded.documents, meta=loaded.meta)
        assert "token_ids" not in repr(loaded)

    def test_threads_racing_on_first_use_see_whole_arrays(self, tiny_planted):
        corpus, _ = tiny_planted
        expected = TokenIds.from_token_lists(corpus.token_lists())
        fresh = Corpus(vocabulary=corpus.vocabulary, documents=corpus.documents)
        seen = []
        threads = [threading.Thread(target=lambda: seen.append(fresh.token_ids))
                   for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(seen) == 6
        for ids in seen:
            np.testing.assert_array_equal(ids.ids, expected.ids)
            np.testing.assert_array_equal(ids.offsets, expected.offsets)
            assert ids.index == expected.index
        assert fresh.token_ids in seen


class TestDatasetIO:
    def _write(self, tmp_path, lines, name="data.jsonl"):
        path = tmp_path / name
        path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
        return path

    def test_loads_text_and_tokens_lines(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "a", "text": "Red pandas eat bamboo",
             "text_embedding": [1.0, 2.0], "image_embedding": [0.5],
             "image_ref": "a.jpg"},
            {"id": "b", "tokens": ["bamboo", "forest"],
             "text_embedding": [0.0, 1.0], "image_embedding": [2.0]},
        ])
        corpus = load_corpus(path)
        assert corpus.num_documents == 2
        assert corpus.documents[0].tokens == ("red", "pandas", "eat", "bamboo")
        assert corpus.documents[0].image_ref == "a.jpg"
        assert corpus.documents[1].image_ref is None
        assert corpus.text_dim == 2 and corpus.image_dim == 1

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "tokens": ["x"], "text_embedding": [1.0], '
                        '"image_embedding": [1.0]}\n{broken\n')
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_corpus(path)

    def test_text_and_tokens_together_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "a", "text": "x", "tokens": ["x"],
             "text_embedding": [1.0], "image_embedding": [1.0]},
        ])
        with pytest.raises(DatasetFormatError, match="line 1.*exactly one"):
            load_corpus(path)

    def test_missing_embedding_names_line(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "a", "tokens": ["x"], "text_embedding": [1.0],
             "image_embedding": [1.0]},
            {"id": "b", "tokens": ["y"], "text_embedding": [1.0]},
        ])
        with pytest.raises(DatasetFormatError, match="line 2.*image_embedding"):
            load_corpus(path)

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "a", "tokens": ["x"], "text_embedding": [1.0, 2.0],
             "image_embedding": [1.0]},
            {"id": "b", "tokens": ["x"], "text_embedding": [1.0],
             "image_embedding": [1.0]},
        ])
        with pytest.raises(DatasetFormatError, match="line 2.*dimension 1.*expected 2"):
            load_corpus(path)

    def test_non_finite_embedding_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "a", "tokens": ["x"], "text_embedding": [float("nan")],
             "image_embedding": [1.0]},
        ])
        with pytest.raises(DatasetFormatError, match="line 1.*non-finite"):
            load_corpus(path)

    def test_sidecar_vocab_pins_vocabulary(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "a", "tokens": ["x", "y"], "text_embedding": [1.0],
             "image_embedding": [1.0]},
        ])
        (tmp_path / "data.vocab.txt").write_text("y\nx\nunused\n")
        corpus = load_corpus(path)
        assert corpus.vocabulary.terms == ("y", "x", "unused")

    def test_round_trip_is_bit_identical(self, tmp_path, tiny_corpus):
        path = save_corpus(tiny_corpus, tmp_path / "out.jsonl")
        again = load_corpus(path)
        assert again.vocabulary.terms == tiny_corpus.vocabulary.terms
        for before, after in zip(tiny_corpus.documents, again.documents):
            assert before.id == after.id
            assert before.tokens == after.tokens
            assert np.array_equal(before.bow, after.bow)
            assert before.text_embedding.tobytes() == after.text_embedding.tobytes()
            assert before.image_embedding.tobytes() == after.image_embedding.tobytes()


class TestSyntheticGenerator:
    SPEC = SyntheticSpec(num_topics_true=5, vocab_size=200, docs=400, doc_length=30,
                         embed_dim_text=8, embed_dim_image=8,
                         topic_word_concentration=0.5, embedding_noise=0.0, seed=3)

    def test_deterministic_per_seed(self):
        c1, p1 = generate_synthetic(self.SPEC)
        c2, p2 = generate_synthetic(self.SPEC)
        assert c1.documents[5].tokens == c2.documents[5].tokens
        assert np.array_equal(c1.documents[5].image_embedding,
                              c2.documents[5].image_embedding)
        assert np.array_equal(p1[0].word_probs, p2[0].word_probs)

    def test_zero_noise_embeddings_sit_on_centroid_mixtures(self):
        corpus, planted = generate_synthetic(self.SPEC)
        mixtures = np.stack([t.doc_weights for t in planted], axis=1)
        image_centroids = np.stack([t.image_centroid for t in planted])
        for i in (0, 17, 123):
            expected = mixtures[i] @ image_centroids
            expected /= np.linalg.norm(expected)
            assert np.max(np.abs(expected - corpus.documents[i].image_embedding)) < 1e-12

    def test_pure_mixture_gives_exact_centroid(self):
        spec = SyntheticSpec(num_topics_true=2, vocab_size=10, docs=300, doc_length=8,
                             embed_dim_text=4, embed_dim_image=4,
                             embedding_noise=0.0, seed=9)
        corpus, planted = generate_synthetic(spec)
        mixtures = np.stack([t.doc_weights for t in planted], axis=1)
        purest = int(np.argmax(mixtures[:, 0]))
        if mixtures[purest, 0] > 1 - 1e-9:
            np.testing.assert_allclose(corpus.documents[purest].image_embedding,
                                       planted[0].image_centroid, atol=1e-9)

    def test_word_blocks_disjoint_and_cover_vocabulary(self):
        _, planted = generate_synthetic(self.SPEC)
        seen = []
        for t in planted:
            seen.extend(t.word_ids)
            support = np.flatnonzero(t.word_probs)
            assert sorted(t.word_ids) == sorted(support.tolist())
        assert sorted(seen) == list(range(self.SPEC.vocab_size))

    def test_top_words_by_empirical_frequency_stay_in_block(self):
        # Counting oracle: within the documents dominated by one planted
        # topic, the 20 most frequent terms must come from its word block.
        corpus, planted = generate_synthetic(self.SPEC)
        mixtures = np.stack([t.doc_weights for t in planted], axis=1)
        dominant = np.argmax(mixtures, axis=1)
        for t in planted:
            counts = {}
            for i in np.flatnonzero(dominant == t.index):
                if mixtures[i, t.index] < 0.9:
                    continue  # only clearly dominated documents
                for token in corpus.documents[i].tokens:
                    counts[token] = counts.get(token, 0) + 1
            top = sorted(counts, key=lambda w: (-counts[w], w))[:20]
            assert set(top) <= set(t.terms)

    def test_vocab_smaller_than_topics_rejected(self):
        with pytest.raises(ValueError, match="vocab_size"):
            SyntheticSpec(num_topics_true=10, vocab_size=5, docs=10, doc_length=5,
                          embed_dim_text=2, embed_dim_image=2)

    def test_round_trips_through_dataset_format(self, tmp_path):
        corpus, _ = generate_synthetic(self.SPEC)
        path = save_corpus(corpus, tmp_path / "synthetic.jsonl")
        again = load_corpus(path)
        assert len(again.vocabulary) == self.SPEC.vocab_size
        assert again.documents[7].text_embedding.tobytes() \
            == corpus.documents[7].text_embedding.tobytes()
