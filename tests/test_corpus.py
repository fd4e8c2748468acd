import dataclasses
import json
import re
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmtopic.corpus import (
    Corpus,
    DatasetFormatError,
    SyntheticSpec,
    TokenIds,
    Vocabulary,
    atomic_write_bytes,
    build_vocabulary,
    generate_synthetic,
    load_corpus,
    load_stopwords,
    preprocess_tokens,
    save_corpus,
)

from conftest import make_corpus
from oracles import bow_reference


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

    # the sidecar file strips each line and skips blank ones, so such a
    # term would not come back from a saved dataset
    @pytest.mark.parametrize("term", ["", " y", "y ", "a b", "a\nb", "\t"])
    def test_term_that_cannot_round_trip_rejected(self, term):
        with pytest.raises(ValueError, match="empty or holds whitespace"):
            Vocabulary.from_terms(["x", term])


TERMS = ("a", "b", "c", "d", "e")


class TestBowMatrix:
    def test_counts_in_vocabulary_tokens(self):
        vocab = Vocabulary.from_terms(["a", "b", "c"])
        corpus = make_corpus([["a", "c", "a", "zzz"]], vocabulary=vocab)
        assert bow_reference(["a", "c", "a", "zzz"], vocab) == [2, 0, 1]
        assert corpus.bow_matrix().tolist() == [[2.0, 0.0, 1.0]]

    @given(st.lists(st.sampled_from(["a", "b", "c", "out"]), max_size=30))
    def test_total_matches_in_vocab_count(self, tokens):
        vocab = Vocabulary.from_terms(["a", "b", "c"])
        # the second document keeps the corpus valid when the first has no
        # in-vocabulary token
        bow = make_corpus([tokens, ["a"]], vocabulary=vocab).bow_matrix()[0]
        assert bow.sum() == sum(1 for t in tokens if t in vocab)
        assert (bow >= 0).all()
        assert bow.tolist() == bow_reference(tokens, vocab)

    @given(docs=st.lists(st.lists(st.sampled_from(TERMS + ("oov", "zzz")), max_size=12),
                         min_size=1, max_size=8),
           terms=st.permutations(TERMS).flatmap(
               lambda p: st.integers(1, len(p)).map(lambda n: p[:n])))
    # an empty document, out-of-vocabulary tokens, a term no document uses
    # ("b") and a vocabulary order (d, b, a, c) unlike frequency order (c, a, d)
    @example(docs=[["a", "oov", "a", "c"], [], ["c", "c", "c", "d", "zzz"]],
             terms=("d", "b", "a", "c"))
    @settings(deadline=None)  # each example writes and reads a dataset
    def test_matches_reference_rows(self, docs, terms):
        vocab = Vocabulary.from_terms(terms)
        if not any(t in vocab for tokens in docs for t in tokens):
            docs = docs + [[terms[0]]]
        built = make_corpus(docs, vocabulary=vocab)
        with tempfile.TemporaryDirectory() as tmp:
            # save_corpus writes the vocabulary as a sidecar file, which
            # load_corpus then reads in place of a frequency build
            loaded = load_corpus(save_corpus(built, Path(tmp) / "c.jsonl"))
        assert loaded.vocabulary.terms == vocab.terms
        expected = [bow_reference(tokens, vocab) for tokens in docs]
        for corpus in (built, loaded):
            bow = corpus.bow_matrix()
            assert bow.dtype == np.float64 and bow.shape == (len(docs), len(terms))
            assert bow.tolist() == expected

    @given(docs=st.lists(st.lists(st.sampled_from(TERMS[:3] + ("oov",)), max_size=6),
                         max_size=6),
           picks=st.lists(st.integers(0, 99), max_size=12),
           bounds=st.none() | st.tuples(st.none() | st.integers(-8, 8),
                                        st.none() | st.integers(-8, 8),
                                        st.sampled_from([None, -2, -1, 1, 2])))
    # repeated positions, an empty document and an out-of-vocabulary token
    @example(docs=[["a", "oov"], [], ["c", "c"]], picks=[2, 0, 2, 1], bounds=None)
    def test_rows_count_only_their_documents(self, docs, picks, bounds):
        vocab = Vocabulary.from_terms(TERMS[:3])
        corpus = make_corpus(docs + [["a"]], vocabulary=vocab)
        n = corpus.num_documents
        # picks become positions, bounds a slice
        rows = np.array(picks, dtype=np.int64) % n if bounds is None else slice(*bounds)
        bow = corpus.bow_matrix(rows)
        assert bow.dtype == np.float64
        assert bow.tolist() == [bow_reference(corpus.tokens[i], vocab)
                                for i in np.arange(n)[rows]]
        np.testing.assert_array_equal(bow, corpus.bow_matrix()[rows])


def columns(corpus, **changes):
    """The keyword arguments that rebuild ``corpus``, with ``changes``."""
    return {"vocabulary": corpus.vocabulary, "ids": corpus.ids, "tokens": corpus.tokens,
            "image_refs": corpus.image_refs, "text_embeddings": corpus.text_embeddings,
            "image_embeddings": corpus.image_embeddings, **changes}


class TestCorpusValidation:
    def test_arrays_frozen_after_construction(self, tiny_corpus):
        with pytest.raises(ValueError):
            tiny_corpus.text_embeddings[0, 0] = 99
        with pytest.raises(ValueError):
            tiny_corpus.image_embeddings[0, 0] = 99

    def test_documents_are_read_only_row_views(self, tiny_corpus):
        assert "documents" not in vars(tiny_corpus)
        docs = tiny_corpus.documents
        assert tiny_corpus.documents is docs and "documents" not in repr(tiny_corpus)
        assert [(d.id, d.tokens, d.image_ref) for d in docs] \
            == list(zip(tiny_corpus.ids, tiny_corpus.tokens, tiny_corpus.image_refs))
        for i, d in enumerate(docs):
            for row, matrix in ((d.text_embedding, tiny_corpus.text_embeddings),
                                (d.image_embedding, tiny_corpus.image_embeddings)):
                assert np.shares_memory(row, matrix)
                assert row.tobytes() == matrix[i].tobytes()
                with pytest.raises(ValueError):
                    row[0] = 99

    @pytest.mark.parametrize("changes,message", [
        (lambda c: {"tokens": c.tokens[:3]}, "one row per id"),
        (lambda c: {"image_refs": c.image_refs + ("img9",)}, "one row per id"),
        (lambda c: {"text_embeddings": c.text_embeddings[:3]}, "one row per id"),
        (lambda c: {"ids": c.ids[:3], "tokens": c.tokens[:3],
                    "image_refs": c.image_refs[:3]}, "one row per id"),
        (lambda c: {"image_embeddings": c.image_embeddings.ravel()},
         "image_embeddings must be a 2-D float64 array"),
        (lambda c: {"text_embeddings": c.text_embeddings.astype(np.float32)},
         "text_embeddings must be a 2-D float64 array"),
        (lambda c: {"text_embeddings": c.text_embeddings.tolist()},
         "text_embeddings must be a 2-D float64 array"),
        (lambda c: {"text_embeddings": np.where(np.eye(4, dtype=bool), np.nan, 0.0)},
         "text_embeddings has non-finite values"),
        (lambda c: {"image_embeddings": np.full((4, 3), -np.inf)},
         "image_embeddings has non-finite values"),
        (lambda c: {"ids": (), "tokens": (), "image_refs": (),
                    "text_embeddings": np.zeros((0, 4)), "image_embeddings": np.zeros((0, 3))},
         "at least one document"),
        (lambda c: {"text_embeddings": np.zeros((4, 0))},
         "text_embeddings must be a 2-D float64 array with at least one column"),
        (lambda c: {"image_embeddings": np.zeros((4, 0))},
         "image_embeddings must be a 2-D float64 array with at least one column"),
    ], ids=["short-tokens", "long-image-refs", "short-text", "short-ids", "1-d-image",
            "float32-text", "list-text", "nan-text", "inf-image", "no-documents",
            "zero-width-text", "zero-width-image"])
    def test_constructor_rejects_malformed_columns(self, tiny_corpus, changes, message):
        with pytest.raises(ValueError, match=message):
            Corpus(**columns(tiny_corpus, **changes(tiny_corpus)))

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

    def test_leading_strings_take_the_first_ids(self, tiny_corpus):
        docs = [("b", "oov", "b"), (), ("a", "oov")]
        ids = TokenIds.from_token_lists(docs, leading=("a", "unused"))
        assert ids.index == {"a": 0, "unused": 1, "b": 2, "oov": 3}
        assert ids.ids.tolist() == [2, 3, 2, 0, 3]
        # a corpus leads with its vocabulary, so a term's id is its column
        terms = tiny_corpus.vocabulary.terms
        assert list(tiny_corpus.token_ids.index)[:len(terms)] == list(terms)

    def test_corpus_builds_once_on_first_use(self, tmp_path, tiny_corpus):
        loaded = load_corpus(save_corpus(tiny_corpus, tmp_path / "c.jsonl"))
        assert "token_ids" not in vars(loaded)
        first = loaded.token_ids
        assert loaded.token_ids is first
        assert loaded == Corpus(**columns(loaded))
        assert "token_ids" not in repr(loaded)

    def test_threads_racing_on_first_use_see_whole_arrays(self, tiny_planted):
        corpus, _ = tiny_planted
        expected = TokenIds.from_token_lists(corpus.token_lists(),
                                             leading=corpus.vocabulary.terms)
        fresh = Corpus(**columns(corpus))
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


class TestAtomicWrite:
    def test_replaces_the_file_and_creates_its_directory(self, tmp_path):
        path = tmp_path / "out" / "a.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert [p.name for p in path.parent.iterdir()] == ["a.bin"]

    def test_failed_write_keeps_previous_file(self, tmp_path, full_disk):
        path = tmp_path / "a.bin"
        path.write_bytes(b"previous contents")
        with pytest.raises(OSError, match="No space"):
            atomic_write_bytes(path, b"new contents that do not fit")
        assert path.read_bytes() == b"previous contents"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]


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

    @pytest.mark.parametrize("token", ["", " y", "a b", "z\n"])
    def test_token_that_cannot_round_trip_rejected(self, tmp_path, token):
        path = self._write(tmp_path, [
            {"id": "a", "tokens": ["x"], "text_embedding": [1.0], "image_embedding": [1.0]},
            {"id": "b", "tokens": ["x", token], "text_embedding": [1.0],
             "image_embedding": [1.0]},
        ])
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"line 2: token {token!r} is empty or holds")):
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
        assert again.bow_matrix().tobytes() == tiny_corpus.bow_matrix().tobytes()
        assert (again.ids, again.tokens, again.image_refs) \
            == (tiny_corpus.ids, tiny_corpus.tokens, tiny_corpus.image_refs)
        for name in ("text_embeddings", "image_embeddings"):
            assert getattr(again, name).tobytes() == getattr(tiny_corpus, name).tobytes()

    def test_same_bytes_at_two_paths_load_equal(self, tmp_path, tiny_corpus):
        first = save_corpus(tiny_corpus, tmp_path / "data.jsonl")
        (tmp_path / "copy").mkdir()
        for path in (first, first.with_name("data.vocab.txt")):
            (tmp_path / "copy" / path.name).write_bytes(path.read_bytes())
        a, b = load_corpus(first), load_corpus(tmp_path / "copy" / "data.jsonl")
        for f in dataclasses.fields(Corpus):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert x.tobytes() == y.tobytes(), f.name
            else:
                assert x == y, f.name

    def test_two_loads_are_equal_and_one_flipped_bit_is_not(self, tmp_path, tiny_corpus):
        path = save_corpus(tiny_corpus, tmp_path / "data.jsonl")
        a, b = load_corpus(path), load_corpus(path)
        assert a == b
        for name in ("text_embeddings", "image_embeddings"):
            flipped = getattr(a, name).copy()
            flipped.view(np.uint64)[1, 0] ^= 1
            assert a != Corpus(**columns(a, **{name: flipped})), name

    @pytest.mark.parametrize("field", ["tokens", "text"])
    def test_each_distinct_token_is_one_object(self, tmp_path, field):
        words = ["ocean", "waves", "ocean", "sand", "waves", "ocean"]
        path = self._write(tmp_path, [
            {"id": str(i), field: words[i:] if field == "tokens" else " ".join(words[i:]),
             "text_embedding": [1.0], "image_embedding": [1.0]} for i in range(4)])
        tokens = [t for doc in load_corpus(path).tokens for t in doc]
        assert len(tokens) == 18
        assert len({id(t) for t in tokens}) == len(set(tokens)) == 3


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
        corpus, planted = generate_synthetic(self.SPEC)
        seen = []
        for t in planted:
            word_ids = [corpus.vocabulary.index[term] for term in t.terms]
            seen.extend(word_ids)
            support = np.flatnonzero(t.word_probs)
            assert sorted(word_ids) == sorted(support.tolist())
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
