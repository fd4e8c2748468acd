import dataclasses
import json
import logging
import os
import re
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmtopic.corpus
from mmtopic import ModelConfig, compute_metric_report, describe_topics, train
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
from oracles import bow_reference, vocabulary_reference

encode = TokenIds.from_token_lists


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
        vocab = build_vocabulary(encode([["a", "b", "b", "c", "c", "c"]]), cap=2)
        assert vocab.terms == ("c", "b")

    def test_frequency_tie_breaks_lexicographically(self):
        vocab = build_vocabulary(encode([["b", "a"]]), cap=1)
        assert vocab.terms == ("a",)

    def test_zero_distinct_tokens_rejected(self):
        with pytest.raises(ValueError, match="no distinct tokens"):
            build_vocabulary(encode([[], []]))

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="cap must be >= 1, got 0"):
            build_vocabulary(encode([["a"]]), cap=0)

    # few distinct tokens over many draws, so counts tie often; a leading
    # table entry no document uses is not counted
    @given(docs=st.lists(st.lists(st.sampled_from(["b", "a", "ab", "c", "\u00e9", "B"]),
                                  max_size=8), min_size=1, max_size=6),
           cap=st.integers(1, 7), leading=st.sampled_from([(), ("unused",), ("c", "a")]))
    @example(docs=[["b", "a", "c", "c"], ["a", "b"]], cap=2, leading=("c",))
    def test_matches_a_counter_over_the_tokens(self, docs, cap, leading):
        expected = vocabulary_reference(docs, cap)
        if not expected:
            with pytest.raises(ValueError, match="no distinct tokens"):
                build_vocabulary(encode(docs, leading=leading), cap=cap)
        else:
            assert build_vocabulary(encode(docs, leading=leading), cap=cap).terms == expected

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

    @given(docs=st.lists(st.lists(st.sampled_from(TERMS[:3] + ("oov", "zzz")), max_size=6),
                         max_size=9),
           batch=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    # a final short batch, a document of only out-of-vocabulary tokens and
    # out-of-vocabulary tokens mixed into documents
    @example(docs=[["a", "oov", "a", "c"], ["oov", "zzz"], ["c", "zzz", "c"], ["b"], []],
             batch=4, seed=0)
    def test_codes_count_each_batch_as_bow_matrix(self, docs, batch, seed):
        # Training codes a permuted run of documents once, places modulo the
        # batch size, and counts each batch's slice of the codes.
        vocab = Vocabulary.from_terms(TERMS[:3])
        corpus = make_corpus(docs + [["a"]], vocabulary=vocab)
        order = np.random.default_rng(seed).permutation(corpus.num_documents)
        codes, bounds = corpus._bow_codes(order, batch)
        assert bounds.tolist() == [0, *np.cumsum([sum(t in vocab for t in corpus.tokens[i])
                                                  for i in order])]
        for start in range(0, order.size, batch):
            rows = order[start:start + batch]
            counts = corpus._bow_counts(codes[bounds[start]:bounds[start + rows.size]], rows.size)
            assert counts.dtype == np.float64
            assert counts.tobytes() == corpus.bow_matrix(rows).tobytes()


def columns(corpus, **changes):
    """The keyword arguments that rebuild ``corpus``, with ``changes``."""
    return {"vocabulary": corpus.vocabulary, "ids": corpus.ids, "token_ids": corpus.token_ids,
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
        (lambda c: {"token_ids": encode(c.tokens[:3])}, "one row per id"),
        (lambda c: {"image_refs": c.image_refs + ("img9",)}, "one row per id"),
        (lambda c: {"text_embeddings": c.text_embeddings[:3]}, "one row per id"),
        (lambda c: {"ids": c.ids[:3], "token_ids": encode(c.tokens[:3]),
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
        (lambda c: {"ids": (), "token_ids": encode([]), "image_refs": (),
                    "text_embeddings": np.zeros((0, 4)), "image_embeddings": np.zeros((0, 3))},
         "at least one document"),
        (lambda c: {"text_embeddings": np.zeros((4, 0))},
         "text_embeddings must be a 2-D float64 array with at least one column"),
        (lambda c: {"image_embeddings": np.zeros((4, 0))},
         "image_embeddings must be a 2-D float64 array with at least one column"),
        (lambda c: {"ids": ("d", "d") + c.ids[2:]}, "ids must be distinct strings"),
        (lambda c: {"ids": tuple(range(4))}, "ids must be distinct strings"),
        (lambda c: {"image_refs": (3,) + c.image_refs[1:]}, "image ref must be a string or None"),
        (lambda c: {"image_refs": (b"img",) + c.image_refs[1:]},
         "image ref must be a string or None"),
        (lambda c: {"token_ids": encode([("a b", "apple"), *c.tokens[1:]])},
         "token 'a b' is empty or holds whitespace"),
        (lambda c: {"token_ids": encode(c.tokens[:3] + (("apple", ""),))},
         "token '' is empty or holds whitespace"),
        # the rule covers the whole table, a token no document uses included
        (lambda c: {"token_ids": encode(c.tokens, leading=c.vocabulary.terms + ("\t",))},
         r"token '\\t' is empty or holds whitespace"),
    ], ids=["short-tokens", "long-image-refs", "short-text", "short-ids", "1-d-image",
            "float32-text", "list-text", "nan-text", "inf-image", "no-documents",
            "zero-width-text", "zero-width-image", "repeated-id", "int-ids", "int-image-ref",
            "bytes-image-ref", "spaced-token", "empty-token", "unused-tab-token"])
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

    @pytest.mark.parametrize("change,message", [
        ({"ids": np.array([0, 1], dtype=np.int64)}, "1-D int32 array"),
        ({"ids": np.zeros((1, 2), dtype=np.int32)}, "1-D int32 array"),
        ({"ids": [0, 1]}, "1-D int32 array"),
        ({"offsets": np.array([0, 2], dtype=np.int32)}, "1-D int64 array"),
        ({"offsets": np.zeros(0, dtype=np.int64)}, "rising from 0 to the token count"),
        ({"offsets": np.array([1, 2], dtype=np.int64)}, "rising from 0 to the token count"),
        ({"offsets": np.array([0, 1], dtype=np.int64)}, "rising from 0 to the token count"),
        ({"offsets": np.array([0, 3, 2], dtype=np.int64)}, "rising from 0 to the token count"),
        ({"ids": np.array([0, -1], dtype=np.int32)}, "outside the token table"),
        ({"ids": np.array([0, 2], dtype=np.int32)}, "outside the token table"),
        ({"index": {"a": 1, "b": 1}}, "not its place in the table"),
        ({"index": {"b": 1, "a": 0}}, "not its place in the table"),
    ], ids=["int64-ids", "2-d-ids", "list-ids", "int32-offsets", "no-offsets",
            "offsets-not-from-0", "offsets-short-of-the-end", "offsets-not-monotone",
            "negative-id", "id-past-the-table", "repeated-id-in-index", "index-out-of-order"])
    def test_constructor_rejects_malformed_arrays(self, change, message):
        columns = {"ids": np.array([0, 1], dtype=np.int32),
                   "offsets": np.array([0, 2], dtype=np.int64), "index": {"a": 0, "b": 1}}
        with pytest.raises(ValueError, match=message):
            TokenIds(**{**columns, **change})
        built = TokenIds(**columns)
        assert not built.ids.flags.writeable and not built.offsets.flags.writeable

    # the canonical table (terms, then the rest by first appearance) is kept
    # as given; any other encoding of the same tokens is re-encoded to it
    @pytest.mark.parametrize("leading,kept", [
        (("apple", "banana", "cherry"), True), ((), False), (("apple",), False),
        (("apple", "banana", "cherry", "zzz"), False),
        (("apple", "banana", "cherry", "oov2", "oov1"), False),
        (("banana", "apple", "cherry"), False)],
        ids=["canonical", "first-appearance", "terms-cut-short", "unused-entry",
             "rest-out-of-order", "terms-out-of-order"])
    def test_any_encoding_of_the_tokens_gives_one_corpus(self, leading, kept):
        docs = [("cherry", "oov1", "apple"), ("oov2", "banana", "oov1")]
        expected = make_corpus(docs, vocabulary=Vocabulary.from_terms(("apple", "banana",
                                                                          "cherry")))
        given = encode(docs, leading=leading)
        built = Corpus(**columns(expected, token_ids=given))
        assert (built.token_ids is given) == kept
        assert list(built.token_ids.index) == ["apple", "banana", "cherry", "oov1", "oov2"]
        assert built.token_ids.ids.tolist() == [2, 3, 0, 4, 1, 3]
        assert built == expected and built.tokens == tuple(docs)

    def test_corpus_builds_once_on_first_use(self, tmp_path, tiny_corpus):
        loaded = load_corpus(save_corpus(tiny_corpus, tmp_path / "c.jsonl"))
        assert "tokens" not in vars(loaded)
        first = loaded.tokens
        assert loaded.tokens is first and first == tiny_corpus.tokens
        assert loaded == Corpus(**columns(loaded))
        assert "tokens" not in repr(loaded)

    def test_threads_racing_on_first_use_see_whole_arrays(self, tiny_planted):
        corpus, _ = tiny_planted
        expected = corpus.token_ids.decode()
        fresh = Corpus(**columns(corpus))
        seen = []
        threads = [threading.Thread(target=lambda: seen.append(fresh.tokens))
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
        assert all(tokens == expected for tokens in seen)
        assert any(tokens is fresh.tokens for tokens in seen)


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


@pytest.fixture
def parses(monkeypatch):
    """The path of each JSON-lines parse that ``load_corpus`` makes."""
    seen, parse = [], mmtopic.corpus._parse_dataset
    monkeypatch.setattr(mmtopic.corpus, "_parse_dataset",
                        lambda path, stopwords: seen.append(path) or parse(path, stopwords))
    return seen


def load_corpus_via(path, source, **kwargs):
    """Load ``path`` once, or for the ``second`` load twice (the first
    writes the columns file when it is missing), and check that both agree."""
    first = load_corpus(path, **kwargs)
    if source != "second":
        return first
    second = load_corpus(path, **kwargs)
    assert second == first
    return second


def write_lines(tmp_path, lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
    return path


class TestDatasetIO:
    def test_loads_text_and_tokens_lines(self, tmp_path):
        path = write_lines(tmp_path, [
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
        path = write_lines(tmp_path, [
            {"id": "a", "text": "x", "tokens": ["x"],
             "text_embedding": [1.0], "image_embedding": [1.0]},
        ])
        with pytest.raises(DatasetFormatError, match="line 1.*exactly one"):
            load_corpus(path)

    def test_missing_embedding_names_line(self, tmp_path):
        path = write_lines(tmp_path, [
            {"id": "a", "tokens": ["x"], "text_embedding": [1.0],
             "image_embedding": [1.0]},
            {"id": "b", "tokens": ["y"], "text_embedding": [1.0]},
        ])
        with pytest.raises(DatasetFormatError, match="line 2.*image_embedding"):
            load_corpus(path)

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = write_lines(tmp_path, [
            {"id": "a", "tokens": ["x"], "text_embedding": [1.0, 2.0],
             "image_embedding": [1.0]},
            {"id": "b", "tokens": ["x"], "text_embedding": [1.0],
             "image_embedding": [1.0]},
        ])
        with pytest.raises(DatasetFormatError, match="line 2.*dimension 1.*expected 2"):
            load_corpus(path)

    def test_non_finite_embedding_rejected(self, tmp_path):
        path = write_lines(tmp_path, [
            {"id": "a", "tokens": ["x"], "text_embedding": [float("nan")],
             "image_embedding": [1.0]},
        ])
        with pytest.raises(DatasetFormatError, match="line 1.*non-finite"):
            load_corpus(path)

    @pytest.mark.parametrize("token", ["", " y", "a b", "z\n"])
    def test_token_that_cannot_round_trip_rejected(self, tmp_path, token):
        path = write_lines(tmp_path, [
            {"id": "a", "tokens": ["x"], "text_embedding": [1.0], "image_embedding": [1.0]},
            {"id": "b", "tokens": ["x", token], "text_embedding": [1.0],
             "image_embedding": [1.0]},
        ])
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"line 2: token {token!r} is empty or holds")):
            load_corpus(path)

    def test_sidecar_vocab_pins_vocabulary(self, tmp_path):
        path = write_lines(tmp_path, [
            {"id": "a", "tokens": ["x", "y"], "text_embedding": [1.0],
             "image_embedding": [1.0]},
        ])
        (tmp_path / "data.vocab.txt").write_text("y\nx\nunused\n")
        corpus = load_corpus(path)
        assert corpus.vocabulary.terms == ("y", "x", "unused")

    @pytest.mark.parametrize("source", ["save", "first", "second"])
    def test_round_trip_is_bit_identical(self, tmp_path, tiny_corpus, parses, source):
        path = save_corpus(tiny_corpus, tmp_path / "out.jsonl")
        if source != "save":  # the first load then parses and writes the columns file
            path.with_name("out.columns.npz").unlink()
        again = load_corpus_via(path, source)
        assert len(parses) == (source != "save")
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
            if isinstance(x, TokenIds):
                x, y = ((list(t.index.items()), t.ids.tobytes(), t.offsets.tobytes())
                        for t in (x, y))
            if isinstance(x, np.ndarray):
                assert x.tobytes() == y.tobytes(), f.name
            else:
                assert x == y, f.name

    def test_two_loads_are_equal_and_one_flipped_bit_is_not(self, tmp_path, tiny_corpus):
        path = save_corpus(tiny_corpus, tmp_path / "data.jsonl")
        a, b = load_corpus(path), load_corpus(path)
        assert a == b and a.fingerprint == b.fingerprint
        changes = {}
        for name in ("text_embeddings", "image_embeddings"):
            flipped = getattr(a, name).copy()
            flipped.view(np.uint64)[1, 0] ^= 1
            changes[name] = {name: flipped}
        tokens = list(a.tokens)
        tokens[2] = tokens[2][:-1] + ("oov",)
        changes.update({
            "vocabulary": {"vocabulary": Vocabulary.from_terms(a.vocabulary.terms[::-1])},
            "ids": {"ids": ("d0", "d1", "d2", "d4")},
            "tokens": {"token_ids": encode(tokens)},
            "token order": {"token_ids": encode((a.tokens[0][::-1],) + a.tokens[1:])},
            "image_refs": {"image_refs": a.image_refs[:3] + (None,)},
            "text width": {"text_embeddings": np.hstack([a.text_embeddings,
                                                         a.text_embeddings[:, :1]])},
        })
        for what, change in changes.items():
            other = Corpus(**columns(a, **change))
            assert a != other and a.fingerprint != other.fingerprint, what

    @pytest.mark.parametrize("source", ["save", "first", "second"])
    def test_fingerprint_survives_a_round_trip(self, tmp_path, source):
        built, _ = generate_synthetic(SyntheticSpec(
            num_topics_true=3, vocab_size=40, docs=30, doc_length=9, embed_dim_text=5,
            embed_dim_image=3, embedding_noise=0.1, seed=2))
        path = save_corpus(built, tmp_path / "synthetic.jsonl")
        if source != "save":
            path.with_name("synthetic.columns.npz").unlink()
        loaded = load_corpus_via(path, source)
        fingerprint = built.fingerprint
        assert len(fingerprint) == 64 and int(fingerprint, 16) >= 0
        assert loaded.fingerprint == fingerprint and loaded == built
        # the digest names values, not how the arrays are laid out in memory
        fortran = Corpus(**columns(built, text_embeddings=np.asfortranarray(
            built.text_embeddings)))
        assert fortran.fingerprint == fingerprint

    # ids and image refs as drawn; tokens only ones a dataset line can hold
    @given(rows=st.lists(st.tuples(
        st.text("ab", max_size=2), st.lists(st.sampled_from(TERMS + ("oov",)), max_size=4),
        st.none() | st.text("xy\u00e9", max_size=2),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3)),
        min_size=1, max_size=5))
    # a repeated id, a null and an empty image ref, an empty document
    @example(rows=[("d", ["a"], None, [0.5, -1.0, 2.0]), ("d", [], "", [0.0, 1e300, -0.0])])
    @settings(deadline=None)  # each example writes and reads a dataset
    def test_every_accepted_corpus_loads_back_through_both_paths(self, rows):
        ids, tokens, refs, embeddings = zip(*rows)
        try:
            built = Corpus(vocabulary=Vocabulary.from_terms(TERMS), ids=ids,
                           token_ids=encode(tokens), image_refs=refs,
                           text_embeddings=np.array(embeddings)[:, :2],
                           image_embeddings=np.array(embeddings)[:, 2:])
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = save_corpus(built, Path(tmp) / "c.jsonl")
            assert load_corpus(path) == built  # through the columns file
            path.with_name("c.columns.npz").unlink()
            assert load_corpus(path) == built  # parsed

    @pytest.mark.parametrize("line,message", [
        (b'["a", "b"]', "line 2: expected a JSON object"),
        (b'{"tokens": ["x"], "text_embedding": [1.0], "image_embedding": [1.0]}',
         "line 2: missing required field 'id'"),
        (b'{"id": "b", "tokens": "x y", "text_embedding": [1.0], "image_embedding": [1.0]}',
         "line 2: 'tokens' must be a list of strings"),
        (b'{"id": "b", "tokens": ["x", 3], "text_embedding": [1.0], "image_embedding": [1.0]}',
         "line 2: 'tokens' must be a list of strings"),
        (b'{"id": "b", "tokens": ["x"], "text_embedding": ["one"], "image_embedding": [1.0]}',
         "line 2: field 'text_embedding' is not a numeric array"),
        (b'{"id": "b", "tokens": ["x"], "text_embedding": [1.0], "image_embedding": [[1.0]]}',
         "line 2: field 'image_embedding' must be a non-empty flat array"),
        (b'{"id": "b", "tokens": ["x"], "text_embedding": [], "image_embedding": [1.0]}',
         "line 2: field 'text_embedding' must be a non-empty flat array"),
        (b'{"id": "b", "text": "caf\xff", "text_embedding": [1.0], "image_embedding": [1.0]}',
         "line 2: not UTF-8"),
        (b'{"id": 7, "tokens": ["x"], "text_embedding": [1.0], "image_embedding": [1.0]}',
         "line 2: field 'id' must be a JSON string"),
        (b'{"id": null, "tokens": ["x"], "text_embedding": [1.0], "image_embedding": [1.0]}',
         "line 2: field 'id' must be a JSON string"),
        (b'{"id": ["b"], "tokens": ["x"], "text_embedding": [1.0], "image_embedding": [1.0]}',
         "line 2: field 'id' must be a JSON string"),
        (b'{"id": "b", "text": ["big", "dogs"], "text_embedding": [1.0], '
         b'"image_embedding": [1.0]}',
         "line 2: field 'text' must be a JSON string"),
        (b'{"id": "b", "text": null, "text_embedding": [1.0], "image_embedding": [1.0]}',
         "line 2: field 'text' must be a JSON string"),
        (b'{"id": "b", "tokens": ["x"], "text_embedding": [1.0], "image_embedding": [1.0], '
         b'"image_ref": {"a": 1}}',
         "line 2: field 'image_ref' must be a JSON string or null"),
        (b'{"id": "b", "tokens": ["x"], "text_embedding": [1.0], "image_embedding": [1.0], '
         b'"image_ref": true}',
         "line 2: field 'image_ref' must be a JSON string or null"),
        (b'{"id": "b", "tokens": ["x"], "text_embedding": ["0.5", "1.5"], '
         b'"image_embedding": [1.0]}',
         "line 2: field 'text_embedding' is not a numeric array"),
        (b'{"id": "b", "tokens": ["x"], "text_embedding": [1.0], '
         b'"image_embedding": [true, false]}',
         "line 2: field 'image_embedding' is not a numeric array"),
        (b'{"id": "b", "tokens": ["x"], "text_embedding": [1.5, true], '
         b'"image_embedding": [1.0]}',
         "line 2: field 'text_embedding' is not a numeric array"),
        (b'{"id": "b", "tokens": ["x"], "text_embedding": [1.0], '
         b'"image_embedding": [true, 1]}',
         "line 2: field 'image_embedding' is not a numeric array"),
    ], ids=["not-an-object", "no-id", "tokens-string", "tokens-int", "non-numeric-embedding",
            "nested-embedding", "empty-embedding", "not-utf8", "id-int", "id-null", "id-list",
            "text-list", "text-null", "image-ref-object", "image-ref-bool",
            "numeric-string-embedding", "boolean-embedding", "boolean-in-float-embedding",
            "boolean-in-int-embedding"])
    def test_malformed_line_names_it(self, tmp_path, line, message):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b'{"id": "a", "tokens": ["x"], "text_embedding": [1.0], '
                         b'"image_embedding": [1.0]}\n' + line + b"\n")
        with pytest.raises(DatasetFormatError, match=re.escape(message)):
            load_corpus(path)

    def test_dataset_of_blank_lines_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("\n  \n\n")
        with pytest.raises(DatasetFormatError, match="dataset contains no documents"):
            load_corpus(path)

    def test_generic_vocab_txt_pins_vocabulary_unless_a_stem_sidecar_does(self, tmp_path):
        path = write_lines(tmp_path, [
            {"id": "a", "tokens": ["x", "y"], "text_embedding": [1.0],
             "image_embedding": [1.0]},
        ])
        (tmp_path / "vocab.txt").write_text("x\nunused\n")
        assert load_corpus(path).vocabulary.terms == ("x", "unused")
        (tmp_path / "data.vocab.txt").write_text("y\n")
        assert load_corpus(path).vocabulary.terms == ("y",)

    @pytest.mark.parametrize("field,source", [
        ("tokens", "first"), ("text", "first"), ("tokens", "second"), ("text", "second")],
        ids=["tokens", "text", "tokens-second", "text-second"])
    def test_each_distinct_token_is_one_object(self, tmp_path, parses, field, source):
        words = ["ocean", "waves", "ocean", "sand", "waves", "ocean"]
        path = write_lines(tmp_path, [
            {"id": str(i), field: words[i:] if field == "tokens" else " ".join(words[i:]),
             "text_embedding": [1.0], "image_embedding": [1.0]} for i in range(4)])
        tokens = [t for doc in load_corpus_via(path, source).tokens for t in doc]
        assert len(parses) == 1
        assert len(tokens) == 18
        assert len({id(t) for t in tokens}) == len(set(tokens)) == 3


def rewrite_columns(path, record_changes=None, **arrays):
    """Rewrite a columns file with some arrays replaced (``None`` drops
    one) and, if given, some of its record's keys changed."""
    with np.load(path) as stored:
        kept = dict(stored)
    if record_changes is not None:
        record = {**json.loads(kept["record"].tobytes()), **record_changes}
        kept["record"] = np.frombuffer(json.dumps(record).encode(), dtype=np.uint8)
    kept.update(arrays)
    np.savez(path, **{name: a for name, a in kept.items() if a is not None})


def shifted_offsets(offsets, at, by):
    changed = offsets.copy()
    changed[at] += by
    return changed


class TestColumnsFile:
    """``<stem>.columns.npz`` stands in for the JSON lines only when its
    record matches them; anything else sends ``load_corpus`` back to
    parsing, which rewrites the file."""

    @pytest.fixture
    def saved(self, tmp_path, tiny_corpus):
        path = save_corpus(tiny_corpus, tmp_path / "data.jsonl")
        return path, path.with_name("data.columns.npz")

    def test_save_writes_the_file_that_the_next_load_reads(self, saved, tiny_corpus, parses):
        path, stored = saved
        assert stored.exists()
        assert load_corpus(path) == tiny_corpus
        assert parses == []

    def test_the_file_stores_the_corpus_token_ids(self, tmp_path, parses):
        # The corpus's own encoding, vocabulary terms first, goes to the file;
        # a file of the earlier layout, its distinct tokens in order of first
        # appearance, decodes to the same corpus.
        corpus = make_corpus([["lime", "kiwi", "oov"], ["kiwi", "fig"]],
                             vocabulary=Vocabulary.from_terms(["kiwi", "lime", "fig", "unused"]))
        path = save_corpus(corpus, tmp_path / "data.jsonl")
        stored = path.with_name("data.columns.npz")
        with np.load(stored) as arrays:
            assert json.loads(arrays["record"].tobytes())["table"] \
                == ["kiwi", "lime", "fig", "unused", "oov"]
            assert arrays["token_ids"].tolist() == corpus.token_ids.ids.tolist()
        first_seen = TokenIds.from_token_lists(corpus.tokens)
        assert list(first_seen.index) == ["lime", "kiwi", "oov", "fig"]
        rewrite_columns(stored, record_changes={"table": list(first_seen.index)},
                        token_ids=first_seen.ids, offsets=first_seen.offsets)
        via_columns = load_corpus(path)
        assert parses == []
        stored.unlink()
        assert via_columns == load_corpus(path) == corpus and len(parses) == 1

    def test_a_table_the_corpus_encodes_anew_is_written_back(self, tmp_path, parses,
                                                              monkeypatch):
        corpus = make_corpus([["lime", "kiwi", "oov"], ["kiwi", "fig"]],
                             vocabulary=Vocabulary.from_terms(["kiwi", "lime", "fig", "unused"]))
        path = save_corpus(corpus, tmp_path / "data.jsonl")
        stored = path.with_name("data.columns.npz")

        def contents():
            with np.load(stored) as arrays:
                return {name: arrays[name].tobytes() for name in arrays.files}
        saved = contents()
        first_seen = TokenIds.from_token_lists(corpus.token_ids.decode())
        rewrite_columns(stored, record_changes={"table": list(first_seen.index)},
                        token_ids=first_seen.ids, offsets=first_seen.offsets)
        assert contents() != saved
        assert load_corpus(path) == corpus and contents() == saved
        encodes, real_encode = [], TokenIds.from_token_lists.__func__

        def counted_encode(cls, *args, **kwargs):
            encodes.append(args)
            return real_encode(cls, *args, **kwargs)
        monkeypatch.setattr(TokenIds, "from_token_lists", classmethod(counted_encode))
        assert load_corpus(path) == corpus and encodes == [] and parses == []

    def test_training_and_scoring_decode_no_token_strings(self, tmp_path, tiny_planted, parses):
        path = save_corpus(tiny_planted[0], tmp_path / "planted.jsonl")
        corpus = load_corpus(path)
        model = train(corpus, ModelConfig(kind="multimodal_contrast", num_topics=3, epochs=1,
                                          hidden_dim=8))
        compute_metric_report(model, corpus, n_descriptors=5)
        describe_topics(model, corpus, 5)
        assert parses == [] and corpus == tiny_planted[0]
        assert "tokens" not in vars(corpus) and "documents" not in vars(corpus)

    def test_save_decodes_no_token_strings_onto_the_corpus(self, tmp_path, tiny_planted):
        corpus = Corpus(**columns(tiny_planted[0]))
        path = save_corpus(corpus, tmp_path / "planted.jsonl")
        assert "tokens" not in vars(corpus) and "documents" not in vars(corpus)
        assert load_corpus(path).tokens == corpus.tokens

    def test_one_byte_edit_of_the_dataset_parses_again(self, saved, tiny_corpus, parses):
        path, _ = saved
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"id": "d1"', b'"id": "e1"'))
        edited = load_corpus(path)
        assert len(parses) == 1
        assert edited.ids == ("d0", "e1", "d2", "d3")
        assert edited == Corpus(**columns(tiny_corpus, ids=edited.ids))
        assert load_corpus(path) == edited and len(parses) == 1  # rewritten

    def test_other_stopwords_parse_a_text_dataset_again(self, tmp_path, parses):
        path = write_lines(tmp_path, [
            {"id": "a", "text": "the red fox and the dog",
             "text_embedding": [1.0], "image_embedding": [1.0]}])
        assert load_corpus(path, stopwords=frozenset({"the"})).tokens \
            == (("red", "fox", "and", "dog"),)
        assert load_corpus(path, stopwords=frozenset({"and"})).tokens \
            == (("the", "red", "fox", "the", "dog"),)
        assert len(parses) == 2
        load_corpus(path, stopwords=frozenset({"and"}))
        assert len(parses) == 2

    def test_stopwords_do_not_bind_a_tokens_dataset(self, saved, tiny_corpus, parses):
        path, _ = saved
        assert load_corpus(path, stopwords=frozenset({"apple"})) == tiny_corpus
        assert parses == []

    @pytest.mark.parametrize("damage", [
        "truncated", "not a zip", "foreign", "no offsets", "record not uint8",
        "record not an object", "other version", "negative token id",
        "token id past the table", "offsets not monotone", "offsets not from 0",
        "offsets short of the end", "int64 token ids", "float32 embeddings",
        "too few offsets", "NaN embedding", "integer in the table", "integer ids",
        "integer image refs", "image refs not a list", "repeated token in the table",
        "spaced token in the table"])
    def test_damaged_file_parses_again(self, saved, tiny_corpus, parses, damage, caplog):
        path, stored = saved
        with np.load(stored) as arrays:
            token_ids, offsets = arrays["token_ids"], arrays["offsets"]
            text = arrays["text_embeddings"].copy()
            record = json.loads(arrays["record"].tobytes())
        text[0, 0] = np.nan
        if damage == "truncated":
            stored.write_bytes(stored.read_bytes()[:stored.stat().st_size // 2])
        elif damage == "not a zip":
            stored.write_bytes(b"not an npz file")
        elif damage == "foreign":
            np.savez(stored, a=np.arange(3))
        else:
            rewrite_columns(stored, **{
                "no offsets": {"offsets": None},
                "record not uint8": {"record": np.frombuffer(
                    json.dumps(record).encode(), dtype=np.int8)},
                "record not an object": {"record": np.frombuffer(b"[1]", dtype=np.uint8)},
                "other version": {"record_changes": {"version": 0}},
                "negative token id": {"token_ids": np.where(token_ids == 0, -1, token_ids)
                                      .astype(np.int32)},
                "token id past the table": {"token_ids": np.where(
                    token_ids == 0, len(record["table"]), token_ids).astype(np.int32)},
                "offsets not monotone": {"offsets": shifted_offsets(offsets, 1, 4)},
                "offsets not from 0": {"offsets": shifted_offsets(offsets, 0, 1)},
                "offsets short of the end": {"offsets": shifted_offsets(offsets, -1, -1)},
                "int64 token ids": {"token_ids": token_ids.astype(np.int64)},
                "float32 embeddings": {"text_embeddings": text.astype(np.float32)},
                "too few offsets": {"offsets": offsets[:-1]},
                "NaN embedding": {"text_embeddings": text},
                "integer in the table": {"record_changes": {"table": [7, *record["table"][1:]]}},
                "integer ids": {"record_changes": {"ids": list(range(len(record["ids"])))}},
                "integer image refs": {"record_changes": {
                    "image_refs": [None, *range(1, len(record["image_refs"]))]}},
                "image refs not a list": {"record_changes": {"image_refs": "img0"}},
                "repeated token in the table": {"record_changes": {
                    "table": [record["table"][1], *record["table"][1:]]}},
                "spaced token in the table": {"record_changes": {
                    "table": ["app le", *record["table"][1:]]}},
            }[damage])
        with caplog.at_level(logging.DEBUG, logger="mmtopic.corpus"):
            assert load_corpus(path) == tiny_corpus
        assert len(parses) == 1
        assert "columns file not used" in caplog.text
        assert load_corpus(path) == tiny_corpus and len(parses) == 1  # rewritten

    def test_edited_vocabulary_and_other_cap_give_the_fresh_parse(self, saved, tmp_path,
                                                                  parses):
        path, stored = saved
        vocab = path.with_name("data.vocab.txt")
        vocab.write_text("durian\ncherry\nunused\n")
        via_columns = load_corpus(path)
        stored.unlink()
        assert via_columns == load_corpus(path) and len(parses) == 1
        assert via_columns.vocabulary.terms == ("durian", "cherry", "unused")

        vocab.unlink()
        for cap in (1, 2, 4):
            via_columns = load_corpus(path, cap=cap)  # written by the load before
            stored.unlink()
            assert via_columns == load_corpus(path, cap=cap)
            assert len(parses) == 1 + cap.bit_length() and len(via_columns.vocabulary) == cap

    @pytest.mark.parametrize("failure", ["read-only directory", "full disk"])
    def test_unwritable_directory_still_loads(self, saved, tiny_corpus, parses, monkeypatch,
                                              request, failure, caplog):
        path, stored = saved
        stored.unlink()
        if failure == "full disk":
            request.getfixturevalue("full_disk")
        else:  # what creating a file raises in a directory the user may not write
            real_open = os.open

            def refuse(name, flags, *args, **kwargs):
                if flags & os.O_CREAT:
                    raise PermissionError(13, "Permission denied", str(name))
                return real_open(name, flags, *args, **kwargs)
            monkeypatch.setattr(os, "open", refuse)
        with caplog.at_level(logging.INFO, logger="mmtopic.corpus"):
            assert load_corpus(path) == tiny_corpus
        assert "columns file not written" in caplog.text
        assert sorted(p.name for p in path.parent.iterdir()) == ["data.jsonl", "data.vocab.txt"]

    def test_malformed_dataset_raises_despite_a_valid_file_from_other_bytes(self, saved):
        path, stored = saved
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n{broken\n")
        with pytest.raises(DatasetFormatError, match="line 2: invalid JSON"):
            load_corpus(path)
        assert stored.exists()

    def test_failed_save_keeps_the_previous_files(self, saved, tiny_corpus, tmp_path,
                                                  request):
        path, _ = saved
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["data.columns.npz", "data.jsonl", "data.vocab.txt"]
        other = make_corpus([["kiwi", "lime"], ["lime"]])
        request.getfixturevalue("full_disk")
        with pytest.raises(OSError, match="No space"):
            save_corpus(other, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert load_corpus(path) == tiny_corpus

    def test_reused_id_names_both_lines(self, tmp_path):
        row = {"tokens": ["x"], "text_embedding": [1.0], "image_embedding": [1.0]}
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(json.dumps({"id": i, **row}) for i in ("a", "b", "", "a")))
        with pytest.raises(DatasetFormatError,
                           match="line 4: id 'a' was already used on line 1"):
            load_corpus(path)


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


# Fingerprints as the columns-file layout of version 1 and the token-string
# corpus before it computed them. A changed value re-runs every cell of
# every existing run directory, so a change here must be deliberate.
PINNED_FINGERPRINTS = {
    "synthetic": "3b1affde6f7c5d4aacd666e47b8f4c4e49035655e3aa58994859b87db7d40f09",
    "text cap 3": "f77bf874d28aeafacdd1c15c96af68db3693880a64f203c7e8eb76b4121c1357",
    "text cap 6": "30b5e88009422915698eb95ddf4c5876361291c98a9fd76be696512265bceb73",
}


class TestFingerprintPins:
    def test_synthetic_corpus(self):
        corpus, _ = generate_synthetic(SyntheticSpec(
            num_topics_true=3, vocab_size=40, docs=30, doc_length=9, embed_dim_text=5,
            embed_dim_image=3, embedding_noise=0.1, seed=2))
        assert corpus.fingerprint == PINNED_FINGERPRINTS["synthetic"]

    def test_text_dataset_at_two_caps_through_both_paths(self, tmp_path, parses):
        texts = ["The quick brown fox jumps over the lazy dog", "A lazy cat and a quick dog",
                 "Brown bears eat fish by the river", "The fox and the cat sleep",
                 "Quick quick fish swim; bears wait", "Lazy rivers, brown fish"]
        path = write_lines(tmp_path, [
            {"id": f"t{i}", "text": text, "text_embedding": [i / 4, 1.5 - i],
             "image_embedding": [0.25 * i * i, -1.0, 3.0], "image_ref": f"img{i}"}
            for i, text in enumerate(texts)])
        stored = path.with_name("data.columns.npz")
        seen = []
        # each cap is loaded through a columns file written at the other cap,
        # whose table leads with more, or fewer, terms than its vocabulary
        for cap, other in ((3, 6), (6, 3), (3, 6)):
            parsed = load_corpus(path, cap=cap)  # rewrites the file for this cap
            seen.append((cap, parsed.fingerprint, load_corpus(path, cap=other).fingerprint))
            stored.unlink()
        assert len(parses) == 3
        assert [(c, a) for c, a, _ in seen] == [(3, PINNED_FINGERPRINTS["text cap 3"]),
                                                (6, PINNED_FINGERPRINTS["text cap 6"]),
                                                (3, PINNED_FINGERPRINTS["text cap 3"])]
        assert [b for _, _, b in seen] == [PINNED_FINGERPRINTS["text cap 6"],
                                           PINNED_FINGERPRINTS["text cap 3"],
                                           PINNED_FINGERPRINTS["text cap 6"]]

        # a file of the earlier layout: distinct tokens in order of first appearance
        corpus = load_corpus(path, cap=3)
        first_seen = TokenIds.from_token_lists(corpus.tokens)
        rewrite_columns(stored, record_changes={"table": list(first_seen.index)},
                        token_ids=first_seen.ids, offsets=first_seen.offsets)
        assert load_corpus(path, cap=3).fingerprint == PINNED_FINGERPRINTS["text cap 3"]
        assert load_corpus(path, cap=6).fingerprint == PINNED_FINGERPRINTS["text cap 6"]
        assert len(parses) == 4
