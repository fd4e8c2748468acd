import logging
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmtopic.corpus import TokenIds, Vocabulary
from mmtopic.descriptors import top_keywords
from mmtopic import harness
from mmtopic.metrics import (
    METRIC_COLUMNS,
    MetricReport,
    _boolean_window_counts,
    _iec_per_topic,
    _npmi_per_topic,
    _rbo_matrix,
    _we_per_topic,
    compute_metric_report,
    iec,
    ieps,
    irbo,
    load_word_vectors,
    npmi,
    rbo,
    topic_diversity,
    we_coherence,
)
from mmtopic.models import ModelConfig, train
from mmtopic.overlap import topic_similarity_matrix

from conftest import make_corpus
from oracles import (
    iec_reference,
    ieps_reference,
    npmi_reference,
    rbo_reference,
    topic_diversity_reference,
    we_coherence_reference,
    window_counts_reference,
)


def random_docs(rng, n_docs, vocab, min_len=3, max_len=12):
    return [[vocab[i] for i in rng.integers(0, len(vocab),
                                            size=rng.integers(min_len, max_len + 1))]
            for _ in range(n_docs)]


class TestNpmi:
    def test_words_never_together_score_near_minus_one(self):
        docs = [["alpha"], ["beta"]]
        # each document is one window; the pair probability bottoms out at
        # the epsilon floor used inside the log
        expected = math.log(1e-12 / 0.25) / -math.log(1e-12)
        value = npmi([["alpha", "beta"]], docs, window=10)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value < -0.9

    def test_words_always_together_score_one(self):
        docs = [["alpha", "beta"], ["beta", "alpha"]]
        assert npmi([["alpha", "beta"]], docs, window=10) == 1.0

    def test_pairs_with_absent_words_are_skipped(self):
        docs = [["alpha", "beta", "gamma"]] * 3
        # "zzz" never occurs: only the (alpha, beta) pair is scorable
        with_absent = npmi([["alpha", "beta", "zzz"]], docs, window=10)
        assert with_absent == npmi([["alpha", "beta"]], docs, window=10)

    def test_unscorable_topic_contributes_zero_and_warns(self, caplog):
        docs = [["alpha", "beta"]] * 2
        with caplog.at_level(logging.WARNING, logger="mmtopic.metrics"):
            value = npmi([["alpha", "beta"], ["yy", "zz"]], docs, window=5)
        assert value == pytest.approx(0.5)  # (1.0 + 0.0) / 2
        assert "no top-word pair" in caplog.text

    def test_matches_enumeration_reference(self):
        rng = np.random.default_rng(61)
        vocab = [f"w{i}" for i in range(12)]
        docs = random_docs(rng, 25, vocab)
        topics = [list(rng.choice(vocab, size=4, replace=False)) for _ in range(4)]
        # a repeated word shares each of its windows with itself
        topics.append([topics[0][0], topics[0][0], topics[1][0]])
        ours = npmi(topics, docs, window=3)
        ref = npmi_reference(topics, docs, window=3)
        assert ours == pytest.approx(ref, abs=1e-9)

    def test_short_documents_form_one_window(self):
        # a 2-token document inside a width-5 window counts once, so the
        # pair is certain and the score is exactly 1
        assert npmi([["a", "b"]], [["a", "b"]], window=5) == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least two words"):
            npmi([["solo"]], [["solo"]], window=5)
        with pytest.raises(ValueError, match="reference corpus"):
            npmi([["a", "b"]], [], window=5)
        with pytest.raises(ValueError, match="window"):
            npmi([["a", "b"]], [["a", "b"]], window=0)


WINDOW_TOKENS = ["a", "b", "c", "d", "e"]


class TestWindowCounts:
    @given(docs=st.lists(st.lists(st.sampled_from(WINDOW_TOKENS), max_size=30),
                         min_size=1, max_size=6),
           terms=st.lists(st.sampled_from(WINDOW_TOKENS + ["absent", "gone"]),
                          min_size=1, max_size=7, unique=True),
           window=st.integers(1, 12))
    # empty document, documents shorter than the window, a term repeated
    # inside one window, window 1, topic words missing from the corpus
    @example(docs=[[], ["a"], ["a", "b", "a", "c", "a", "a", "d", "e"]],
             terms=["a", "absent", "c", "b"], window=3)
    @example(docs=[["a", "a", "b"], [], ["b"]], terms=["b", "a", "gone"], window=1)
    # a term repeated exactly ``window`` positions apart
    @example(docs=[["a", "b", "c", "a", "b", "a"]], terms=["a", "b", "c"], window=3)
    # the same term ending one document and starting the next
    @example(docs=[["b", "c", "a"], ["a", "b"], ["a"]], terms=["a", "b"], window=2)
    # a window longer than every document
    @example(docs=[["a", "b", "a"], [], ["c", "a"]], terms=["c", "a", "b"], window=12)
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration_reference(self, docs, terms, window):
        words, pairs, total = _boolean_window_counts(
            TokenIds.from_token_lists(docs), terms, window)
        ref_words, ref_pairs, ref_total = window_counts_reference(docs, window, terms)
        assert total == ref_total
        assert {t: int(c) for t, c in zip(terms, words) if c} == ref_words
        assert not np.tril(pairs).any()
        got_pairs = {tuple(sorted((terms[i], terms[j]))): int(pairs[i, j])
                     for i, j in zip(*np.nonzero(pairs))}
        assert got_pairs == ref_pairs

    def test_spans_kept_per_window_serve_every_later_call(self):
        docs = [["a", "b", "a", "c"], [], ["c", "a", "d", "e", "b", "a", "b"], ["e"],
                ["b", "b", "c", "a", "d", "e", "a", "b", "c", "a", "e", "d"]]
        longest = max(map(len, docs))
        windows = [1, 3, 10, longest + 5]  # the last is longer than every document
        term_sets = [["a", "b"], ["c", "absent", "a", "e"], ["d"], ["e", "d", "c", "b", "a"]]
        token_ids = TokenIds.from_token_lists(docs)
        held = None
        for _ in range(2):
            for window in windows:
                for terms in term_sets:
                    words, pairs, total = _boolean_window_counts(token_ids, terms, window)
                    fresh = _boolean_window_counts(TokenIds.from_token_lists(docs), terms, window)
                    assert words.tobytes() == fresh[0].tobytes()
                    assert pairs.tobytes() == fresh[1].tobytes() and total == fresh[2]
                    ref_words, ref_pairs, ref_total = window_counts_reference(docs, window, terms)
                    assert total == ref_total
                    assert {t: int(c) for t, c in zip(terms, words) if c} == ref_words
                    assert {tuple(sorted((terms[i], terms[j]))): int(pairs[i, j])
                            for i, j in zip(*np.nonzero(pairs))} == ref_pairs
            # The second pass finds every span the first one built.
            assert held is None or all(token_ids._spans[w] is held[w] for w in held)
            held = dict(token_ids._spans)
        # One entry per clamped window, each two int arrays of one entry per token.
        assert sorted(held) == [1, 3, 10, longest]
        for lo, hi, total in held.values():
            for spans in (lo, hi):
                assert spans.dtype.kind == "i" and spans.shape == token_ids.ids.shape


def pair_means_loop(topics, docs, window, vectors, image_sets):
    """Per-topic NPMI, WE coherence (None where skipped) and IEC, each one
    ``np.mean`` per topic, the way the metrics scored before topics were
    grouped by length."""
    terms = list(dict.fromkeys(w for t in topics for w in t))
    words, pairs, total = _boolean_window_counts(TokenIds.from_token_lists(docs), terms,
                                                 window)
    npmi_topics = []
    for topic in topics:
        ids = np.array([terms.index(w) for w in topic])
        a, b = (ids[side] for side in np.triu_indices(len(ids), k=1))
        keep = (words[a] > 0) & (words[b] > 0)
        a, b = a[keep], b[keep]
        if a.size == 0:
            npmi_topics.append(0.0)
            continue
        p_ij = np.where(a == b, words[a], pairs[np.minimum(a, b), np.maximum(a, b)]) / total
        p_ij[p_ij == 0.0] = 1e-12
        pmi = np.log(p_ij / (words[a] / total * (words[b] / total)))
        npmi_topics.append(float(np.mean(np.divide(pmi, -np.log(p_ij), out=np.ones_like(pmi),
                                                   where=p_ij < 1.0))))

    def mean_pair_cosine(vecs):
        arr = np.asarray(vecs, dtype=np.float64)
        unit = arr / np.linalg.norm(arr, axis=-1)[:, None]
        return float(np.mean((unit @ unit.T)[np.triu_indices(len(arr), k=1)]))

    embedded = [[vectors[w] for w in t if w in vectors] for t in topics]
    return (npmi_topics, [mean_pair_cosine(v) if len(v) >= 2 else None for v in embedded],
            [mean_pair_cosine(s) for s in image_sets])


class TestGroupedScoring:
    """Topics of one length are scored as one array, with row means that
    sum each topic's pairs as a per-topic ``np.mean`` does, so the metrics
    keep their bits on topics of mixed lengths."""

    def test_equals_a_per_topic_mean_loop(self, caplog):
        rng = np.random.default_rng(72)
        vocab = [f"w{i}" for i in range(40)]
        docs = random_docs(rng, 60, vocab, max_len=30)
        vectors = {w: rng.normal(size=6) for w in vocab[::2]}
        lengths = (2, 3, 5, 5, 8, 8, 8, 12, 12, 12, 12, 12, 12)
        topics = [list(rng.choice(vocab, size=n, replace=False)) for n in lengths]
        # words no document holds, among 15 or 45 pairs
        topics += [list(rng.choice(vocab, size=n - 1, replace=False)) + ["absent"]
                   for n in (6, 6, 10, 10, 10, 10, 10, 10)]
        topics += [["w1", "w1", "w3", "w5", "w7"],  # repeated words
                   ["gone", "absent", "w5"]]  # no scorable pair, and one embedded term
        image_sets = [rng.normal(size=(n, 5)) for n in (2, 3, 3, 6, 4, *[10] * 12)]
        ref_npmi, ref_we, ref_iec = pair_means_loop(topics, docs, 4, vectors, image_sets)
        with caplog.at_level(logging.WARNING, logger="mmtopic.metrics"):
            assert _npmi_per_topic(topics, TokenIds.from_token_lists(docs), 4) == ref_npmi
            assert _we_per_topic(topics, vectors) == ref_we
            assert _iec_per_topic(image_sets) == ref_iec
            assert npmi(topics, docs, window=4) == float(np.mean(ref_npmi))
            assert we_coherence(topics, vectors) == \
                float(np.mean([v for v in ref_we if v is not None]))
            assert iec(image_sets) == float(np.mean(ref_iec))
        assert ref_npmi[-1] == 0.0 and ref_we[-1] is None
        assert f"topic {len(topics) - 1}: no top-word pair" in caplog.text
        assert f"topic {len(topics) - 1}: fewer than two embedded terms" in caplog.text


class TestWeCoherence:
    def test_hand_value_three_words(self):
        vectors = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]),
                   "c": np.array([1.0, 1.0])}
        # pairwise cosines 0, 1/sqrt(2), 1/sqrt(2): mean sqrt(2)/3
        expected = math.sqrt(2.0) / 3.0
        assert we_coherence([["a", "b", "c"]], vectors) == pytest.approx(expected)

    def test_shared_direction_scores_one(self):
        vectors = {"a": np.array([2.0, 0.0]), "b": np.array([5.0, 0.0])}
        assert we_coherence([["a", "b"]], vectors) == pytest.approx(1.0)

    def test_orthogonal_terms_score_zero(self):
        vectors = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 3.0])}
        assert we_coherence([["a", "b"]], vectors) == pytest.approx(0.0, abs=1e-15)

    def test_sparse_topics_are_skipped_with_warning(self, caplog):
        vectors = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0])}
        with caplog.at_level(logging.WARNING, logger="mmtopic.metrics"):
            value = we_coherence([["a", "b"], ["missing", "also-missing"]], vectors)
        assert value == pytest.approx(1.0)
        assert "fewer than two embedded terms" in caplog.text

    def test_no_scorable_topic_raises(self):
        with pytest.raises(ValueError, match="two or more embedded"):
            we_coherence([["x", "y"]], {"a": np.ones(2)})

    def test_zero_word_vector_rejected(self):
        vectors = {"a": np.array([1.0, 0.0]), "b": np.zeros(2)}
        with pytest.raises(ValueError, match="zero-norm"):
            we_coherence([["a", "b"]], vectors)

    def test_matches_reference(self):
        rng = np.random.default_rng(62)
        vocab = [f"w{i}" for i in range(15)]
        vectors = {w: rng.normal(size=6) for w in vocab[:12]}
        topics = [list(rng.choice(vocab, size=5, replace=False)) for _ in range(4)]
        ours = we_coherence(topics, vectors)
        ref = we_coherence_reference(topics, vectors)
        assert ours == pytest.approx(ref, abs=1e-12)


class TestTopicDiversity:
    def test_disjoint_topics_score_one(self):
        topics = [["a", "b"], ["c", "d"], ["e", "f"]]
        assert topic_diversity(topics, n=2) == 1.0

    def test_identical_topics_score_inverse_topic_count(self):
        topics = [["a", "b", "c"]] * 4
        assert topic_diversity(topics, n=3) == pytest.approx(0.25)

    def test_half_shared_slots(self):
        a = [f"w{i}" for i in range(10)]
        b = a[:5] + [f"v{i}" for i in range(5)]
        assert topic_diversity([a, b], n=10) == pytest.approx(0.75)

    def test_only_first_n_slots_count(self):
        topics = [["a", "b", "shared"], ["c", "d", "shared"]]
        assert topic_diversity(topics, n=2) == 1.0

    def test_matches_reference(self):
        rng = np.random.default_rng(63)
        vocab = [f"w{i}" for i in range(30)]
        topics = [list(rng.choice(vocab, size=8, replace=False)) for _ in range(5)]
        assert topic_diversity(topics, n=8) == pytest.approx(
            topic_diversity_reference(topics, 8))

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one topic"):
            topic_diversity([], n=5)
        with pytest.raises(ValueError, match="at least 5"):
            topic_diversity([["a", "b"]], n=5)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                topic_diversity([["a", "b"]], n=n)


ITEMS = [f"w{i}" for i in range(12)]


@st.composite
def rankings(draw, count):
    """``count`` duplicate-free rankings of one shared length."""
    d = draw(st.integers(1, 8))
    ranking = st.lists(st.sampled_from(ITEMS), min_size=d, max_size=d, unique=True)
    return [draw(ranking) for _ in range(count)]


P = st.floats(0.05, 0.95)


@st.composite
def ranking_sets(draw):
    """Two lists of rankings of one shared length, of different counts."""
    ka = draw(st.integers(1, 5))
    both = draw(rankings(2 * ka + draw(st.integers(1, 3))))
    return both[:ka], both[ka:]


def rbo_matrix_broadcast(rankings_a, rankings_b, p):
    """``_rbo_matrix`` as per-depth (Ka, Kb, depth) broadcast comparisons."""
    ids = {}
    a, b = (np.array([[ids.setdefault(x, len(ids)) for x in r] for r in rankings])
            for rankings in (rankings_a, rankings_b))
    d = a.shape[1]
    overlap = np.zeros((len(a), len(b)), dtype=np.int64)
    tail = np.zeros(overlap.shape)
    for i in range(d):
        overlap += (a[:, None, i, None] == b[None, :, :i + 1]).sum(axis=2)
        overlap += (b[None, :, i, None] == a[:, None, :i]).sum(axis=2)
        tail += overlap / (i + 1) * p ** (i + 1)
    return overlap / d * p ** d + (1.0 - p) / p * tail


class TestRboKernel:
    """The array kernel behind ``rbo``, ``irbo`` and
    ``topic_similarity_matrix`` does the oracle's arithmetic in the oracle's
    order, so the values are equal, not just close."""

    @given(rankings(2), P)
    @example([["a"], ["a"]], 0.9)
    @example([["a"], ["b"]], 0.9)
    @example([["a", "b", "c"], ["a", "b", "c"]], 0.5)
    @example([["a", "b", "c"], ["x", "y", "z"]], 0.5)
    @settings(max_examples=200, deadline=None)
    def test_rbo_equals_reference(self, pair, p):
        a, b = pair
        assert rbo(a, b, p=p) == rbo_reference(a, b, p)

    @given(st.integers(2, 6).flatmap(rankings), P)
    @example([["a", "b"], ["a", "b"]], 0.9)
    @example([["a"], ["b"], ["c"]], 0.9)
    @settings(max_examples=150, deadline=None)
    def test_irbo_equals_reference(self, topics, p):
        ref = [rbo_reference(a, b, p) for a, b in combinations(topics, 2)]
        assert irbo(topics, p=p) == 1.0 - float(np.mean(ref))

    @given(st.integers(1, 5).flatmap(lambda k: rankings(2 * k)), P)
    @example([["a"], ["b"]], 0.9)
    @settings(max_examples=150, deadline=None)
    def test_similarity_matrix_equals_reference(self, topics, p):
        k = len(topics) // 2
        a, b = topics[:k], topics[k:]
        expected = [[rbo_reference(x, y, p) for y in b] for x in a]
        assert topic_similarity_matrix(a, b, p=p).tolist() == expected

    @given(ranking_sets(), P)
    @example(([["a", "b", "c"]], [["c", "a", "x"], ["x", "y", "z"]]), 0.9)
    @settings(max_examples=200, deadline=None)
    def test_rank_tables_give_the_broadcast_bytes(self, sets, p):
        a, b = sets
        assert _rbo_matrix(a, b, p).tobytes() == rbo_matrix_broadcast(a, b, p).tobytes()

    def test_every_ranking_is_validated(self):
        with pytest.raises(ValueError, match="duplicates"):
            irbo([["a", "b"], ["c", "d"], ["e", "e"]])
        with pytest.raises(ValueError, match="equal length"):
            irbo([["a", "b"], ["c", "d"], ["e"]])
        with pytest.raises(ValueError, match="equal length"):
            topic_similarity_matrix([["a", "b"], ["c", "d"]], [["a", "b"], ["c", "d", "e"]])
        with pytest.raises(ValueError, match="strictly between"):
            irbo([["a"], ["b"]], p=0.0)


class TestRbo:
    def test_identical_lists_score_one(self):
        assert rbo(["a", "b", "c"], ["a", "b", "c"]) == pytest.approx(1.0)

    def test_disjoint_lists_score_zero(self):
        assert rbo(["a", "b"], ["x", "y"]) == 0.0

    def test_swap_of_two_ranks_matches_reference(self):
        ours = rbo(["a", "b", "c"], ["a", "c", "b"], p=0.9)
        ref = rbo_reference(["a", "b", "c"], ["a", "c", "b"], 0.9)
        assert ours == pytest.approx(ref, abs=1e-12)
        assert 0.0 < ours < 1.0

    def test_matches_reference_on_random_rankings(self):
        rng = np.random.default_rng(64)
        items = [f"i{j}" for j in range(12)]
        for _ in range(50):
            a = list(rng.permutation(items))[:8]
            b = list(rng.permutation(items))[:8]
            for p in (0.5, 0.9, 0.98):
                assert rbo(a, b, p=p) == pytest.approx(rbo_reference(a, b, p),
                                                       abs=1e-12)

    @given(st.permutations([f"x{i}" for i in range(6)]))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, shuffled):
        base = [f"x{i}" for i in range(6)]
        assert rbo(base, shuffled) == pytest.approx(rbo(shuffled, base), abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="duplicates"):
            rbo(["a", "a", "b"], ["a", "b", "c"])
        with pytest.raises(ValueError, match="equal length"):
            rbo(["a", "b"], ["a", "b", "c"])
        with pytest.raises(ValueError, match="equal length"):
            rbo([], [])
        with pytest.raises(ValueError, match="strictly between"):
            rbo(["a"], ["a"], p=1.0)


class TestIrbo:
    def test_identical_topics_score_zero(self):
        assert irbo([["a", "b"], ["a", "b"]]) == pytest.approx(0.0)

    def test_disjoint_topics_score_one(self):
        assert irbo([["a", "b"], ["c", "d"], ["e", "f"]]) == pytest.approx(1.0)

    def test_is_one_minus_mean_pairwise_rbo(self):
        topics = [["a", "b", "c"], ["a", "c", "b"], ["x", "y", "z"]]
        pairs = [rbo(topics[0], topics[1]), rbo(topics[0], topics[2]),
                 rbo(topics[1], topics[2])]
        assert irbo(topics) == pytest.approx(1.0 - np.mean(pairs), abs=1e-12)

    def test_single_topic_rejected(self):
        with pytest.raises(ValueError, match="at least two topics"):
            irbo([["a", "b"]])


class TestIec:
    def test_identical_images_score_one(self):
        sets = [np.tile([1.0, 2.0], (3, 1))]
        assert iec(sets) == pytest.approx(1.0)

    def test_orthogonal_images_score_zero(self):
        sets = [np.array([[1.0, 0.0], [0.0, 1.0]])]
        assert iec(sets) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value_three_images(self):
        sets = [np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])]
        assert iec(sets) == pytest.approx(math.sqrt(2.0) / 3.0)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(65)
        images = rng.normal(size=(5, 4))
        scales = rng.uniform(0.1, 10.0, size=(5, 1))
        assert iec([images]) == pytest.approx(iec([images * scales]), abs=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(66)
        sets = [rng.normal(size=(4, 6)) for _ in range(3)]
        assert iec(sets) == pytest.approx(iec_reference(sets), abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one topic"):
            iec([])
        with pytest.raises(ValueError, match="at least two image"):
            iec([np.ones((1, 3))])
        with pytest.raises(ValueError, match="zero-norm"):
            iec([np.array([[1.0, 0.0], [0.0, 0.0]])])


class TestIeps:
    def test_shared_direction_scores_one(self):
        a = np.tile([1.0, 1.0], (3, 1))
        b = np.tile([2.0, 2.0], (3, 1))
        assert ieps([a, b]) == pytest.approx(1.0)

    def test_orthogonal_sets_score_zero(self):
        a = np.tile([1.0, 0.0], (2, 1))
        b = np.tile([0.0, 1.0], (2, 1))
        assert ieps([a, b]) == pytest.approx(0.0, abs=1e-15)

    def test_matches_reference(self):
        rng = np.random.default_rng(67)
        sets = [rng.normal(size=(4, 5)) for _ in range(4)]
        assert ieps(sets) == pytest.approx(ieps_reference(sets), abs=1e-12)

    def test_topic_order_invariance(self):
        rng = np.random.default_rng(68)
        sets = [rng.normal(size=(3, 5)) for _ in range(4)]
        shuffled = [sets[i] for i in (2, 0, 3, 1)]
        assert ieps(sets) == pytest.approx(ieps(shuffled), abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least two topic"):
            ieps([np.ones((2, 3))])
        with pytest.raises(ValueError, match="share one size"):
            ieps([np.ones((2, 3)), np.ones((3, 3))])


class TestLoadWordVectors:
    def test_parses_term_and_components(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("apple 1.0 2.0\nbanana -0.5 0.25\n\n")
        vectors = load_word_vectors(path)
        assert set(vectors) == {"apple", "banana"}
        np.testing.assert_array_equal(vectors["apple"], [1.0, 2.0])

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\nb 1.0\n")
        with pytest.raises(ValueError, match="line 2: dimension"):
            load_word_vectors(path)

    def test_non_numeric_component_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_word_vectors(path)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component_rejected(self, tmp_path, component):
        path = tmp_path / "vec.txt"
        path.write_text(f"a 1.0 2.0\nb 0.5 {component}\n")
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_word_vectors(path)

    def test_missing_components_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("lonely\n")
        with pytest.raises(ValueError, match="no vector components"):
            load_word_vectors(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no vectors"):
            load_word_vectors(path)


@pytest.fixture(scope="module")
def report_corpus():
    return make_corpus([
        ["sun", "moon", "sun", "tide"],
        ["moon", "star", "tide"],
        ["sun", "star", "star", "moon"],
        ["moon", "tide", "sun"],
    ])


class TestMetricReport:
    def test_multimodal_model_gets_image_metrics(self, report_corpus):
        model = train(report_corpus, ModelConfig(kind="multimodal_zeroshot",
                                                 num_topics=2, epochs=1, hidden_dim=8))
        report = compute_metric_report(model, report_corpus, n_descriptors=3)
        assert report.model_id == model.label
        for name in ("npmi", "td", "irbo", "iec", "ieps"):
            assert report.values()[name] is not None
        # the aggregate table's columns, named once
        assert harness.METRIC_COLUMNS is METRIC_COLUMNS
        assert list(report.values()) == list(METRIC_COLUMNS) \
            == ["npmi", "we", "iec", "td", "irbo", "ieps"]
        assert report.we is None
        assert len(report.per_topic["npmi"]) == 2
        assert len(report.per_topic["iec"]) == 2
        assert report.params == {"n_descriptors": 3, "window": 10, "rbo_p": 0.9}

    def test_unimodal_model_skips_image_metrics(self, report_corpus):
        model = train(report_corpus, ModelConfig(kind="zeroshot", num_topics=2,
                                                 epochs=1, hidden_dim=8))
        report = compute_metric_report(model, report_corpus, n_descriptors=3)
        assert report.iec is None and report.ieps is None
        assert report.npmi is not None

    def test_word_vectors_enable_embedding_coherence(self, report_corpus):
        rng = np.random.default_rng(69)
        vectors = {t: rng.normal(size=4) for t in report_corpus.vocabulary.terms}
        model = train(report_corpus, ModelConfig(kind="zeroshot", num_topics=2,
                                                 epochs=1, hidden_dim=8))
        report = compute_metric_report(model, report_corpus, word_vectors=vectors,
                                       n_descriptors=3)
        assert report.we is not None
        assert len(report.per_topic["we"]) == 2

    def test_npmi_uses_corpus_tokens_not_model_vocabulary(self, report_corpus):
        # The model knows "comet", which the corpus lacks; the corpus
        # vocabulary drops "star" and "tide", which its tokens still hold.
        trained_on = make_corpus([
            ["sun", "comet", "moon"], ["star", "comet", "tide"],
            ["sun", "star", "moon"], ["tide", "comet", "star"],
        ])
        model = train(trained_on, ModelConfig(kind="zeroshot", num_topics=2,
                                               epochs=1, hidden_dim=8))
        corpus = make_corpus([d.tokens for d in report_corpus.documents],
                             vocabulary=Vocabulary.from_terms(["sun", "moon"]))
        report = compute_metric_report(model, corpus, n_descriptors=4)
        topics = [top_keywords(model.topic_word_matrix, model.vocabulary, t, 4)
                  for t in range(model.num_topics)]
        assert {w for t in topics for w in t} - set(corpus.vocabulary.terms)
        assert report.npmi == npmi(topics, corpus.token_lists(), 10)

    def test_dict_round_trip(self, report_corpus):
        model = train(report_corpus, ModelConfig(kind="multimodal_contrast",
                                                 num_topics=2, epochs=1, hidden_dim=8))
        report = compute_metric_report(model, report_corpus, n_descriptors=2)
        clone = MetricReport(**report.to_dict())
        assert clone == report
