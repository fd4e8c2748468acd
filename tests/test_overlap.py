import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtopic.models import ModelConfig, train
from mmtopic.overlap import OverlapReport, hungarian, overlap_report, topic_similarity_matrix

from conftest import make_corpus
from oracles import hungarian_brute_force, rbo_reference


class TestSimilarityMatrix:
    def test_self_similarity_has_unit_diagonal(self):
        topics = [["a", "b", "c"], ["d", "e", "f"], ["g", "h", "i"]]
        sim = topic_similarity_matrix(topics, topics)
        np.testing.assert_allclose(np.diag(sim), 1.0, atol=1e-12)

    def test_disjoint_vocabularies_give_zero_matrix(self):
        a = [["a", "b"], ["c", "d"]]
        b = [["w", "x"], ["y", "z"]]
        np.testing.assert_array_equal(topic_similarity_matrix(a, b), np.zeros((2, 2)))

    def test_entries_are_pairwise_rbo(self):
        rng = np.random.default_rng(71)
        vocab = [f"w{i}" for i in range(20)]
        a = [list(rng.choice(vocab, size=5, replace=False)) for _ in range(3)]
        b = [list(rng.choice(vocab, size=5, replace=False)) for _ in range(3)]
        sim = topic_similarity_matrix(a, b, p=0.8)
        for i in range(3):
            for j in range(3):
                assert sim[i, j] == pytest.approx(rbo_reference(a[i], b[j], 0.8),
                                                  abs=1e-12)

    def test_mismatched_topic_counts_rejected(self):
        with pytest.raises(ValueError, match="topic counts differ"):
            topic_similarity_matrix([["a", "b"]], [["a", "b"], ["c", "d"]])
        with pytest.raises(ValueError, match="at least one topic"):
            topic_similarity_matrix([], [])


class TestHungarian:
    def test_two_by_two_maximization(self):
        matrix = np.array([[0.9, 0.1], [0.2, 0.8]])
        assignment, total = hungarian(matrix, maximize=True)
        assert assignment == [0, 1]
        assert total == pytest.approx(1.7)

    def test_two_by_two_minimization(self):
        matrix = np.array([[0.9, 0.1], [0.2, 0.8]])
        assignment, total = hungarian(matrix)
        assert assignment == [1, 0]
        assert total == pytest.approx(0.3)

    def test_all_equal_matrix_is_a_valid_permutation(self):
        assignment, total = hungarian(np.full((4, 4), 2.5), maximize=True)
        assert sorted(assignment) == [0, 1, 2, 3]
        assert total == pytest.approx(10.0)

    def test_identity_favoring_matrix(self):
        n = 5
        matrix = np.eye(n) + 0.01
        assignment, total = hungarian(matrix, maximize=True)
        assert assignment == list(range(n))
        assert total == pytest.approx(n * 1.01)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_matches_brute_force_on_random_matrices(self, maximize):
        rng = np.random.default_rng(72)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            matrix = rng.uniform(-5, 5, size=(n, n))
            _, total = hungarian(matrix, maximize=maximize)
            _, expected = hungarian_brute_force(matrix, maximize=maximize)
            assert total == pytest.approx(expected, abs=1e-9)

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)),
        st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_small_integer_matrices_match_brute_force_exactly(self, rows, maximize):
        matrix = np.array(rows, dtype=np.float64)
        assignment, total = hungarian(matrix, maximize=maximize)
        _, expected = hungarian_brute_force(matrix, maximize=maximize)
        assert sorted(assignment) == list(range(len(rows)))
        assert total == expected

    def test_total_is_permutation_invariant(self):
        rng = np.random.default_rng(73)
        matrix = rng.uniform(0, 1, size=(5, 5))
        perm = rng.permutation(5)
        _, total = hungarian(matrix, maximize=True)
        _, total_permuted = hungarian(matrix[perm], maximize=True)
        assert total == pytest.approx(total_permuted, abs=1e-12)

    def test_assignment_indexes_total(self):
        rng = np.random.default_rng(74)
        matrix = rng.uniform(0, 1, size=(6, 6))
        assignment, total = hungarian(matrix, maximize=True)
        assert sorted(assignment) == list(range(6))
        assert total == pytest.approx(sum(matrix[i, assignment[i]] for i in range(6)))

    def test_invalid_matrices_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hungarian(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            hungarian(np.ones((0, 0)))
        with pytest.raises(ValueError, match="finite"):
            hungarian(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.fixture(scope="module")
def two_models():
    corpus = make_corpus([
        ["sun", "moon", "sun", "tide"],
        ["moon", "star", "tide"],
        ["sun", "star", "star", "moon"],
        ["moon", "tide", "sun", "star"],
    ])
    base = dict(kind="zeroshot", num_topics=3, epochs=2, hidden_dim=8)
    return (train(corpus, ModelConfig(seed=0, **base)),
            train(corpus, ModelConfig(seed=1, **base)))


class TestOverlapReport:
    def test_self_overlap_is_perfect(self, two_models):
        model, _ = two_models
        report = overlap_report(model, model, n=3)
        assert report.mean == pytest.approx(1.0)
        assert report.sd == pytest.approx(0.0)
        assert report.assignment == tuple(range(3))

    def test_matched_statistics_follow_assignment(self, two_models):
        a, b = two_models
        report = overlap_report(a, b, n=3, p=0.9)
        matched = [report.similarity[i, j] for i, j in enumerate(report.assignment)]
        assert report.mean == pytest.approx(np.mean(matched))
        assert report.sd == pytest.approx(np.std(matched))  # population sd
        assert report.model_a == a.label
        assert report.rbo_p == 0.9
        assert report.descriptor_size == 3

    def test_mean_is_direction_symmetric(self, two_models):
        a, b = two_models
        forward = overlap_report(a, b, n=3)
        backward = overlap_report(b, a, n=3)
        assert forward.mean == pytest.approx(backward.mean, abs=1e-12)

    def test_json_round_trip(self, two_models, tmp_path):
        a, b = two_models
        report = overlap_report(a, b, n=3)
        path = report.write_json(tmp_path / "overlap.json")
        text = path.read_text()
        assert text.count("\n") == 1  # one compact line
        data = json.loads(text)
        assert data["model_a"] == a.label
        assert data["assignment"] == list(report.assignment)
        assert np.array(data["similarity"]).tobytes() == report.similarity.tobytes()
        clone = OverlapReport(
            model_a=data["model_a"], model_b=data["model_b"],
            similarity=np.array(data["similarity"]),
            assignment=tuple(data["assignment"]), mean=data["mean"], sd=data["sd"],
            rbo_p=data["rbo_p"], descriptor_size=data["descriptor_size"])
        assert clone.mean == report.mean

    def test_failed_write_keeps_previous_file(self, two_models, tmp_path, full_disk):
        a, b = two_models
        path = tmp_path / "overlap.json"
        path.write_bytes(b"previous report\n")
        with pytest.raises(OSError, match="No space"):
            overlap_report(a, b, n=3).write_json(path)
        assert path.read_bytes() == b"previous report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["overlap.json"]
