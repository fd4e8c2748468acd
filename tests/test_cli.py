import dataclasses
import json

import pytest

from mmtopic import cli
from mmtopic.corpus import (SyntheticSpec, generate_synthetic, load_corpus, read_vocab_file,
                            save_corpus)
from mmtopic.harness import CheckpointError, load_model, save_model
from mmtopic.models import KINDS, ModelConfig, train

from conftest import make_corpus

CONFIG_FIELDS = [f for f in dataclasses.fields(ModelConfig)
                 if f.name not in ("kind", "num_topics")]


@pytest.fixture
def dataset(tmp_path):
    corpus = make_corpus([
        ["sun", "moon", "sun", "tide"],
        ["moon", "star", "tide"],
        ["sun", "star", "star", "moon"],
        ["moon", "tide", "sun"],
    ])
    return save_corpus(corpus, tmp_path / "toy.jsonl")


class TestTrainFlags:
    def test_one_flag_per_config_field_with_its_default(self):
        args = cli.build_parser().parse_args(
            ["train", "--data", "d.jsonl", "--kind", "combined", "--num-topics", "3",
             "--out", "m.mmtm"])
        for f in CONFIG_FIELDS:
            assert getattr(args, f.name) == f.default

    def test_every_flag_reaches_the_config(self, dataset, tmp_path):
        values = {"epochs": 1, "batch_size": 3, "learning_rate": 0.01,
                  "dropout_rate": 0.1, "hidden_dim": 4, "image_loss_weight": 2.0,
                  "contrastive_weight": 5.0, "temperature": 0.5, "prior_alpha": 0.25,
                  "seed": 9}
        assert sorted(values) == sorted(f.name for f in CONFIG_FIELDS)
        out = tmp_path / "m.mmtm"
        argv = ["train", "--data", str(dataset), "--kind", "multimodal_zeroshot",
                "--num-topics", "2", "--out", str(out)]
        for name, value in values.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert cli.main(argv) == 0
        assert load_model(out).config == ModelConfig(
            kind="multimodal_zeroshot", num_topics=2, **values)

    def test_non_finite_value_refused_before_training(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "train", lambda corpus, config: pytest.fail("trained"))
        out = tmp_path / "m.mmtm"
        with pytest.raises(ValueError, match="^learning_rate must be finite, got nan"):
            cli.main(["train", "--data", str(dataset), "--kind", "zeroshot",
                      "--num-topics", "2", "--out", str(out), "--learning-rate", "nan"])
        assert not out.exists()


def test_failed_eval_report_write_keeps_previous_report(dataset, tmp_path, request):
    model = train(load_corpus(dataset),
                  ModelConfig(kind="zeroshot", num_topics=2, epochs=1, hidden_dim=4))
    checkpoint = save_model(model, tmp_path / "m.mmtm")
    report = tmp_path / "report.json"
    argv = ["eval", "--model", str(checkpoint), "--data", str(dataset),
            "--out", str(report), "--top-n", "2"]
    assert cli.main(argv) == 0
    assert json.loads(report.read_text())["model_id"] == model.label
    report.write_bytes(b"previous report\n")
    request.getfixturevalue("full_disk")
    with pytest.raises(OSError, match="No space"):
        cli.main(argv)
    assert report.read_bytes() == b"previous report\n"


@pytest.fixture
def checkpoints(dataset, tmp_path):
    """A zeroshot and a multimodal_zeroshot checkpoint trained on ``dataset``."""
    corpus = load_corpus(dataset)
    return [save_model(train(corpus, ModelConfig(kind=kind, num_topics=2, epochs=1,
                                                 hidden_dim=4)), tmp_path / f"{kind}.mmtm")
            for kind in ("zeroshot", "multimodal_zeroshot")]


def test_eval_writes_descriptors(dataset, checkpoints, tmp_path):
    descriptors = tmp_path / "descriptors.jsonl"
    assert cli.main(["eval", "--model", str(checkpoints[0]), "--data", str(dataset),
                     "--out", str(tmp_path / "report.json"), "--top-n", "2",
                     "--descriptors", str(descriptors)]) == 0
    records = [json.loads(line) for line in descriptors.read_text().splitlines()]
    assert [r["topic_id"] for r in records] == [0, 1]
    corpus = load_corpus(dataset)
    for r in records:
        assert len(r["keywords"]) == 2 and set(r["keywords"]) <= set(corpus.vocabulary.terms)
        assert len(r["images"]) == 2
        assert {i["doc_id"] for i in r["images"]} <= set(corpus.ids)


def test_eval_on_another_document_count_raises_checkpoint_error(checkpoints, tmp_path):
    other = save_corpus(make_corpus([["sun", "moon"], ["tide", "sun"], ["moon"]]),
                        tmp_path / "other.jsonl")
    out = tmp_path / "report.json"
    with pytest.raises(CheckpointError, match=f"{checkpoints[0]}: the checkpoint was trained "
                                              f"on 4 documents, but {other} has 3"):
        cli.main(["eval", "--model", str(checkpoints[0]), "--data", str(other),
                  "--out", str(out)])
    assert not out.exists()


def test_overlap_matches_the_topics_of_two_checkpoints(checkpoints, tmp_path, capsys):
    out = tmp_path / "overlap.json"
    assert cli.main(["overlap", "--model-a", str(checkpoints[0]), "--model-b",
                     str(checkpoints[1]), "--out", str(out), "--top-n", "3"]) == 0
    report = json.loads(out.read_text())
    assert [report["model_a"], report["model_b"]] == [load_model(c).label for c in checkpoints]
    assert sorted(report["assignment"]) == [0, 1] and report["descriptor_size"] == 3
    assert len(report["similarity"]) == 2 and 0.0 <= report["mean"] <= 1.0
    assert f"mean {report['mean']:.4f}" in capsys.readouterr().out


def test_run_then_report(dataset, tmp_path, monkeypatch, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "datasets": [str(dataset)], "models": [{"kind": "zeroshot"}], "topic_counts": [2],
        "seeds": 2, "epochs": 1, "descriptor_size": 2, "output_dir": "unused"}))
    runs = tmp_path / "runs"
    assert cli.main(["run", "--plan", str(plan), "--output-dir", str(runs),
                     "--workers", "1"]) == 0
    assert "2 cells complete, 0 failed" in capsys.readouterr().out
    assert sorted(p.name for p in (runs / "manifests").iterdir()) \
        == ["toy__zeroshot__k2__s0.json", "toy__zeroshot__k2__s1.json"]
    tables = [runs / name for name in ("aggregate.json", "aggregate.md", "aggregate.csv")]
    written = [path.read_bytes() for path in tables]
    for path in tables:
        path.unlink()
    assert cli.main(["report", "--runs", str(runs)]) == 0
    assert capsys.readouterr().out == "".join(f"wrote {path}\n" for path in tables)
    assert [path.read_bytes() for path in tables] == written
    assert cli.main(["report", "--runs", str(runs)]) == 0
    assert capsys.readouterr().out == f"aggregate tables under {runs} unchanged\n"
    assert (runs / "aggregate.csv").read_text().splitlines()[1].endswith(",0")
    with pytest.raises(SystemExit):
        cli.main(["report", "--runs", str(runs), "--format", "csv"])

    def failing_train(corpus, config):
        raise RuntimeError("simulated failure")
    monkeypatch.setattr(cli.harness, "train", failing_train)
    assert cli.main(["run", "--plan", str(plan), "--output-dir", str(tmp_path / "other")]) == 1
    assert "0 cells complete, 2 failed" in capsys.readouterr().out


def test_report_after_a_run_of_every_kind_rewrites_nothing(dataset, tmp_path, capsys):
    plan, runs = tmp_path / "plan.json", tmp_path / "runs"
    plan.write_text(json.dumps({
        "datasets": [str(dataset)], "models": [{"kind": kind} for kind in KINDS],
        "topic_counts": [2], "seeds": 2, "epochs": 1, "descriptor_size": 2,
        "output_dir": str(runs)}))
    assert cli.main(["run", "--plan", str(plan)]) == 0
    tables = [runs / name for name in ("aggregate.json", "aggregate.md", "aggregate.csv")]
    before = [(path.read_bytes(), path.stat().st_mtime_ns) for path in tables]
    capsys.readouterr()
    assert cli.main(["report", "--runs", str(runs)]) == 0
    assert [(path.read_bytes(), path.stat().st_mtime_ns) for path in tables] == before
    assert capsys.readouterr().out == f"aggregate tables under {runs} unchanged\n"


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_run_rejects_a_worker_count_below_one(dataset, tmp_path, workers):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "datasets": [str(dataset)], "models": [{"kind": "zeroshot"}], "topic_counts": [2],
        "seeds": 1, "epochs": 1, "descriptor_size": 2, "output_dir": str(tmp_path / "runs")}))
    with pytest.raises(ValueError, match="workers must be >= 1"):
        cli.main(["run", "--plan", str(plan), "--workers", workers])
    assert not (tmp_path / "runs").exists()


SPEC = {"num_topics_true": 3, "vocab_size": 30, "docs": 12, "doc_length": 10,
        "embed_dim_text": 4, "embed_dim_image": 3, "seed": 1}


def synth(tmp_path, spec, *extra):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    return cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "synth.jsonl"), *extra])


class TestSynth:
    def test_dataset_and_ground_truth_round_trip(self, tmp_path):
        truth = tmp_path / "truth.json"
        assert synth(tmp_path, SPEC, "--ground-truth", str(truth)) == 0
        corpus = load_corpus(tmp_path / "synth.jsonl")
        assert corpus.num_documents == SPEC["docs"]
        planted = json.loads(truth.read_text())
        assert len(planted) == SPEC["num_topics_true"]
        # the topics' word blocks partition the vocabulary
        assert sorted(t for topic in planted for t in topic["terms"]) \
            == sorted(corpus.vocabulary.terms)
        _, topics = generate_synthetic(SyntheticSpec(**SPEC))
        assert truth.read_text() == json.dumps([{
            "index": t.index, "terms": list(t.terms), "word_probs": t.word_probs.tolist(),
            "text_centroid": t.text_centroid.tolist(),
            "image_centroid": t.image_centroid.tolist(), "doc_weights": t.doc_weights.tolist(),
        } for t in topics]) + "\n"

    @pytest.mark.parametrize("spec, error, match", [
        ({**SPEC, "docs": "5"}, TypeError, "spec field 'docs' must be a JSON integer"),
        ({**SPEC, "bogus": 1}, ValueError, r"unknown spec keys: \['bogus'\]"),
        ([SPEC], ValueError, "spec must be a JSON object"),
        ({**SPEC, "num_topics_true": 0}, ValueError, "num_topics_true must be >= 1"),
        ({**SPEC, "docs": 0}, ValueError, "docs must be >= 1"),
        pytest.param({**SPEC, "doc_length": 0}, ValueError, "doc_length must be > 0",
                     id="spec5-ValueError-doc_length must be positive"),
        pytest.param({**SPEC, "embed_dim_image": 0}, ValueError, "embed_dim_image must be >= 1",
                     id="spec6-ValueError-embedding dimensions must be >= 1"),
        pytest.param({**SPEC, "topic_word_concentration": 0}, ValueError,
                     "topic_word_concentration must be > 0",
                     id="spec7-ValueError-topic_word_concentration must be positive"),
        ({**SPEC, "embedding_noise": -0.1}, ValueError, "embedding_noise must be >= 0"),
        ({**SPEC, "seed": -1}, ValueError, "seed must be >= 0"),
        ({**SPEC, "doc_length": json.loads("1e400")}, ValueError,
         "doc_length must be finite, got inf"),
        pytest.param({**SPEC, "doc_length": 10 ** 400}, ValueError,
                     "doc_length must be finite, got 1000", id="huge-integer-doc_length"),
    ])
    def test_malformed_spec_named(self, tmp_path, spec, error, match):
        with pytest.raises(error, match=match):
            synth(tmp_path, spec)
        assert not (tmp_path / "synth.jsonl").exists()

    def test_failed_ground_truth_write_keeps_previous_file(self, tmp_path, full_disk):
        truth = tmp_path / "truth.json"
        truth.write_bytes(b"previous truth\n")
        with pytest.raises(OSError, match="No space"):
            synth(tmp_path, SPEC, "--ground-truth", str(truth))
        assert truth.read_bytes() == b"previous truth\n"


def test_prep_pins_the_vocabulary_in_a_sidecar(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps({"id": f"r{i}", "text": text, "text_embedding": [1.0, i],
                                       "image_embedding": [0.5]}) + "\n"
                           for i, text in enumerate(["The sun, the moon.", "Moon and tide",
                                                     "sun sun star"])))
    (tmp_path / "stop.txt").write_text("the\nand\n")
    out = tmp_path / "prepped.jsonl"
    assert cli.main(["prep", "--input", str(raw), "--output", str(out),
                     "--vocab-cap", "3", "--stopwords", str(tmp_path / "stop.txt")]) == 0
    # frequency order, ties lexicographic; "star" and "tide" fall past the cap
    assert read_vocab_file(tmp_path / "prepped.vocab.txt").terms == ("sun", "moon", "star")
    assert load_corpus(out).vocabulary.terms == ("sun", "moon", "star")
    assert load_corpus(out).tokens == (("sun", "moon"), ("moon", "tide"), ("sun", "sun", "star"))
