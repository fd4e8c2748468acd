import dataclasses
import json

import pytest

from mmtopic import cli
from mmtopic.corpus import load_corpus, read_vocab_file, save_corpus
from mmtopic.harness import load_model, save_model
from mmtopic.models import ModelConfig, train

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

    @pytest.mark.parametrize("spec, error, match", [
        ({**SPEC, "docs": "5"}, TypeError, "spec field 'docs' must be a JSON integer"),
        ({**SPEC, "bogus": 1}, ValueError, r"unknown spec keys: \['bogus'\]"),
        ([SPEC], ValueError, "spec must be a JSON object"),
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
