import csv
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmtopic.corpus import (DatasetFormatError, SyntheticSpec, generate_synthetic,
                            load_corpus, save_corpus)
from mmtopic.descriptors import topic_keywords
from mmtopic.harness import (
    CheckpointError,
    ExperimentPlan,
    ModelEntry,
    RunManifest,
    aggregate_metrics,
    emit_report,
    load_manifests,
    load_model,
    run_plan,
    save_model,
)
from mmtopic.metrics import METRIC_COLUMNS
from mmtopic.models import (KINDS, ModelConfig, TrainedTopicModel, init_params,
                            param_shapes, train)

from conftest import fresh_python_env, make_corpus


@pytest.fixture(scope="module")
def small_model():
    corpus = make_corpus([
        ["sun", "moon", "sun", "tide"],
        ["moon", "star", "tide"],
        ["sun", "star", "star", "moon"],
        ["moon", "tide", "sun"],
    ])
    config = ModelConfig(kind="multimodal_zeroshot", num_topics=2, epochs=2,
                         hidden_dim=8, seed=3)
    return train(corpus, config)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, small_model, tmp_path):
        path = save_model(small_model, tmp_path / "model.mmtm")
        loaded = load_model(path)
        assert loaded.config == small_model.config
        assert loaded.vocabulary.terms == small_model.vocabulary.terms
        assert loaded.loss_trace == small_model.loss_trace
        assert set(loaded.params) == set(small_model.params)
        for name, arr in small_model.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)
        np.testing.assert_array_equal(loaded.doc_topics, small_model.doc_topics)

    def test_truncated_payload_detected(self, small_model, tmp_path):
        path = save_model(small_model, tmp_path / "model.mmtm")
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="checksum"):
            load_model(path)

    def test_flipped_payload_byte_detected(self, small_model, tmp_path):
        path = save_model(small_model, tmp_path / "model.mmtm")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_model(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.bin"
        path.write_bytes(b"GGUF\x00\x00 definitely not ours")
        with pytest.raises(CheckpointError, match="not a MMTM1 checkpoint"):
            load_model(path)

    def test_bad_header_json_rejected(self, tmp_path):
        path = tmp_path / "model.mmtm"
        path.write_bytes(b"MMTM1\nnot a header\n")
        with pytest.raises(CheckpointError, match="invalid header JSON"):
            load_model(path)

    def test_missing_header_line_rejected(self, tmp_path):
        path = tmp_path / "model.mmtm"
        path.write_bytes(b"MMTM1\n")
        with pytest.raises(CheckpointError, match="truncated header"):
            load_model(path)

    @pytest.mark.parametrize("field", ["kind", "matrices", "config", "vocabulary",
                                       "loss_trace"])
    def test_missing_header_field_named(self, small_model, tmp_path, field):
        header, payload = split_checkpoint(save_model(small_model, tmp_path / "m.mmtm"))
        del header[field]
        path = write_checkpoint(tmp_path / "bad.mmtm", header, payload)
        with pytest.raises(CheckpointError, match=f"bad.mmtm: header lacks {field}"):
            load_model(path)

    def test_non_object_header_rejected(self, tmp_path):
        path = tmp_path / "model.mmtm"
        path.write_bytes(b"MMTM1\n[1, 2]\n")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_model(path)

    def test_missing_doc_topics_rejected(self, small_model, tmp_path):
        header, payload = split_checkpoint(save_model(small_model, tmp_path / "m.mmtm"))
        header["matrices"] = [m for m in header["matrices"] if m["name"] != "doc_topics"]
        path = write_checkpoint(tmp_path / "bad.mmtm", header, payload)
        with pytest.raises(CheckpointError, match="doc_topics"):
            load_model(path)

    def test_repeated_matrix_name_rejected(self, small_model, tmp_path):
        header, payload = split_checkpoint(save_model(small_model, tmp_path / "m.mmtm"))
        beta = next(m for m in header["matrices"] if m["name"] == "beta")
        header["matrices"].append(beta)
        payload += payload[:8 * math.prod(beta["shape"])]
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        path = write_checkpoint(tmp_path / "bad.mmtm", header, payload)
        with pytest.raises(CheckpointError, match="entries with distinct names"):
            load_model(path)

    @pytest.mark.parametrize("change", [8, -8, 3])
    def test_payload_size_differing_from_layout_rejected(self, small_model, tmp_path,
                                                         change):
        header, payload = split_checkpoint(save_model(small_model, tmp_path / "m.mmtm"))
        declared = len(payload)
        payload = payload + bytes(change) if change > 0 else payload[:change]
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        path = write_checkpoint(tmp_path / "bad.mmtm", header, payload)
        with pytest.raises(CheckpointError, match=f"payload holds {len(payload)} bytes, "
                                                  f"but its matrices declare {declared}"):
            load_model(path)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_initialization_loads(self, small_model, tmp_path, kind):
        config = ModelConfig(kind=kind, num_topics=3, hidden_dim=5)
        v = len(small_model.vocabulary)
        params = init_params(config, 4, 3, v, np.random.default_rng(0))
        model = TrainedTopicModel(config=config, vocabulary=small_model.vocabulary,
                                  params=params, loss_trace=[],
                                  doc_topics=np.full((6, 3), 1 / 3))
        path = save_model(model, tmp_path / "m.mmtm")
        loaded = load_model(path)
        assert {n: p.shape for n, p in loaded.params.items()} == \
            {n: p.shape for n, p in params.items()}
        # exactly param_shapes plus doc_topics: one block more or less fails
        header, _ = split_checkpoint(path)
        assert sorted(m["name"] for m in header["matrices"]) \
            == sorted([*param_shapes(config, None, None, v), "doc_topics"])
        for changed in ({**params, "extra": np.zeros(2)},
                        *({n: p for n, p in params.items() if n != drop} for drop in params)):
            path = save_model(dataclasses.replace(model, params=changed),
                              tmp_path / "bad.mmtm")
            with pytest.raises(CheckpointError, match="checkpoint holds each of"):
                load_model(path)

    @pytest.mark.parametrize("field,value", [
        ("num_topics", 2.0), ("epochs", True), ("seed", -1), ("learning_rate", math.nan)])
    def test_config_with_mistyped_or_negative_field_rejected(self, small_model, tmp_path,
                                                             field, value):
        header, payload = split_checkpoint(save_model(small_model, tmp_path / "m.mmtm"))
        header["config"][field] = value
        path = write_checkpoint(tmp_path / "bad.mmtm", header, payload)
        with pytest.raises(CheckpointError, match=f"invalid config.*{field}"):
            load_model(path)

    def test_vocabulary_shorter_than_beta_rejected(self, small_model, tmp_path):
        header, payload = split_checkpoint(save_model(small_model, tmp_path / "m.mmtm"))
        header["vocabulary"] = header["vocabulary"][:-1]
        path = write_checkpoint(tmp_path / "bad.mmtm", header, payload)
        with pytest.raises(CheckpointError, match="matrix beta has shape"):
            load_model(path)

    def test_string_vocabulary_rejected(self, small_model, tmp_path):
        header, payload = split_checkpoint(save_model(small_model, tmp_path / "m.mmtm"))
        header["vocabulary"] = "".join(header["vocabulary"])
        path = write_checkpoint(tmp_path / "bad.mmtm", header, payload)
        with pytest.raises(CheckpointError, match="vocabulary is not a list of strings"):
            load_model(path)

    def test_missing_beta_rejected(self, small_model, tmp_path):
        params = {n: p for n, p in small_model.params.items() if n != "beta"}
        path = save_model(dataclasses.replace(small_model, params=params),
                          tmp_path / "bad.mmtm")
        with pytest.raises(CheckpointError, match="checkpoint holds each of .*'beta'"):
            load_model(path)

    def test_topic_count_contradicting_matrices_rejected(self, small_model, tmp_path):
        header, payload = split_checkpoint(save_model(small_model, tmp_path / "m.mmtm"))
        header["config"]["num_topics"] += 1
        path = write_checkpoint(tmp_path / "bad.mmtm", header, payload)
        with pytest.raises(CheckpointError, match="has shape"):
            load_model(path)

    @pytest.mark.parametrize("name, bad", [("beta", np.nan), ("doc_topics", np.inf)])
    def test_non_finite_matrix_rejected(self, small_model, tmp_path, name, bad):
        params = {n: p.copy() for n, p in small_model.params.items()}
        doc_topics = small_model.doc_topics.copy()
        params.get(name, doc_topics)[0, 1] = bad
        path = save_model(dataclasses.replace(small_model, params=params,
                                              doc_topics=doc_topics), tmp_path / "bad.mmtm")
        with pytest.raises(CheckpointError, match=f"matrix {name} holds a non-finite value"):
            load_model(path)

    def test_kind_contradicting_config_rejected(self, small_model, tmp_path):
        header, payload = split_checkpoint(save_model(small_model, tmp_path / "m.mmtm"))
        header["kind"] = "zeroshot"
        path = write_checkpoint(tmp_path / "bad.mmtm", header, payload)
        with pytest.raises(CheckpointError, match="differs from its config's kind"):
            load_model(path)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_corrupted_checkpoints_raise_checkpoint_error(self, small_model, tmp_path, data):
        header, payload = split_checkpoint(save_model(small_model, tmp_path / "m.mmtm"))
        how = data.draw(st.sampled_from(["drop", "replace", "matrix", "whole", "payload"]))
        if how == "drop":
            del header[data.draw(st.sampled_from(sorted(header)))]
        elif how == "replace":
            header[data.draw(st.sampled_from(sorted(header)))] = data.draw(JSON_VALUES)
        elif how == "matrix":
            entry = data.draw(st.sampled_from(header["matrices"]))
            entry[data.draw(st.sampled_from(["name", "shape"]))] = data.draw(JSON_VALUES)
        elif how == "whole":
            header = data.draw(JSON_VALUES)
        else:
            cut = data.draw(st.integers(0, len(payload)))
            payload = payload[:cut] + data.draw(st.binary(max_size=24))
        if isinstance(header, dict) and data.draw(st.booleans()):
            header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        path = write_checkpoint(tmp_path / "fuzz.mmtm", header, payload)
        try:
            model = load_model(path)
        except CheckpointError:
            return
        topic_keywords(model.topic_word_matrix, model.vocabulary, 2)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2 ** 40) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_follow_the_umask(small_model, tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        save_model(small_model, tmp_path / "model.mmtm")
        save_corpus(make_corpus([["sun", "moon"], ["tide"]]), tmp_path / "data.jsonl")
    finally:
        os.umask(previous)
    names = ["data.columns.npz", "data.jsonl", "data.vocab.txt", "model.mmtm"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()} \
        == dict.fromkeys(names, mode)


def split_checkpoint(path):
    """A checkpoint's header (parsed) and payload bytes."""
    raw = path.read_bytes()
    _, header, payload = raw.split(b"\n", 2)
    return json.loads(header), payload


def write_checkpoint(path, header, payload):
    path.write_bytes(b"MMTM1\n" + json.dumps(header).encode() + b"\n" + payload)
    return path


class TestPlanParsing:
    def test_seed_count_expands_to_range(self):
        plan = ExperimentPlan.from_dict({
            "datasets": ["d.jsonl"], "models": [{"kind": "zeroshot"}], "seeds": 3})
        assert plan.seeds == (0, 1, 2)

    def test_explicit_seed_list_kept(self):
        plan = ExperimentPlan.from_dict({
            "datasets": ["d.jsonl"], "models": [{"kind": "zeroshot"}],
            "seeds": [7, 11]})
        assert plan.seeds == (7, 11)

    def test_defaults(self):
        plan = ExperimentPlan.from_dict({
            "datasets": ["d.jsonl"], "models": [{"kind": "zeroshot"}]})
        assert plan.topic_counts == (25, 50, 75, 100)
        assert plan.seeds == (0, 1, 2, 3, 4)
        assert plan.output_dir == "runs"
        assert plan.workers == 1
        assert plan.epochs is None
        assert plan.vocab_cap == 2000

    def test_model_entry_overrides_and_labels(self):
        entry = ModelEntry.from_dict({"kind": "multimodal_zeroshot",
                                      "image_loss_weight": 60, "label": "w60"})
        assert entry.name == "w60"
        assert entry.overrides == {"image_loss_weight": 60}
        assert ModelEntry.from_dict({"kind": "zeroshot"}).name == "zeroshot"

    @pytest.mark.parametrize("label", ["../../x", ["a/b"], 5, ""],
                             ids=["parent-path", "list", "int", "empty"])
    def test_labels_that_are_not_file_names_rejected(self, label):
        entry = {"kind": "zeroshot", "label": label}
        with pytest.raises(ValueError, match=re.escape(
                f"model entry {entry}: label must be a string matching")):
            ExperimentPlan.from_dict({"datasets": ["d.jsonl"], "models": [entry]})

    def test_unknown_model_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown model entry fields"):
            ModelEntry.from_dict({"kind": "zeroshot", "momentum": 0.9})

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one dataset"):
            ExperimentPlan.from_dict({"datasets": [], "models": [{"kind": "zeroshot"}]})
        with pytest.raises(ValueError, match="topic count"):
            ExperimentPlan.from_dict({"datasets": ["d"], "models": [{"kind": "zeroshot"}],
                                      "topic_counts": []})
        with pytest.raises(ValueError, match="workers"):
            ExperimentPlan.from_dict({"datasets": ["d"], "models": [{"kind": "zeroshot"}],
                                      "workers": 0})
        for cap in (0, -5):
            with pytest.raises(ValueError, match="vocab_cap must be >= 1"):
                ExperimentPlan.from_dict({"datasets": ["d"],
                                          "models": [{"kind": "zeroshot"}],
                                          "vocab_cap": cap})

    def test_duplicate_entry_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate model entry names"):
            ExperimentPlan.from_dict({
                "datasets": ["d.jsonl"],
                "models": [{"kind": "multimodal_zeroshot"},
                           {"kind": "multimodal_zeroshot", "image_loss_weight": 60}]})
        plan = ExperimentPlan.from_dict({
            "datasets": ["d.jsonl"],
            "models": [{"kind": "multimodal_zeroshot"},
                       {"kind": "multimodal_zeroshot", "image_loss_weight": 60,
                        "label": "w60"}]})
        assert [m.name for m in plan.models] == ["multimodal_zeroshot", "w60"]

    @pytest.mark.parametrize("axis,values", [("seeds", [0, 0]), ("topic_counts", [2, 2])])
    def test_duplicate_topic_counts_and_seeds_rejected(self, axis, values):
        # both would train one cell id twice and count it twice in the aggregate
        what = {"seeds": "seeds", "topic_counts": "topic counts"}[axis]
        with pytest.raises(ValueError, match=f"duplicate {what} \\[{values[0]}\\]"):
            ExperimentPlan.from_dict({"datasets": ["d.jsonl"],
                                      "models": [{"kind": "zeroshot"}], axis: values})

    def test_colliding_dataset_stems_rejected(self):
        with pytest.raises(ValueError, match="duplicate dataset file stems"):
            ExperimentPlan.from_dict({
                "datasets": ["a/corpus.jsonl", "b/corpus.jsonl"],
                "models": [{"kind": "zeroshot"}]})

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(ValueError, match="unknown plan keys: \\['topic_count'\\]"):
            ExperimentPlan.from_dict({"datasets": ["d.jsonl"],
                                      "models": [{"kind": "zeroshot"}],
                                      "topic_count": [3]})

    @pytest.mark.parametrize("plan", [5, None, "x", ["d.jsonl"]],
                             ids=["number", "null", "string", "array"])
    def test_non_object_plan_rejected(self, plan):
        with pytest.raises(ValueError, match="plan must be a JSON object"):
            ExperimentPlan.from_dict(plan)

    @pytest.mark.parametrize("plan,message", [
        ({"models": [{"kind": "zeroshot"}]}, "plan lacks datasets"),
        ({"datasets": ["d.jsonl"]}, "plan lacks models"),
        ({"datasets": ["d.jsonl"], "models": [{"label": "z"}]}, "lacks kind"),
    ], ids=["datasets", "models", "entry-kind"])
    def test_missing_keys_rejected(self, plan, message):
        with pytest.raises(ValueError, match=message):
            ExperimentPlan.from_dict(plan)

    @pytest.mark.parametrize("key,value,message", [
        ("datasets", "data/toy.jsonl", "'datasets' must be a JSON array of strings"),
        ("models", {"kind": "zeroshot"}, "'models' must be a JSON array of objects"),
        ("models", ["zeroshot"], "'models' must be a JSON array of objects"),
        ("topic_counts", 5, "'topic_counts' must be a JSON array of integers"),
        ("topic_counts", [5, True], "'topic_counts' must be a JSON array of integers"),
        ("seeds", "3", "'seeds' must be a JSON array of integers"),
        ("seeds", True, "'seeds' must be a JSON array of integers"),
        ("workers", "2", "'workers' must be a JSON integer, got '2'"),
        ("workers", True, "'workers' must be a JSON integer, got True"),
        ("descriptor_size", "10", "'descriptor_size' must be a JSON integer"),
        ("epochs", 2.5, "'epochs' must be a JSON integer or null"),
        ("rbo_p", "0.9", "'rbo_p' must be a JSON number"),
        ("output_dir", 3, "'output_dir' must be a JSON string"),
    ], ids=["datasets-string", "models-object", "models-strings", "topic_counts-int",
            "topic_counts-bool-item", "seeds-string", "seeds-bool", "workers-string",
            "workers-bool", "descriptor_size-string", "epochs-float", "rbo_p-string",
            "output_dir-int"])
    def test_mistyped_values_rejected(self, key, value, message):
        plan = {"datasets": ["d.jsonl"], "models": [{"kind": "zeroshot"}], key: value}
        with pytest.raises(ValueError, match=f"plan key {message}"):
            ExperimentPlan.from_dict(plan)

    def test_null_and_integer_values_fit_optional_and_float_keys(self):
        plan = ExperimentPlan.from_dict({
            "datasets": ["d.jsonl"], "models": [{"kind": "zeroshot"}],
            "epochs": None, "word_vectors": None})
        assert plan.epochs is None and plan.word_vectors is None
        # The integer 1 passes the float key's type check and fails its range.
        with pytest.raises(ValueError, match="rbo_p must be < 1"):
            ExperimentPlan.from_dict({"datasets": ["d.jsonl"],
                                      "models": [{"kind": "zeroshot"}], "rbo_p": 1})

    @pytest.mark.parametrize("key,value", [
        ("descriptor_size", 0), ("descriptor_size", 1), ("npmi_window", 0),
        ("rbo_p", 0), ("rbo_p", 1.5),
    ], ids=["descriptor_size-0", "descriptor_size-1", "npmi_window-0", "rbo_p-0",
            "rbo_p-1.5"])
    def test_evaluation_settings_every_cell_would_fail_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must"):
            ExperimentPlan.from_dict({"datasets": ["d.jsonl"],
                                      "models": [{"kind": "zeroshot"}], key: value})

    @pytest.mark.parametrize("entry,message", [
        ({"kind": "zeroshot", "epochs": "5"}, "'zeroshot' at 25 topics"),
        ({"kind": "pagerank"}, "'pagerank' at 25 topics: unknown model kind"),
        ({"kind": "combined", "label": "c", "batch_size": 0}, "'c' at 25 topics: batch_size"),
        *(({"kind": "zeroshot", field: value},
           f"'zeroshot' at 25 topics: config field '{field}' must be a JSON {wanted}")
          for field, value, wanted in (
              ("learning_rate", True, "number"), ("epochs", True, "integer"),
              ("prior_alpha", True, "number or null"), ("epochs", 2.5, "integer"),
              ("hidden_dim", 2.5, "integer"), ("batch_size", 1.5, "integer or null"))),
        ({"kind": "zeroshot", "learning_rate": math.nan},
         "'zeroshot' at 25 topics: learning_rate must be finite, got nan"),
        ({"kind": "zeroshot", "temperature": json.loads("1e400")},
         "'zeroshot' at 25 topics: temperature must be finite, got inf"),
        ({"kind": "zeroshot", "learning_rate": json.loads("1" + "0" * 400)},
         "'zeroshot' at 25 topics: learning_rate must be finite, got 1000"),
    ], ids=["string-epochs", "unknown-kind", "zero-batch-size", "bool-learning_rate",
            "bool-epochs", "bool-prior_alpha", "float-epochs", "float-hidden_dim",
            "float-batch_size", "nan-learning_rate", "1e400-temperature",
            "huge-integer-learning_rate"])
    def test_entries_that_cannot_configure_a_model_rejected(self, entry, message):
        with pytest.raises(ValueError, match=message):
            ExperimentPlan.from_dict({"datasets": ["d.jsonl"], "models": [entry]})

    def test_a_topic_count_too_large_for_a_float_is_named(self):
        # With prior_alpha given too: every cell would fail in nncore.prior_variance.
        for entry in ('{"kind": "zeroshot"}', '{"kind": "zeroshot", "prior_alpha": 0.5}'):
            plan = json.loads('{"datasets": ["d.jsonl"], "models": [' + entry + '], '
                              '"topic_counts": [1' + "0" * 400 + "]}")
            with pytest.raises(ValueError, match="topics: num_topics must be < 1.79"):
                ExperimentPlan.from_dict(plan)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="'zeroshot' at 25 topics: seed must be >= 0"):
            ExperimentPlan.from_dict({"datasets": ["d.jsonl"],
                                      "models": [{"kind": "zeroshot"}], "seeds": [0, -1]})

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"datasets": ["d.jsonl"],
                                    "models": [{"kind": "combined"}],
                                    "topic_counts": [5], "seeds": 2,
                                    "output_dir": "out", "epochs": 9}))
        plan = ExperimentPlan.from_file(path)
        assert plan.models[0].kind == "combined"
        assert plan.epochs == 9


def write_dataset(tmp_path, seed=3, docs=12) -> Path:
    spec = SyntheticSpec(num_topics_true=2, vocab_size=30, docs=docs, doc_length=15,
                         embed_dim_text=5, embed_dim_image=4,
                         topic_word_concentration=0.5, embedding_noise=0.05, seed=seed)
    corpus, _ = generate_synthetic(spec)
    return save_corpus(corpus, tmp_path / "toy.jsonl")


def make_plan(tmp_path, dataset, **extra):
    base = {
        "datasets": [str(dataset)],
        "models": [{"kind": "zeroshot"},
                   {"kind": "multimodal_zeroshot", "image_loss_weight": 2.0,
                    "label": "mzs-w2"}],
        "topic_counts": [2],
        "seeds": 2,
        "epochs": 2,
        "descriptor_size": 3,
        "output_dir": str(tmp_path / "runs"),
    }
    base.update(extra)
    return ExperimentPlan.from_dict(base)


# The fields that name a cell and what shaped it, as opposed to its outcome.
IDENTITY = ("cell_id", "dataset", "model_label", "kind", "num_topics", "seed", "config",
            "corpus_fingerprint", "evaluation")


def identity(manifest: RunManifest) -> dict:
    return {name: getattr(manifest, name) for name in IDENTITY}


# Runs the plan at argv[1] with a train that first records its process id
# under the directory argv[2] and then sleeps 3 s.
SLOW_SWEEP = """
import os, sys, time
from pathlib import Path
import mmtopic.harness as harness
real_train = harness.train

def slow_train(corpus, config):
    (Path(sys.argv[2]) / str(os.getpid())).touch()
    time.sleep(3)
    return real_train(corpus, config)

harness.train = slow_train
harness.run_plan(harness.ExperimentPlan.from_file(sys.argv[1]))
"""


def is_running(pid: int) -> bool:
    """Whether ``pid`` names a live process; a zombie has exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def snapshot_tree(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path)] = (path.stat().st_mtime_ns,
                              hashlib.sha256(path.read_bytes()).hexdigest())
    return out


class TestRunPlan:
    def test_executes_every_cell_and_writes_artifacts(self, tmp_path):
        dataset = write_dataset(tmp_path)
        plan = make_plan(tmp_path, dataset)
        manifests = run_plan(plan)
        assert len(manifests) == 4  # 2 models x 1 topic count x 2 seeds
        assert all(m.status == "ok" for m in manifests)
        assert [m.seed for m in manifests] == [0, 1, 0, 1]
        for m in manifests:
            assert m.metrics["npmi"] is not None
            for artifact in m.artifacts.values():
                assert Path(artifact).exists()
        loaded = load_model(manifests[2].artifacts["checkpoint"])
        assert loaded.kind == "multimodal_zeroshot"
        assert loaded.config.image_loss_weight == 2.0
        assert loaded.config.epochs == 2
        runs = tmp_path / "runs"
        for name in ("aggregate.json", "aggregate.md", "aggregate.csv"):
            assert (runs / name).exists()

    @pytest.mark.parametrize("docs,size", [(40, 31), (12, 13)], ids=["vocab", "docs"])
    def test_descriptor_size_beyond_the_dataset_rejected_before_training(
            self, tmp_path, docs, size):
        dataset = write_dataset(tmp_path, docs=docs)
        corpus = load_corpus(dataset)
        v, n = len(corpus.vocabulary), corpus.num_documents
        assert (v, n) == (30, docs) and size > min(v, n) and size - 1 <= min(v, n)
        plan = make_plan(tmp_path, dataset, descriptor_size=size)
        with pytest.raises(ValueError, match=f"{re.escape(str(dataset))}: descriptor_size "
                                             f"{size} exceeds .* V={v} .* N={n}"):
            run_plan(plan)
        assert not (tmp_path / "runs" / "checkpoints").exists()

    def test_completed_plan_rerun_touches_nothing(self, tmp_path):
        dataset = write_dataset(tmp_path)
        plan = make_plan(tmp_path, dataset)
        run_plan(plan)
        before = snapshot_tree(tmp_path / "runs")
        manifests = run_plan(plan)
        assert all(m.status == "ok" for m in manifests)
        assert snapshot_tree(tmp_path / "runs") == before

    def test_same_content_in_other_bytes_skips_every_cell(self, tmp_path):
        dataset = write_dataset(tmp_path)
        plan = make_plan(tmp_path, dataset)
        first = run_plan(plan)
        assert {m.corpus_fingerprint for m in first} == {load_corpus(dataset).fingerprint}
        before, raw = snapshot_tree(tmp_path / "runs"), dataset.read_bytes()
        # keys reversed, no spaces, and blank lines
        dataset.write_text("\n".join(json.dumps(dict(reversed(json.loads(line).items())),
                                                separators=(",", ":"))
                                     for line in raw.decode().splitlines()) + "\n\n\n")
        assert dataset.read_bytes() != raw
        assert [m.to_dict() for m in run_plan(plan)] == [m.to_dict() for m in first]
        assert snapshot_tree(tmp_path / "runs") == before

    def test_sidecar_edit_that_keeps_the_vocabulary_skips_every_cell(self, tmp_path):
        dataset = write_dataset(tmp_path)
        sidecar = dataset.with_name("toy.vocab.txt")
        plan = make_plan(tmp_path, dataset)
        run_plan(plan)
        before = snapshot_tree(tmp_path / "runs")
        sidecar.write_text("\n".join(f"  {t}\n" for t in sidecar.read_text().split()))
        run_plan(plan)
        assert snapshot_tree(tmp_path / "runs") == before

    def test_dataset_that_no_longer_parses_raises_though_its_cells_are_complete(
            self, tmp_path):
        dataset = write_dataset(tmp_path)
        plan = make_plan(tmp_path, dataset)
        run_plan(plan)
        before = snapshot_tree(tmp_path / "runs")
        with dataset.open("a") as fh:
            fh.write("{broken\n")
        with pytest.raises(DatasetFormatError, match="line 13: invalid JSON"):
            run_plan(plan)
        assert snapshot_tree(tmp_path / "runs") == before

    def test_changed_dataset_invalidates_cells(self, tmp_path):
        dataset = write_dataset(tmp_path, seed=3)
        plan = make_plan(tmp_path, dataset)
        first = run_plan(plan)
        checkpoint = Path(first[0].artifacts["checkpoint"])
        stamp = checkpoint.stat().st_mtime_ns
        write_dataset(tmp_path, seed=4)  # same path, different bytes
        second = run_plan(plan)
        assert all(m.status == "ok" for m in second)
        assert second[0].corpus_fingerprint != first[0].corpus_fingerprint
        assert checkpoint.stat().st_mtime_ns != stamp

    def test_changed_config_invalidates_cells(self, tmp_path):
        dataset = write_dataset(tmp_path)
        run_plan(make_plan(tmp_path, dataset, epochs=2))
        manifests = run_plan(make_plan(tmp_path, dataset, epochs=3))
        assert [m.config["epochs"] for m in manifests] == [3, 3, 3, 3]
        for m in manifests:
            model = load_model(m.artifacts["checkpoint"])
            assert model.config.epochs == 3 and len(model.loss_trace) == 3

    def test_changed_evaluation_settings_invalidate_cells(self, tmp_path):
        dataset = write_dataset(tmp_path)
        one_cell = {"models": [{"kind": "zeroshot"}], "seeds": 1}
        run_plan(make_plan(tmp_path, dataset, **one_cell))
        [manifest] = run_plan(make_plan(tmp_path, dataset, **one_cell, descriptor_size=5,
                                        npmi_window=3, rbo_p=0.5))
        descriptors = Path(manifest.artifacts["descriptors"]).read_text().splitlines()
        assert {len(json.loads(line)["keywords"]) for line in descriptors} == {5}
        report = json.loads(Path(manifest.artifacts["metrics"]).read_text())
        assert report["params"] == {"n_descriptors": 5, "window": 3, "rbo_p": 0.5}
        assert manifest.evaluation == {"descriptor_size": 5, "npmi_window": 3,
                                       "rbo_p": 0.5, "word_vectors_sha256": None}

    def test_edited_word_vector_file_invalidates_cells(self, tmp_path):
        dataset = write_dataset(tmp_path)
        terms = load_corpus(dataset).vocabulary.terms
        vectors = tmp_path / "vectors.txt"
        for seed in (0, 1):
            values = np.random.default_rng(seed).normal(size=(len(terms), 3))
            vectors.write_text("".join(f"{t} {' '.join(map(str, v))}\n"
                                       for t, v in zip(terms, values)))
            manifests = run_plan(make_plan(tmp_path, dataset, word_vectors=str(vectors)))
            if seed == 0:
                first = manifests
        second = manifests
        assert all(m.status == "ok" for m in second)
        assert [m.metrics["we"] for m in second] != [m.metrics["we"] for m in first]
        assert second[0].evaluation["word_vectors_sha256"] \
            == hashlib.sha256(vectors.read_bytes()).hexdigest()

    def test_manifest_without_evaluation_settings_reruns_once(self, tmp_path):
        dataset = write_dataset(tmp_path)
        plan = make_plan(tmp_path, dataset)
        first = run_plan(plan)
        path = tmp_path / "runs" / "manifests" / f"{first[0].cell_id}.json"
        stored = json.loads(path.read_text())
        del stored["evaluation"]
        path.write_text(json.dumps(stored))
        checkpoint = Path(first[0].artifacts["checkpoint"])
        stamp = checkpoint.stat().st_mtime_ns
        run_plan(plan)
        assert checkpoint.stat().st_mtime_ns != stamp
        before = snapshot_tree(tmp_path / "runs")
        run_plan(plan)
        assert snapshot_tree(tmp_path / "runs") == before

    @pytest.mark.parametrize("corrupt", [
        lambda m: b'{"cell_id": "\xff"}',
        lambda m: json.dumps({**m, "artifacts": list(m["artifacts"].values())}).encode(),
        lambda m: json.dumps({**m, "num_topics": "2"}).encode(),
    ], ids=["invalid-utf8", "artifacts-list", "num_topics-string"])
    def test_unreadable_manifest_reruns_its_cell(self, tmp_path, corrupt):
        dataset = write_dataset(tmp_path)
        plan = make_plan(tmp_path, dataset)
        first = run_plan(plan)
        path = tmp_path / "runs" / "manifests" / f"{first[0].cell_id}.json"
        path.write_bytes(corrupt(json.loads(path.read_text())))
        checkpoint = Path(first[0].artifacts["checkpoint"])
        stamp = checkpoint.stat().st_mtime_ns
        second = run_plan(plan)
        assert all(m.status == "ok" for m in second)
        assert checkpoint.stat().st_mtime_ns != stamp
        assert RunManifest.from_dict(json.loads(path.read_text())) == second[0]

    def test_vocab_cap_reaches_the_vocabulary_build(self, tmp_path):
        dataset = write_dataset(tmp_path)
        dataset.with_name("toy.vocab.txt").unlink()
        manifests = run_plan(make_plan(tmp_path, dataset, vocab_cap=7))
        model = load_model(manifests[0].artifacts["checkpoint"])
        assert len(model.vocabulary) == 7

    def test_changed_vocab_cap_invalidates_cells(self, tmp_path):
        dataset = write_dataset(tmp_path)
        dataset.with_name("toy.vocab.txt").unlink()
        run_plan(make_plan(tmp_path, dataset, vocab_cap=7))
        manifests = run_plan(make_plan(tmp_path, dataset, vocab_cap=9))
        for m in manifests:
            assert len(load_model(m.artifacts["checkpoint"]).vocabulary) == 9

    def test_changed_sidecar_vocabulary_invalidates_cells(self, tmp_path):
        dataset = write_dataset(tmp_path)
        sidecar = dataset.with_name("toy.vocab.txt")
        run_plan(make_plan(tmp_path, dataset))
        sidecar.write_text("\n".join(sidecar.read_text().split()[:5]) + "\n")
        manifests = run_plan(make_plan(tmp_path, dataset))
        assert len(load_corpus(dataset).vocabulary) == 5
        for m in manifests:
            assert len(load_model(m.artifacts["checkpoint"]).vocabulary) == 5

    def test_failed_cell_does_not_abort_the_sweep(self, tmp_path, monkeypatch):
        import mmtopic.harness as harness_module
        real_train = harness_module.train

        def flaky_train(corpus, config):
            if config.kind == "zeroshot":
                raise RuntimeError("simulated training failure")
            return real_train(corpus, config)

        monkeypatch.setattr(harness_module, "train", flaky_train)
        dataset = write_dataset(tmp_path)
        plan = make_plan(tmp_path, dataset)
        manifests = run_plan(plan)
        failed = [m for m in manifests if m.status == "failed"]
        ok = [m for m in manifests if m.status == "ok"]
        assert len(failed) == 2 and len(ok) == 2
        assert all("simulated training failure" in m.error for m in failed)
        assert all(m.kind == "zeroshot" for m in failed)
        text = (tmp_path / "runs" / "aggregate.md").read_text()
        assert "Failed cells:" in text
        for m in failed:
            assert m.cell_id in text

        monkeypatch.setattr(harness_module, "train", real_train)
        resumed = {m.cell_id: m for m in run_plan(plan)}
        for m in failed:
            assert resumed[m.cell_id].status == "ok"
            assert identity(m) == identity(resumed[m.cell_id])

    def test_parallel_run_matches_sequential(self, tmp_path):
        dataset = write_dataset(tmp_path)
        seq_plan = make_plan(tmp_path, dataset, output_dir=str(tmp_path / "seq"))
        par_plan = make_plan(tmp_path, dataset, output_dir=str(tmp_path / "par"),
                             workers=3)
        run_plan(seq_plan)
        run_plan(par_plan)
        seq_csv = (tmp_path / "seq" / "aggregate.csv").read_text()
        par_csv = (tmp_path / "par" / "aggregate.csv").read_text()
        assert seq_csv == par_csv
        seq_ckpts = sorted(p.name for p in (tmp_path / "seq" / "checkpoints").iterdir())
        for name in seq_ckpts:
            a = (tmp_path / "seq" / "checkpoints" / name).read_bytes()
            b = (tmp_path / "par" / "checkpoints" / name).read_bytes()
            assert a == b

    def test_workers_are_forked_processes(self, tmp_path, monkeypatch):
        import mmtopic.harness as harness_module
        real_train = harness_module.train
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()

        def recording_train(corpus, config):
            (pid_dir / f"{config.kind}-{config.seed}").write_text(str(os.getpid()))
            return real_train(corpus, config)

        monkeypatch.setattr(harness_module, "train", recording_train)
        dataset = write_dataset(tmp_path)
        manifests = run_plan(make_plan(tmp_path, dataset, workers=2))
        assert all(m.status == "ok" for m in manifests)
        pids = {int(path.read_text()) for path in pid_dir.iterdir()}
        assert len(list(pid_dir.iterdir())) == 4
        assert os.getpid() not in pids and 1 <= len(pids) <= 2

    def test_no_more_workers_forked_than_pending_cells(self, tmp_path, monkeypatch):
        real_fork = os.fork
        forks = []

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        dataset = write_dataset(tmp_path)
        manifests = run_plan(make_plan(tmp_path, dataset, models=[{"kind": "zeroshot"}],
                                       workers=4))
        assert len(manifests) == 2 and all(m.status == "ok" for m in manifests)
        assert len(forks) == 2

    def test_without_fork_cells_run_serially_with_the_same_outputs(self, tmp_path,
                                                                   monkeypatch):
        import mmtopic.harness as harness_module
        dataset = write_dataset(tmp_path)
        run_plan(make_plan(tmp_path, dataset, output_dir=str(tmp_path / "pool"),
                           workers=2))
        real_train = harness_module.train
        pids = []

        def recording_train(corpus, config):
            pids.append(os.getpid())
            return real_train(corpus, config)

        monkeypatch.setattr(harness_module, "train", recording_train)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        manifests = run_plan(make_plan(tmp_path, dataset, output_dir=str(tmp_path / "serial"),
                                       workers=2))
        assert all(m.status == "ok" for m in manifests)
        assert pids == [os.getpid()] * 4
        for sub in ("checkpoints", "metrics"):
            names = sorted(p.name for p in (tmp_path / "pool" / sub).iterdir())
            assert len(names) == 4
            assert names == sorted(p.name for p in (tmp_path / "serial" / sub).iterdir())
            for name in names:
                assert ((tmp_path / "pool" / sub / name).read_bytes()
                        == (tmp_path / "serial" / sub / name).read_bytes())

    @pytest.mark.parametrize("die,exit_text", [
        (lambda: os._exit(3), "exit code 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "SIGKILL"),
    ], ids=["exit", "sigkill"])
    def test_dead_worker_fails_only_its_cells_and_resume_reruns_them(
            self, tmp_path, monkeypatch, die, exit_text):
        import mmtopic.harness as harness_module
        real_train = harness_module.train

        def dying_train(corpus, config):
            if config.kind == "zeroshot":
                die()
            return real_train(corpus, config)

        monkeypatch.setattr(harness_module, "train", dying_train)
        dataset = write_dataset(tmp_path)
        plan = make_plan(tmp_path, dataset, workers=2)
        manifests = run_plan(plan)
        assert [(m.kind, m.status) for m in manifests] == [
            ("zeroshot", "failed")] * 2 + [("multimodal_zeroshot", "ok")] * 2
        for m in manifests[:2]:
            assert m.error == ("BrokenProcessPool: the cell's worker process ended "
                               f"abruptly ({exit_text})")
        assert [m.to_dict() for m in load_manifests(tmp_path / "runs")] == sorted(
            (m.to_dict() for m in manifests), key=lambda d: d["cell_id"])
        text = (tmp_path / "runs" / "aggregate.md").read_text()
        assert "Failed cells:" in text and all(m.cell_id in text for m in manifests[:2])

        monkeypatch.setattr(harness_module, "train", real_train)
        kept = snapshot_tree(tmp_path / "runs" / "checkpoints")
        resumed = run_plan(plan)
        assert all(m.status == "ok" for m in resumed)
        assert resumed[2:] == manifests[2:]
        assert [identity(m) for m in resumed[:2]] == [identity(m) for m in manifests[:2]]
        after = snapshot_tree(tmp_path / "runs" / "checkpoints")
        assert len(after) == 4 and all(after[path] == kept[path] for path in kept)

    def test_dead_worker_neither_kills_nor_reruns_another_cell(self, tmp_path, monkeypatch):
        import mmtopic.harness as harness_module
        real_train = harness_module.train
        starts = tmp_path / "train-starts"

        def dying_train(corpus, config):
            with starts.open("a") as log:
                log.write(config.kind + "\n")
            if config.kind == "zeroshot":
                os._exit(3)
            time.sleep(0.5)  # still training when the other worker dies
            return real_train(corpus, config)

        monkeypatch.setattr(harness_module, "train", dying_train)
        dataset = write_dataset(tmp_path)
        manifests = run_plan(make_plan(
            tmp_path, dataset, models=[{"kind": "multimodal_zeroshot"}, {"kind": "zeroshot"}],
            seeds=1, workers=2))
        assert [(m.kind, m.status) for m in manifests] == [
            ("multimodal_zeroshot", "ok"), ("zeroshot", "failed")]
        assert sorted(starts.read_text().split()) == ["multimodal_zeroshot", "zeroshot"]

    def test_a_failing_manifest_write_propagates_and_ends_every_worker(self, tmp_path,
                                                                      monkeypatch):
        import mmtopic.harness as harness_module
        real_write = harness_module.atomic_write_text

        def failing_write(path, text):
            if Path(path).parent.name == "manifests":
                raise OSError("simulated full disk")
            return real_write(path, text)

        monkeypatch.setattr(harness_module, "atomic_write_text", failing_write)
        dataset = write_dataset(tmp_path)
        with pytest.raises(OSError, match="simulated full disk"):
            run_plan(make_plan(tmp_path, dataset, workers=2))
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_workers_end_when_the_sweep_is_killed(self, tmp_path):
        dataset = write_dataset(tmp_path)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "datasets": [str(dataset)], "topic_counts": [2], "seeds": 2, "epochs": 2,
            "models": [{"kind": "zeroshot"}, {"kind": "multimodal_zeroshot"}],
            "descriptor_size": 3, "output_dir": str(tmp_path / "runs"), "workers": 2}))
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        sweep = subprocess.Popen([sys.executable, "-c", SLOW_SWEEP, str(plan_path),
                                  str(pid_dir)], env=fresh_python_env(),
                                 stderr=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = [int(path.name) for path in pid_dir.iterdir()]
            assert len(workers) == 2, "both workers should have started a cell"
            sweep.kill()
            sweep.wait()
            deadline = time.monotonic() + 3 + 10  # the cell's sleep, then slack
            while any(map(is_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in workers if is_running(pid)]
        finally:
            sweep.kill()
            sweep.wait()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_load_manifests_round_trip(self, tmp_path):
        dataset = write_dataset(tmp_path)
        manifests = run_plan(make_plan(tmp_path, dataset))
        loaded = load_manifests(tmp_path / "runs")
        assert sorted(m.cell_id for m in loaded) == sorted(m.cell_id for m in manifests)
        with pytest.raises(FileNotFoundError, match="no manifests"):
            load_manifests(tmp_path / "nowhere")

    @pytest.mark.parametrize("text", ['{"cell_id": "x",', '{"cell_id": "x"}', '[1, 2]'],
                             ids=["truncated", "missing-fields", "not-an-object"])
    def test_load_manifests_names_a_broken_manifest(self, tmp_path, text):
        manifest_dir = tmp_path / "runs" / "manifests"
        manifest_dir.mkdir(parents=True)
        (manifest_dir / "broken.json").write_text(text)
        with pytest.raises(ValueError, match="broken.json: not a run manifest"):
            load_manifests(tmp_path / "runs")

    def test_resume_and_load_manifests_share_one_reader(self, tmp_path, monkeypatch):
        import mmtopic.harness as harness_module
        plan = make_plan(tmp_path, write_dataset(tmp_path))
        names = sorted(f"{m.cell_id}.json" for m in run_plan(plan))
        read, emitted = [], []
        real_read, real_emit = harness_module._read_manifest, harness_module.emit_report
        monkeypatch.setattr(harness_module, "_read_manifest",
                            lambda path: read.append(path.name) or real_read(path))
        monkeypatch.setattr(harness_module, "emit_report",
                            lambda m, out: emitted.append(out) or real_emit(m, out))
        run_plan(plan)
        assert sorted(read) == names and emitted == [Path(plan.output_dir)]
        read.clear()
        load_manifests(plan.output_dir)
        assert read == names


def manifest_stub(model, k, seed, metrics, status="ok", dataset="d.jsonl"):
    return RunManifest(
        cell_id=f"d__{model}__k{k}__s{seed}", dataset=dataset, model_label=model,
        kind="zeroshot", num_topics=k, seed=seed, status=status,
        metrics=metrics, error=None if status == "ok" else "boom")


class TestAggregation:
    def test_mean_over_seeds_then_topic_counts(self):
        manifests = [
            manifest_stub("m", 2, 0, {"npmi": 0.1, "td": 1.0}),
            manifest_stub("m", 2, 1, {"npmi": 0.3, "td": 0.5}),
            manifest_stub("m", 4, 0, {"npmi": 0.5, "td": None}),
            manifest_stub("m", 4, 1, {"npmi": None, "td": None}),
        ]
        agg = aggregate_metrics(manifests)
        row = agg["rows"][0]
        # k=2 mean 0.2, k=4 mean 0.5 (None excluded), overall (0.2+0.5)/2
        assert row["npmi"] == pytest.approx(0.35)
        assert row["td"] == pytest.approx(0.75)  # only k=2 contributes
        assert row["per_topic_count"][2]["npmi"] == pytest.approx(0.2)
        assert row["cells"] == 4 and row["failed"] == []

    def test_failed_cells_are_excluded_and_listed(self):
        manifests = [
            manifest_stub("m", 2, 0, {"npmi": 0.4}),
            manifest_stub("m", 2, 1, None, status="failed"),
        ]
        row = aggregate_metrics(manifests)["rows"][0]
        assert row["npmi"] == pytest.approx(0.4)
        assert row["failed"] == ["d__m__k2__s1"]

    def test_groups_split_by_dataset_and_label(self):
        manifests = [
            manifest_stub("a", 2, 0, {"npmi": 0.1}),
            manifest_stub("b", 2, 0, {"npmi": 0.2}),
            manifest_stub("a", 2, 0, {"npmi": 0.9}, dataset="other.jsonl"),
        ]
        rows = aggregate_metrics(manifests)["rows"]
        assert len(rows) == 3

    def test_independent_of_manifest_order(self):
        manifests = [
            manifest_stub("b", 4, 1, {"npmi": 0.1}),
            manifest_stub("b", 4, 0, {"npmi": 0.2}),
            manifest_stub("a", 2, 1, None, status="failed"),
            manifest_stub("b", 2, 0, {"npmi": 0.3}),
            manifest_stub("a", 2, 0, None, status="failed"),
            manifest_stub("a", 2, 0, {"npmi": 0.4}, dataset="c.jsonl"),
        ]
        agg = aggregate_metrics(manifests)
        assert aggregate_metrics(manifests[::-1]) == agg
        assert [(row["dataset"], row["model"]) for row in agg["rows"]] \
            == [("c.jsonl", "a"), ("d.jsonl", "a"), ("d.jsonl", "b")]
        assert agg["rows"][1]["failed"] == ["d__a__k2__s0", "d__a__k2__s1"]


class TestReportFormats:
    def make_manifests(self):
        return [manifest_stub("m", 2, 0,
                              {"npmi": 0.4714, "we": None, "iec": 0.125,
                               "td": 1.0, "irbo": 0.987654321, "ieps": None})]

    def emit(self, manifests, tmp_path, name):
        paths = emit_report(manifests, tmp_path)
        assert paths == [tmp_path / n for n in ("aggregate.json", "aggregate.md",
                                                "aggregate.csv")]
        return tmp_path / name

    def test_markdown_rounds_to_two_decimals_with_blanks(self, tmp_path):
        text = self.emit(self.make_manifests(), tmp_path, "aggregate.md").read_text()
        assert "| d.jsonl | m | 0.47 |  | 0.12 | 1.00 | 0.99 |  |" in text

    def test_markdown_heads_each_metric_column(self, tmp_path):
        heading, rule = self.emit(self.make_manifests(), tmp_path,
                                  "aggregate.md").read_text().splitlines()[:2]
        assert heading == "| Dataset | Model | NPMI | WE | IEC | TD | I-RBO | IEPS |"
        names = [h.strip().lower().replace("-", "") for h in heading.split("|")[3:-1]]
        assert names == list(METRIC_COLUMNS)
        assert rule == "|---" * (len(METRIC_COLUMNS) + 2) + "|"

    def test_csv_keeps_full_precision(self, tmp_path):
        path = self.emit(self.make_manifests(), tmp_path, "aggregate.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,model,npmi,we,iec,td,irbo,ieps,failed_cells"
        assert lines[1] == "d.jsonl,m,0.4714,,0.125,1.0,0.987654321,,0"

    def test_csv_quotes_a_dataset_path_with_a_comma(self, tmp_path):
        manifests = [manifest_stub("m", 2, 0, {"npmi": 0.5}, dataset="a,b.jsonl")]
        with self.emit(manifests, tmp_path, "aggregate.csv").open(newline="") as fh:
            header, row = csv.reader(fh)
        assert len(row) == len(header) == 9
        assert row[:3] == ["a,b.jsonl", "m", "0.5"]

    def test_json_round_trips(self, tmp_path):
        data = json.loads(self.emit(self.make_manifests(), tmp_path, "aggregate.json").read_text())
        assert data["rows"][0]["npmi"] == pytest.approx(0.4714)

    def test_failed_cells_are_listed_and_counted(self, tmp_path):
        manifests = [*self.make_manifests(), manifest_stub("m", 2, 1, None, status="failed")]
        assert self.emit(manifests, tmp_path, "aggregate.md").read_text().endswith(
            " |\n\nFailed cells:\n- m: d__m__k2__s1\n")
        assert (tmp_path / "aggregate.csv").read_text().splitlines()[1].endswith(",1")

    def test_one_aggregate_serves_all_three_tables(self, tmp_path, monkeypatch):
        import mmtopic.harness as harness_module
        calls = []
        monkeypatch.setattr(harness_module, "aggregate_metrics",
                            lambda m: calls.append(m) or aggregate_metrics(m))
        manifests = self.make_manifests()
        emit_report(manifests, tmp_path)
        assert calls == [manifests]

    def test_identical_content_is_not_rewritten(self, tmp_path):
        manifests = self.make_manifests()
        paths = emit_report(manifests, tmp_path)
        stamps = [p.stat().st_mtime_ns for p in paths]
        assert emit_report(manifests, tmp_path) == []
        assert [p.stat().st_mtime_ns for p in paths] == stamps
