import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmtopic.corpus import SyntheticSpec, generate_synthetic, save_corpus
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
from mmtopic.models import ModelConfig, train

from conftest import make_corpus


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

    def test_expected_kind_enforced(self, small_model, tmp_path):
        path = save_model(small_model, tmp_path / "model.mmtm")
        load_model(path, expected_kind="multimodal_zeroshot")
        with pytest.raises(CheckpointError, match="does not match expected"):
            load_model(path, expected_kind="zeroshot")

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
            load_model(path)
        except CheckpointError:
            pass


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2 ** 40) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)


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

    def test_model_entry_overrides_and_labels(self):
        entry = ModelEntry.from_dict({"kind": "multimodal_zeroshot",
                                      "image_loss_weight": 60, "label": "w60"})
        assert entry.name == "w60"
        assert entry.overrides == {"image_loss_weight": 60}
        assert ModelEntry.from_dict({"kind": "zeroshot"}).name == "zeroshot"

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

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"datasets": ["d.jsonl"],
                                    "models": [{"kind": "combined"}],
                                    "topic_counts": [5], "seeds": 2,
                                    "output_dir": "out", "epochs": 9}))
        plan = ExperimentPlan.from_file(path)
        assert plan.models[0].kind == "combined"
        assert plan.epochs == 9


def write_dataset(tmp_path, seed=3) -> Path:
    spec = SyntheticSpec(num_topics_true=2, vocab_size=30, docs=12, doc_length=15,
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
        loaded = load_model(manifests[2].artifacts["checkpoint"],
                            expected_kind="multimodal_zeroshot")
        assert loaded.config.image_loss_weight == 2.0
        assert loaded.config.epochs == 2
        runs = tmp_path / "runs"
        for name in ("aggregate.json", "aggregate.md", "aggregate.csv"):
            assert (runs / name).exists()

    def test_completed_plan_rerun_touches_nothing(self, tmp_path):
        dataset = write_dataset(tmp_path)
        plan = make_plan(tmp_path, dataset)
        run_plan(plan)
        before = snapshot_tree(tmp_path / "runs")
        manifests = run_plan(plan)
        assert all(m.status == "ok" for m in manifests)
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

    def test_failed_cell_does_not_abort_the_sweep(self, tmp_path, monkeypatch):
        import mmtopic.harness as harness_module
        real_train = harness_module.train

        def flaky_train(corpus, config):
            if config.kind == "zeroshot":
                raise RuntimeError("simulated training failure")
            return real_train(corpus, config)

        monkeypatch.setattr(harness_module, "train", flaky_train)
        dataset = write_dataset(tmp_path)
        manifests = run_plan(make_plan(tmp_path, dataset))
        failed = [m for m in manifests if m.status == "failed"]
        ok = [m for m in manifests if m.status == "ok"]
        assert len(failed) == 2 and len(ok) == 2
        assert all("simulated training failure" in m.error for m in failed)
        assert all(m.kind == "zeroshot" for m in failed)
        text = (tmp_path / "runs" / "aggregate.md").read_text()
        assert "Failed cells:" in text
        for m in failed:
            assert m.cell_id in text

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

    def test_load_manifests_round_trip(self, tmp_path):
        dataset = write_dataset(tmp_path)
        manifests = run_plan(make_plan(tmp_path, dataset))
        loaded = load_manifests(tmp_path / "runs")
        assert sorted(m.cell_id for m in loaded) == sorted(m.cell_id for m in manifests)
        with pytest.raises(FileNotFoundError, match="no manifests"):
            load_manifests(tmp_path / "nowhere")


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


class TestReportFormats:
    def make_manifests(self):
        return [manifest_stub("m", 2, 0,
                              {"npmi": 0.4714, "we": None, "iec": 0.125,
                               "td": 1.0, "irbo": 0.987654321, "ieps": None})]

    def test_markdown_rounds_to_two_decimals_with_blanks(self, tmp_path):
        path = emit_report(self.make_manifests(), "markdown", tmp_path)
        text = path.read_text()
        assert path.name == "aggregate.md"
        assert "| d.jsonl | m | 0.47 |  | 0.12 | 1.00 | 0.99 |  |" in text

    def test_csv_keeps_full_precision(self, tmp_path):
        path = emit_report(self.make_manifests(), "csv", tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,model,npmi,we,iec,td,irbo,ieps,failed_cells"
        assert lines[1] == "d.jsonl,m,0.4714,,0.125,1.0,0.987654321,,0"

    def test_json_round_trips(self, tmp_path):
        path = emit_report(self.make_manifests(), "json", tmp_path)
        data = json.loads(path.read_text())
        assert data["rows"][0]["npmi"] == pytest.approx(0.4714)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(self.make_manifests(), "xml", tmp_path)

    def test_identical_content_is_not_rewritten(self, tmp_path):
        manifests = self.make_manifests()
        path = emit_report(manifests, "csv", tmp_path)
        stamp = path.stat().st_mtime_ns
        assert emit_report(manifests, "csv", tmp_path) == path
        assert path.stat().st_mtime_ns == stamp
