"""Experiment harness: checkpoint persistence, sweep plans over model
kinds, topic counts, and seeds, resumable runs with per-cell manifests, and
aggregate report emission.

A plan is a JSON file::

    {"datasets": ["data/corpus.jsonl"],
     "models": [{"kind": "multimodal_zeroshot"},
                {"kind": "multimodal_zeroshot", "image_loss_weight": 60,
                 "label": "mzs-w60"}],
     "topic_counts": [25, 50, 75, 100],
     "seeds": 5,
     "output_dir": "runs",
     "epochs": 100}

``seeds`` is either a count (expanded to 0..n-1) or an explicit list. Every
(dataset, model, topic count, seed) cell trains one model, writes its
checkpoint, descriptors, and metrics, and records a manifest. Cells with a
valid manifest are skipped on re-runs, and a completed plan re-run leaves
every output byte untouched. Aggregation averages metrics over seeds within
each topic count, then over topic counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, Vocabulary, load_corpus
from .descriptors import describe_topics, write_descriptors
from .metrics import compute_metric_report, load_word_vectors
from .models import ModelConfig, TrainedTopicModel, train

logger = logging.getLogger(__name__)

_CHECKPOINT_MAGIC = "MMTM1"

METRIC_COLUMNS = ("npmi", "we", "iec", "td", "irbo", "ieps")


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, corrupt, or of the wrong kind."""


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via a temp file in the same directory plus rename, so readers
    never observe a partial file and concurrent writers cannot interleave."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_model(model: TrainedTopicModel, path: str | Path) -> Path:
    """Serialize a trained model: a magic line, a JSON header (kind, config,
    vocabulary, matrix layout, loss trace, payload checksum), then the raw
    little-endian float64 matrices in the order the header declares."""
    path = Path(path)
    names = sorted(model.params) + ["doc_topics"]
    arrays = {**model.params, "doc_topics": model.doc_topics}
    payload = b"".join(
        np.ascontiguousarray(arrays[n], dtype="<f8").tobytes() for n in names)
    header = {
        "kind": model.config.kind,
        "config": model.config.to_dict(),
        "vocabulary": list(model.vocabulary.terms),
        "matrices": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
        "loss_trace": model.loss_trace,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = (_CHECKPOINT_MAGIC + "\n").encode("utf-8") \
        + (json.dumps(header) + "\n").encode("utf-8") + payload
    atomic_write_bytes(path, blob)
    return path


_HEADER_FIELDS = ("kind", "config", "vocabulary", "matrices", "loss_trace")


def _is_matrix_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in entry["shape"]))


def load_model(path: str | Path, expected_kind: str | None = None) -> TrainedTopicModel:
    """Load a checkpoint, verifying the payload checksum. Raises
    :class:`CheckpointError` on a version mismatch, corruption, truncation,
    a malformed header, or when ``expected_kind`` differs from the stored
    kind."""
    raw = Path(path).read_bytes()
    magic_end = raw.find(b"\n")
    if magic_end < 0 or raw[:magic_end].decode("utf-8", "replace") != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a {_CHECKPOINT_MAGIC} checkpoint")
    header_end = raw.find(b"\n", magic_end + 1)
    if header_end < 0:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[magic_end + 1:header_end].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: invalid header JSON ({exc})")
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    payload = raw[header_end + 1:]
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise CheckpointError(f"{path}: payload checksum mismatch "
                              "(file truncated or corrupt)")
    missing = [name for name in _HEADER_FIELDS if name not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    if expected_kind is not None and header["kind"] != expected_kind:
        raise CheckpointError(f"{path}: checkpoint kind {header['kind']!r} "
                              f"does not match expected {expected_kind!r}")
    matrices = header["matrices"]
    if not (isinstance(matrices, list) and all(map(_is_matrix_entry, matrices))):
        raise CheckpointError(f"{path}: header matrices are not a list of "
                              "{name, shape} entries")
    names = [entry["name"] for entry in matrices]
    if "doc_topics" not in names or len(set(names)) != len(names):
        raise CheckpointError(f"{path}: header matrices must name doc_topics "
                              "and each matrix once")
    if not isinstance(header["loss_trace"], list):
        raise CheckpointError(f"{path}: header loss_trace is not a list")
    try:
        config = ModelConfig.from_dict(header["config"])
        vocabulary = Vocabulary.from_terms(header["vocabulary"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: invalid config or vocabulary ({exc})")

    arrays = {}
    offset = 0
    for entry in matrices:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: payload shorter than declared matrices")
        arrays[entry["name"]] = np.frombuffer(
            payload, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(f"{path}: payload longer than declared matrices")

    doc_topics = arrays.pop("doc_topics")
    return TrainedTopicModel(config=config, vocabulary=vocabulary, params=arrays,
                             loss_trace=header["loss_trace"], doc_topics=doc_topics)


def corpus_fingerprint(path: str | Path) -> str:
    """Content hash of a dataset file; stable across re-serialization of
    the manifest because it hashes the bytes, nothing else."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


_CONFIG_OVERRIDES = ("epochs", "batch_size", "learning_rate", "dropout_rate",
                     "hidden_dim", "image_loss_weight", "contrastive_weight",
                     "temperature", "prior_alpha")


@dataclass(frozen=True)
class ModelEntry:
    """One model variant in a plan: a kind plus config overrides and an
    optional label used in reports (defaults to the kind)."""

    kind: str
    label: str | None = None
    overrides: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelEntry":
        d = dict(d)
        kind = d.pop("kind")
        label = d.pop("label", None)
        unknown = set(d) - set(_CONFIG_OVERRIDES)
        if unknown:
            raise ValueError(f"unknown model entry fields: {sorted(unknown)}")
        return cls(kind=kind, label=label, overrides=d)

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.kind


@dataclass(frozen=True)
class ExperimentPlan:
    datasets: tuple[str, ...]
    models: tuple[ModelEntry, ...]
    topic_counts: tuple[int, ...] = (25, 50, 75, 100)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output_dir: str = "runs"
    epochs: int | None = None
    vocab_cap: int | None = None
    word_vectors: str | None = None
    descriptor_size: int = 10
    npmi_window: int = 10
    rbo_p: float = 0.9
    workers: int = 1

    def __post_init__(self):
        if not self.datasets or not self.models:
            raise ValueError("plan needs at least one dataset and one model")
        if not self.topic_counts or not self.seeds:
            raise ValueError("plan needs at least one topic count and one seed")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentPlan":
        d = dict(d)
        seeds = d.get("seeds", 5)
        if isinstance(seeds, int):
            seeds = list(range(seeds))
        models = tuple(ModelEntry.from_dict(m) for m in d["models"])
        return cls(
            datasets=tuple(d["datasets"]),
            models=models,
            topic_counts=tuple(d.get("topic_counts", (25, 50, 75, 100))),
            seeds=tuple(seeds),
            output_dir=d.get("output_dir", "runs"),
            epochs=d.get("epochs"),
            vocab_cap=d.get("vocab_cap"),
            word_vectors=d.get("word_vectors"),
            descriptor_size=d.get("descriptor_size", 10),
            npmi_window=d.get("npmi_window", 10),
            rbo_p=d.get("rbo_p", 0.9),
            workers=d.get("workers", 1),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentPlan":
        return cls.from_dict(json.loads(Path(path).read_text("utf-8")))


@dataclass
class RunManifest:
    """Everything needed to audit or resume one plan cell."""

    cell_id: str
    dataset: str
    model_label: str
    kind: str
    num_topics: int
    seed: int
    status: str
    config: dict | None = None
    corpus_fingerprint: str | None = None
    metrics: dict | None = None
    timings: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    error: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        return cls(**d)


def _cell_id(dataset: str, entry: ModelEntry, k: int, seed: int) -> str:
    return f"{Path(dataset).stem}__{entry.name}__k{k}__s{seed}"


def _build_config(plan: ExperimentPlan, entry: ModelEntry, k: int, seed: int) -> ModelConfig:
    kwargs = dict(entry.overrides)
    if plan.epochs is not None and "epochs" not in kwargs:
        kwargs["epochs"] = plan.epochs
    return ModelConfig(kind=entry.kind, num_topics=k, seed=seed, **kwargs)


def _manifest_is_valid(manifest_path: Path, fingerprint: str) -> RunManifest | None:
    if not manifest_path.exists():
        return None
    try:
        manifest = RunManifest.from_dict(json.loads(manifest_path.read_text("utf-8")))
    except (json.JSONDecodeError, TypeError):
        return None
    if manifest.status != "ok" or manifest.corpus_fingerprint != fingerprint:
        return None
    for artifact in manifest.artifacts.values():
        if not Path(artifact).exists():
            return None
    return manifest


def _run_cell(corpus: Corpus, fingerprint: str, plan: ExperimentPlan,
              dataset: str, entry: ModelEntry, k: int, seed: int,
              out_dir: Path, word_vectors) -> RunManifest:
    cell = _cell_id(dataset, entry, k, seed)
    config = _build_config(plan, entry, k, seed)
    checkpoint = out_dir / "checkpoints" / f"{cell}.mmtm"
    descriptor_path = out_dir / "descriptors" / f"{cell}.jsonl"
    metrics_path = out_dir / "metrics" / f"{cell}.json"
    try:
        t0 = time.perf_counter()
        model = train(corpus, config)
        t1 = time.perf_counter()
        for p in (checkpoint, descriptor_path, metrics_path):
            p.parent.mkdir(parents=True, exist_ok=True)
        save_model(model, checkpoint)
        write_descriptors(describe_topics(model, corpus, plan.descriptor_size),
                          descriptor_path)
        report = compute_metric_report(
            model, corpus, word_vectors=word_vectors,
            n_descriptors=plan.descriptor_size, window=plan.npmi_window,
            rbo_p=plan.rbo_p, model_id=cell)
        atomic_write_text(metrics_path, json.dumps(report.to_dict(), indent=2) + "\n")
        t2 = time.perf_counter()
        return RunManifest(
            cell_id=cell, dataset=dataset, model_label=entry.name,
            kind=entry.kind, num_topics=k, seed=seed, status="ok",
            config=config.to_dict(), corpus_fingerprint=fingerprint,
            metrics=report.values(),
            timings={"train_seconds": t1 - t0, "eval_seconds": t2 - t1},
            artifacts={"checkpoint": str(checkpoint),
                       "descriptors": str(descriptor_path),
                       "metrics": str(metrics_path)},
        )
    except Exception as exc:  # a failed cell must not abort the sweep
        logger.exception("cell %s failed", cell)
        return RunManifest(
            cell_id=cell, dataset=dataset, model_label=entry.name,
            kind=entry.kind, num_topics=k, seed=seed, status="failed",
            config=config.to_dict(), corpus_fingerprint=fingerprint,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_plan(plan: ExperimentPlan) -> list[RunManifest]:
    """Execute every cell of a plan, skipping cells whose manifest already
    records a completed run over the same corpus bytes. Independent cells
    may run on up to ``plan.workers`` threads; all outputs are written
    atomically. Emits aggregate tables in all formats and returns the
    manifests in plan order."""
    out_dir = Path(plan.output_dir)
    manifest_dir = out_dir / "manifests"
    manifest_dir.mkdir(parents=True, exist_ok=True)
    word_vectors = (load_word_vectors(plan.word_vectors)
                    if plan.word_vectors else None)

    manifests: list[RunManifest | None] = []
    pending = []  # (slot, manifest_path, run args)
    for dataset in plan.datasets:
        fingerprint = corpus_fingerprint(dataset)
        corpus = None
        for entry in plan.models:
            for k in plan.topic_counts:
                for seed in plan.seeds:
                    cell = _cell_id(dataset, entry, k, seed)
                    manifest_path = manifest_dir / f"{cell}.json"
                    existing = _manifest_is_valid(manifest_path, fingerprint)
                    if existing is not None:
                        logger.info("cell %s already complete; skipping", cell)
                        manifests.append(existing)
                        continue
                    if corpus is None:
                        cap = plan.vocab_cap
                        corpus = (load_corpus(dataset, cap=cap) if cap
                                  else load_corpus(dataset))
                    manifests.append(None)
                    pending.append((len(manifests) - 1, manifest_path,
                                    (corpus, fingerprint, plan, dataset, entry,
                                     k, seed, out_dir, word_vectors)))

    def finish(slot: int, manifest_path: Path, manifest: RunManifest):
        atomic_write_text(manifest_path,
                          json.dumps(manifest.to_dict(), indent=2) + "\n")
        manifests[slot] = manifest

    if plan.workers == 1 or len(pending) <= 1:
        for slot, manifest_path, args in pending:
            finish(slot, manifest_path, _run_cell(*args))
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            futures = [(slot, manifest_path, pool.submit(_run_cell, *args))
                       for slot, manifest_path, args in pending]
            for slot, manifest_path, future in futures:
                finish(slot, manifest_path, future.result())

    for fmt in ("json", "markdown", "csv"):
        emit_report(manifests, fmt, out_dir)
    return manifests


def aggregate_metrics(manifests) -> dict:
    """Mean metric values over seeds within each topic count, then over
    topic counts, grouped by (dataset, model label). Failed cells are
    excluded from the averages and counted per group."""
    groups: dict[tuple[str, str], dict] = {}
    for m in manifests:
        key = (m.dataset, m.model_label)
        g = groups.setdefault(key, {"cells": 0, "failed": [], "by_k": {}})
        g["cells"] += 1
        if m.status != "ok":
            g["failed"].append(m.cell_id)
            continue
        g["by_k"].setdefault(m.num_topics, []).append(m.metrics or {})

    rows = []
    for (dataset, label), g in groups.items():
        per_k = {}
        for k, metric_dicts in sorted(g["by_k"].items()):
            per_k[k] = {
                col: _mean_or_none([d.get(col) for d in metric_dicts])
                for col in METRIC_COLUMNS
            }
        overall = {
            col: _mean_or_none([per_k[k][col] for k in per_k])
            for col in METRIC_COLUMNS
        }
        rows.append({
            "dataset": dataset, "model": label, **overall,
            "per_topic_count": per_k,
            "cells": g["cells"], "failed": g["failed"],
        })
    return {
        "aggregation": "mean over seeds within each topic count, then over topic counts",
        "rows": rows,
    }


def _mean_or_none(values) -> float | None:
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


def _format_cell(value, *, precision: int | None) -> str:
    if value is None:
        return ""
    if precision is None:
        return repr(float(value))
    return f"{value:.{precision}f}"


def emit_report(manifests, fmt: str, out_dir: str | Path) -> Path:
    """Write the aggregate table as ``aggregate.json``, ``aggregate.md``
    (values rounded to 2 decimals, blanks for missing metrics), or
    ``aggregate.csv`` (full precision). Identical content is not rewritten,
    so re-emission after a completed run is a no-op on the files."""
    out_dir = Path(out_dir)
    agg = aggregate_metrics(manifests)
    if fmt == "json":
        path = out_dir / "aggregate.json"
        text = json.dumps(agg, indent=2) + "\n"
    elif fmt == "markdown":
        path = out_dir / "aggregate.md"
        header = "| Dataset | Model | NPMI | WE | IEC | TD | I-RBO | IEPS |"
        rule = "|---|---|---|---|---|---|---|---|"
        lines = [header, rule]
        for row in agg["rows"]:
            cells = [_format_cell(row[c], precision=2) for c in METRIC_COLUMNS]
            lines.append("| " + " | ".join([row["dataset"], row["model"], *cells]) + " |")
        failures = [(row["model"], cell) for row in agg["rows"] for cell in row["failed"]]
        if failures:
            lines.append("")
            lines.append("Failed cells:")
            lines.extend(f"- {model}: {cell}" for model, cell in failures)
        text = "\n".join(lines) + "\n"
    elif fmt == "csv":
        path = out_dir / "aggregate.csv"
        lines = ["dataset,model," + ",".join(METRIC_COLUMNS) + ",failed_cells"]
        for row in agg["rows"]:
            cells = [_format_cell(row[c], precision=None) for c in METRIC_COLUMNS]
            lines.append(",".join([row["dataset"], row["model"], *cells,
                                   str(len(row["failed"]))]))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}; "
                         "expected json, markdown, or csv")

    if path.exists() and path.read_text("utf-8") == text:
        return path
    atomic_write_text(path, text)
    return path


def load_manifests(runs_dir: str | Path) -> list[RunManifest]:
    """Read every cell manifest under a run directory."""
    manifest_dir = Path(runs_dir) / "manifests"
    paths = sorted(manifest_dir.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no manifests under {manifest_dir}")
    return [RunManifest.from_dict(json.loads(p.read_text("utf-8"))) for p in paths]
