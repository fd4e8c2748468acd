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
checkpoint, descriptors, and metrics, and records a manifest. Cells are
named by dataset file stem and model label, so both must be unique within a
plan. A cell whose manifest records a completed run over the same corpus
bytes, resolved config and evaluation settings is skipped on re-runs, and a
completed plan re-run leaves every output byte untouched. Aggregation averages
metrics over seeds within each topic count, then over topic counts.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import logging
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (DEFAULT_VOCAB_CAP, Corpus, Vocabulary, _check_json_fields,
                     _check_json_keys, _find_sidecar_vocab, _json_type_error,
                     atomic_write_bytes, atomic_write_text, load_corpus)
from .descriptors import describe_topics, write_descriptors
from .metrics import compute_metric_report, load_word_vectors
from .models import ModelConfig, TrainedTopicModel, param_shapes, train

logger = logging.getLogger(__name__)

_CHECKPOINT_MAGIC = "MMTM1"

METRIC_COLUMNS = ("npmi", "we", "iec", "td", "irbo", "ieps")


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, corrupt, or of the wrong kind."""


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


def load_model(path: str | Path) -> TrainedTopicModel:
    """Load a checkpoint, verifying the payload checksum. Raises
    :class:`CheckpointError` on a version mismatch, corruption, truncation,
    a malformed header, a header kind that differs from its config's, or
    matrices that do not fit its config and vocabulary."""
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
    payload = memoryview(raw)[header_end + 1:]
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise CheckpointError(f"{path}: payload checksum mismatch "
                              "(file truncated or corrupt)")
    missing = [name for name in _HEADER_FIELDS if name not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    matrices = header["matrices"] if isinstance(header["matrices"], list) else [None]
    layout = {m["name"]: tuple(m["shape"]) for m in matrices
              if isinstance(m, dict) and isinstance(m.get("name"), str)
              and isinstance(m.get("shape"), list)
              and all(type(d) is int and d >= 0 for d in m["shape"])}
    if len(layout) != len(matrices):
        raise CheckpointError(f"{path}: header matrices are not a list of "
                              "{name, shape} entries with distinct names")
    if not isinstance(header["loss_trace"], list):
        raise CheckpointError(f"{path}: header loss_trace is not a list")
    terms = header["vocabulary"]
    if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)):
        raise CheckpointError(f"{path}: header vocabulary is not a list of strings")
    try:
        config = ModelConfig.from_dict(header["config"])
        vocabulary = Vocabulary.from_terms(terms)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: invalid config or vocabulary ({exc})")
    if config.kind != header["kind"]:
        raise CheckpointError(f"{path}: header kind {header['kind']!r} differs from "
                              f"its config's kind {config.kind!r}")
    expected = {**param_shapes(config, None, None, len(vocabulary)),
                "doc_topics": (None, config.num_topics)}
    if layout.keys() != expected.keys():
        raise CheckpointError(f"{path}: a {config.kind} checkpoint holds each of "
                              f"{sorted(expected)} once, not {sorted(layout)}")
    for name, shape in layout.items():
        want = expected[name]
        if len(shape) != len(want) or any(w is not None and w != d
                                          for d, w in zip(shape, want)):
            raise CheckpointError(f"{path}: matrix {name} has shape {shape}, "
                                  f"not {want} (None: any width)")
    sizes = [math.prod(shape) for shape in layout.values()]
    if 8 * sum(sizes) != len(payload):
        raise CheckpointError(f"{path}: payload holds {len(payload)} bytes, but its "
                              f"matrices declare {8 * sum(sizes)}")
    parts = np.split(np.frombuffer(payload, "<f8").astype(np.float64),
                     np.cumsum(sizes)[:-1])
    arrays = {name: part.reshape(shape) for (name, shape), part in zip(layout.items(), parts)}
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise CheckpointError(f"{path}: matrix {name} holds a non-finite value")
    doc_topics = arrays.pop("doc_topics")
    return TrainedTopicModel(config=config, vocabulary=vocabulary, params=arrays,
                             loss_trace=header["loss_trace"], doc_topics=doc_topics)


def corpus_fingerprint(path: str | Path, vocab_cap: int = DEFAULT_VOCAB_CAP) -> str:
    """Hash of a dataset file's bytes and of what shapes its vocabulary:
    the sidecar file :func:`load_corpus` would read, else ``vocab_cap``."""
    digest = hashlib.sha256(Path(path).read_bytes())
    sidecar = _find_sidecar_vocab(Path(path))
    digest.update((b"\0vocab\0" + sidecar.read_bytes()) if sidecar is not None
                  else f"\0cap\0{vocab_cap}".encode())
    return digest.hexdigest()


# Every ModelConfig field but those a plan's axes set.
_CONFIG_OVERRIDES = tuple(f.name for f in dataclasses.fields(ModelConfig)
                          if f.name not in ("kind", "num_topics", "seed"))


# A model label names output files, so it may not hold a path separator.
_LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


@dataclass(frozen=True)
class ModelEntry:
    """One model variant in a plan: a kind plus config overrides and an
    optional label used in reports (defaults to the kind)."""

    kind: str
    label: str | None = None
    overrides: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, entry: dict) -> "ModelEntry":
        d = dict(entry)
        if "kind" not in d:
            raise ValueError(f"model entry {d} lacks kind")
        kind = d.pop("kind")
        label = d.pop("label", None)
        if label is not None and not (isinstance(label, str) and _LABEL.fullmatch(label)):
            raise ValueError(f"model entry {entry}: label must be a string "
                             f"matching {_LABEL.pattern}")
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
    vocab_cap: int = DEFAULT_VOCAB_CAP
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
        if self.vocab_cap < 1:
            raise ValueError("vocab_cap must be >= 1")
        if self.descriptor_size < 2:
            raise ValueError("descriptor_size must be >= 2")
        if self.npmi_window < 1:
            raise ValueError("npmi_window must be >= 1")
        if not 0.0 < self.rbo_p < 1.0:
            raise ValueError("rbo_p must lie strictly between 0 and 1")
        # Cell ids and output files are named by all four axes.
        for what, names in (("model entry name", [m.name for m in self.models]),
                            ("dataset file stem", [Path(d).stem for d in self.datasets]),
                            ("topic count", list(self.topic_counts)),
                            ("seed", list(self.seeds))):
            repeated = sorted({n for n in names if names.count(n) > 1})
            if repeated:
                raise ValueError(f"duplicate {what}s {repeated}; each cell id needs "
                                 "distinct labels, file stems, topic counts and seeds")
        # Reject a cell that cannot configure a model before any cell runs.
        for entry, k, seed in itertools.product(self.models, self.topic_counts, self.seeds):
            try:
                _build_config(self, entry, k, seed)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"model entry {entry.name!r} at {k} topics: "
                                 f"{exc}") from exc

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentPlan":
        """A plan from its JSON form: one key per field, each optional key
        defaulting to its field's default; ``seeds`` may be a count. Raises
        ``ValueError`` when the plan is not a JSON object, or naming the
        first key whose value has the wrong JSON type."""
        _check_json_keys(d, cls, "plan")
        fields = dataclasses.fields(cls)
        missing = [f.name for f in fields
                   if f.default is dataclasses.MISSING and f.name not in d]
        if missing:
            raise ValueError(f"plan lacks {', '.join(missing)}")
        kwargs = dict(d)
        if _json_type_error(kwargs.get("seeds"), "int") is None:
            kwargs["seeds"] = list(range(kwargs["seeds"]))
        for f in fields:
            if f.name not in kwargs:
                continue
            wanted = _json_type_error(kwargs[f.name], str(f.type))
            if wanted:
                raise ValueError(f"plan key {f.name!r} must be {wanted}, "
                                 f"got {kwargs[f.name]!r}")
            if str(f.type).startswith("tuple"):
                kwargs[f.name] = tuple(kwargs[f.name])
        kwargs["models"] = tuple(ModelEntry.from_dict(m) for m in kwargs["models"])
        return cls(**kwargs)

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
    evaluation: dict | None = None
    metrics: dict | None = None
    timings: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    error: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        """A manifest from its JSON form; ``TypeError`` names a bad field."""
        manifest = cls(**d)
        _check_json_fields(manifest, "manifest")
        return manifest


def _build_config(plan: ExperimentPlan, entry: ModelEntry, k: int, seed: int) -> ModelConfig:
    kwargs = dict(entry.overrides)
    if plan.epochs is not None and "epochs" not in kwargs:
        kwargs["epochs"] = plan.epochs
    return ModelConfig(kind=entry.kind, num_topics=k, seed=seed, **kwargs)


def _manifest_is_valid(manifest_path: Path, cell: RunManifest) -> RunManifest | None:
    """The completed manifest at ``manifest_path`` if it records the pending
    ``cell``'s corpus fingerprint, resolved config and evaluation settings
    and its artifacts still exist, else None. A manifest that is missing or
    unreadable as a :class:`RunManifest` counts as absent."""
    try:
        manifest = RunManifest.from_dict(json.loads(manifest_path.read_text("utf-8")))
        artifacts = [Path(a) for a in manifest.artifacts.values()]
    except (OSError, TypeError, ValueError):  # bad UTF-8 or JSON, wrong fields
        return None
    current = (manifest.status == "ok" and all(a.exists() for a in artifacts)
               and all(getattr(manifest, f) == getattr(cell, f)
                       for f in ("corpus_fingerprint", "config", "evaluation")))
    return manifest if current else None


def _run_cell(corpus: Corpus, cell: RunManifest, plan: ExperimentPlan,
              word_vectors) -> RunManifest:
    out_dir = Path(plan.output_dir)
    paths = {"checkpoint": out_dir / "checkpoints" / f"{cell.cell_id}.mmtm",
             "descriptors": out_dir / "descriptors" / f"{cell.cell_id}.jsonl",
             "metrics": out_dir / "metrics" / f"{cell.cell_id}.json"}
    try:
        t0 = time.perf_counter()
        model = train(corpus, ModelConfig.from_dict(cell.config))
        t1 = time.perf_counter()
        save_model(model, paths["checkpoint"])
        write_descriptors(describe_topics(model, corpus, plan.descriptor_size),
                          paths["descriptors"])
        report = compute_metric_report(
            model, corpus, word_vectors=word_vectors,
            n_descriptors=plan.descriptor_size, window=plan.npmi_window,
            rbo_p=plan.rbo_p, model_id=cell.cell_id)
        atomic_write_text(paths["metrics"], json.dumps(report.to_dict(), indent=2) + "\n")
        t2 = time.perf_counter()
        return dataclasses.replace(
            cell, status="ok", metrics=report.values(),
            timings={"train_seconds": t1 - t0, "eval_seconds": t2 - t1},
            artifacts={name: str(path) for name, path in paths.items()})
    except Exception as exc:  # a failed cell must not abort the sweep
        logger.exception("cell %s failed", cell.cell_id)
        return dataclasses.replace(cell, status="failed",
                                   error=f"{type(exc).__name__}: {exc}")


def _exit_text(code: int) -> str:
    """A process exit code as ``exit code N`` or the name of its signal."""
    import signal

    if code >= 0:
        return f"exit code {code}"
    try:
        return signal.Signals(-code).name
    except ValueError:
        return f"signal {-code}"


def _work(cells: list[RunManifest], run, pipe, inherited: list) -> None:
    """Send back ``run(cells[index])`` for each index ``pipe`` brings. The
    sweep's pipe ends this fork inherited are closed first, so the loop ends
    once the sweep closes the other end of ``pipe`` or is gone."""
    for end in inherited:
        end.close()
    try:
        while True:
            pipe.send(run(cells[pipe.recv()]))
    except (EOFError, OSError):  # the sweep closed its end or is gone
        pass


def _run_forked(cells: list[RunManifest], workers: int, run, finish) -> None:
    """Call ``finish(run(cell))`` for each of ``cells``, running up to
    ``workers`` at once on forked processes, which inherit ``cells`` and
    ``run`` and receive only indices. A worker that dies fails only the cell
    it was handed, and a fresh worker takes the next cell. Every worker has
    ended when this returns or raises."""
    import multiprocessing
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    todo = list(reversed(range(len(cells))))  # popped from the end
    live, busy = {}, {}  # pipe: worker process; pipe: index of the cell it runs
    try:
        while todo or busy:
            while todo and len(busy) < workers:
                pipe = next((p for p in live if p not in busy), None)
                if pipe is None:
                    pipe, theirs = context.Pipe()
                    live[pipe] = context.Process(target=_work,
                                                 args=(cells, run, theirs, [*live, pipe]))
                    live[pipe].start()
                    theirs.close()
                index = todo.pop()
                try:
                    pipe.send(index)
                except OSError:  # the worker died between cells
                    todo.append(index)
                    live.pop(pipe).join()
                    continue
                busy[pipe] = index
            for pipe in wait(list(busy)):
                index = busy.pop(pipe)
                try:
                    manifest = pipe.recv()
                except EOFError:  # the worker died running this cell
                    process = live.pop(pipe)
                    process.join()
                    manifest = dataclasses.replace(
                        cells[index], status="failed", error="BrokenProcessPool: the cell's "
                        f"worker process ended abruptly ({_exit_text(process.exitcode)})")
                    logger.error("cell %s failed: %s", manifest.cell_id, manifest.error)
                finish(manifest)
    finally:  # a closed pipe ends an idle worker's loop; busy ones are stopped
        for pipe, process in live.items():
            if pipe in busy:
                process.terminate()
            pipe.close()
        for process in live.values():
            process.join()


def _can_fork() -> bool:
    import multiprocessing
    return "fork" in multiprocessing.get_all_start_methods()


def run_plan(plan: ExperimentPlan) -> list[RunManifest]:
    """Execute every cell of a plan, skipping cells whose manifest already
    records a completed run with the same corpus fingerprint, config and
    evaluation settings (``descriptor_size``, ``npmi_window``, ``rbo_p`` and
    the word-vector file's SHA-256).
    Each cell's identity is stated once, as a pending :class:`RunManifest`
    that resume compares against and the cell's outcome fills in.

    With ``plan.workers`` above one and more than one cell to run, cells run
    on up to that many forked worker processes, never more than there are
    cells. Workers inherit the loaded corpora through fork, and each holds
    its own copy of a cell's training memory. Cells run serially in this
    process for one worker, for one pending cell, or where the platform
    cannot fork. Only this process writes manifests and the aggregate, and
    every output is written atomically. A cell whose worker process ends
    abruptly (an exit, a signal, the OOM killer) gets a failed manifest
    naming that exit; no other cell is stopped or run again. A worker whose
    sweep process is gone, even killed by SIGKILL, exits after the cell it
    is running.

    Emits aggregate tables in all formats and returns the manifests in plan
    order. Raises ``ValueError`` before any cell trains if a dataset has
    fewer terms or documents than ``plan.descriptor_size``."""
    out_dir = Path(plan.output_dir)
    manifest_dir = out_dir / "manifests"
    word_vectors = (load_word_vectors(plan.word_vectors)
                    if plan.word_vectors else None)
    vectors_sha256 = (hashlib.sha256(Path(plan.word_vectors).read_bytes()).hexdigest()
                      if plan.word_vectors else None)
    evaluation = {"descriptor_size": plan.descriptor_size, "npmi_window": plan.npmi_window,
                  "rbo_p": plan.rbo_p, "word_vectors_sha256": vectors_sha256}

    results: dict[str, RunManifest] = {}  # by cell id in plan order; pending until run
    corpora: dict[str, Corpus] = {}  # the datasets with a cell to run
    for dataset in plan.datasets:
        fingerprint = corpus_fingerprint(dataset, plan.vocab_cap)
        for entry, k, seed in itertools.product(plan.models, plan.topic_counts, plan.seeds):
            cell = RunManifest(
                cell_id=f"{Path(dataset).stem}__{entry.name}__k{k}__s{seed}",
                dataset=dataset, model_label=entry.name, kind=entry.kind, num_topics=k,
                seed=seed, status="pending",
                config=_build_config(plan, entry, k, seed).to_dict(),
                corpus_fingerprint=fingerprint, evaluation=evaluation)
            existing = _manifest_is_valid(manifest_dir / f"{cell.cell_id}.json", cell)
            if existing is not None:
                logger.info("cell %s already complete; skipping", cell.cell_id)
                results[cell.cell_id] = existing
                continue
            if dataset not in corpora:
                corpus = corpora[dataset] = load_corpus(dataset, cap=plan.vocab_cap)
                v, n = len(corpus.vocabulary), corpus.num_documents
                if plan.descriptor_size > min(v, n):
                    raise ValueError(f"{dataset}: descriptor_size {plan.descriptor_size} "
                                     f"exceeds its vocabulary size V={v} or document "
                                     f"count N={n}")
            results[cell.cell_id] = cell
    cells = [m for m in results.values() if m.status == "pending"]

    def run(cell: RunManifest) -> RunManifest:
        return _run_cell(corpora[cell.dataset], cell, plan, word_vectors)

    def finish(manifest: RunManifest):
        atomic_write_text(manifest_dir / f"{manifest.cell_id}.json",
                          json.dumps(manifest.to_dict(), indent=2) + "\n")
        results[manifest.cell_id] = manifest

    if plan.workers == 1 or len(cells) <= 1 or not _can_fork():
        for cell in cells:
            finish(run(cell))
    else:
        _run_forked(cells, plan.workers, run, finish)

    manifests = list(results.values())
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
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["dataset", "model", *METRIC_COLUMNS, "failed_cells"])
        for row in agg["rows"]:
            cells = [_format_cell(row[c], precision=None) for c in METRIC_COLUMNS]
            writer.writerow([row["dataset"], row["model"], *cells, len(row["failed"])])
        text = buffer.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}; "
                         "expected json, markdown, or csv")

    if path.exists() and path.read_text("utf-8") == text:
        return path
    atomic_write_text(path, text)
    return path


def load_manifests(runs_dir: str | Path) -> list[RunManifest]:
    """Read every cell manifest under a run directory. Raises ``ValueError``
    naming the file when a manifest is not JSON or not a complete manifest."""
    manifest_dir = Path(runs_dir) / "manifests"
    paths = sorted(manifest_dir.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no manifests under {manifest_dir}")
    manifests = []
    for path in paths:
        try:
            manifests.append(RunManifest.from_dict(json.loads(path.read_text("utf-8"))))
        except (TypeError, ValueError) as exc:  # bad UTF-8 or JSON, wrong fields
            raise ValueError(f"{path}: not a run manifest ({exc})") from exc
    return manifests
