"""The benchmark's workloads, their cached inputs and their output checks.

Every input comes from ``generate_synthetic`` with the workload seed. A
dataset (and, for eval-large, its checkpoints) is generated once per
(spec, seed), written under the cache directory and reused; building it is
never timed. See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import time
import traceback
from pathlib import Path

import numpy as np

import mmtopic
from mmtopic.models import KINDS, MULTIMODAL_KINDS

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected" / "eval-large.json"

# The 4000-doc corpus shared by train-large and eval-large, and the
# acceptance-test corpus that sweep-small runs over.
_LARGE = dict(num_topics_true=50, vocab_size=2000, docs=4000, doc_length=40,
              embed_dim_text=384, embed_dim_image=512,
              topic_word_concentration=0.5, embedding_noise=0.02)
_SMALL = dict(num_topics_true=5, vocab_size=200, docs=1000, doc_length=40,
              embed_dim_text=16, embed_dim_image=16,
              topic_word_concentration=0.5, embedding_noise=0.02)
_TOY = dict(num_topics_true=4, vocab_size=60, docs=80, doc_length=20,
            embed_dim_text=6, embed_dim_image=5,
            topic_word_concentration=0.5, embedding_noise=0.02)

# ``setup_samples``: set-up processes per run. A small dataset loads in a
# quarter second with a wide spread, so it gets more samples.
SIZES = {
    "full": {
        "train-large": {"data": _LARGE, "num_topics": 50, "epochs": 2, "setup_samples": 5},
        "sweep-small": {"data": _SMALL, "topic_counts": [5, 10], "seeds": 2,
                        "epochs": 10, "workers": 2, "setup_samples": 15},
        "eval-large": {"data": _LARGE, "topic_counts": [50, 100], "setup_samples": 5},
    },
    "toy": {
        "train-large": {"data": _TOY, "num_topics": 5, "epochs": 3, "setup_samples": 3},
        "sweep-small": {"data": _TOY, "topic_counts": [2, 3], "seeds": 2,
                        "epochs": 3, "workers": 2, "setup_samples": 3},
        "eval-large": {"data": _TOY, "topic_counts": [5, 8], "setup_samples": 3},
    },
}

TRAIN_KINDS = ("multimodal_zeroshot", "multimodal_contrast")
DESCRIPTOR_SIZE = 10
# Bytes of cached inputs kept before the least recently used entry is
# deleted; one large dataset with its checkpoints is ~115 MB.
CACHE_BYTES = 3 * 1024 ** 3
# Allowed range of each metric value.
RANGES = {"npmi": (-1.0, 1.0), "td": (0.0, 1.0), "irbo": (0.0, 1.0),
          "iec": (-1.0, 1.0), "ieps": (-1.0, 1.0)}
_RANGE_SLACK = 1e-12
EXPECTED_TOLERANCE = 1e-9


# ------------------------------------------------------------------ inputs

def _entry(cache: Path, label: str, key: dict) -> Path:
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    return cache / f"{label}-{digest}"


def _ensure(entry: Path, build) -> Path:
    """Build ``entry`` unless a complete copy exists. The build writes into a
    temporary directory that is renamed into place, so a killed build never
    leaves a half-written entry behind."""
    if (entry / "complete").exists():
        os.utime(entry)
        return entry
    tmp = entry.with_name(f".tmp-{entry.name}-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    (tmp / "complete").write_text("")
    shutil.rmtree(entry, ignore_errors=True)
    os.rename(tmp, entry)
    return entry


def _evict(cache: Path, keep: set[Path]) -> None:
    entries = sorted((p for p in cache.iterdir() if p.is_dir() and not p.name.startswith(".")),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    used = 0
    for entry in entries:
        used += sum(f.stat().st_size for f in entry.iterdir())
        if used > CACHE_BYTES and entry not in keep:
            shutil.rmtree(entry, ignore_errors=True)


def data_spec(size: dict, seed: int) -> mmtopic.SyntheticSpec:
    return mmtopic.SyntheticSpec(**size["data"], seed=seed)


def input_paths(cache: Path, workload: str, scale: str, seed: int) -> dict[str, Path]:
    """Where the cached inputs of one (workload, scale, seed) live."""
    size = SIZES[scale][workload]
    spec = data_spec(size, seed).to_dict()
    paths = {"data": _entry(cache, "data", spec) / "corpus.jsonl"}
    if workload == "eval-large":
        paths["checkpoints"] = _entry(cache, "ckpt", {"data": spec, "k": size["topic_counts"]})
    return paths


def checkpoint_names(size: dict) -> list[tuple[str, int]]:
    return [(f"{kind}-k{k}", k) for kind in KINDS for k in size["topic_counts"]]


def planted_checkpoint(kind: str, k: int, corpus, planted,
                       seed: int) -> mmtopic.TrainedTopicModel:
    """A checkpoint made from the planted truth plus seeded noise, so eval
    inputs do not depend on the training code: topic ``t`` copies planted
    topic ``t mod T`` with log-probability noise on its word weights, its
    image centroid and its document weights."""
    rng = np.random.default_rng([seed, k, KINDS.index(kind)])
    config = mmtopic.ModelConfig(kind=kind, num_topics=k, epochs=0, seed=seed)
    params = mmtopic.models.init_params(config, corpus.text_dim, corpus.image_dim,
                                        len(corpus.vocabulary), rng)
    source = [planted[t % len(planted)] for t in range(k)]
    words = np.stack([p.word_probs for p in source])
    params["beta"] = np.log(words + 1e-4) + 0.5 * rng.standard_normal(words.shape)
    if "gamma" in params:
        images = np.stack([p.image_centroid for p in source])
        params["gamma"] = images + 0.1 * rng.standard_normal(images.shape)
    weights = np.stack([p.doc_weights for p in source], axis=1)
    doc_topics = np.abs(weights + 0.05 * rng.standard_normal(weights.shape))
    doc_topics /= doc_topics.sum(axis=1, keepdims=True)
    return mmtopic.TrainedTopicModel(config=config, vocabulary=corpus.vocabulary,
                                     params=params, loss_trace=[], doc_topics=doc_topics)


def build_inputs(cache: str, workload: str, scale: str, seed: int) -> None:
    """Generate and write the inputs of one workload unless cached."""
    cache = Path(cache)
    cache.mkdir(parents=True, exist_ok=True)
    size = SIZES[scale][workload]
    spec = data_spec(size, seed)
    paths = input_paths(cache, workload, scale, seed)
    generated = []

    def generate():
        if not generated:
            generated.append(mmtopic.generate_synthetic(spec))
        return generated[0]

    _ensure(paths["data"].parent,
            lambda d: mmtopic.save_corpus(generate()[0], d / "corpus.jsonl"))
    keep = {paths["data"].parent}
    if workload == "eval-large":
        def build_checkpoints(d):
            corpus, planted = generate()
            for name, k in checkpoint_names(size):
                kind = name.rsplit("-k", 1)[0]
                mmtopic.save_model(planted_checkpoint(kind, k, corpus, planted, seed),
                                   d / f"{name}.mmtm")
        _ensure(paths["checkpoints"], build_checkpoints)
        keep.add(paths["checkpoints"])
    _evict(cache, keep)


# ------------------------------------------------------------------ checks

def losses_descend(trace) -> bool:
    """Every logged loss is finite and the last epoch's total is below the
    first's."""
    if len(trace) < 2:
        return False
    finite = all(math.isfinite(v) for epoch in trace for v in epoch.values())
    return finite and trace[-1]["total"] < trace[0]["total"]


def metrics_in_range(values: dict, kind: str) -> bool:
    required = {"npmi", "td", "irbo"} | ({"iec", "ieps"} if kind in MULTIMODAL_KINDS else set())
    for name, (low, high) in RANGES.items():
        v = values.get(name)
        if v is None:
            if name in required:
                return False
            continue
        if not (math.isfinite(v) and low - _RANGE_SLACK <= v <= high + _RANGE_SLACK):
            return False
    return True


def _attempt(checks: list, fn, *args, **kwargs):
    """Run one operation; record whether it raised."""
    try:
        result = fn(*args, **kwargs)
    except Exception:
        traceback.print_exc()
        checks.append(False)
        return None
    checks.append(True)
    return result


def _params_digest(model) -> bytes:
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(model.doc_topics, dtype="<f8").tobytes())
    h.update(json.dumps(model.loss_trace).encode())
    return h.digest()


def _tree_state(root: Path) -> dict:
    """Bytes and modification time of every file under ``root``."""
    return {str(p.relative_to(root)): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(root.rglob("*")) if p.is_file()}


# --------------------------------------------------------------- workloads

class Workload:
    """One workload: ``load`` and ``warm_up`` once per process, then ``run``
    one timed section at a time. ``run`` returns (seconds, checks, digest, named),
    where ``checks`` holds one bool per operation and output check and
    ``named`` maps the workload's own metric names to values. ``notes``
    holds what the result line should say about how outputs were checked.
    The caller sets ``tracer`` while a traced section runs."""

    def __init__(self, scale: str, seed: int, paths: dict, work: Path):
        self.size = SIZES[scale][self.name]
        self.scale = scale
        self.seed = seed
        self.paths = paths
        self.work = work
        self.tracer = None
        self.notes = {}

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def load(self) -> None:
        self.phase("load")
        self.corpus = mmtopic.load_corpus(self.paths["data"])
        self.phase("section")

    def warm_up(self) -> None:
        """A shortened section, untimed: the first pass over fresh memory
        ran ~10% slower than later ones in trial runs."""


class TrainLarge(Workload):
    name = "train-large"

    def warm_up(self) -> None:
        for kind in TRAIN_KINDS:
            mmtopic.train(self.corpus, mmtopic.ModelConfig(
                kind=kind, num_topics=self.size["num_topics"], epochs=1, seed=0))

    def run(self, index: int):
        checks, trained, seconds = [], [], 0.0
        for kind in TRAIN_KINDS:
            config = mmtopic.ModelConfig(kind=kind, num_topics=self.size["num_topics"],
                                         epochs=self.size["epochs"], seed=0)
            start = time.perf_counter()
            model = _attempt(checks, mmtopic.train, self.corpus, config)
            seconds += time.perf_counter() - start
            path = self.work / f"{kind}.mmtm"
            if model is not None and _attempt(checks, mmtopic.save_model, model, path) is not None:
                trained.append((model, path))

        self.phase("check")
        digest = hashlib.sha256()
        for model, path in trained:
            checks.append(losses_descend(model.loss_trace))
            checks.append(_params_digest(mmtopic.load_model(path)) == _params_digest(model))
            digest.update(_params_digest(model))
        self.phase("section")
        doc_epochs = len(TRAIN_KINDS) * self.size["epochs"] * self.corpus.num_documents
        return seconds, checks, digest.hexdigest(), {"train_docs_per_s": doc_epochs / seconds}


class SweepSmall(Workload):
    name = "sweep-small"

    def load(self) -> None:
        # run_plan loads the dataset itself on every fresh sweep.
        pass

    def plan(self, out: Path, kinds=KINDS, topic_counts=None, seeds=None):
        return mmtopic.ExperimentPlan.from_dict({
            "datasets": [str(self.paths["data"])],
            "models": [{"kind": kind} for kind in kinds],
            "topic_counts": topic_counts or self.size["topic_counts"],
            "seeds": seeds or self.size["seeds"],
            "epochs": self.size["epochs"],
            "workers": self.size["workers"],
            "output_dir": str(out),
        })

    def warm_up(self) -> None:
        out = self.work / "warm-up"
        mmtopic.run_plan(self.plan(out, KINDS[:1], self.size["topic_counts"][:1], 1))
        shutil.rmtree(out)

    def run(self, index: int):
        out = self.work / f"sweep-{index}"
        plan = self.plan(out)
        start = time.perf_counter()
        manifests = mmtopic.run_plan(plan)
        seconds = time.perf_counter() - start

        before = _tree_state(out)
        self.phase("resume")
        start = time.perf_counter()
        resumed = mmtopic.run_plan(plan)
        resume_seconds = time.perf_counter() - start
        after = _tree_state(out)

        self.phase("check")
        checks, digest = [], hashlib.sha256()
        for m in manifests:
            checks.append(m.status == "ok")
            if m.status != "ok":
                continue
            checks.append(metrics_in_range(m.metrics, m.kind))
            trace = mmtopic.load_model(m.artifacts["checkpoint"]).loss_trace
            checks.append(losses_descend(trace))
        # The resume pass must skip every cell and rewrite no output byte.
        checks.append([m.to_dict() for m in resumed] == [m.to_dict() for m in manifests]
                      and before == after)
        for rel, (data, _) in sorted(before.items()):
            if rel.startswith(("checkpoints", "metrics")):
                digest.update(rel.encode())
                digest.update(data)
        self.phase("section")
        shutil.rmtree(out)
        return seconds, checks, digest.hexdigest(), {
            "sweep_s": seconds, "resume_s": resume_seconds}


class EvalLarge(Workload):
    name = "eval-large"

    def load(self) -> None:
        super().load()
        self.checkpoints = [(name, k, self.paths["checkpoints"] / f"{name}.mmtm")
                            for name, k in checkpoint_names(self.size)]

    def warm_up(self) -> None:
        k = self.size["topic_counts"][-1]
        (a, _, path_a), (b, _, path_b) = [c for c in self.checkpoints if c[1] == k][:2]
        models = {a: self._evaluate(a, path_a)[0], b: self._evaluate(b, path_b)[0]}
        self._overlap(a, b, models)

    def _evaluate(self, name: str, path: Path):
        model = mmtopic.load_model(path)
        descriptors = mmtopic.describe_topics(model, self.corpus, DESCRIPTOR_SIZE)
        mmtopic.descriptors.write_descriptors(descriptors, self.work / f"{name}.topics.jsonl")
        report = mmtopic.compute_metric_report(model, self.corpus, model_id=name,
                                               n_descriptors=DESCRIPTOR_SIZE)
        (self.work / f"{name}.metrics.json").write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
        return model, report.values()

    def _overlap(self, a: str, b: str, models: dict):
        report = mmtopic.overlap_report(models[a], models[b], n=DESCRIPTOR_SIZE)
        report.write_json(self.work / f"{a}~{b}.overlap.json")
        return {"mean": report.mean, "sd": report.sd, "assignment": list(report.assignment)}

    def outputs(self) -> tuple[list, dict]:
        """The timed section: every checkpoint's descriptors and metrics,
        then topic overlap for every same-K pair. Returns the checks of
        each operation and the values computed."""
        checks, models, values = [], {}, {"metrics": {}, "overlap": {}}
        for name, _, path in self.checkpoints:
            result = _attempt(checks, self._evaluate, name, path)
            if result is not None:
                models[name], values["metrics"][name] = result
        for k in self.size["topic_counts"]:
            same_k = [name for name, kk, _ in self.checkpoints if kk == k and name in models]
            for a, b in itertools.combinations(same_k, 2):
                result = _attempt(checks, self._overlap, a, b, models)
                if result is not None:
                    values["overlap"][f"{a}~{b}"] = result
        return checks, values

    def run(self, index: int):
        start = time.perf_counter()
        checks, values = self.outputs()
        seconds = time.perf_counter() - start

        for name, v in values["metrics"].items():
            checks.append(metrics_in_range(v, name.rsplit("-k", 1)[0]))
        for pair in values["overlap"].values():
            checks.append(sorted(pair["assignment"]) == list(range(len(pair["assignment"])))
                          and 0.0 <= pair["mean"] <= 1.0)
        expected = recorded_values(self.scale, self.seed)
        if expected is not None:
            checks.append(values_match(values, expected))
        self.notes["expected_values"] = "checked" if expected is not None else "not recorded"
        digest = hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
        return seconds, checks, digest, {"eval_s": seconds}


WORKLOADS = {w.name: w for w in (TrainLarge, SweepSmall, EvalLarge)}


# ------------------------------------------------------- recorded values

def recorded_values(scale: str, seed: int) -> dict | None:
    """eval-large values recorded for ``seed``, or None when none were."""
    if scale != "full" or not EXPECTED_PATH.exists():
        return None
    return json.loads(EXPECTED_PATH.read_text("utf-8")).get(str(seed))


def values_match(got, want) -> bool:
    """Same structure, equal strings and ints, floats within tolerance."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(values_match(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(values_match(g, w) for g, w in zip(got, want)))
    if isinstance(want, float):
        return isinstance(got, (int, float)) and abs(got - want) <= EXPECTED_TOLERANCE
    return got == want
