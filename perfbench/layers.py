"""Per-layer metrics: which mmtopic functions each one is made of.

The layers are mmtopic's modules. Times are totals over one traced section
unless the name says otherwise; ``*_bytes`` values computed from array
sizes rather than measured are labelled so by their unit.
"""

from __future__ import annotations

import os
import time

from mmtopic import harness
from mmtopic.corpus import Corpus

PACKAGE = "mmtopic"
LAYERS = ("corpus", "models", "nncore", "metrics", "descriptors", "overlap", "harness")
STACK_METHODS = ("bow_matrix", "text_matrix", "image_matrix", "token_lists")
# Spans the public functions do not give: the corpus matrix stacking
# methods, and the per-cell body a sweep's worker threads run.
EXTRA = tuple(("corpus", Corpus, m) for m in STACK_METHODS) + (("harness", harness, "_run_cell"),)

# An Adam step reads each parameter, its gradient and both moments, and
# writes the parameter and both moments: 7 float64 values per element.
ADAM_TOUCHES = 7


def _adam(tracer, args, kwargs, result):
    tracer.add("adam_bytes", ADAM_TOUCHES * sum(p.nbytes for p in args[0].values()))


def _load(tracer, args, kwargs, result):
    tracer.add("load_bytes", os.path.getsize(args[0]))
    tracer.add("docs", result.num_documents)


def _save(tracer, args, kwargs, result):
    tracer.add("checkpoint_bytes", os.path.getsize(result))


def _report(tracer, args, kwargs, result):
    tracer.records.append((args[0], args[1], result.params))


def _cell(tracer, args, kwargs, result):
    tracer.add("cells_failed", result.status != "ok")


def _run_plan(tracer, args, kwargs, result):
    tracer.add("workers", args[0].workers)
    tracer.add("cells", len(result))


HOOKS = {"adam_step": _adam, "load_corpus": _load, "save_model": _save,
         "compute_metric_report": _report, "_run_cell": _cell, "run_plan": _run_plan}


def install(tracer) -> None:
    tracer.install(PACKAGE, LAYERS, extra=EXTRA, hooks=HOOKS)


def _windows(token_lists, window: int) -> int:
    """Sliding windows NPMI counts over: one per document no longer than
    the window, else one per start position."""
    return sum(1 if len(t) <= window else len(t) - window + 1 for t in token_lists)


def probe_npmi(records) -> tuple[float, int]:
    """Time the public ``npmi`` on each recorded report's own topics and
    reference corpus. Runs with the tracer removed, after the section, so
    the extra work lands in no span and no section time."""
    from mmtopic.descriptors import top_keywords
    from mmtopic.metrics import npmi

    seconds, windows = 0.0, 0
    for model, corpus, params in records:
        n, window = params["n_descriptors"], params["window"]
        topics = [top_keywords(model.topic_word_matrix, model.vocabulary, t, n)
                  for t in range(model.num_topics)]
        reference = corpus.token_lists()
        start = time.perf_counter()
        npmi(topics, reference, window)
        seconds += time.perf_counter() - start
        windows += _windows(reference, window)
    return seconds, windows


def section_metrics(tracer) -> dict[str, float]:
    """Per-layer values of one traced section (phases ``section`` and
    ``resume``)."""
    stats, counts = tracer.stats, tracer.counts

    def total(layer, *names, phase="section"):
        return sum(stats[(phase, layer, n)][1] for n in names if (phase, layer, n) in stats)

    def own(layer, *names):
        return sum(stats[("section", layer, n)][2] for n in names
                   if ("section", layer, n) in stats)

    def calls(layer, *names, phase="section"):
        return sum(stats[(phase, layer, n)][0] for n in names if (phase, layer, n) in stats)

    def layer_self(layer):
        return sum(row[2] for (phase, lay, _), row in stats.items()
                   if phase == "section" and lay == layer)

    def count(name, phase="section"):
        return counts.get((phase, name), 0.0)

    run_plan_s = total("harness", "run_plan")
    workers = count("workers")
    return {
        "corpus.stack_s": own("corpus", *STACK_METHODS),
        "corpus.stack_calls": calls("corpus", *STACK_METHODS),
        "models.train_s": total("models", "train"),
        "models.self_s": layer_self("models"),
        "models.objective_s": total("models", "batch_objective"),
        "models.batches": calls("models", "batch_objective"),
        "nncore.encoder_fwd_s": total("nncore", "inference_forward"),
        "nncore.encoder_bwd_s": total("nncore", "inference_backward"),
        "nncore.encoder_calls": calls("nncore", "inference_forward"),
        "nncore.adam_s": total("nncore", "adam_step"),
        "nncore.adam_steps": calls("nncore", "adam_step"),
        "nncore.adam_bytes": count("adam_bytes"),
        "nncore.softmax_s": own("nncore", "softmax", "log_softmax", "softmax_backward"),
        "nncore.kl_s": own("nncore", "kl_rows", "kl_grads", "kl_diag_gaussian"),
        "metrics.report_s": total("metrics", "compute_metric_report"),
        "metrics.reports": calls("metrics", "compute_metric_report"),
        "metrics.irbo_s": total("metrics", "irbo"),
        "metrics.ieps_s": total("metrics", "ieps"),
        "descriptors.describe_s": total("descriptors", "describe_topics"),
        "descriptors.write_s": total("descriptors", "write_descriptors"),
        "overlap.similarity_s": total("overlap", "topic_similarity_matrix"),
        "overlap.hungarian_s": total("overlap", "hungarian"),
        "overlap.pairs": calls("overlap", "overlap_report"),
        "harness.run_plan_s": run_plan_s,
        "harness.self_s": layer_self("harness"),
        "harness.save_s": total("harness", "save_model"),
        "harness.load_s": total("harness", "load_model"),
        "harness.checkpoint_bytes": count("checkpoint_bytes"),
        "harness.fingerprint_s": total("harness", "corpus_fingerprint"),
        "harness.cells_run": calls("harness", "_run_cell"),
        "harness.cells_failed": count("cells_failed"),
        "harness.worker_busy_frac": (total("harness", "_run_cell") / (workers * run_plan_s)
                                     if workers and run_plan_s else 0.0),
        "harness.resume_s": total("harness", "run_plan", phase="resume"),
        "harness.cells_skipped_on_resume": (count("cells", phase="resume")
                                            - calls("harness", "_run_cell", phase="resume")),
    }


def load_metrics(tracers) -> dict[str, float]:
    """``corpus.load_*`` per ``load_corpus`` call, over every traced phase."""
    n = seconds = size = docs = 0
    for tracer in tracers:
        for (phase, layer, name), row in tracer.stats.items():
            if (layer, name) == ("corpus", "load_corpus"):
                n += row[0]
                seconds += row[1]
                size += tracer.counts.get((phase, "load_bytes"), 0.0)
                docs += tracer.counts.get((phase, "docs"), 0.0)
    n = max(n, 1)
    return {"corpus.load_s": seconds / n, "corpus.load_bytes": size / n, "corpus.docs": docs / n}
