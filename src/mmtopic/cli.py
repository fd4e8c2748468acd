"""Command-line entry points.

Subcommands: synth (generate a planted-topic dataset), prep (preprocess a
raw dataset and pin a vocabulary), train, eval (metrics and descriptors for
a checkpoint), overlap (cross-model topic matching), run (execute a sweep
plan), and report (re-emit the three aggregate tables from manifests).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import typing
from pathlib import Path

from . import corpus as corpus_mod
from . import harness
from .corpus import (SyntheticSpec, atomic_write_text, generate_synthetic, load_corpus,
                     save_corpus)
from .descriptors import describe_topics, write_descriptors
from .metrics import compute_metric_report, load_word_vectors
from .models import KINDS, ModelConfig, train
from .overlap import overlap_report


# ModelConfig fields set by flags of their own name; ``train`` takes kind
# and num_topics as required arguments.
_CONFIG_FLAGS = tuple(f for f in dataclasses.fields(ModelConfig)
                      if f.name not in ("kind", "num_topics"))
_CONFIG_HELP = {
    "batch_size": "default: 64, or 32 for multimodal_contrast",
    "image_loss_weight": "weight of the image cosine reconstruction loss",
    "contrastive_weight": "weight of the cross-modal InfoNCE term",
    "prior_alpha": "Dirichlet concentration of the prior; default 1/num_topics",
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    hints = typing.get_type_hints(ModelConfig)
    for f in _CONFIG_FLAGS:
        # ``int | None`` parses as int; a None default is resolved by ModelConfig
        parse = next(t for t in typing.get_args(hints[f.name]) or (hints[f.name],)
                     if t is not type(None))
        parser.add_argument("--" + f.name.replace("_", "-"), type=parse,
                            default=f.default, help=_CONFIG_HELP.get(f.name))


def _cmd_synth(args) -> int:
    d = json.loads(Path(args.spec).read_text("utf-8"))
    corpus_mod._check_json_keys(d, SyntheticSpec, "spec")
    corpus, planted = generate_synthetic(SyntheticSpec(**d))
    save_corpus(corpus, args.out)
    if args.ground_truth:
        atomic_write_text(Path(args.ground_truth), json.dumps(
            [dataclasses.asdict(t) for t in planted], default=lambda a: a.tolist()) + "\n")
    print(f"wrote {corpus.num_documents} documents to {args.out}")
    return 0


def _cmd_prep(args) -> int:
    stopwords = corpus_mod.load_stopwords(args.stopwords)
    corpus = load_corpus(args.input, cap=args.vocab_cap, stopwords=stopwords)
    save_corpus(corpus, args.output)
    print(f"wrote {corpus.num_documents} documents, "
          f"vocabulary of {len(corpus.vocabulary)} terms, to {args.output}")
    return 0


def _cmd_train(args) -> int:
    config = ModelConfig(kind=args.kind, num_topics=args.num_topics,
                         **{f.name: getattr(args, f.name) for f in _CONFIG_FLAGS})
    corpus = load_corpus(args.data)
    model = train(corpus, config)
    harness.save_model(model, args.out)
    final = model.loss_trace[-1]["total"] if model.loss_trace else float("nan")
    print(f"trained {model.label} ({args.epochs} epochs, "
          f"final mean loss {final:.4f}); checkpoint at {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = harness.load_model(args.model)
    corpus = load_corpus(args.data)
    if corpus.num_documents != model.doc_topics.shape[0]:
        raise harness.CheckpointError(
            f"{args.model}: the checkpoint was trained on {model.doc_topics.shape[0]} "
            f"documents, but {args.data} has {corpus.num_documents}")
    vectors = load_word_vectors(args.word_vectors) if args.word_vectors else None
    report = compute_metric_report(
        model, corpus, word_vectors=vectors, n_descriptors=args.top_n,
        window=args.window, rbo_p=args.rbo_p)
    atomic_write_text(Path(args.out), json.dumps(report.to_dict(), indent=2) + "\n")
    if args.descriptors:
        write_descriptors(describe_topics(model, corpus, args.top_n), args.descriptors)
    shown = {k: v for k, v in report.values().items() if v is not None}
    print(f"{report.model_id}: " + ", ".join(f"{k}={v:.4f}" for k, v in shown.items()))
    return 0


def _cmd_overlap(args) -> int:
    model_a = harness.load_model(args.model_a)
    model_b = harness.load_model(args.model_b)
    report = overlap_report(model_a, model_b, n=args.top_n, p=args.rbo_p)
    report.write_json(args.out)
    print(f"overlap {report.model_a} vs {report.model_b}: "
          f"mean {report.mean:.4f}, sd {report.sd:.4f}")
    return 0


def _cmd_run(args) -> int:
    plan = harness.ExperimentPlan.from_file(args.plan)
    if args.output_dir:
        plan = dataclasses.replace(plan, output_dir=args.output_dir)
    if args.workers is not None:
        plan = dataclasses.replace(plan, workers=args.workers)
    manifests = harness.run_plan(plan)
    ok = sum(1 for m in manifests if m.status == "ok")
    failed = len(manifests) - ok
    print(f"{ok} cells complete, {failed} failed; reports under {plan.output_dir}")
    return 1 if failed else 0


def _cmd_report(args) -> int:
    written = harness.emit_report(harness.load_manifests(args.runs), args.runs)
    print("\n".join(f"wrote {path}" for path in written)
          or f"aggregate tables under {args.runs} unchanged")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmtopic",
        description="Multimodal neural topic modeling over precomputed embeddings.")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-topic synthetic dataset")
    p.add_argument("--spec", required=True, help="JSON file of generator parameters")
    p.add_argument("--out", required=True, help="output dataset (JSON lines)")
    p.add_argument("--ground-truth", help="optional JSON path for the planted topics")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("prep", help="preprocess a dataset and pin its vocabulary")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--vocab-cap", type=int, default=corpus_mod.DEFAULT_VOCAB_CAP)
    p.add_argument("--stopwords", help="custom stopword file, one word per line")
    p.set_defaults(func=_cmd_prep)

    p = sub.add_parser("train", help="train one topic model")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--num-topics", type=int, required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="compute metrics for a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="the dataset the model was trained on")
    p.add_argument("--out", required=True, help="metric report JSON path")
    p.add_argument("--word-vectors", help="text word-vector file for WE coherence")
    p.add_argument("--descriptors", help="optional JSONL path for topic descriptors")
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--rbo-p", type=float, default=0.9)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("overlap", help="match topics across two checkpoints")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("--rbo-p", type=float, default=0.9)
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("run", help="execute a sweep plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--output-dir", help="override the plan's output directory")
    p.add_argument("--workers", type=int, help="override the plan's worker count")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="re-emit aggregate tables from manifests")
    p.add_argument("--runs", required=True, help="run directory with manifests/")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
