"""Smoke tests of the benchmark: every workload at toy size in both trace
modes with each result checked against BENCHMARK.json, the refusal to run
without sources, the schema check itself, and the tracer's thread rules."""

import importlib.util
import json
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_runs_at_toy_size(trace):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all",
                          "--smoke", "--seconds", "1", "--trace", trace],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary == {"workloads": len(SPEC["workloads"]), "valid": True}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-large",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_schema_check_rejects_missing_and_mistyped_metrics():
    run = _load("run")
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    good = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
    assert run.schema_problems(good, SPEC, 0) == []
    assert run.schema_problems(good, SPEC, 1)  # per-layer names expected
    first = SPEC["end_to_end"][0]["name"]
    for bad in ({**good, "failed": 1, "correct": False},
                {**good, "metrics": {**metrics, first: {"value": "1", "unit": "s"}}},
                {**good, "metrics": {**metrics, first: {"value": 1.0, "unit": "ms"}}},
                {k: v for k, v in good.items() if k != "metrics"}):
        assert run.schema_problems(bad, SPEC, 0)


def test_worker_spans_are_children_of_the_span_that_started_them():
    spans = _load("spans")
    package = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.work")

    def leaf():
        time.sleep(0.05)

    def fan_out():
        threads = [threading.Thread(target=layer.leaf) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    for fn in (leaf, fan_out):
        fn.__module__ = layer.__name__
        setattr(layer, fn.__name__, fn)
    sys.modules.update({"fakepkg": package, "fakepkg.work": layer})
    tracer = spans.Tracer()
    try:
        tracer.install("fakepkg", ["work"])
        layer.fan_out()
    finally:
        tracer.uninstall()
        del sys.modules["fakepkg"], sys.modules["fakepkg.work"]
    assert layer.leaf is leaf
    calls, total, own = tracer.stats[("section", "work", "leaf")]
    assert calls == 2 and own == pytest.approx(total)
    calls, total, own = tracer.stats[("section", "work", "fan_out")]
    # The two leaves overlap in time, so they cover about 0.05 s of it once.
    assert calls == 1 and total - own >= 0.045 and own < total - 0.045
