"""mmtopic benchmark entry point.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Runs one workload (or, with ``all``, each workload in a fresh process) from
the root of a source checkout, against the package under ``src/``. The
workload's inputs are generated from ``--seed`` and cached under
``perfbench/.cache``; timed sections repeat for ``--seconds``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. The line before it
carries the machine, the output digest and the workload's own named
figures. ``--smoke`` shrinks every workload to toy size; with ``all`` it
also checks each result against the schema.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
WORK = HERE / ".work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 900

# Set-up as a user pays it: a fresh interpreter imports mmtopic and loads
# the workload's dataset. Printed seconds exclude interpreter start-up.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mmtopic
mmtopic.load_corpus(sys.argv[2])
print(time.perf_counter() - start)
"""

BUILD_INPUTS = """\
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build_inputs(*sys.argv[3:6], int(sys.argv[6]))
"""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def parse_args(spec: dict, argv=None):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size inputs; with --workload all, validate each result")
    return parser.parse_args(argv)


# ------------------------------------------------------------ one workload

def _openblas_threads():
    """Threads the loaded OpenBLAS reports, or None where it cannot be
    asked (a BLAS other than numpy's bundled OpenBLAS)."""
    import ctypes
    import numpy

    libs = sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _steal_seconds():
    """CPU time the hypervisor took from this machine so far, where the
    kernel reports it; it explains runs slowed by other tenants."""
    try:
        return int(Path("/proc/stat").read_text().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def machine_info() -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": _openblas_threads(),
    }


def setup_sample(dataset: Path) -> float:
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(dataset)],
                         capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


def run_workload(args, spec: dict) -> int:
    scale = "toy" if args.smoke else "full"
    # Inputs are built in their own process so that generating them shows in
    # neither the timings nor this process's peak memory.
    subprocess.run([sys.executable, "-c", BUILD_INPUTS, str(HERE), str(SRC), str(CACHE),
                    args.workload, scale, str(args.seed)],
                   stdout=sys.stderr, check=True, timeout=CHILD_TIMEOUT_S)

    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from spans import Tracer

    paths = workloads.input_paths(CACHE, args.workload, scale, args.seed)
    setup = []
    wanted = 0 if args.trace else workloads.SIZES[scale][args.workload]["setup_samples"]

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](scale, args.seed, paths, work)
        tracers = []
        if args.trace:
            workload.tracer = Tracer()
            tracers.append(workload.tracer)
            layers.install(workload.tracer)
        try:
            workload.load()
        finally:
            if workload.tracer is not None:
                workload.tracer.uninstall()
        workload.tracer = None
        workload.warm_up()

        # Traced runs alternate untraced and traced sections, so the two
        # kinds see the same machine state and their ratio is the overhead.
        # Set-up samples are spread over the run, outside its time budget,
        # because the machine's speed drifts over tens of seconds.
        sections = []
        steal0 = _steal_seconds()
        start = time.perf_counter()
        while (len(sections) < (2 if args.trace else 1)
               or time.perf_counter() - start < args.seconds):
            while len(setup) < min(wanted, wanted * (time.perf_counter() - start) / args.seconds):
                probe = time.perf_counter()
                setup.append(setup_sample(paths["data"]))
                start += time.perf_counter() - probe
            traced = bool(args.trace) and len(sections) % 2 == 1
            workload.tracer = Tracer() if traced else None
            if traced:
                tracers.append(workload.tracer)
                layers.install(workload.tracer)
            try:
                result = workload.run(len(sections))
            finally:
                if traced:
                    workload.tracer.uninstall()
            sections.append((workload.tracer, *result))
        while len(setup) < wanted:
            setup.append(setup_sample(paths["data"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [ok for section in sections for ok in section[2]]
    digests = {section[3] for section in sections}
    checks.append(len(digests) == 1)  # every repetition gives the same outputs
    attempted, failed = len(checks), checks.count(False)

    plain = [s for s in sections if s[0] is None]
    named = {key: statistics.median([s[4][key] for s in plain]) for key in plain[0][4]}
    named["error_rate"] = failed / attempted
    if args.trace:
        traced = [s for s in sections if s[0] is not None]
        per_section = [layers.section_metrics(s[0]) for s in traced]
        values = {key: statistics.median([m[key] for m in per_section])
                  for key in per_section[0]}
        values.update(layers.load_metrics(tracers))
        npmi_s, windows = layers.probe_npmi(traced[0][0].records)
        values["metrics.npmi_s"] = npmi_s
        values["metrics.windows"] = windows
        values["trace.overhead_frac"] = (statistics.median([s[1] for s in traced])
                                         / statistics.median([s[1] for s in plain]) - 1.0)
        table = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "section_s": statistics.median([s[1] for s in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        table = spec["end_to_end"]

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": scale,
        "seconds": args.seconds, "trace": args.trace, "sections": len(sections),
        "setup_s": setup, "section_s": [s[1] for s in plain],
        "steal_s": _steal_seconds() - steal0,
        "machine": machine_info(), "digest": sorted(digests), "named": named,
        **workload.notes,
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table},
    }))
    return 0


# ----------------------------------------------------------- all workloads

def schema_problems(result, spec: dict, trace: int) -> list[str]:
    """Ways a result line breaks the contract in BENCHMARK.json."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                      "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    problems = []
    if result["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if type(result[key]) is not int:
            problems.append(f"{key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append("attempted must be >= 1 and failed 0")
    table = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if (not isinstance(entry, dict) or set(entry) != {"value", "unit"}
                or entry["unit"] != units.get(name)
                or type(value) not in (int, float) or not math.isfinite(value)):
            problems.append(f"metric {name} is malformed: {entry!r}")
    return problems


def run_all(args, spec: dict) -> int:
    ok = True
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        sys.stdout.write(out.stdout)
        if out.returncode != 0 or not lines:
            problems = [f"exit code {out.returncode}"]
        else:
            try:
                problems = schema_problems(json.loads(lines[-1]), spec, args.trace)
            except json.JSONDecodeError:
                problems = ["last line is not JSON"]
        for problem in problems:
            print(f"{w['name']}: {problem}", file=sys.stderr)
        ok = ok and not problems
    print(json.dumps({"workloads": len(spec["workloads"]), "valid": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    if not (SRC / "mmtopic" / "__init__.py").is_file():
        print(f"no mmtopic sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
