"""Record eval-large metric and overlap values for the given seeds.

    python3 perfbench/record_expected.py SEED [SEED ...]

Runs the eval-large section once per seed and merges its values into
``expected/eval-large.json``, which later runs compare against within
1e-9. Re-record only with a change that means to alter metric values.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
# The same BLAS pin as run.py, set before numpy loads.
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"

import workloads  # noqa: E402

CACHE = HERE / ".cache"


def main(seeds) -> int:
    path = workloads.EXPECTED_PATH
    recorded = json.loads(path.read_text("utf-8")) if path.exists() else {}
    for seed in seeds:
        workloads.build_inputs(CACHE, "eval-large", "full", seed)
        paths = workloads.input_paths(CACHE, "eval-large", "full", seed)
        work = Path(tempfile.mkdtemp(dir=HERE, prefix=".record-"))
        try:
            workload = workloads.EvalLarge("full", seed, paths, work)
            workload.load()
            checks, values = workload.outputs()
        finally:
            shutil.rmtree(work)
        if not all(checks):
            print(f"seed {seed}: an operation failed; not recorded", file=sys.stderr)
            return 1
        recorded[str(seed)] = values
        print(f"seed {seed}: recorded", file=sys.stderr)
    path.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(seed)}: {json.dumps(recorded[seed], sort_keys=True)}"
             for seed in sorted(recorded, key=int)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
