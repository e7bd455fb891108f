"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 e2ebench/run.py --workload offline_llm --seed 1 --seconds 36 --trace 0

Run from the repository root: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the units come from
``BENCHMARK.json``.  A run too short to measure a metric still prints
the object, with that metric's value null, and exits with 3.
Diagnostics go to standard error.  See README.md for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Numerical-library thread pools are pinned to one thread: on two cores
#: a second BLAS thread only adds CPU time.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if args.seconds <= 0:
        print("e2ebench: --seconds must be positive", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    except ImportError as exc:
        print(f"e2ebench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"e2ebench: unknown workload; choose one of {known}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".e2ebench-work" / str(os.getpid())
    try:
        run = workloads.run_traced if args.trace else workloads.run_untraced
        result = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    values = result["metrics"]
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"e2ebench: run too short to measure {missing}",
              file=sys.stderr)
    # The counts are printed even when a metric is missing; its value
    # is then null.
    result["metrics"] = {
        name: {"value": values.get(name), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps(result))
    return 3 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
