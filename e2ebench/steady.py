"""Steadiness check: run one workload in two sets of K runs, compare to bounds.

    python3 e2ebench/steady.py --workload offline_llm --runs 10

Each run is a fresh ``run.py --trace 0`` process with its own seed: the
first set uses seeds 1..K, the second K+1..2K.  For every end-to-end
metric the command prints, per set, the median of the runs and their
spread (the interquartile distance as a share of the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound in ``BENCHMARK.json``.  A spread should stay below a
third of its bound; ``setup_s`` is exempt, since only its median is
compared.  It then prints by how much the second set's median is worse
than the first set's, which must stay within the bound for every
metric.  Each run's share of failed operations must be the same in
every set.  Exits 1 if any run was incorrect or any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def report_set(results: list[dict], bounds: dict) -> tuple[bool, dict]:
    """Print one set's medians and spreads; return (ok, medians)."""
    ok = all(r["correct"] for r in results)
    print(f"{'metric':20s} {'median':>10s} {'spread':>8s} {'bound':>6s} "
          f"{'unit':6s} {'verdict':12s} runs")
    medians = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        share = spread(values) if len(values) >= 2 else 0.0
        verdict = ""
        if name != "setup_s":
            verdict = "ok" if share <= bound / 3 else (
                "WITHIN BOUND" if share <= bound else "OVER BOUND"
            )
            ok = ok and share <= bound
        print(
            f"{name:20s} {median:10.3f} {share:8.2%} {bound:6.2f} "
            f"{unit:6s} {verdict:12s} {' '.join(f'{v:.4g}' for v in values)}"
        )
        medians[name] = median
    return ok, medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    ok = True
    shares = set()
    sets = []
    for number in range(2):
        first = 1 + number * args.runs
        print(f"set {number + 1}: seeds {first}-{first + args.runs - 1}")
        results = []
        for seed in range(first, first + args.runs):
            result = run_once(args.workload, seed, spec["run_seconds"])
            results.append(result)
            shares.add(result["failed"] / result["attempted"])
            print(
                f"seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}",
                flush=True,
            )
        set_ok, medians = report_set(results, bounds)
        ok = ok and set_ok
        sets.append(medians)
    print(f"failed share per run: {sorted(shares)}")
    ok = ok and len(shares) == 1

    print(f"{'metric':20s} {'set 2 worse by':>14s} {'bound':>6s} verdict")
    for name, bound in bounds.items():
        change = (sets[1][name] - sets[0][name]) / sets[0][name]
        worse = change if better[name] == "lower" else -change
        ok = ok and worse <= bound
        print(f"{name:20s} {worse:14.2%} {bound:6.2f} "
              f"{'ok' if worse <= bound else 'OVER BOUND'}")
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "medians": sets}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
