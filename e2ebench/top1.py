"""Print the top-1 SQL of every dev question of the lgesql pipeline.

    diff <(PYTHONHASHSEED=1 python3 e2ebench/top1.py) \\
         <(PYTHONHASHSEED=2 python3 e2ebench/top1.py)

Run from the repository root.  The pipeline is trained on the
benchmark's fixed corpus, so two processes should print the same lines
whatever their string-hash seeds; where they differ, the pipeline's
output depends on set iteration order.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    bench, pipeline = workloads.train("lgesql")
    dev = bench.dev
    for index, example in enumerate(dev.examples):
        result = pipeline.translate_ranked_report(
            example.question, dev.database(example.db_id)
        )
        top1 = result.translations[0].sql if result.translations else "-"
        print(f"{index}\t{top1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
