"""Benchmark entry point.

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 30 --trace 0

Runs one workload in a closed loop for ``--seconds`` of op time and prints,
as its last line, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Workloads: analyze-mix, gensim-forms,
invert-roundtrip.
"""

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("analyze-mix", "gensim-forms", "invert-roundtrip")
# One BLAS thread, fixed before numpy is imported; the set-up probes inherit it.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "triqent" / "__init__.py").is_file():
        print(f"error: triqent sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
