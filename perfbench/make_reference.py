"""Regenerate the pinned reference outputs of the warm-up inputs.

    python3 perfbench/make_reference.py

Writes perfbench/reference/<workload>.json for each workload that keeps
one.  Run it only when the program's output is meant to change.
"""

import itertools
import json
import os
import sys

from run import HERE, SRC, THREAD_ENV


def main() -> int:
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    import workloads

    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    for w in workloads.WORKLOADS.values():
        if not w.reference:
            continue
        records = []
        for item in itertools.islice(w.stream(workloads.REF_SEED), w.warmup_ops):
            result, error = harness.call(w.op, w.prepare(item))
            records.append({"id": item["id"], **harness.reference_outcome(result, error)})
        doc = {"workload": w.name, "seed": workloads.REF_SEED, "meta": harness.metadata(),
               "records": records}
        path = harness.reference_path(w)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}: {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
