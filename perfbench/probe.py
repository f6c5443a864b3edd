"""One set-up sample: import triqent in a fresh process, then one warm-up op.

    python3 perfbench/probe.py <workload>

Prints {"setup_s": ...}, scaled to the reference host speed like the op
times (see calib.py); building the op's input is not counted.
"""

import sys
import time

start = time.perf_counter()
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
import triqent  # noqa: E402,F401
import triqent.cli  # noqa: E402,F401

imported = time.perf_counter()

import json  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402

w = workloads.WORKLOADS[sys.argv[1]]
arg = w.prepare(next(w.stream(workloads.REF_SEED)))
t0 = time.perf_counter()
w.op(arg)
t1 = time.perf_counter()
print(json.dumps({"setup_s": ((imported - start) + (t1 - t0)) * calib.scale_now()}))
