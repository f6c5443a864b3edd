"""Closed-loop measurement of one workload, untraced or traced.

One process, one thread, one client: each op starts when the previous one
returns.  Only the op itself is timed; building its input and checking its
output happen between ops.  A raised exception or a failed check counts as
a failed op and the run goes on.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import calib
import spans
import stats
import workloads
from run import THREAD_ENV
from triqent import bipartite, canonical, classification, cli, gensim, measures, qcore
import triqent

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

MIN_OPS = 100  # so that op_ms_p90 has ten samples beyond it
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
REF_TOL = 1e-9

MODULES = (qcore, bipartite, canonical, measures, classification, gensim, cli)

# (name, unit, better)
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better, what it should move).  All are per op of the traced run.
PER_LAYER = (
    ("canonical.self_ms", "ms", "lower",
     "op_ms_p50 and ops_per_s on analyze-mix; flat on gensim-forms"),
    ("canonical.canonical_decomposition.calls", "count", "lower",
     "op_ms_p50 and ops_per_s on analyze-mix; flat on gensim-forms"),
    ("canonical.canonical_decomposition.ms", "ms", "lower",
     "op_ms_p50 and ops_per_s on analyze-mix; flat on gensim-forms"),
    ("canonical.canonicalize_params.calls", "count", "lower",
     "ops_per_s on invert-roundtrip"),
    ("qcore.LocalUnitary.calls", "count", "lower",
     "op_ms_p50 on analyze-mix and invert-roundtrip"),
    ("qcore.PureState.calls", "count", "lower",
     "op_ms_p50 on every workload"),
    ("bipartite.self_ms", "ms", "lower",
     "op_ms_p50 on analyze-mix; invert-roundtrip does not use the Schmidt path"),
    ("bipartite.schmidt_split.calls", "count", "lower", "op_ms_p50 on analyze-mix"),
    ("bipartite.tau_matrix.calls", "count", "lower", "op_ms_p50 on analyze-mix"),
    ("qcore.require_tripartite.calls", "count", "lower", "op_ms_p50 on analyze-mix"),
    ("qcore.partial_trace.calls", "count", "lower", "op_ms_p50 on analyze-mix"),
    ("classification.is_clu.calls", "count", "lower", "op_ms_p50 on analyze-mix"),
    ("measures.self_ms", "ms", "lower",
     "ops_per_s on invert-roundtrip most, analyze-mix a little"),
    ("measures.measure_set.calls", "count", "lower", "ops_per_s on invert-roundtrip"),
    ("measures.measure_set.ms", "ms", "lower",
     "ops_per_s on invert-roundtrip most, analyze-mix a little"),
    ("measures.invert_measures.accept_ratio", "ratio", "higher",
     "ops_per_s on invert-roundtrip"),
    ("classification.self_ms", "ms", "lower",
     "ops_per_s on gensim-forms and op_ms_p50 on analyze-mix; the boundary slice's failures"),
    ("classification.acin_standard_form.calls", "count", "lower",
     "ops_per_s on gensim-forms (about 260 per op), analyze-mix (2 per op)"),
    ("classification.acin_standard_form.ms", "ms", "lower",
     "ops_per_s on gensim-forms, op_ms_p50 on analyze-mix"),
    ("gensim.self_ms", "ms", "lower", "ops_per_s on gensim-forms only"),
    ("gensim.bell_project.calls", "count", "lower", "ops_per_s on gensim-forms only"),
    ("gensim.cj_state.calls", "count", "lower", "ops_per_s on gensim-forms only"),
    ("cli.self_ms", "ms", "lower",
     "control for analyze-mix: record parsing, analyze_state self time and JSON "
     "output; numeric changes leave it flat"),
    ("qcore.self_ms", "ms", "lower", "op_ms_p50 on every workload"),
    ("trace_overhead", "ratio", "lower",
     "traced over untraced wall time on the same inputs; no end-to-end metric"),
)


class Tally:
    """Outcomes of the ops of one run.

    An op fails when it raises or its output fails the check.  Only a wrong
    output makes the run incorrect; an exception is an explicit refusal,
    counted but not wrong.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.by_kind = Counter()

    def record(self, w, item, arg, result, error) -> bool:
        """Check one op's outcome; True when it passed."""
        self.attempted += 1
        if error is None:
            try:
                w.check(item, arg, result)
                return True
            except workloads.CheckFailed as exc:
                self.wrong.append(f"{kind_of(item)}: {str(exc)[:300]}")
                error = exc
        self.failed += 1
        self.by_kind[f"{kind_of(item)}: {type(error).__name__}"] += 1
        return False


def kind_of(item) -> str:
    if isinstance(item, dict):
        meta = item["metadata"]
        return f"{meta['kind']}{'-edge' if meta['edge'] else ''}@{meta['noise']:g}"
    return item[0]


def call(fn, arg):
    """(result, error) of one call; the loop must survive any failing op."""
    try:
        return fn(arg), None
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        return None, exc


def mismatch(ref, got, tol: float = REF_TOL, path: str = "") -> str | None:
    """First difference between two JSON values: labels, flags and integers
    exactly, floats within ``tol``."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return f"{path}: keys differ"
        for key in ref:
            found = mismatch(ref[key], got[key], tol, f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{path}: lengths differ"
        for i, (r, g) in enumerate(zip(ref, got)):
            found = mismatch(r, g, tol, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return None if abs(ref - got) <= tol else f"{path}: {got!r} vs {ref!r}"
    return None if ref == got and type(ref) is type(got) else f"{path}: {got!r} vs {ref!r}"


def reference_outcome(result, error) -> dict:
    if error is not None:
        return {"error": type(error).__name__}
    return {"result": json.loads(result)}


def reference_path(w) -> Path:
    return REFERENCE_DIR / f"{w.name}.json"


def warm_up(w) -> list[str]:
    """Run the pinned warm-up inputs, check them and compare them with the
    reference file where the workload has one.  Returns what went wrong."""
    tally = Tally()
    reference = json.loads(reference_path(w).read_text()) if w.reference else None
    problems = []
    for i, item in enumerate(itertools.islice(w.stream(workloads.REF_SEED), w.warmup_ops)):
        arg = w.prepare(item)
        calib.kernel_ns()
        result, error = call(w.op, arg)
        tally.record(w, item, arg, result, error)
        if reference is None:
            continue
        want = reference["records"][i]
        if "result" not in want:
            continue  # failed at the reference commit: any outcome is accepted
        if error is not None:
            problems.append(f"{want['id']}: raised {type(error).__name__}")
        else:
            found = mismatch(want["result"], json.loads(result))
            if found:
                problems.append(f"{want['id']}{found}")
    return problems + tally.wrong


def boundary_probe(w) -> Tally:
    """Run the workload's near-boundary inputs once, untimed.  Their
    failures are the program's known boundary defects: reported, but kept
    out of the run's attempted, failed and correct."""
    tally = Tally()
    if w.boundary is not None:
        for item in itertools.islice(w.boundary(workloads.REF_SEED), w.boundary_ops):
            arg, error = call(w.prepare, item)
            result = None
            if error is None:
                result, error = call(w.op, arg)
            tally.record(w, item, arg, result, error)
    return tally


def setup_seconds(name: str) -> float:
    """One fresh-process set-up time: import triqent plus one warm-up op."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(w, seed: int, seconds: float) -> tuple[dict, Tally, list[str], dict]:
    problems = warm_up(w)
    boundary = boundary_probe(w)
    tally = Tally()
    durations = []
    kernels = []
    busy_ns = 0
    passed = []
    setup = []
    items = w.stream(seed)
    while busy_ns < seconds * 1e9 or len(durations) < MIN_OPS:
        # Set-up probes are spread over the run, so that they see the same
        # host conditions as the ops; the loop is paused while one runs.
        if len(setup) < SETUP_PROBES and busy_ns >= len(setup) * seconds * 1e9 / SETUP_PROBES:
            setup.append(setup_seconds(w.name))
        item = next(items)
        arg = w.prepare(item)
        kernels.append(calib.kernel_ns())
        start = perf_counter_ns()
        result, error = call(w.op, arg)
        elapsed = perf_counter_ns() - start
        durations.append(elapsed)
        busy_ns += elapsed
        passed.append(tally.record(w, item, arg, result, error))
    scaled = [d * f for d, f in zip(durations, calib.scales(kernels))]
    ms = sorted(d / 1e6 for d in scaled)
    n = len(ms)
    metrics = {
        "ops_per_s": sum(passed) / (sum(scaled) / 1e9),
        "op_ms_p50": stats.percentile(ms, 50),
        "op_ms_p90": stats.percentile(ms, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"ops_per_s": n, "op_ms_p50": n, "op_ms_p90": n,
               "setup_s": len(setup), "peak_rss_mb": 1}
    tail = stats.highest_tail(n)
    raw_ms = sorted(d / 1e6 for d in durations)
    extra = {"fail_ratio": tally.failed / tally.attempted, "busy_s": busy_ns / 1e9,
             "setup_s_values": setup, "kernel_ms_p50": statistics.median(kernels) / 1e6,
             "raw_ops_per_s": sum(passed) / (busy_ns / 1e9),
             "raw_op_ms_p50": stats.percentile(raw_ms, 50),
             "raw_op_ms_p90": stats.percentile(raw_ms, 90),
             "boundary": {"attempted": boundary.attempted, "failed": boundary.failed,
                          "by_kind": dict(boundary.by_kind)}}
    if tail and tail != 90:
        extra[f"op_ms_p{tail}"] = stats.percentile(ms, tail)
    return metrics, tally, problems + tally.wrong, {"samples": samples, "extra": extra}


def traced_run(w, seed: int, seconds: float) -> tuple[dict, Tally, list[str], dict]:
    """Alternate untraced and traced passes over the same fixed inputs."""
    items = list(itertools.islice(w.stream(seed), w.trace_ops))
    args = [w.prepare(item) for item in items]
    for arg in args:
        call(w.op, arg)
    tracer = spans.Tracer()
    root = tracer.wrap(w.op, "op", w.root_layer)
    total = spans.Profile({}, {}, {})
    tally = Tally()
    untraced_ns = traced_ns = accepted = passes = 0
    first_pass = []
    started = perf_counter()
    while passes == 0 or perf_counter() - started < seconds:
        t0 = perf_counter_ns()
        for arg in args:
            call(w.op, arg)
        untraced_ns += perf_counter_ns() - t0
        tracer.spans.clear()
        tracer.install(MODULES, namespaces=(triqent,),
                       constructors=(qcore.LocalUnitary, qcore.PureState))
        outcomes = []
        t0 = perf_counter_ns()
        for i, arg in enumerate(args):
            tracer.op = i
            outcomes.append(call(root, arg))
        traced_ns += perf_counter_ns() - t0
        tracer.uninstall()
        if passes == 0:
            first_pass = list(tracer.spans)
        total.add(spans.profile(tracer.spans))
        for item, arg, (result, error) in zip(items, args, outcomes):
            tally.record(w, item, arg, result, error)
            if error is None:
                accepted += w.accepted(result)
        passes += 1
    OUT_DIR.mkdir(exist_ok=True)
    spans.dump(first_pass, OUT_DIR / f"spans-{w.name}-seed{seed}.jsonl")
    n = passes * len(args)
    metrics = {}
    for name, _unit, _better, _moves in PER_LAYER:
        if name == "trace_overhead":
            value = traced_ns / untraced_ns
        elif name == "measures.invert_measures.accept_ratio":
            sets = total.calls.get("measures.measure_set", 0)
            value = accepted / sets if sets else 0.0
        elif name.endswith(".self_ms"):
            value = total.self_ns.get(name[: -len(".self_ms")], 0) / n / 1e6
        elif name.endswith(".calls"):
            value = total.calls.get(name[: -len(".calls")], 0) / n
        elif name.endswith(".ms"):
            value = total.inclusive_ns.get(name[: -len(".ms")], 0) / n / 1e6
        else:
            raise AssertionError(f"no rule for per-layer metric {name}")
        metrics[name] = value
    samples = {name: n for name in metrics}
    return metrics, tally, tally.wrong, {"samples": samples,
                                              "extra": {"passes": passes, "ops_per_pass": len(args)}}


def git_sha(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def metadata() -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_ENV},
        "src_lines": src_lines(ROOT),
    }


def run(workload: str, seed: int, seconds: int, traced: bool) -> int:
    w = workloads.WORKLOADS[workload]
    meta = metadata()
    if traced:
        metrics, tally, problems, info = traced_run(w, seed, seconds)
        spec = PER_LAYER
    else:
        metrics, tally, problems, info = timed_run(w, seed, seconds)
        spec = END_TO_END
    print(json.dumps({"meta": meta, "workload": workload, "seed": seed,
                      "trace": int(traced), **info["extra"]}, sort_keys=True))
    for name, unit, better, *_ in spec:
        print(f"  {name:44s} {metrics[name]:14.6g} {unit:6s} n={info['samples'][name]:<6d} ({better} is better)")
    print(f"  failed {tally.failed} of {tally.attempted}: {dict(tally.by_kind)}")
    if "boundary" in info["extra"]:
        bnd = info["extra"]["boundary"]
        print(f"  boundary slice (untimed, not in attempted/failed): failed {bnd['failed']}"
              f" of {bnd['attempted']}: {bnd['by_kind']}")
    for problem in problems[:20]:
        print(f"  INCORRECT {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, *_ in spec},
    }
    print(json.dumps(result))
    return 0
