"""Tests of the benchmark's own machinery (run with pytest from the repo root)."""

import itertools
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import calib  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def test_self_time_of_synthetic_span_tree():
    # op [0, 100) holds a [10, 60) and b [70, 90); a holds c [20, 30) and d [35, 55).
    tree = [
        spans.Span("op", "cli", -1, 0, 0, 100),
        spans.Span("m.a", "m", 0, 0, 10, 60),
        spans.Span("q.c", "q", 1, 0, 20, 30),
        spans.Span("q.d", "q", 1, 0, 35, 55),
        spans.Span("m.b", "m", 0, 0, 70, 90),
        spans.Span("q.c", "q", -1, 1, 200, 205),
    ]
    prof = spans.profile(tree)
    assert prof.self_ns == {"cli": 100 - 50 - 20, "m": (50 - 30) + 20, "q": 10 + 20 + 5}
    assert sum(prof.self_ns.values()) == 100 + 5
    assert prof.calls == {"op": 1, "m.a": 1, "q.c": 2, "q.d": 1, "m.b": 1}
    assert prof.inclusive_ns["q.c"] == 15
    prof.add(spans.profile(tree))
    assert prof.calls["q.c"] == 4 and prof.self_ns["cli"] == 60


def test_percentile_and_sample_count_rule():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.beyond(100, 90) == 10 and stats.supported(100, 90)
    assert not stats.supported(99, 90)
    assert stats.highest_tail(99) is None
    assert stats.highest_tail(100) == 90
    assert stats.highest_tail(999) == 90
    assert stats.highest_tail(1000) == 99


def test_calibration_scales_follow_the_local_kernel_time():
    ref_ns = calib.REF_KERNEL_MS * 1e6
    assert calib.scales([ref_ns] * 5) == [1.0] * 5
    step = calib.scales([ref_ns / 2] * 10 + [ref_ns * 2] * 10)
    assert step[:7] == [2.0] * 7 and step[-7:] == [0.5] * 7
    # One slow kernel sample among fast ones does not move the scale.
    assert calib.scales([ref_ns] * 3 + [ref_ns * 5] + [ref_ns] * 3)[3] == 1.0


def _take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("make", [gen.analyze_records, gen.analyze_boundary_records,
                                  gen.gensim_states, gen.invert_states,
                                  gen.invert_boundary_states])
def test_generator_is_deterministic_per_seed(make):
    n = 2 * len(gen.ANALYZE_BOUNDARY)
    first, again, other = _take(make(7), n), _take(make(7), n), _take(make(8), n)
    assert json.dumps(first, default=repr) == json.dumps(again, default=repr)
    assert json.dumps(first, default=repr) != json.dumps(other, default=repr)


def test_generated_states_are_normalized_and_genuine():
    records = _take(gen.analyze_records(3), len(gen.ANALYZE_KINDS))
    records += _take(gen.analyze_boundary_records(3), len(gen.ANALYZE_BOUNDARY))
    for record in records:
        amps = np.array([complex(re, im) for re, im in record["amplitudes"]])
        assert abs(np.linalg.norm(amps) - 1) < 1e-12
        assert gen.genuine(amps)
    for _kind, params, amps in _take(gen.invert_states(3), len(gen.INVERT_SCHEDULE)):
        assert abs(np.linalg.norm(amps) - 1) < 1e-12 and gen.genuine(amps)


def _overlap(z):
    """|prod cos t_k| of |000> + c|f1 f2 f3>, from tan t_k = z[7] / z[7 - 2^(3-k)]."""
    return np.prod([1 / np.sqrt(1 + abs(z[7] / z[j]) ** 2) for j in (3, 5, 6)])


@pytest.mark.parametrize("kind", ["class2", "class3", "class4"])
def test_class_constructions_keep_off_the_threshold_edge_unless_asked(kind):
    rng = np.random.default_rng(11)
    for _ in range(200):
        z, j6 = gen._class_construction(kind, rng)
        assert _overlap(z) >= gen.MIN_OVERLAP
        assert kind == "class4" or j6 >= gen.MIN_J6
    z, _ = gen._class_construction(kind, rng, edge=True)
    assert _overlap(z) < gen.EDGE_WIDTH


def _fake_modules():
    home = types.ModuleType("pkg.home")
    exec("def f(x):\n    return g(x) + 1\n\ndef g(x):\n    return 2 * x\n\ndef _hidden():\n    return 0\n",
         home.__dict__)
    other = types.ModuleType("pkg.other")
    other.alias = home.f
    other.g = home.g
    other.uses = lambda x: other.alias(x)
    package = types.ModuleType("pkg")
    package.f = home.f
    return home, other, package


def test_wrapper_reaches_every_binding():
    home, other, package = _fake_modules()
    original_f, original_g = home.f, home.g
    tracer = spans.Tracer()
    tracer.install((home,), namespaces=(other, package))
    assert other.alias is home.f is package.f and home.f is not original_f
    assert other.g is home.g and home.g is not original_g
    assert other.uses(3) == 7
    assert [(s.name, s.parent) for s in tracer.spans] == [("home.f", -1), ("home.g", 0)]
    tracer.uninstall()
    assert home.f is original_f and other.alias is original_f and package.f is original_f
    assert other.g is original_g


def test_wrapper_reaches_every_triqent_binding():
    import harness
    import triqent

    originals = {}
    for module in harness.MODULES:
        originals.update({id(fn): fn for fn in spans.public_functions(module).values()})
    namespaces = (*harness.MODULES, triqent)
    tracer = spans.Tracer()
    tracer.install(harness.MODULES, namespaces=(triqent,),
                   constructors=(triqent.LocalUnitary, triqent.PureState))
    try:
        left = [f"{ns.__name__}.{attr}" for ns in namespaces for attr, value in vars(ns).items()
                if originals.get(id(value)) is value]
        assert left == []
        assert harness.cli.classify_state is triqent.classification.classify
        assert id(harness.cli.classify_state.__wrapped__) in originals
        triqent.ghz_state()
        assert {"qcore.ghz_state", "qcore.PureState"} <= {s.name for s in tracer.spans}
    finally:
        tracer.uninstall()
    still = [f"{ns.__name__}.{attr}" for ns in namespaces for attr, value in vars(ns).items()
             if callable(value) and hasattr(value, "__wrapped__") and id(value.__wrapped__) in originals]
    assert still == []


def test_benchmark_json_matches_the_harness():
    import harness
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in harness.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(harness.workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(harness.workloads.WORKLOADS)


def test_reference_mismatch_rule():
    import harness

    ref = {"class": "Class2", "e6": 1, "x": [0.5, 1.0]}
    assert harness.mismatch(ref, {"class": "Class2", "e6": 1, "x": [0.5 + 1e-10, 1.0]}) is None
    assert harness.mismatch(ref, {"class": "Class3", "e6": 1, "x": [0.5, 1.0]})
    assert harness.mismatch(ref, {"class": "Class2", "e6": 1, "x": [0.5 + 1e-8, 1.0]})
    assert harness.mismatch(ref, {"class": "Class2", "e6": True, "x": [0.5, 1.0]})
