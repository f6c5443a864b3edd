"""The three benchmark workloads: inputs, the measured op, and its check.

Each op calls triqent only through module attributes (``cli.analyze_state``,
not a name imported here), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

import gen
from triqent import canonical, classification, cli, gensim, measures, qcore

# Pinned seed of the warm-up inputs and of the analyze reference file.
REF_SEED = 12345
PROB_TOL = 1e-12
# invert_measures widens its own acceptance to 2e-2 inside the a ~ b band.
BAND_MATCH_TOL = 2e-2


class CheckFailed(Exception):
    """An op returned, but its output breaks the workload's check."""


@dataclass(frozen=True)
class Workload:
    """How to build, run and check one kind of op.

    ``stream(seed)`` yields the seeded items, ``prepare`` turns one into the
    op's argument outside the timed region, and ``check`` raises CheckFailed
    on a wrong output.  ``boundary(seed)`` yields near-boundary items on
    which the program fails at the baseline; ``boundary_ops`` of them are
    run once per run, untimed, and reported apart from the timed ops.
    ``accepted(result)`` counts the candidates an op accepted, for the
    traced run's accept ratio.
    """

    name: str
    root_layer: str
    stream: Callable[[int], Iterator]
    prepare: Callable[[Any], Any]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any, Any], None]
    accepted: Callable[[Any], int]
    warmup_ops: int
    trace_ops: int
    boundary: Callable[[int], Iterator] | None = None
    boundary_ops: int = 0
    reference: bool = False  # warm-up outputs are pinned in reference/<name>.json


def _none(_result) -> int:
    return 0


# --- analyze-mix -----------------------------------------------------------

def analyze_op(record: dict) -> str:
    """What ``triqent analyze`` does per record."""
    report = cli.analyze_state(cli.record_to_state(record))
    return json.dumps(report, indent=2, sort_keys=True)


def analyze_check(record: dict, _arg, text: str) -> None:
    meta = record["metadata"]
    if meta["noise"]:
        return  # noisy boundary inputs: only an exception counts against them
    label = json.loads(text)["classification"]
    kind = meta["kind"]
    if kind == "real":
        if not label["clu"]:
            raise CheckFailed(f"{record['id']}: real state labelled NCLU")
    elif label["class"] != gen.EXPECTED_LABEL[kind]:
        raise CheckFailed(f"{record['id']}: {kind} state labelled {label['class']}")


# --- gensim-forms ----------------------------------------------------------

def gensim_prepare(item):
    _kind, amps = item
    return canonical.canonical_decomposition(qcore.PureState(3, amps))


def gensim_check(_item, _form, outcomes) -> None:
    if len(outcomes) != 256:
        raise CheckFailed(f"{len(outcomes)} outcomes, expected 256")
    agg = np.zeros(4)
    for o in outcomes:
        if abs(o.probability - 1 / 256) > PROB_TOL:
            raise CheckFailed(f"outcome {o.bell_results} has probability {o.probability}")
        for i in o.matched_members:
            agg[i] += o.probability / len(o.matched_members)
    if np.abs(agg - 0.25).max() > PROB_TOL:
        raise CheckFailed(f"member aggregates {agg.tolist()}")


# --- invert-roundtrip ------------------------------------------------------

def invert_prepare(item):
    _kind, _params, amps = item
    state = qcore.PureState(3, amps)
    return state, measures.measure_set(canonical.canonical_decomposition(state))


def invert_op(arg):
    return measures.invert_measures(arg[1])


def invert_check(item, arg, candidates) -> None:
    kind = item[0]
    state, ms = arg
    if kind == "near_ab":
        # Identifiable only to O(a - b) here: each candidate must reproduce
        # the measure set within the widened acceptance.
        want = ms.as_dict()
        for cand in candidates:
            got = measures.measure_set(cand).as_dict()
            resid = max(abs(got[k] - want[k]) for k in want)
            if resid > BAND_MATCH_TOL:
                raise CheckFailed(f"candidate {cand.params} misses the measures by {resid}")
        return
    for cand in candidates:
        equal, _ = classification.lu_equivalent(canonical.reconstruct_state(cand), state)
        if equal:
            return
    raise CheckFailed(f"{kind}: no candidate is LU-equivalent to the source state")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analyze-mix",
            root_layer="cli",
            stream=gen.analyze_records,
            prepare=lambda record: record,
            op=analyze_op,
            check=analyze_check,
            accepted=_none,
            warmup_ops=60,
            trace_ops=40,
            boundary=gen.analyze_boundary_records,
            boundary_ops=4 * len(gen.ANALYZE_BOUNDARY),
            reference=True,
        ),
        Workload(
            name="gensim-forms",
            root_layer="bench",
            stream=gen.gensim_states,
            prepare=gensim_prepare,
            op=lambda form: gensim.enumerate_generation(form),
            check=gensim_check,
            accepted=_none,
            warmup_ops=2,
            trace_ops=5,
        ),
        Workload(
            name="invert-roundtrip",
            root_layer="bench",
            stream=gen.invert_states,
            prepare=invert_prepare,
            op=invert_op,
            check=invert_check,
            accepted=len,
            warmup_ops=10,
            trace_ops=10,
            boundary=gen.invert_boundary_states,
            boundary_ops=20 * len(gen.INVERT_BOUNDARY),
        ),
    )
}
