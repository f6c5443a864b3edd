"""Command-line front end: JSON state I/O, batch analysis, ensembles, checks.

Wire format: a StateRecord is {"id": str, "amplitudes": [[re, im] x 8],
"metadata": {...}}, amplitudes in index-ascending order with qubit 1 as the
most significant bit (so |101> is entry 5).  Input files hold one record,
an array of records, or newline-delimited records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import bipartite, canonical, gensim, measures, qcore
from .classification import (
    AcinForm,
    acin_standard_form,
    analyze,
    classify as classify_state,  # noqa: F401 (perfbench tests read cli.classify_state)
    invariants_equivalent,
    j_invariants,
    realified_det_tau,
)
from .qcore import BiseparableInput, InternalCheckFailed, PureState
from .tolerances import (
    ATOL_NORM,
    _BOUND_BRANCH,
    _BOUND_CLOSED_FORM,
    _BOUND_DET_TAU,
    _BOUND_DRIFT,
    _BOUND_MONOGAMY,
    _BOUND_PROBABILITY,
    _BOUND_SIGMA,
    _BOUND_WITNESS,
    _MIN_NORM,
    _ORACLE_MIN_LAMBDA1,
)

DEFAULT_SEED_ENV = "TRIQENT_SEED"

_SPLIT_ORDER = {1: (1, 2, 3), 2: (2, 1, 3), 3: (3, 2, 1)}


def load_records(text: str) -> list[dict]:
    """Parse records from a JSON document or newline-delimited JSON."""
    text = text.strip()
    if not text:
        return []
    try:
        data = json.loads(text)
        return data if isinstance(data, list) else [data]
    except json.JSONDecodeError:
        records = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON: {exc}") from exc
        return records


def record_to_state(record: dict) -> PureState:
    rec_id = record.get("id")
    amps = record.get("amplitudes")
    if not isinstance(amps, list) or len(amps) != 8:
        raise ValueError(f"record {rec_id!r}: expected 8 amplitudes")
    try:
        if any(isinstance(x, bool) for pair in amps for x in pair):
            raise TypeError("JSON booleans are not numbers")
        vec = np.array([complex(re, im) for re, im in amps])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"record {rec_id!r}: amplitudes must be [re, im] number pairs") from exc
    if not np.isfinite(vec).all():
        raise ValueError(f"record {rec_id!r}: non-finite amplitude")
    norm = np.linalg.norm(vec)
    if not _MIN_NORM <= norm < np.inf:
        raise ValueError(f"record {rec_id!r}: not normalizable")
    if abs(norm - 1) > ATOL_NORM:
        print(f"warning: record {rec_id!r} renormalized (|norm-1| = {abs(norm - 1):.2e})", file=sys.stderr)
        vec = vec / norm
    return PureState(3, vec)


def state_to_record(state: PureState, rec_id: str, metadata: dict | None = None) -> dict:
    return {
        "id": rec_id,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
        "metadata": metadata or {},
    }


def analyze_state(state: PureState) -> dict:
    """Full analysis of one 3-qubit state, from one pass over it."""
    an = analyze(state)
    form, tm, acin, inv = an.form, an.tau, an.standard_form, an.invariants
    evidence = {k: getattr(an, k) for k in ("gap_min", "gap_max", "tangle", "res_eq23", "res_eq24")}
    evidence.update(e1=form.e1, im_j6=inv.j6.imag, re_j6=inv.j6.real)
    mset = measures.measure_set(form)
    return {
        "canonical": {
            "a": form.a,
            "alpha": form.alpha,
            "beta": form.beta,
            "gamma": form.gamma,
            "beta_prime": form.beta_prime,
            "omega": form.omega,
            "omega_case": form.omega_case.value,
            "max_entangled_convention": form.max_entangled_convention,
        },
        "measures": {k: (v if isinstance(v, int) else float(v)) for k, v in mset.as_dict().items()},
        "bipartite": {
            "C23": float(tm.c23),
            "Ca23": float(tm.ca23),
            "tangle": float(an.tangle),
            "p": float(tm.p),
        },
        "standard_form": {
            "lambdas": [float(x) for x in acin.lambdas],
            "phi": float(acin.phi),
        },
        "invariants": {
            "J1": inv.j1,
            "J2": inv.j2,
            "J3": inv.j3,
            "J4": inv.j4,
            "J5": inv.j5,
            "J6": [inv.j6.real, inv.j6.imag],
            "sigma_plus": inv.sigma_plus,
            "sigma_minus": inv.sigma_minus,
        },
        "classification": {
            "clu": an.clu,
            "class": an.label.subclass.value,
            "evidence": {k: float(v) for k, v in evidence.items()},
        },
    }


def _render_table(reports) -> str:
    cols = ["id", "class", "E1", "E2", "E3", "E4", "E5", "E6", "tangle", "C23", "Ca23"]
    lines = ["  ".join(f"{c:>10}" for c in cols)]
    for r in reports:
        if "error" in r:
            detail = f": {r['check']} ({r['residual']:.3e} > {r['tol']:.1e})" if "check" in r else ""
            detail = f": {r['message']}" if "message" in r else detail
            lines.append(f"{r['id']:>10}  {r['error']}{detail}")
            continue
        m = r["measures"]
        b = r["bipartite"]
        vals = [
            r["id"],
            r["classification"]["class"],
            *(f"{m[k]:.6f}" for k in ("E1", "E2", "E3", "E4", "E5")),
            str(m["E6"]),
            f"{b['tangle']:.6f}",
            f"{b['C23']:.6f}",
            f"{b['Ca23']:.6f}",
        ]
        lines.append("  ".join(f"{v:>10}" for v in vals))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# The sections of the ``analyze_state`` report that each command prints.
_VIEWS = {
    "analyze": ("canonical", "measures", "bipartite", "standard_form", "invariants", "classification"),
    "decompose": ("canonical",),
    "measures": ("measures", "bipartite"),
    "classify": ("classification",),
    "standard-form": ("standard_form", "invariants"),
}


def _gensim_report(state: PureState) -> dict:
    outcomes = gensim.enumerate_generation(canonical.canonical_decomposition(state))
    return {
        "outcomes": len(outcomes),
        "probability_deviation": float(max(abs(o.probability - 1 / 256) for o in outcomes)),
        "member_aggregates": [float(x) for x in gensim.member_aggregates(outcomes)],
        "index_counts": [sum(1 for o in outcomes if o.s_psi_index == i) for i in range(4)],
    }


def cmd_records(args) -> int:
    """Report on each input record: the ``gensim`` summary, or the command's
    ``_VIEWS`` sections of the ``analyze_state`` report.

    A record that cannot be read gets the error ``invalid_record`` and a
    ``message``; one that fails an internal check gets ``internal_check_failed``
    with the check's name, residual and tolerance, and the command exits 1.
    """
    reports = []
    for idx, record in enumerate(load_records(_read_input(args.input))):
        is_object = isinstance(record, dict)
        report = {"id": str(record.get("id", idx) if is_object else idx)}
        started = time.perf_counter()
        state = None
        try:
            if not is_object:
                raise ValueError(f"record {idx}: expected a JSON object")
            state = record_to_state(record)
            if args.split != 1:
                state = qcore.permute_qubits(state, _SPLIT_ORDER[args.split])
            if args.command == "gensim":
                report.update(_gensim_report(state))
            else:
                full = analyze_state(state)
                report.update((key, full[key]) for key in _VIEWS[args.command])
        except BiseparableInput:
            report["error"] = "biseparable"
        except ValueError as exc:
            if state is None:
                report.update(error="invalid_record", message=str(exc))
            else:
                report["error"] = str(exc)
        except InternalCheckFailed as exc:
            report.update(error="internal_check_failed", check=exc.check, residual=exc.value, tol=exc.tol)
        if args.timing:
            report["timing_ms"] = round(1000 * (time.perf_counter() - started), 3)
        reports.append(report)
    _emit(_render_table(reports) if getattr(args, "table", False) else _dump(reports), args.out)
    return int(any(r.get("error") == "internal_check_failed" for r in reports))


def _sample_product_vectors(rng):
    thetas = rng.uniform(0.35, np.pi - 0.35, 3)
    return [np.array([np.cos(t), np.sin(t)]) for t in thetas]


def _class_state(kind: str, rng) -> PureState:
    """One sample of a CLU-subclass generator, dressed with random local unitaries."""
    while True:
        if kind == "haar":
            z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        elif kind == "real":
            z = rng.standard_normal(8).astype(complex)
        else:
            phis = _sample_product_vectors(rng)
            prod = np.kron(phis[0], np.kron(phis[1], phis[2])).astype(complex)
            e000 = np.zeros(8, dtype=complex)
            e000[0] = 1.0
            if kind == "class2":
                c = rng.uniform(0.35, 0.9) if rng.random() < 0.5 else rng.uniform(1.15, 2.5)
                z = e000 + c * prod
            elif kind == "class3":
                c = rng.uniform(0.35, np.pi - 0.35)
                z = e000 + np.exp(1j * c) * prod
            elif kind == "class4":
                z = e000 + prod
            else:
                raise ValueError(f"unknown ensemble {kind!r}")
            for q in range(3):
                u = qcore.haar_unitary(0, rng=rng)
                lus = [np.eye(2, dtype=complex)] * 3
                lus[q] = u
                state = PureState(3, z / np.linalg.norm(z))
                z = qcore.apply_local(state, qcore.LocalUnitary(tuple(lus))).amplitudes
        state = PureState(3, z / np.linalg.norm(z))
        if qcore.genuine_tripartite(state):
            return state


def cmd_random(args) -> int:
    rng = np.random.default_rng(args.seed)
    records = []
    for i in range(args.count):
        state = _class_state(args.ensemble, rng)
        records.append(
            state_to_record(
                state,
                f"{args.ensemble}-{args.seed}-{i}",
                {"ensemble": args.ensemble, "seed": args.seed, "index": i},
            )
        )
    _emit(_dump(records), args.out)
    return 0


# --- verification suites -------------------------------------------------

def _lu_signature(state: PureState):
    """Measures, J invariants and subclass of a state, from one pass over it."""
    an = analyze(state)
    return measures.measure_set(an.form), an.invariants, an.label.subclass


def _suite_monogamy(count, seed):
    worst = 0.0
    for i in range(count):
        tm = bipartite.tau_matrix(bipartite.schmidt_split(qcore.genuine_haar_state(seed + i)))
        worst = max(worst, abs(tm.ca23**2 - tm.c23**2 - bipartite.tangle(tm)))
    return {"max_residual": worst, "passed": bool(worst < _BOUND_MONOGAMY), "tolerance": _BOUND_MONOGAMY}


def _suite_invariance(count, seed, dressings=20):
    worst_e = worst_j = 0.0
    stable = True
    for i in range(count):
        state = qcore.genuine_haar_state(seed + i)
        m0, inv0, lab0 = _lu_signature(state)
        for d in range(dressings):
            lu = qcore.random_local_unitary(3, seed * 100_003 + i * 1009 + d)
            dressed = qcore.apply_local(state, lu)
            m1, inv1, lab1 = _lu_signature(dressed)
            d0, d1 = m0.as_dict(), m1.as_dict()
            worst_e = max(worst_e, *(abs(d0[k] - d1[k]) for k in d0 if k != "E6"))
            worst_j = max(
                worst_j,
                max(abs(x - y) for x, y in zip(inv0.reals, inv1.reals)),
                abs(abs(inv0.j6) - abs(inv1.j6)),
            )
            if m0.e6 != m1.e6 or lab1 is not lab0:
                stable = False
    passed = worst_e < _BOUND_DRIFT and worst_j < _BOUND_DRIFT and stable
    return {
        "max_measure_drift": worst_e,
        "max_invariant_drift": worst_j,
        "labels_stable": stable,
        "passed": bool(passed),
        "tolerance": _BOUND_DRIFT,
    }


def _suite_oracles(count, seed):
    rng = np.random.default_rng(seed)
    worst_sigma = worst_det = worst_closed = 0.0
    for _ in range(count):
        lams = rng.uniform(0.05, 1.0, 5)
        lams /= np.linalg.norm(lams)
        phi = rng.uniform(0, np.pi)
        form = AcinForm(tuple(lams), float(phi), qcore.LocalUnitary.identity(3))
        state = form.state()
        if not qcore.genuine_tripartite(state):
            continue
        inv = j_invariants(form)
        split = bipartite.schmidt_split(state)
        worst_sigma = max(worst_sigma, abs(inv.sigma_plus - split.p))
        tm = bipartite.tau_matrix(split)
        c23, ca23 = bipartite.concurrence_pair_closed_form(tm)
        worst_closed = max(worst_closed, abs(tm.c23 - c23), abs(tm.ca23 - ca23))
        # det tau closed form (real standard forms only)
        if lams[1] > _ORACLE_MIN_LAMBDA1:
            phi_real = float(rng.choice([0.0, np.pi]))
            form_r = AcinForm(tuple(lams), phi_real, qcore.LocalUnitary.identity(3))
            state_r = form_r.state()
            if qcore.genuine_tripartite(state_r):
                inv_r = j_invariants(form_r)
                kp2 = lams[0] ** 2 * lams[1] ** 2 + (lams[0] ** 2 - inv_r.sigma_plus) ** 2
                km2 = lams[0] ** 2 * lams[1] ** 2 + (lams[0] ** 2 - inv_r.sigma_minus) ** 2
                rhs = (
                    4 * lams[0] ** 4 * lams[1] ** 2 * lams[4] ** 2
                    * (inv_r.j2 + inv_r.j3 + inv_r.j4 - 0.25)
                    * np.exp(2j * phi_real)
                ).real
                det_r = realified_det_tau(analyze(state_r))
                worst_det = max(worst_det, abs(kp2 * km2 * det_r - rhs))
    passed = worst_sigma < _BOUND_SIGMA and worst_det < _BOUND_DET_TAU and worst_closed < _BOUND_CLOSED_FORM
    return {
        "max_sigma_vs_p": worst_sigma,
        "max_det_tau_residual": worst_det,
        "max_closed_form_residual": worst_closed,
        "passed": bool(passed),
    }


def _suite_gensim(count, seed):
    rng = np.random.default_rng(seed)
    states = [qcore.ghz_state()]
    states += [_class_state(kind, rng) for kind in ("class2", "class3", "class4", "haar")]
    fixtures = [canonical.canonical_decomposition(state) for state in states[:count]]
    worst_prob = worst_agg = 0.0
    closed = True
    for form in fixtures:
        try:
            outcomes = gensim.enumerate_generation(form)
        except gensim.ClosureViolation:
            closed = False
            continue
        worst_prob = max(worst_prob, max(abs(o.probability - 1 / 256) for o in outcomes))
        agg = gensim.member_aggregates(outcomes)
        worst_agg = max(worst_agg, float(np.abs(agg - 0.25).max()))
    passed = closed and worst_prob < _BOUND_PROBABILITY and worst_agg < _BOUND_PROBABILITY
    return {
        "forms": len(fixtures),
        "closure": closed,
        "max_probability_deviation": worst_prob,
        "max_aggregate_deviation": worst_agg,
        "passed": bool(passed),
    }


def _suite_roundtrip(count, seed):
    worst_branch = worst_wit = 0.0
    equivalent = True
    for i in range(count):
        state = qcore.genuine_haar_state(seed + i)
        an = analyze(state)
        form = an.form
        x0, x1 = canonical._branch_states(an.split, form.omega)
        worst_branch = max(
            worst_branch,
            abs(
                bipartite.eof(min(abs(bipartite._bilinear(x0, x0)), 1.0))
                - bipartite.eof(min(abs(bipartite._bilinear(x1, x1)), 1.0))
            ),
        )
        rec = canonical.reconstruct_state(form)
        rot = qcore.apply_local(state, form.witness)
        ov = abs(np.vdot(rot.amplitudes, rec.amplitudes))
        worst_wit = max(worst_wit, 1 - ov)
        eq, _ = invariants_equivalent(j_invariants(acin_standard_form(rec)), an.invariants)
        equivalent = equivalent and bool(eq)
    passed = worst_branch < _BOUND_BRANCH and worst_wit < _BOUND_WITNESS and equivalent
    return {
        "max_branch_mismatch": worst_branch,
        "max_witness_misalignment": worst_wit,
        "reconstruction_equivalent": equivalent,
        "passed": bool(passed),
    }


_SUITES = {
    "monogamy": _suite_monogamy,
    "invariance": _suite_invariance,
    "oracles": _suite_oracles,
    "gensim": _suite_gensim,
    "roundtrip": _suite_roundtrip,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    summary = {}
    for name in names:
        summary[name] = _SUITES[name](args.count, args.seed)
    _emit(_dump(summary), args.out)
    return 0 if all(v["passed"] for v in summary.values()) else 1


def _positive_int(text: str) -> int:
    """argparse type of ``--count``: a run that checks nothing must not pass."""
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triqent",
        description="Canonical decomposition, operational entanglement measures "
        "and classification for pure 3-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="?", default="-", help="JSON file or - for stdin")
            p.add_argument("--split", type=int, choices=(1, 2, 3), default=1,
                           help="which qubit plays the distinguished role")
            p.add_argument("--timing", action="store_true", help="include timing_ms")
        p.add_argument("--out", default=None, help="write output to a file")

    for name in (*_VIEWS, "gensim"):
        p = sub.add_parser(name)
        add_common(p)
        p.set_defaults(fn=cmd_records)
        # --table only where it is rendered.
        if name == "analyze":
            p.add_argument("--table", action="store_true", help="aligned text output")

    p = sub.add_parser("random", help="generate state records")
    p.add_argument("ensemble", choices=("haar", "real", "class2", "class3", "class4"))
    p.add_argument("--count", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=None)
    add_common(p, with_input=False)
    p.set_defaults(fn=cmd_random)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("all", *_SUITES))
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=None)
    add_common(p, with_input=False)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            raw = os.environ.get(DEFAULT_SEED_ENV, "1")
            try:
                args.seed = int(raw)
            except ValueError:
                raise ValueError(f"{DEFAULT_SEED_ENV} must be an integer, got {raw!r}") from None
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
