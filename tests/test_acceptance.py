"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass line per
criterion.  Ensembles are pinned by explicit seeds so every run checks the
identical states.
"""

import numpy as np
import pytest

from triqent import qcore
from triqent.bipartite import (
    _bilinear,
    eof,
    schmidt_split,
    tangle,
    tau_matrix,
)
from triqent.canonical import (
    _branch_states,
    canonical_decomposition,
    canonicalize_params,
    form_from_params,
    reconstruct_state,
    solve_omega,
)
from triqent.classification import (
    AcinForm,
    StateClass,
    TOL_CLU,
    acin_standard_form,
    analyze,
    classify,
    det_tau_sign,
    j_invariants,
    lu_equivalent,
    realified_det_tau,
)
from triqent.cli import _class_state
from triqent.gensim import enumerate_generation, member_aggregates
from triqent.measures import invert_measures, measure_set, s_psi_set, e6 as measure_e6
from triqent.qcore import LocalUnitary, PureState, apply_local

from conftest import genuine_haar


def report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_01_ghz_fixture():
    ghz = qcore.ghz_state()
    mset = measure_set(canonical_decomposition(ghz))
    for name, value, target in (
        ("E1", mset.e1, 1), ("E2", mset.e2, 1), ("E4", mset.e4, 1),
        ("E5", mset.e5, 1), ("E3", mset.e3, 0),
    ):
        assert abs(value - target) < 1e-9, name
    tm = tau_matrix(schmidt_split(ghz))
    c23, ca23 = tm.c23, tm.ca23
    assert abs(c23) < 1e-9 and abs(ca23 - 1) < 1e-9
    assert abs(tangle(tm) - 1) < 1e-9
    assert classify(ghz).subclass is StateClass.CLASS4
    inv = j_invariants(acin_standard_form(ghz))
    assert abs(inv.j4 - 0.25) < 1e-9 and abs(inv.j6) < 1e-9
    report("criterion 1 (GHZ fixture)", "measures, concurrences, tangle, class, invariants")


def test_criterion_02_w_fixture():
    w = qcore.w_state()
    tm = tau_matrix(schmidt_split(w))
    assert tangle(tm) <= 1e-9
    c23, ca23 = tm.c23, tm.ca23
    assert abs(c23 - 2 / 3) < 1e-9 and abs(ca23 - 2 / 3) < 1e-9
    assert classify(w).subclass is StateClass.CLASS1_W
    # independent binary-entropy evaluation of E(concurrence 2/3)
    x = 0.5 * (1 + np.sqrt(1 - (2 / 3) ** 2))
    independent = -x * np.log2(x) - (1 - x) * np.log2(1 - x)
    form = canonical_decomposition(w)
    assert abs(eof(form.concurrence_s()) - independent) < 1e-6
    report("criterion 2 (W fixture)", f"tangle 0, C=Ca=2/3, Class1_W, E1={independent:.6f}")


def test_criterion_03_monogamy_identity():
    worst = 0.0
    for i in range(1000):
        tm = tau_matrix(schmidt_split(genuine_haar(100_000 + i)))
        c23, ca23 = tm.c23, tm.ca23
        worst = max(worst, abs(ca23**2 - c23**2 - tangle(tm)))
    assert worst < 1e-9
    report("criterion 3 (monogamy identity)", f"1000 states, max residual {worst:.2e}")


def test_criterion_04_lu_invariance():
    worst_e = worst_j = 0.0
    stable = True
    for i in range(100):
        state = genuine_haar(110_000 + i)
        m0 = measure_set(canonical_decomposition(state))
        inv0 = j_invariants(acin_standard_form(state))
        label0 = classify(state).subclass
        for d in range(20):
            dressed = apply_local(state, qcore.random_local_unitary(3, 120_000 + 100 * i + d))
            m1 = measure_set(canonical_decomposition(dressed))
            inv1 = j_invariants(acin_standard_form(dressed))
            worst_e = max(
                worst_e,
                abs(m0.e1 - m1.e1), abs(m0.e2 - m1.e2), abs(m0.e3 - m1.e3),
                abs(m0.e4 - m1.e4), abs(m0.e5 - m1.e5),
            )
            worst_j = max(
                worst_j,
                max(abs(x - y) for x, y in zip(inv0.reals, inv1.reals)),
                abs(abs(inv0.j6) - abs(inv1.j6)),
            )
            stable = stable and m0.e6 == m1.e6 and classify(dressed).subclass is label0
    assert worst_e < 1e-8 and worst_j < 1e-8 and stable
    report(
        "criterion 4 (LU invariance)",
        f"100x20 dressings, measure drift {worst_e:.2e}, invariant drift {worst_j:.2e}",
    )


def test_criterion_05_decomposition_validity():
    worst_branch = 0.0
    all_equivalent = True
    for i in range(1000):
        state = genuine_haar(130_000 + i)
        split = schmidt_split(state)
        omega, _ = solve_omega(tau_matrix(split))
        x0, x1 = _branch_states(split, omega)
        worst_branch = max(
            worst_branch,
            abs(eof(min(abs(_bilinear(x0, x0)), 1.0)) - eof(min(abs(_bilinear(x1, x1)), 1.0))),
        )
        form = canonical_decomposition(state)
        equal, _ = lu_equivalent(reconstruct_state(form), state)
        all_equivalent = all_equivalent and equal
    assert worst_branch < 1e-9 and all_equivalent
    report(
        "criterion 5 (decomposition validity)",
        f"1000 states, max branch mismatch {worst_branch:.2e}, all reconstructions equivalent",
    )


def test_criterion_06_schmidt_weight_oracle():
    rng = np.random.default_rng(140_000)
    worst = 0.0
    done = 0
    while done < 200:
        lams = rng.uniform(0.05, 1.0, 5)
        lams /= np.linalg.norm(lams)
        phi = float(rng.uniform(0, np.pi))
        state = AcinForm(tuple(lams), phi, LocalUnitary.identity(3)).state()
        if not qcore.genuine_tripartite(state):
            continue
        done += 1
        inv = j_invariants(acin_standard_form(state))
        p = schmidt_split(state).p
        worst = max(worst, abs(inv.sigma_plus - p), abs(inv.sigma_minus - (1 - p)))
    assert worst < 1e-9
    report("criterion 6 (Schmidt weight closed form)", f"200 states, max |sigma - p| {worst:.2e}")


def test_criterion_07_det_tau_oracle():
    rng = np.random.default_rng(150_000)
    worst = 0.0
    done = 0
    while done < 200:
        lams = rng.uniform(0.1, 1.0, 5)
        lams /= np.linalg.norm(lams)
        phi = float(rng.choice([0.0, np.pi]))
        form = AcinForm(tuple(lams), phi, LocalUnitary.identity(3))
        state = form.state()
        if not qcore.genuine_tripartite(state):
            continue
        done += 1
        inv = j_invariants(form)
        kp2 = lams[0] ** 2 * lams[1] ** 2 + (lams[0] ** 2 - inv.sigma_plus) ** 2
        km2 = lams[0] ** 2 * lams[1] ** 2 + (lams[0] ** 2 - inv.sigma_minus) ** 2
        rhs = (
            4 * lams[0] ** 4 * lams[1] ** 2 * lams[4] ** 2
            * (inv.j2 + inv.j3 + inv.j4 - 0.25) * np.exp(2j * phi)
        ).real
        worst = max(worst, abs(kp2 * km2 * realified_det_tau(analyze(state)) - rhs))
    assert worst < 1e-8
    report("criterion 7 (det tau closed form)", f"200 real standard forms, max residual {worst:.2e}")


def test_criterion_08_clu_agreement():
    # 500 real-amplitude states (CLU by construction) and 500 Haar states:
    # the extremality, overlap-reality, polynomial and invariant-imaginary
    # criteria must return identical verdicts on every sample.
    def all_four(an):
        return (
            an.extremal,
            an.reality,
            an.polynomial,
            an.j6_real,
        )

    reals = 0
    seed = 20_000
    while reals < 500:
        state = qcore.real_state(3, seed)
        seed += 1
        if not qcore.genuine_tripartite(state):
            continue
        reals += 1
        an = analyze(state)
        assert an.clu
        assert all_four(an) == (True, True, True, True)
    min_gap = np.inf
    for i in range(500):
        state = genuine_haar(30_000 + i)
        an = analyze(state)
        assert not an.clu
        assert all_four(an) == (False, False, False, False)
        min_gap = min(min_gap, an.gap_min, an.gap_max)
        assert an.gap_min > 10 * TOL_CLU and an.gap_max > 10 * TOL_CLU
    report(
        "criterion 8 (CLU criteria agreement)",
        f"500 real CLU + 500 Haar NCLU, four verdicts identical, "
        f"min NCLU gap {min_gap:.2e} > {10 * TOL_CLU:.0e}",
    )


def test_criterion_09_class_fixtures():
    rates = {}
    for kind, want in (
        ("class2", StateClass.CLASS2),
        ("class3", StateClass.CLASS3),
        ("class4", StateClass.CLASS4),
    ):
        rng = np.random.default_rng(202)
        hits = 0
        for _ in range(100):
            state = _class_state(kind, rng)
            an = analyze(state)
            if an.label.subclass is want:
                hits += 1
            sign, well_defined = det_tau_sign(an)
            if well_defined and sign != 0:
                if sign < 0:
                    assert an.gap_max < 1e-9
                else:
                    assert an.gap_min < 1e-9
        assert hits >= 99, kind
        rates[kind] = hits
    report("criterion 9 (class fixtures)", f"hit rates {rates}, det-tau signs consistent")


def test_criterion_10_generation_closure():
    ghz = qcore.ghz_state()
    rng = np.random.default_rng(160_000)
    forms = [canonical_decomposition(ghz)]
    for kind in ("class2", "class3", "class4"):
        forms.append(canonical_decomposition(_class_state(kind, rng)))
    forms.append(canonical_decomposition(genuine_haar(160_001)))
    worst_prob = worst_agg = 0.0
    for form in forms:
        outcomes = enumerate_generation(form)  # raises on any closure violation
        assert len(outcomes) == 256
        worst_prob = max(worst_prob, max(abs(o.probability - 1 / 256) for o in outcomes))
        worst_agg = max(worst_agg, float(np.abs(member_aggregates(outcomes) - 0.25).max()))
    assert worst_prob < 1e-12 and worst_agg < 1e-12
    report(
        "criterion 10 (generation closure)",
        f"5 forms x 256 outcomes, prob dev {worst_prob:.2e}, aggregate dev {worst_agg:.2e}",
    )


def test_criterion_11_measure_inversion():
    matched = 0
    for i in range(200):
        state = genuine_haar(170_000 + i)
        form = canonical_decomposition(state)
        candidates = invert_measures(measure_set(form))
        assert 1 <= len(candidates) <= 4
        hit = False
        for cand in candidates:
            equal, conj = lu_equivalent(reconstruct_state(cand), state)
            hit = hit or equal or conj
        assert hit
        matched += 1
    report("criterion 11 (measure inversion)", f"{matched}/200 sources recovered from <= 4 candidates")


def test_criterion_12_e6_discrimination():
    rng = np.random.default_rng(180_000)
    margin = 0.25
    for _ in range(200):
        a = float(np.sqrt(rng.uniform(0.56, 0.86)))
        beta, beta_prime = rng.uniform(margin, np.pi / 2 - margin, 2)
        while True:
            alpha, gamma = rng.uniform(-np.pi / 2 + margin, np.pi / 2 - margin, 2)
            if (
                abs(abs(alpha + gamma) - np.pi / 2) > margin
                and abs(abs(alpha - gamma) - np.pi / 2) > margin
                and abs(alpha) >= abs(gamma)
            ):
                break
        form = form_from_params(a, alpha, beta, gamma, beta_prime)
        partner = form_from_params(
            a, *canonicalize_params((alpha, -beta, gamma, beta_prime))
        )
        assert measure_e6(form) != measure_e6(partner)
    # on the degeneracy manifold the state and its partner coincide up to LU
    for params in ((0.3, 0.0, 0.2, 0.4), (0.3, 0.7, 0.2, 0.0), (0.3, np.pi / 2, 0.2, 0.4)):
        form = form_from_params(0.8, *params)
        partner = form_from_params(
            0.8, *canonicalize_params((params[0], -params[1], params[2], params[3]))
        )
        equal, _ = lu_equivalent(reconstruct_state(form), reconstruct_state(partner))
        assert equal
    report(
        "criterion 12 (E6 discrimination)",
        "200 off-manifold pairs discriminated; manifold pairs LU-equivalent",
    )
