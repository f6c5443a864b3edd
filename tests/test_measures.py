import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triqent import canonical, measures, qcore
from triqent.bipartite import binary_entropy, eof
from triqent.canonical import (
    branch_unitaries,
    canonical_decomposition,
    canonical_representatives,
    canonicalize_params,
    form_from_params,
    reconstruct_state,
)
from triqent.classification import lu_equivalent
from triqent.measures import (
    InconsistentMeasures,
    MeasureSet,
    e6,
    invert_measures,
    measure_set,
    s_psi_set,
    splitting_overlap_sq,
)
from triqent.qcore import InternalCheckFailed, apply_local

from conftest import genuine_haar, reduced, states_close

GENERIC_FORM = form_from_params(0.8, 0.3, 0.7, 0.2, 0.5)
HALF_PI = np.pi / 2


def _explicit_rows(form) -> list:
    """Each state the measures of ``form`` are taken on, built on its own with
    ``np.kron`` as one state at a time: the four family members, E4's forward
    and E5's backward gain state."""
    u2, u3 = branch_unitaries(*form.params)
    psi_s = np.array([form.a, 0, 0, form.b], dtype=complex)

    def two_branch(branch0, x, y):
        return np.concatenate([branch0, np.kron(x, y) @ branch0]) / np.sqrt(2)

    members = [two_branch(psi_s, u2, u3)]
    members += [two_branch(np.kron(sigma, qcore.PAULI_I) @ psi_s, u2, u3) for sigma in qcore.PAULIS[1:]]
    # Qubit 2 controls U2 on qubit 1, applied to |+>|psi_s>.
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    plus2 = u2 @ plus
    backward = np.zeros(8, dtype=complex)
    for q1 in range(2):
        backward[q1 * 4 + 0b00] += form.a * plus[q1]
        backward[q1 * 4 + 0b11] += form.b * plus2[q1]
    rows = members + [two_branch(psi_s, u2, qcore.PAULI_I), backward]
    return [qcore.PureState(3, row).amplitudes for row in rows]


def _controlled(u) -> np.ndarray:
    """4x4 controlled gate |0><0| x 1 + |1><1| x u, control more significant."""
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


def _purity_1(amps) -> float:
    """Purity of the qubit-1 reduction of ``amps``, from the ``reduced`` oracle."""
    rho = reduced(amps, {1})
    return float(np.trace(rho @ rho).real)


def _per_state_measures(form):
    """(E2, E3) and the six 1|23 entropies, each state reduced and
    diagonalised on its own."""
    entropies = []
    for amps in _explicit_rows(form):
        m = amps.reshape(2, 4)
        rho = m @ m.conj().T
        ev = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        ev = np.where(ev < 0, np.where(ev >= -qcore.EIG_CLIP, 0.0, ev), ev)
        pos = ev[ev > 0]
        entropies.append(float(-(pos * np.log2(pos)).sum()))
    bell = qcore.BELL_BASIS[0]
    gate_costs = []
    for u in branch_unitaries(*form.params):
        rotated = np.kron(u, np.eye(2)) @ bell
        ev = np.linalg.eigvalsh(0.5 * (np.outer(bell, bell.conj()) + np.outer(rotated, rotated.conj())))
        gate_costs.append(float(-(ev[ev > 1e-300] * np.log2(ev[ev > 1e-300])).sum()))
    return gate_costs, entropies


def _per_state_measure_set(form) -> MeasureSet:
    (e2, e3), ent = _per_state_measures(form)
    family = ent[:4]
    lo, hi = min(family), max(family)
    e6_value = 0 if hi - lo <= measures.TOL_E6 or family[0] <= lo + measures.TOL_E6 else 1
    return MeasureSet(form.e1, e2, e3, ent[4], ent[5], e6_value, ent[0])


def _kernel_forms(kind, ghz, w):
    if kind == "params":
        return [GENERIC_FORM, form_from_params(0.9, -0.4, np.pi / 2, 0.1, 0.0),
                form_from_params(1 / np.sqrt(2), 0.3, 0.0, 0.0, 0.2)]
    if kind == "ghz":
        return [canonical_decomposition(ghz)]
    if kind == "w":
        return [canonical_decomposition(w)]
    return [canonical_decomposition(genuine_haar(seed)) for seed in range(5)]


def _partner_form(form):
    """Generation partner: beta -> -beta, canonicalized."""
    params = canonicalize_params(
        (form.alpha, -form.beta, form.gamma, form.beta_prime)
    )
    return form_from_params(form.a, *params)


class TestE1:
    def test_ghz(self, ghz):
        assert abs(canonical_decomposition(ghz).e1 - 1) < 1e-12

    def test_w(self, w):
        # Oracle value: binary entropy form of E at concurrence 2/3.
        x = (1 + np.sqrt(1 - 4 / 9)) / 2
        expected = -x * np.log2(x) - (1 - x) * np.log2(1 - x)
        assert abs(canonical_decomposition(w).e1 - expected) < 1e-9

    def test_vanishes_as_branch_becomes_product(self):
        values = [form_from_params(a, 0.3, 0.4, 0.1, 0.2).e1 for a in (0.8, 0.95, 0.999, 0.999999)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4


class TestGateCosts:
    def test_ghz_values(self, ghz):
        ms = measure_set(canonical_decomposition(ghz))
        v2, v3 = ms.e2, ms.e3
        assert abs(v2 - 1) < 1e-12
        assert abs(v3 - 0) < 1e-12

    def test_orthogonal_branches_maximal(self):
        form = form_from_params(0.9, 0.2, 0.4, 0.1, np.pi / 2)
        assert abs(measure_set(form).e3 - 1) < 1e-12

    def test_frozen_derived_value(self):
        # Oracle (channel-state entropy) evaluated once and frozen:
        # beta = pi/3, alpha + gamma = pi/4 -> e2 = 0.9078523006019320.
        form = form_from_params(0.9, 0.4 + np.pi / 8, np.pi / 3, np.pi / 8 - 0.4, 0.3)
        v2 = measure_set(form).e2
        assert abs(v2 - 0.9078523006019320) < 1e-12
        # and the trig correspondence gives the same number
        trig = binary_entropy((1 + np.cos(np.pi / 3) * np.cos(np.pi / 4)) / 2)
        assert abs(v2 - trig) < 1e-12


class TestGains:
    def test_ghz_maximal(self, ghz):
        ms = measure_set(canonical_decomposition(ghz))
        v4, v5 = ms.e4, ms.e5
        assert abs(v4 - 1) < 1e-12
        assert abs(v5 - 1) < 1e-12

    def test_beta_half_pi_maximal_at_equal_weights(self):
        # cos^2(beta) * [...] = 0 means the reduced state is maximally mixed
        # when a = b, so the entanglement gained is 1 (the overlap is 0).
        form = form_from_params(1 / np.sqrt(2), 0.3, np.pi / 2, 0.0, 0.2)
        v4 = measure_set(form).e4
        assert abs(v4 - 1) < 1e-12

    def test_identity_like_branch_gains_nothing(self):
        form = form_from_params(1 / np.sqrt(2), 1e-15, 0.0, 0.0, 0.0)
        v4 = measure_set(form).e4
        assert v4 < 1e-12


class TestSPsiSet:
    def test_member0_reconstructs_input(self):
        sp = s_psi_set(GENERIC_FORM)
        assert states_close(sp.members[0], reconstruct_state(GENERIC_FORM), atol=1e-12)

    def test_ghz_family_degenerate(self, ghz):
        sp = s_psi_set(canonical_decomposition(ghz))
        for member in sp.members[1:]:
            equal, _ = lu_equivalent(sp.members[0], member)
            assert equal

    def test_member2_is_conjugate_of_member0(self):
        sp = s_psi_set(GENERIC_FORM)
        equal, _ = lu_equivalent(sp.members[2], sp.members[0].conj())
        assert equal

    def test_partner_not_equivalent_off_manifold(self):
        sp = s_psi_set(GENERIC_FORM)
        equal, conj = lu_equivalent(sp.members[0], sp.members[3])
        assert not equal and not conj


class TestFamilyDefinition:
    @staticmethod
    def _reference(form, n):
        """CU13 CU12 (sigma_n on qubit 2)|+>|psi_s> from the 4x4 gate matrices."""
        u2, u3 = branch_unitaries(*form.params)
        swap = np.eye(4)[[0, 2, 1, 3]]
        p23 = np.kron(np.eye(2), swap)
        cu12 = np.kron(_controlled(u2), np.eye(2))
        cu13 = p23 @ np.kron(_controlled(u3), np.eye(2)) @ p23
        sigma = np.kron(np.eye(2), np.kron(qcore.PAULIS[n], np.eye(2)))
        plus = np.array([1, 1]) / np.sqrt(2)
        psi_s = np.array([form.a, 0, 0, form.b])
        return cu13 @ cu12 @ sigma @ np.kron(plus, psi_s)

    @pytest.mark.parametrize("kind", ["haar", "ghz", "params"])
    def test_members_match_definition(self, kind, ghz):
        if kind == "params":
            forms = [GENERIC_FORM, form_from_params(0.9, -0.4, np.pi / 2, 0.1, 0.0)]
        elif kind == "ghz":
            forms = [canonical_decomposition(ghz)]
        else:
            forms = [canonical_decomposition(genuine_haar(seed)) for seed in range(5)]
        for form in forms:
            members = s_psi_set(form).members
            assert np.array_equal(members[0].amplitudes, reconstruct_state(form).amplitudes)
            for n, member in enumerate(members):
                assert np.abs(member.amplitudes - self._reference(form, n)).max() < 1e-12

    def test_out_of_range_form_raises(self):
        with pytest.raises(ValueError, match="beta"):
            s_psi_set(form_from_params(0.8, 0.3, -0.7, 0.2, 0.5))

    def test_measure_set_takes_each_reduction_once(self, monkeypatch, ghz):
        # The four family members, E4 and E5 in one (6, 2, 2) eigvalsh, the two
        # gate-cost mixtures in one (2, 4, 4); no state or reduction object.
        forms = [GENERIC_FORM, canonical_decomposition(ghz)]
        expected = [(measure_set(f), e6(f)) for f in forms]
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m):
            shapes.append(np.shape(m))
            return eigvalsh(m)

        def refused(*args):
            raise AssertionError("measure_set built a per-state object")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(qcore.PureState, "__post_init__", refused)
        for form, (ms, e6_value) in zip(forms, expected):
            shapes.clear()
            assert measure_set(form) == ms
            assert sorted(shapes) == [(2, 4, 4), (6, 2, 2)]
            assert ms.e6 == e6_value

    def test_splitting_cross_check_still_raises(self, monkeypatch):
        monkeypatch.setattr(measures, "splitting_overlap_sq", lambda *args: 0.5)
        with pytest.raises(AssertionError, match="splitting cross-check"):
            measure_set(GENERIC_FORM)


class TestInternalChecks:
    def test_gate_cost_check_reports_its_residual(self, monkeypatch):
        f = GENERIC_FORM
        e2 = measure_set(f).e2
        trig = binary_entropy(0.5 * (1 + abs(np.cos(f.beta) * np.cos(f.alpha + f.gamma))))
        monkeypatch.setattr(measures, "_TOL_XCHECK", -1.0)
        with pytest.raises(InternalCheckFailed) as exc:
            measure_set(f)
        err = exc.value
        assert (err.check, err.value, err.tol) == ("gate-cost cross-check", abs(e2 - trig), -1.0)

    def test_checks_report_their_residuals_in_order(self, monkeypatch):
        # Each residual recomputed from the explicitly built states and the
        # closed trigonometric forms.
        f = GENERIC_FORM
        a, b, al, be, ga, bp = f.a, f.b, f.alpha, f.beta, f.gamma, f.beta_prime
        (e2, e3), ent = _per_state_measures(f)
        rows = _explicit_rows(f)
        purity4, purity5 = (_purity_1(rows[k]) for k in (4, 5))
        ov4_sq = np.cos(be) ** 2 * ((a**2 - b**2) ** 2 + 4 * a**2 * b**2 * np.cos(al + ga) ** 2)
        pur5 = a**4 + b**4 + 2 * a**2 * b**2 * (
            np.cos(al + ga) ** 2 * np.cos(be) ** 2 + np.sin(al - ga) ** 2 * np.sin(be) ** 2
        )

        def h(ov):
            return binary_entropy(0.5 * (1 + min(ov, 1.0)))

        tol = measures._TOL_XCHECK
        expected = [
            ("gate-cost cross-check", abs(e2 - h(abs(np.cos(be) * np.cos(al + ga)))), tol),
            ("gate-cost cross-check", abs(e3 - h(abs(np.cos(bp)))), tol),
            ("gain cross-check", abs(purity4 - 0.5 * (1 + ov4_sq)), tol),
            ("gain cross-check", abs(purity5 - pur5), tol),
            ("splitting cross-check",
             abs(ent[0] - h(np.sqrt(max(splitting_overlap_sq(a, al, be, ga, bp), 0.0)))), tol),
        ]
        calls = []

        def recorded(name, value, tol):
            calls.append((name, value, tol))
            qcore.check(name, value, tol)

        monkeypatch.setattr(measures, "check", recorded)
        measure_set(f)
        assert calls == expected

    def test_gain_check_reports_its_residual(self, monkeypatch):
        f = GENERIC_FORM
        forward = _explicit_rows(f)[4]
        ov4_sq = np.cos(f.beta) ** 2 * (
            (f.a**2 - f.b**2) ** 2 + 4 * f.a**2 * f.b**2 * np.cos(f.alpha + f.gamma) ** 2
        )
        residual = abs(_purity_1(forward) - 0.5 * (1 + ov4_sq))

        def strict_gain(name, value, tol):
            qcore.check(name, value, -1.0 if name == "gain cross-check" else tol)

        monkeypatch.setattr(measures, "check", strict_gain)
        with pytest.raises(InternalCheckFailed) as exc:
            measure_set(f)
        err = exc.value
        assert (err.check, err.value, err.tol) == ("gain cross-check", residual, -1.0)

    @pytest.mark.parametrize(
        "params, message",
        [
            ((1.0, 0.3, 0.7, 0.2, 0.5), "a = 1.0 outside"),
            ((0.8, 2.0, 0.7, 0.2, 0.5), "alpha = 2.0 outside canonical range"),
            ((0.8, 0.3, -0.7, 0.2, 0.5), "beta = -0.7 outside canonical range"),
        ],
        ids=["a", "alpha", "beta"],
    )
    def test_out_of_range_raises_before_any_check(self, monkeypatch, params, message):
        form = form_from_params(*params)
        with pytest.raises(ValueError) as rejected:
            reconstruct_state(form)
        calls = []
        monkeypatch.setattr(measures, "check", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=message) as exc:
            measure_set(form)
        assert str(exc.value) == str(rejected.value)
        assert calls == []

    def test_inversion_propagates_a_candidates_check(self, monkeypatch):
        ms = measure_set(GENERIC_FORM)
        monkeypatch.setattr(measures, "_TOL_XCHECK", -1.0)
        with pytest.raises(InternalCheckFailed, match="gate-cost cross-check"):
            invert_measures(ms)


class TestKernel:
    @pytest.mark.parametrize("kind", ["haar", "ghz", "w", "params"])
    def test_rows_match_explicit_states(self, kind, ghz, w):
        for form in _kernel_forms(kind, ghz, w):
            rows = measures._rows(form, *branch_unitaries(*form.params))
            assert rows.shape == (6, 8)
            for row, explicit in zip(rows, _explicit_rows(form)):
                assert row.tobytes() == explicit.tobytes()

    @pytest.mark.parametrize("kind", ["haar", "ghz", "w", "params"])
    def test_measure_set_matches_per_state_formulation(self, kind, ghz, w):
        for form in _kernel_forms(kind, ghz, w):
            assert repr(measure_set(form)) == repr(_per_state_measure_set(form))

    @given(
        st.one_of(st.floats(1 / np.sqrt(2), 1 - 1e-9), st.just(1 / np.sqrt(2))),
        *[st.one_of(st.floats(-HALF_PI, HALF_PI), st.sampled_from([0.0, HALF_PI, -HALF_PI]))] * 2,
        *[st.one_of(st.floats(0.0, HALF_PI), st.sampled_from([0.0, HALF_PI]))] * 2,
    )
    @settings(max_examples=80, deadline=None)
    def test_per_state_formulation_property(self, a, al, ga, be, bp):
        form = form_from_params(a, al, be, ga, bp)
        assert repr(measure_set(form)) == repr(_per_state_measure_set(form))


class TestE6:
    def test_ghz_degenerate_convention(self, ghz):
        assert e6(canonical_decomposition(ghz)) == 0

    def test_discriminates_generic_pair(self):
        partner = _partner_form(GENERIC_FORM)
        assert e6(GENERIC_FORM) != e6(partner)
        # the two splitting entanglements really differ
        assert abs(measure_set(GENERIC_FORM).e_1_23 - measure_set(partner).e_1_23) > 1e-3

    def test_beta_prime_zero_degenerate(self):
        form = form_from_params(0.8, 0.3, 0.7, 0.2, 0.0)
        assert e6(form) == 0
        rec = reconstruct_state(form)
        partner = reconstruct_state(_partner_form(form))
        equal, _ = lu_equivalent(rec, partner)
        assert equal

    def test_last_term_sign_flip(self):
        # The partner differs exactly in the sign of the last expansion term.
        a, al, be, ga, bp = 0.8, 0.3, 0.7, 0.2, 0.5
        b = np.sqrt(1 - a * a)
        first_two = (
            4 * a**2 * b**2 * np.sin(be) ** 2 * np.sin(bp) ** 2 * np.cos(al - ga) ** 2
            + np.cos(be) ** 2 * np.cos(bp) ** 2
            * ((a**2 - b**2) ** 2 + 4 * a**2 * b**2 * np.cos(al + ga) ** 2)
        )
        direct = splitting_overlap_sq(a, al, be, ga, bp)
        partner = splitting_overlap_sq(a, al, -be, ga, bp)
        assert abs((direct + partner) / 2 - first_two) < 1e-12
        assert abs(direct - partner) > 1e-3


class TestTrigOracle:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_overlap_expansion_matches_direct(self, seed):
        rng = np.random.default_rng(seed)
        a = float(np.sqrt(rng.uniform(0.5, 0.95)))
        al, ga = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        be, bp = rng.uniform(0, np.pi / 2, 2)
        b = np.sqrt(1 - a * a)
        u2, u3 = branch_unitaries(al, be, ga, bp)
        psi = np.array([a, 0, 0, b], dtype=complex)
        direct = abs(np.vdot(psi, np.kron(u2, u3) @ psi)) ** 2
        assert abs(direct - splitting_overlap_sq(a, al, be, ga, bp)) < 1e-12


class TestMeasureSetInvariance:
    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_lu_invariance(self, seed):
        state = genuine_haar(seed)
        m0 = measure_set(canonical_decomposition(state))
        lu = qcore.random_local_unitary(3, seed + 13)
        m1 = measure_set(canonical_decomposition(apply_local(state, lu)))
        for k, v in m0.as_dict().items():
            assert abs(v - m1.as_dict()[k]) < 1e-8, k

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_conjugation_invariance(self, seed):
        state = genuine_haar(seed)
        m0 = measure_set(canonical_decomposition(state))
        m1 = measure_set(canonical_decomposition(state.conj()))
        for k, v in m0.as_dict().items():
            assert abs(v - m1.as_dict()[k]) < 1e-8, k


class TestInversion:
    def test_ghz_single_candidate(self, ghz):
        form = canonical_decomposition(ghz)
        cands = invert_measures(measure_set(form))
        assert len(cands) == 1
        assert cands[0].max_entangled_convention
        equal, _ = lu_equivalent(reconstruct_state(cands[0]), ghz)
        assert equal

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_roundtrip_recovers_source_family(self, seed):
        state = genuine_haar(seed)
        form = canonical_decomposition(state)
        cands = invert_measures(measure_set(form))
        assert 1 <= len(cands) <= 4
        hits = []
        for cand in cands:
            equal, conj = lu_equivalent(reconstruct_state(cand), state)
            hits.append(equal or conj)
        assert any(hits)

    @pytest.mark.parametrize("beta", [HALF_PI, 0.0], ids=["beta_half_pi", "beta_zero"])
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_edge_branches_snap_beta(self, beta, seed):
        rng = np.random.default_rng(seed)
        a = np.sqrt(rng.uniform(0.55, 0.95))
        alpha, gamma = rng.uniform(-1.5, 1.5, 2)
        form = form_from_params(a, alpha, beta, gamma, rng.uniform(0.1, HALF_PI - 0.1))
        state = apply_local(reconstruct_state(form), qcore.random_local_unitary(3, seed))
        batches = []

        def recorded(raws):
            batches.append(list(raws))
            return canonical_representatives(batches[-1])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "canonical_representatives", recorded)
            cands = invert_measures(measure_set(canonical_decomposition(state)))
        # Only alpha - gamma (beta = pi/2) or alpha + gamma (beta = 0) is
        # physical, so one angle's four images make the raw tuples.
        (raws,) = batches
        assert len(raws) == 4 and all(raw[1] == beta for raw in raws)
        assert all(cand.beta == beta for cand in cands)
        assert any(lu_equivalent(reconstruct_state(cand), state)[0] for cand in cands)

    def test_searches_each_orbit_once(self, monkeypatch):
        searches, batches = [], []

        def counted_orbit(start):
            searches.append(start)
            return orbit(start)

        def recorded(raws):
            batches.append(list(raws))
            return canonical_representatives(batches[-1])

        orbit = canonical._orbit
        monkeypatch.setattr(canonical, "_orbit", counted_orbit)
        monkeypatch.setattr(measures, "canonical_representatives", recorded)
        cands = invert_measures(measure_set(GENERIC_FORM))
        (raws,) = batches
        assert len(raws) == 16 and len(searches) <= 4

        def dedup(params):
            first = {}
            for p in params:
                first.setdefault(tuple(np.round(p, 8)), p)
            return list(first.values())

        # Oracle: each raw tuple canonicalised on its own, deduplicated as
        # invert_measures does (first seen wins).
        separate = dedup(canonicalize_params(raw) for raw in raws)
        assert dedup(canonical_representatives(raws)) == separate
        assert cands and all(c.params in separate for c in cands)

    def test_corrupted_measures_detected(self):
        m = measure_set(GENERIC_FORM)
        bad = MeasureSet(m.e1, m.e2, m.e3, min(m.e4 + 0.1, 1.0), m.e5, m.e6, m.e_1_23)
        with pytest.raises(InconsistentMeasures):
            invert_measures(bad)
