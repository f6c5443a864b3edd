import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triqent import qcore
from triqent.bipartite import concurrence_pair, eof, schmidt_split, tau_matrix, tangle
from triqent.canonical import canonical_decomposition
from triqent.classification import (
    AcinForm,
    NotCLU,
    StateClass,
    acin_standard_form,
    classify,
    det_tau_sign,
    invariants_equivalent,
    is_clu,
    j_invariants,
    lu_equivalent,
    realified_det_tau,
    standard_forms,
)
from triqent.qcore import BiseparableInput, LocalUnitary, PureState, apply_local, basis_state

from conftest import genuine_haar, random_acin_state


def normalize(vec):
    return PureState(3, vec / np.linalg.norm(vec))


def plus_product():
    v = np.ones(8, dtype=complex) / np.sqrt(8)
    return v


CLASS2_STATE = normalize(basis_state(3, 0).amplitudes + 0.7 * plus_product())
CLASS3_STATE = normalize(basis_state(3, 0).amplitudes + np.exp(0.9j) * plus_product())
CLASS4_STATE = normalize(basis_state(3, 0).amplitudes + plus_product())

# A dressed form at beta = pi/2 whose two quadratic roots both give phi just
# above pi (pi + 4.7e-12 and pi + 4.8e-12) in (-pi, pi] arithmetic.
PHI_PAST_PI_STATE = PureState(3, np.array([complex(re, im) for re, im in (
    (0.5063721437113999, -0.12408745234990753),
    (-0.08876797344798178, 0.05485310501861411),
    (0.029684311548422916, -0.10094762245924253),
    (0.4374866013286249, 0.12162267774787272),
    (0.03753043590438084, 0.08022018995030498),
    (-0.25839195065395015, 0.3777442618288158),
    (-0.3765781283007855, -0.3334235476112885),
    (-0.17249229899891452, 0.0024238508488201448),
)]))


def linear_case_state():
    """T1 of rank one with det(T0 + r T1) linear in r: one finite root plus infinity."""
    t0 = np.array([[0.6, 0.2j], [-0.1, 0.5]])
    t1 = np.outer([0.3, 0.4j], [0.5, -0.2])
    return normalize(np.concatenate([t0.reshape(-1), t1.reshape(-1)]))


class TestAcinStandardForm:
    def test_ghz(self, ghz):
        form = acin_standard_form(ghz)
        assert np.allclose(form.lambdas, [1 / np.sqrt(2), 0, 0, 0, 1 / np.sqrt(2)], atol=1e-12)
        assert form.phi == 0.0

    def test_w(self, w):
        # The quadratic for W degenerates (det T1 = mixed = 0), leaving the
        # row-swap rotation; the expected amplitudes follow by hand.
        form = acin_standard_form(w)
        assert np.allclose(
            form.lambdas, [1 / np.sqrt(3), 0, 1 / np.sqrt(3), 1 / np.sqrt(3), 0], atol=1e-12
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_witness_roundtrip(self, seed):
        state = genuine_haar(seed)
        form = acin_standard_form(state)
        rotated = apply_local(state, form.witness)
        assert np.linalg.norm(rotated.amplitudes - form.amplitudes()) < 1e-9
        assert all(x >= -1e-12 for x in form.lambdas)
        assert -1e-12 <= form.phi <= np.pi + 1e-12

    def test_biseparable_rejected(self):
        with pytest.raises(BiseparableInput):
            acin_standard_form(basis_state(3, 0))

    def test_phi_just_past_pi_is_taken_into_range(self):
        form = acin_standard_form(PHI_PAST_PI_STATE)
        assert form.phi == np.pi
        rotated = apply_local(PHI_PAST_PI_STATE, form.witness)
        assert np.linalg.norm(rotated.amplitudes - form.amplitudes()) < 1e-9

    @given(st.integers(9, 14), st.sampled_from([-1, 1]), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_phi_next_to_pi(self, k, sign, seed):
        # A standard form with phi = pi +- 10^-k, dressed.  Its own root gives
        # phi within 10^-k of pi; the other root is chosen when its lambda0 is
        # larger and then sits closer to pi, except at k = 9 where the own
        # root's pi + 10^-9 may fall just outside the tolerance and the other
        # root, exact there, is taken wherever it sits.
        rng = np.random.default_rng(seed)
        lams = rng.uniform(0.1, 1.0, 5)
        lams /= np.linalg.norm(lams)
        source = AcinForm(tuple(lams), np.pi + sign * 10.0**-k, LocalUnitary.identity(3))
        dressed = apply_local(source.state(), qcore.random_local_unitary(3, seed + 1))
        form = acin_standard_form(dressed)
        assert 0.0 <= form.phi <= np.pi
        assert np.linalg.norm(apply_local(dressed, form.witness).amplitudes - form.amplitudes()) < 1e-8
        assert invariants_equivalent(j_invariants(form), j_invariants(source))[0]
        own_root = np.abs(np.array(form.lambdas) - lams).max() < 1e-6
        if own_root or k >= 10:
            assert abs(form.phi - np.pi) <= 10.0**-k + 1e-12

    def test_builds_the_witness_once(self, monkeypatch):
        # Both quadratic roots give a candidate; only the chosen one gets a
        # witness: its rotation, its phases and their composite.
        built = []
        post_init = LocalUnitary.__post_init__

        def counted(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(LocalUnitary, "__post_init__", counted)
        state = genuine_haar(5)
        form = acin_standard_form(state)
        assert len(built) == 3
        assert np.linalg.norm(apply_local(state, form.witness).amplitudes - form.amplitudes()) < 1e-9


class TestStandardFormsKernel:
    # Root cases: GHZ, the rank-one-T1 state and the class-3 fixture are
    # linear in r, W has its double root at infinity, the Haar states are
    # quadratic.  The fully degenerate case (det(T0 + r T1) = 0 for every r)
    # needs a common kernel vector of T0 and T1 (or of their transposes),
    # which makes qubit 3 (or 2) a product factor, so no genuine state has it.
    def batch(self, ghz, w):
        return [genuine_haar(1), ghz, linear_case_state(), w, genuine_haar(2), CLASS3_STATE]

    def test_rows_match_a_batch_of_one(self, ghz, w):
        states = self.batch(ghz, w)
        forms = standard_forms(np.array([s.tensor() for s in states]))
        for row, state in enumerate(states):
            single = acin_standard_form(state)
            assert tuple(forms.lambdas[row]) == single.lambdas
            assert forms.phi[row] == single.phi
            inv = j_invariants(single)
            assert forms.invariants.item(row) == inv

    def test_covers_every_reachable_root_case(self, ghz, w):
        t = np.array([s.tensor() for s in self.batch(ghz, w)])
        det0, det1 = np.linalg.det(t[:, 0]), np.linalg.det(t[:, 1])
        mixed = np.linalg.det(t[:, 0] + t[:, 1]) - det0 - det1
        quadratic = np.abs(det1) > 1e-3
        linear = (np.abs(det1) < 1e-15) & (np.abs(mixed) > 1e-3)
        at_infinity = (np.abs(det1) < 1e-15) & (np.abs(mixed) < 1e-15) & (np.abs(det0) > 1e-3)
        assert list(quadratic) == [True, False, False, False, True, False]
        assert list(linear) == [False, True, True, False, False, True]
        assert list(at_infinity) == [False, False, False, True, False, False]

    def test_biseparable_row_raises(self, ghz, w):
        states = self.batch(ghz, w)
        states[2] = basis_state(3, 0)
        with pytest.raises(BiseparableInput, match="row 2"):
            standard_forms(np.array([s.tensor() for s in states]))

    def test_purity_and_tangle_cross_check_raises(self):
        # An input off the unit sphere breaks Tr rho_k^2 = 1 - 2 (J's of qubit k).
        with pytest.raises(AssertionError, match="purity/tangle cross-check failed"):
            standard_forms(1.01 * genuine_haar(3).tensor())


class TestInvariants:
    def test_ghz(self, ghz):
        inv = j_invariants(acin_standard_form(ghz))
        assert abs(inv.j4 - 0.25) < 1e-12
        for val in (inv.j1, inv.j2, inv.j3, inv.j5, abs(inv.j6)):
            assert abs(val) < 1e-12
        assert abs(inv.sigma_plus - 0.5) < 1e-7
        assert abs(inv.sigma_minus - 0.5) < 1e-7

    def test_w_tangle_from_j4(self, w):
        # For lambda1 = 0 standard forms the tangle equals 4 J4.
        form = acin_standard_form(w)
        inv = j_invariants(form)
        assert abs(inv.j4) < 1e-12
        assert abs(4 * inv.j4 - tangle(tau_matrix(schmidt_split(w)))) < 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_sigma_plus_equals_schmidt_probability(self, seed):
        state = genuine_haar(seed)
        inv = j_invariants(acin_standard_form(state))
        assert abs(inv.sigma_plus - schmidt_split(state).p) < 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_invariance_and_conjugation(self, seed):
        state = genuine_haar(seed)
        inv = j_invariants(acin_standard_form(state))
        dressed = apply_local(state, qcore.random_local_unitary(3, seed + 5))
        inv_d = j_invariants(acin_standard_form(dressed))
        assert max(abs(x - y) for x, y in zip(inv.reals, inv_d.reals)) < 1e-8
        assert abs(abs(inv.j6) - abs(inv_d.j6)) < 1e-8
        inv_c = j_invariants(acin_standard_form(state.conj()))
        assert abs(inv.j6 - np.conj(inv_c.j6)) < 1e-8


class TestIsClu:
    def test_real_states_are_clu(self):
        count = 0
        for seed in range(120):
            state = qcore.real_state(3, seed)
            if not qcore.genuine_tripartite(state):
                continue
            count += 1
            verdict, _ = is_clu(state)
            assert verdict
        assert count >= 100

    def test_fixtures(self, ghz, w):
        assert is_clu(ghz)[0]
        assert is_clu(w)[0]

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_haar_states_nclu_with_strict_interval(self, seed):
        state = genuine_haar(seed)
        verdict, ev = is_clu(state)
        assert not verdict
        tm = tau_matrix(schmidt_split(state))
        c23, ca23 = concurrence_pair(tm)
        assert eof(c23) + 1e-9 < ev["e1"] < eof(ca23) - 1e-9


class TestDetTauSign:
    def test_ghz(self, ghz):
        sign, well_defined = det_tau_sign(ghz)
        assert sign == -1 and not well_defined
        # the value itself comes from the lambda1 = 0 branch: -J4 scaled
        inv = j_invariants(acin_standard_form(ghz))
        assert abs(realified_det_tau(ghz) + inv.j4) < 1e-12

    def test_class2_nonpositive(self):
        sign, well_defined = det_tau_sign(CLASS2_STATE)
        assert sign <= 0 and well_defined

    def test_class3_nonnegative(self):
        sign, well_defined = det_tau_sign(CLASS3_STATE)
        assert sign >= 0

    def test_not_clu_rejected(self):
        with pytest.raises(NotCLU):
            det_tau_sign(genuine_haar(3))

    def test_sign_matches_extremal_branch(self):
        # On well-defined CLU samples a negative realified det tau puts the
        # branch entanglement at the maximum, a positive one at the minimum.
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(40):
            lams = rng.uniform(0.1, 1.0, 5)
            lams /= np.linalg.norm(lams)
            phi = float(rng.choice([0.0, np.pi]))
            state = AcinForm(tuple(lams), phi, LocalUnitary.identity(3)).state()
            if not qcore.genuine_tripartite(state):
                continue
            verdict, ev = is_clu(state)
            if not verdict:
                continue
            sign, well_defined = det_tau_sign(state)
            if not well_defined or sign == 0:
                continue
            checked += 1
            if sign < 0:
                assert ev["gap_max"] < 1e-9  # maximal branch
            else:
                assert ev["gap_min"] < 1e-9  # minimal branch
        assert checked >= 10


class TestClassify:
    def test_w_class(self, w):
        label = classify(w)
        assert label.subclass is StateClass.CLASS1_W and label.clu

    def test_ghz_class4(self, ghz):
        label = classify(ghz)
        assert label.subclass is StateClass.CLASS4
        assert abs(label.evidence["tangle"] - 1) < 1e-9

    def test_fixture_classes(self):
        assert classify(CLASS2_STATE).subclass is StateClass.CLASS2
        assert classify(CLASS3_STATE).subclass is StateClass.CLASS3
        assert classify(CLASS4_STATE).subclass is StateClass.CLASS4

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_haar_nclu(self, seed):
        label = classify(genuine_haar(seed))
        assert label.subclass is StateClass.NCLU and not label.clu

    def test_label_invariant_under_splitting_choice(self):
        # The classification does not depend on which qubit is singled out.
        for state in (CLASS2_STATE, CLASS3_STATE, CLASS4_STATE, genuine_haar(9)):
            labels = {
                classify(qcore.permute_qubits(state, order)).subclass
                for order in ((1, 2, 3), (2, 1, 3), (3, 2, 1))
            }
            assert len(labels) == 1

    def test_biseparable_rejected(self):
        with pytest.raises(BiseparableInput):
            classify(basis_state(3, 0))


class TestLuEquivalent:
    def test_dressing_detected(self):
        state = genuine_haar(14)
        dressed = apply_local(state, qcore.random_local_unitary(3, 15))
        assert lu_equivalent(state, dressed) == (True, False)

    def test_ghz_vs_w(self, ghz, w):
        assert lu_equivalent(ghz, w) == (False, False)

    def test_conjugate_pair_of_nclu(self):
        state = genuine_haar(16)
        assert lu_equivalent(state, state.conj()) == (False, True)

    def test_conjugate_of_clu_is_equal(self):
        assert lu_equivalent(CLASS3_STATE, CLASS3_STATE.conj()) == (True, False)


class TestEq34Oracle:
    def test_closed_form_det_tau(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(60):
            lams = rng.uniform(0.1, 1.0, 5)
            lams /= np.linalg.norm(lams)
            phi = float(rng.choice([0.0, np.pi]))
            form = AcinForm(tuple(lams), phi, LocalUnitary.identity(3))
            state = form.state()
            if not qcore.genuine_tripartite(state):
                continue
            checked += 1
            inv = j_invariants(form)
            kp2 = lams[0] ** 2 * lams[1] ** 2 + (lams[0] ** 2 - inv.sigma_plus) ** 2
            km2 = lams[0] ** 2 * lams[1] ** 2 + (lams[0] ** 2 - inv.sigma_minus) ** 2
            rhs = (
                4 * lams[0] ** 4 * lams[1] ** 2 * lams[4] ** 2
                * (inv.j2 + inv.j3 + inv.j4 - 0.25)
                * np.exp(2j * phi)
            ).real
            assert abs(kp2 * km2 * realified_det_tau(state) - rhs) < 1e-8
        assert checked >= 40


class TestCrossCriterionAgreement:
    def test_all_clu_tests_agree_on_mixed_ensembles(self):
        # is_clu raises if its four criteria ever disagree; exercising it on
        # both ensembles is the test.
        for seed in range(60):
            state = qcore.real_state(3, 700 + seed)
            if qcore.genuine_tripartite(state):
                assert is_clu(state)[0]
        for seed in range(60):
            state = genuine_haar(46000 + seed)
            assert not is_clu(state)[0]
