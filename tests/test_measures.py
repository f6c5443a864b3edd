import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triqent import measures, qcore
from triqent.bipartite import binary_entropy, eof
from triqent.canonical import (
    branch_unitaries,
    canonical_decomposition,
    canonicalize_params,
    form_from_params,
    reconstruct_state,
)
from triqent.classification import lu_equivalent
from triqent.measures import (
    InconsistentMeasures,
    MeasureSet,
    e1,
    e2_e3_imp,
    e4_e5_gain,
    e6,
    invert_measures,
    measure_set,
    s_psi_set,
    splitting_entanglement,
    splitting_overlap_sq,
)
from triqent.gensim import ControlledGate
from triqent.qcore import apply_local

from conftest import genuine_haar

GENERIC_FORM = form_from_params(0.8, 0.3, 0.7, 0.2, 0.5)


def _partner_form(form):
    """Generation partner: beta -> -beta, canonicalized."""
    params = canonicalize_params(
        (form.alpha, -form.beta, form.gamma, form.beta_prime)
    )
    return form_from_params(form.a, *params)


class TestE1:
    def test_ghz(self, ghz):
        assert abs(e1(canonical_decomposition(ghz)) - 1) < 1e-12

    def test_w(self, w):
        # Oracle value: binary entropy form of E at concurrence 2/3.
        x = (1 + np.sqrt(1 - 4 / 9)) / 2
        expected = -x * np.log2(x) - (1 - x) * np.log2(1 - x)
        assert abs(e1(canonical_decomposition(w)) - expected) < 1e-9

    def test_vanishes_as_branch_becomes_product(self):
        values = [e1(form_from_params(a, 0.3, 0.4, 0.1, 0.2)) for a in (0.8, 0.95, 0.999, 0.999999)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4


class TestGateCosts:
    def test_ghz_values(self, ghz):
        v2, v3 = e2_e3_imp(canonical_decomposition(ghz))
        assert abs(v2 - 1) < 1e-12
        assert abs(v3 - 0) < 1e-12

    def test_orthogonal_branches_maximal(self):
        form = form_from_params(0.9, 0.2, 0.4, 0.1, np.pi / 2)
        assert abs(e2_e3_imp(form)[1] - 1) < 1e-12

    def test_frozen_derived_value(self):
        # Oracle (channel-state entropy) evaluated once and frozen:
        # beta = pi/3, alpha + gamma = pi/4 -> e2 = 0.9078523006019320.
        form = form_from_params(0.9, 0.4 + np.pi / 8, np.pi / 3, np.pi / 8 - 0.4, 0.3)
        v2, _ = e2_e3_imp(form)
        assert abs(v2 - 0.9078523006019320) < 1e-12
        # and the trig correspondence gives the same number
        trig = binary_entropy((1 + np.cos(np.pi / 3) * np.cos(np.pi / 4)) / 2)
        assert abs(v2 - trig) < 1e-12


class TestGains:
    def test_ghz_maximal(self, ghz):
        v4, v5 = e4_e5_gain(canonical_decomposition(ghz))
        assert abs(v4 - 1) < 1e-12
        assert abs(v5 - 1) < 1e-12

    def test_beta_half_pi_maximal_at_equal_weights(self):
        # cos^2(beta) * [...] = 0 means the reduced state is maximally mixed
        # when a = b, so the entanglement gained is 1 (the overlap is 0).
        form = form_from_params(1 / np.sqrt(2), 0.3, np.pi / 2, 0.0, 0.2)
        v4, _ = e4_e5_gain(form)
        assert abs(v4 - 1) < 1e-12

    def test_identity_like_branch_gains_nothing(self):
        form = form_from_params(1 / np.sqrt(2), 1e-15, 0.0, 0.0, 0.0)
        v4, _ = e4_e5_gain(form)
        assert v4 < 1e-12


class TestSPsiSet:
    def test_member0_reconstructs_input(self):
        sp = s_psi_set(GENERIC_FORM)
        assert sp.psi.isclose(reconstruct_state(GENERIC_FORM), atol=1e-12)

    def test_ghz_family_degenerate(self, ghz):
        sp = s_psi_set(canonical_decomposition(ghz))
        for member in sp.members[1:]:
            equal, _ = lu_equivalent(sp.psi, member)
            assert equal

    def test_member2_is_conjugate_of_member0(self):
        sp = s_psi_set(GENERIC_FORM)
        equal, _ = lu_equivalent(sp.psi_conj, sp.psi.conj())
        assert equal

    def test_partner_not_equivalent_off_manifold(self):
        sp = s_psi_set(GENERIC_FORM)
        equal, conj = lu_equivalent(sp.psi, sp.psi_prime)
        assert not equal and not conj


class TestFamilyDefinition:
    @staticmethod
    def _reference(form, n):
        """CU13 CU12 (sigma_n on qubit 2)|+>|psi_s> from the 4x4 gate matrices."""
        u2, u3 = branch_unitaries(*form.params)
        swap = np.eye(4)[[0, 2, 1, 3]]
        p23 = np.kron(np.eye(2), swap)
        cu12 = np.kron(ControlledGate(1, 2, u2).matrix(), np.eye(2))
        cu13 = p23 @ np.kron(ControlledGate(1, 3, u3).matrix(), np.eye(2)) @ p23
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

    def test_measure_set_takes_each_reduction_once(self, monkeypatch):
        # E4, E5 and the four family members: E_1|23 is member 0's entropy.
        calls = []

        def counted(state, keep):
            calls.append(keep)
            return qcore.partial_trace(state, keep)

        monkeypatch.setattr(measures, "partial_trace", counted)
        ms = measure_set(GENERIC_FORM)
        assert len(calls) == 6
        assert ms.e_1_23 == splitting_entanglement(GENERIC_FORM)
        assert ms.e6 == e6(GENERIC_FORM)

    def test_splitting_cross_check_still_raises(self, monkeypatch):
        monkeypatch.setattr(measures, "splitting_overlap_sq", lambda *args: 0.5)
        with pytest.raises(AssertionError, match="splitting cross-check"):
            measure_set(GENERIC_FORM)


class TestE6:
    def test_ghz_degenerate_convention(self, ghz):
        assert e6(canonical_decomposition(ghz)) == 0

    def test_discriminates_generic_pair(self):
        partner = _partner_form(GENERIC_FORM)
        assert e6(GENERIC_FORM) != e6(partner)
        # the two splitting entanglements really differ
        assert abs(
            splitting_entanglement(GENERIC_FORM) - splitting_entanglement(partner)
        ) > 1e-3

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

    @pytest.mark.parametrize(
        "beta, amps",
        [
            # A dressed generic form with beta = pi/2 exactly.
            (np.pi / 2, (
                (-0.4323605979981215, -0.2890863799299098), (0.05522050416738672, 0.07237422006932676),
                (0.007092956734969196, 0.062308039981322436), (-0.3389316650389465, 0.5177829080383946),
                (-0.23406121868809537, -0.4057096326368692), (0.03885606753355201, -0.017643478520728288),
                (-0.024581714328982616, 0.030276390704551726), (0.08059259878742774, -0.3241565936440519),
            )),
            # A dressed generic form with beta = 0 exactly.
            (0.0, (
                (-0.2316468794335514, -0.03501902124064555), (-0.38166342231679046, -0.13747050619915505),
                (0.13359250053823143, -0.40798575570689644), (0.35353656571218, 0.13974485806881598),
                (0.19066908137961872, 0.40204911547897193), (0.3028030404060818, -0.21645919868600833),
                (0.11503471234295772, 0.04500858018564351), (-0.09952459605014416, -0.30004310240227355),
            )),
        ],
        ids=["beta_half_pi", "beta_zero"],
    )
    def test_edge_branches_snap_beta(self, beta, amps):
        state = qcore.PureState(3, np.array([complex(re, im) for re, im in amps]))
        cands = invert_measures(measure_set(canonical_decomposition(state)))
        assert all(cand.beta == beta for cand in cands)
        assert any(lu_equivalent(reconstruct_state(cand), state)[0] for cand in cands)

    def test_corrupted_measures_detected(self):
        m = measure_set(GENERIC_FORM)
        bad = MeasureSet(m.e1, m.e2, m.e3, min(m.e4 + 0.1, 1.0), m.e5, m.e6, m.e_1_23)
        with pytest.raises(InconsistentMeasures):
            invert_measures(bad)
