import numpy as np
import pytest

from triqent import gensim, qcore
from triqent.bipartite import binary_entropy
from triqent.canonical import canonical_decomposition, form_from_params, zrot
from triqent.classification import acin_standard_form, j_invariants, lu_equivalent, standard_forms
from triqent.gensim import (
    ControlledGate,
    _teleport,
    bell_project,
    cj_state,
    enumerate_generation,
    member_aggregates,
)
from triqent.measures import s_psi_set
from triqent.qcore import PureState, entropy, partial_trace

from conftest import genuine_haar

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def controlled_matrix(u, target):
    if target == 2:
        inner = np.kron(u, np.eye(2))
    else:
        inner = np.kron(np.eye(2), u)
    out = np.zeros((8, 8), dtype=complex)
    out[:4, :4] = np.eye(4)
    out[4:, 4:] = inner
    return out


class TestControlledGate:
    def test_matrix_block_structure(self):
        u = qcore.haar_unitary(4)
        gate = ControlledGate(1, 2, u)
        m = gate.matrix()
        assert np.allclose(m[:2, :2], np.eye(2))
        assert np.allclose(m[2:, 2:], u)
        assert np.allclose(m.conj().T @ m, np.eye(4), atol=1e-12)

    def test_shared_control_gates_commute(self):
        m12 = controlled_matrix(qcore.haar_unitary(1), 2)
        m13 = controlled_matrix(qcore.haar_unitary(2), 3)
        assert np.linalg.norm(m12 @ m13 - m13 @ m12) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlledGate(1, 1, np.eye(2))
        with pytest.raises(ValueError):
            ControlledGate(1, 2, np.array([[1, 1], [0, 1]]))


class TestCjState:
    def test_identity_gate_costs_nothing(self):
        cj = cj_state(ControlledGate(1, 2, np.eye(2)))
        assert entropy(partial_trace(cj, {1, 2})) < 1e-12

    def test_orthogonal_branches_cost_one(self):
        cj = cj_state(ControlledGate(1, 2, zrot(np.pi / 2)))
        assert abs(entropy(partial_trace(cj, {1, 2})) - 1) < 1e-12

    def test_matches_gate_cost_formula(self):
        # Cross-module agreement with the implementation-cost expression.
        for seed in range(5):
            u = qcore.haar_unitary(seed)
            cj = cj_state(ControlledGate(1, 2, u))
            expected = binary_entropy((1 + abs(np.trace(u)) / 2) / 2)
            assert abs(entropy(partial_trace(cj, {1, 2})) - expected) < 1e-10


class TestBellProject:
    def test_phi_plus_on_phi_plus(self):
        state = PureState(4, np.kron(PHI_PLUS, PHI_PLUS))
        prob, post = bell_project(state, (1, 2), 0)
        assert abs(prob - 1) < 1e-12
        assert post.isclose(PureState(2, PHI_PLUS), atol=1e-12)
        for outcome in (1, 2, 3):
            prob, post = bell_project(state, (1, 2), outcome)
            assert prob == 0.0 and post is None

    def test_bare_pair_full_projection(self):
        # Measuring a lone pair consumes the whole register.
        pair = PureState(2, PHI_PLUS)
        prob, post = bell_project(pair, (1, 2), 0)
        assert abs(prob - 1) < 1e-12 and post is None
        zeros = PureState(2, np.array([1, 0, 0, 0], dtype=complex))
        prob, post = bell_project(zeros, (1, 2), 0)
        assert abs(prob - 0.5) < 1e-12 and post is None

    def test_phi_plus_on_00_pair(self):
        zero = np.zeros(4, dtype=complex)
        zero[0] = 1.0
        state = PureState(4, np.kron(zero, PHI_PLUS))
        prob, _ = bell_project(state, (1, 2), 0)
        assert abs(prob - 0.5) < 1e-12

    def test_probabilities_sum_to_one(self):
        state = genuine_haar(31)
        # extend to 4 qubits so two remain after projection
        joint = PureState(4, np.kron(np.array([1, 0], dtype=complex), state.amplitudes))
        total = sum(bell_project(joint, (2, 3), k)[0] for k in range(4))
        assert abs(total - 1) < 1e-12

    def test_bad_arguments(self):
        state = genuine_haar(1)
        with pytest.raises(ValueError):
            bell_project(state, (1, 1), 0)
        with pytest.raises(ValueError):
            bell_project(state, (1, 2), 5)


def on_qubits(ops: dict) -> np.ndarray:
    """8x8 operator acting with ``ops[q]`` on qubit q and the identity elsewhere."""
    out = np.eye(1)
    for q in (1, 2, 3):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


class TestTeleportation:
    @pytest.mark.parametrize("control,target", [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)])
    def test_every_outcome_applies_gate(self, control, target):
        # Outcome (k, l) leaves CU (sigma_k on control x sigma_l on target) psi / 4.
        inp = genuine_haar(78 + control)
        u = qcore.haar_unitary(9 + target)
        p0, p1 = np.diag([1, 0]), np.diag([0, 1])
        cu = on_qubits({control: p0}) + on_qubits({control: p1, target: u})
        post = _teleport(inp.tensor(), ControlledGate(control, target, u))
        assert post.shape == (4, 4, 2, 2, 2)
        for k in range(4):
            for l in range(4):
                got = post[k, l].reshape(-1)
                pauli = on_qubits({control: qcore.PAULIS[k], target: qcore.PAULIS[l]})
                expected = cu @ pauli @ inp.amplitudes / 4
                phase = np.vdot(expected, got)
                assert np.abs(got - expected * phase / abs(phase)).max() < 1e-12
                assert abs(np.vdot(got, got).real - 1 / 16) < 1e-12


class TestEnumeration:
    def test_contracts_instead_of_projecting(self, monkeypatch):
        def no_projection(*args):
            raise AssertionError("bell_project called")

        cj_calls = []

        def counted_cj_state(gate):
            cj_calls.append(gate)
            return cj_state(gate)

        monkeypatch.setattr(gensim, "bell_project", no_projection)
        monkeypatch.setattr(gensim, "cj_state", counted_cj_state)
        outcomes = enumerate_generation(canonical_decomposition(genuine_haar(124)))
        assert len(outcomes) == 256 and len(cj_calls) == 2

    def test_matches_every_outcome_in_one_kernel_call(self, monkeypatch):
        rows = []

        def counted(tensors):
            rows.append(len(tensors))
            return standard_forms(tensors)

        monkeypatch.setattr(gensim, "standard_forms", counted)
        outcomes = enumerate_generation(canonical_decomposition(genuine_haar(124)))
        assert rows == [4 + 256]
        assert len(outcomes) == 256

    def test_ghz_all_outcomes_equivalent(self, ghz):
        outcomes = enumerate_generation(canonical_decomposition(ghz))
        assert len(outcomes) == 256
        probs = np.array([o.probability for o in outcomes])
        assert np.abs(probs - 1 / 256).max() < 1e-12
        assert abs(probs.sum() - 1) < 1e-12
        inv_ghz = j_invariants(acin_standard_form(ghz))
        for o in outcomes[:16]:
            inv = j_invariants(acin_standard_form(o.final_state))
            assert max(abs(x - y) for x, y in zip(inv.reals, inv_ghz.reals)) < 1e-8
        assert np.allclose(member_aggregates(outcomes), 0.25, atol=1e-12)

    def test_nclu_partitions_into_four(self):
        form = canonical_decomposition(genuine_haar(123))
        outcomes = enumerate_generation(form)
        counts = {i: 0 for i in range(4)}
        for o in outcomes:
            assert len(o.matched_members) == 1
            counts[o.s_psi_index] += 1
        assert all(c == 64 for c in counts.values())
        # conjugate members are detected as conjugate pairs of the state
        members = s_psi_set(form).members
        eq, conj = lu_equivalent(members[2], members[0])
        assert not eq and conj

    def test_clu_partition_merges(self):
        # A generic CLU form: psi ~ psi*, psi' ~ psi'*, aggregates still 1/4.
        plus = np.ones(8, dtype=complex) / np.sqrt(8)
        e000 = np.zeros(8, dtype=complex)
        e000[0] = 1.0
        vec = e000 + 0.7 * plus
        class2 = PureState(3, vec / np.linalg.norm(vec))
        form = canonical_decomposition(class2)
        outcomes = enumerate_generation(form)
        sizes = {len(o.matched_members) for o in outcomes}
        assert sizes == {2}
        assert np.allclose(member_aggregates(outcomes), 0.25, atol=1e-12)

    def test_regeneration_closure(self):
        # Generating from the canonical form of another family member stays
        # inside the same family.
        form = canonical_decomposition(genuine_haar(55))
        members = s_psi_set(form).members
        re_form = canonical_decomposition(members[3])
        outcomes = enumerate_generation(re_form)
        member_invs = [j_invariants(acin_standard_form(m)) for m in members]
        for o in outcomes[::16]:
            inv = j_invariants(acin_standard_form(o.final_state))
            hit = any(
                max(abs(x - y) for x, y in zip(inv.reals, mi.reals)) < 1e-8
                and abs(inv.j6 - mi.j6) < 1e-8
                for mi in member_invs
            )
            assert hit
