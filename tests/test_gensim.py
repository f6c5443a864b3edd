"""Tests of the generation protocol.

``test_matches_parent_golden`` compares ``enumerate_generation`` with
``data/gensim_golden.json``: per form, the input amplitudes as [re, im]
pairs and one row per outcome, [bell_results, matched_members, s_psi_index,
probability].  Regenerate the file (only when the outcome list is meant to
change) with:

    PYTHONPATH=src python tests/test_gensim.py
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triqent import cli, gensim, qcore
from triqent.bipartite import binary_entropy
from triqent.canonical import branch_unitaries, canonical_decomposition, form_from_params, zrot
from triqent.classification import acin_standard_form, j_invariants, lu_equivalent, standard_forms
from triqent.gensim import (
    ControlledGate,
    _teleport,
    cj_state,
    enumerate_generation,
    member_aggregates,
)
from triqent.measures import s_psi_set
from triqent.qcore import PureState, density_spectra, entropies

from conftest import genuine_haar, reduced

GOLDEN = Path(__file__).parent / "data" / "gensim_golden.json"
GOLDEN_PROB_TOL = 1e-15


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
        # The channel state is the block-diagonal gate matrix diag(1, U), acting
        # on the ancillas (ca, ta), applied to |phi+>_(ca, cb) |phi+>_(ta, tb).
        u = qcore.haar_unitary(4)
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = u
        phi = qcore.BELL_BASIS[0].reshape(2, 2)
        expected = np.einsum("ACac,ab,cd->AbCd", m.reshape(2, 2, 2, 2), phi, phi)
        assert np.allclose(cj_state(ControlledGate(1, 2, u)).amplitudes, expected.reshape(16), atol=1e-15)

    def test_shared_control_gates_commute(self):
        m12 = controlled_matrix(qcore.haar_unitary(1), 2)
        m13 = controlled_matrix(qcore.haar_unitary(2), 3)
        assert np.linalg.norm(m12 @ m13 - m13 @ m12) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlledGate(1, 1, np.eye(2))
        with pytest.raises(ValueError):
            ControlledGate(1, 2, np.array([[1, 1], [0, 1]]))


def cost(cj) -> float:
    """Entropy of the control pair of a channel state."""
    return float(entropies(density_spectra(reduced(cj, {1, 2}))))


class TestCjState:
    def test_identity_gate_costs_nothing(self):
        cj = cj_state(ControlledGate(1, 2, np.eye(2)))
        assert cost(cj) < 1e-12

    def test_orthogonal_branches_cost_one(self):
        cj = cj_state(ControlledGate(1, 2, zrot(np.pi / 2)))
        assert abs(cost(cj) - 1) < 1e-12

    def test_matches_gate_cost_formula(self):
        # Cross-module agreement with the implementation-cost expression.
        for seed in range(5):
            u = qcore.haar_unitary(seed)
            cj = cj_state(ControlledGate(1, 2, u))
            expected = binary_entropy((1 + abs(np.trace(u)) / 2) / 2)
            assert abs(cost(cj) - expected) < 1e-10


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


def clu_merge_state() -> PureState:
    """|000> + 0.7 |+++>, normalised: a class-2 state whose outcomes each
    match two members."""
    vec = 0.7 * np.ones(8, dtype=complex) / np.sqrt(8)
    vec[0] += 1.0
    return PureState(3, vec / np.linalg.norm(vec))


class TestEnumeration:
    def test_contracts_instead_of_projecting(self, monkeypatch):
        cj_calls = []

        def counted_cj_state(gate):
            cj_calls.append(gate)
            return cj_state(gate)

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

    def test_builds_no_state_per_outcome(self, monkeypatch):
        form = canonical_decomposition(genuine_haar(124))
        built = []
        post_init = PureState.__post_init__

        def counted(state):
            built.append(1)
            post_init(state)

        monkeypatch.setattr(PureState, "__post_init__", counted)
        outcomes = enumerate_generation(form)
        assert len(built) <= 8
        before = len(built)
        state = outcomes[5].final_state
        assert state is outcomes[5].final_state and len(built) == before + 1
        assert np.array_equal(state.amplitudes, outcomes[5].final_amplitudes)
        assert not outcomes[5].final_amplitudes.flags.writeable

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
        form = canonical_decomposition(clu_merge_state())
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


def golden_states() -> dict:
    """The pinned inputs: GHZ, one state of each CLU class, one Haar state and
    the CLU-merge state."""
    rng = np.random.default_rng(7)
    states = {"ghz": qcore.ghz_state()}
    for kind in ("class2", "class3", "class4"):
        states[kind] = cli._class_state(kind, rng)
    states["haar"] = genuine_haar(124)
    states["clu_merge"] = clu_merge_state()
    return states


def outcome_rows(state: PureState) -> list:
    return [
        [[list(pair) for pair in o.bell_results], list(o.matched_members), o.s_psi_index, o.probability]
        for o in enumerate_generation(canonical_decomposition(state))
    ]


def test_matches_parent_golden():
    # Bell labels, matches and indices exactly: relabelled outcomes would
    # still pass the closure check.
    for name, entry in json.loads(GOLDEN.read_text()).items():
        state = PureState(3, np.array([complex(re, im) for re, im in entry["amplitudes"]]))
        got = outcome_rows(state)
        assert len(got) == len(entry["outcomes"]) == 256, name
        for idx, (row, want) in enumerate(zip(got, entry["outcomes"])):
            assert row[:3] == want[:3], f"{name}[{idx}]: {row[:3]} vs {want[:3]}"
            assert abs(row[3] - want[3]) <= GOLDEN_PROB_TOL, f"{name}[{idx}]: {row[3]!r} vs {want[3]!r}"


HALF_PI = np.pi / 2


@given(
    st.floats(0.72, 0.98),
    st.floats(-HALF_PI, HALF_PI),
    st.floats(0.05, HALF_PI - 0.05),
    st.floats(-HALF_PI, HALF_PI),
    st.floats(0.05, HALF_PI - 0.05),
)
@settings(max_examples=30, deadline=None)
def test_outcomes_are_the_pauli_byproduct_states(a, alpha, beta, gamma, beta_prime):
    # Outcome ((k, l), (m, n)) is C-U3 (sigma_m x sigma_n on 1, 3) C-U2
    # (sigma_k x sigma_l on 1, 2) applied to (|0> + |1>)|psi_s>/sqrt(2).
    form = form_from_params(a, alpha, beta, gamma, beta_prime)
    u2, u3 = branch_unitaries(alpha, beta, gamma, beta_prime)
    cu2, cu3 = controlled_matrix(u2, 2), controlled_matrix(u3, 3)
    base = np.kron(np.ones(2) / np.sqrt(2), [form.a, 0, 0, form.b])
    outcomes = enumerate_generation(form)
    assert len(outcomes) == 256
    for o in outcomes:
        (k, l), (m, n) = o.bell_results
        first = cu2 @ on_qubits({1: qcore.PAULIS[k], 2: qcore.PAULIS[l]}) @ base
        expected = cu3 @ on_qubits({1: qcore.PAULIS[m], 3: qcore.PAULIS[n]}) @ first
        expected /= np.linalg.norm(expected)
        phase = np.vdot(expected, o.final_amplitudes)
        assert np.abs(o.final_amplitudes - expected * phase / abs(phase)).max() < 1e-12


if __name__ == "__main__":
    entries = []
    for name, state in golden_states().items():
        amps = json.dumps([[z.real, z.imag] for z in state.amplitudes.tolist()])
        rows = ",\n".join(f"   {json.dumps(row)}" for row in outcome_rows(state))
        entries.append(f' {json.dumps(name)}: {{\n  "amplitudes": {amps},\n  "outcomes": [\n{rows}\n  ]\n }}')
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(entries) + "\n}\n")
