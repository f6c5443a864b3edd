"""Teleportation-based generation of 3-qubit states.

Each controlled gate is implemented by consuming its channel state (the
4-qubit encoding of the gate) with two Bell measurements; enumerating all
measurement outcomes reproduces the closed four-state family of the
two-branch decomposition, every outcome occurring with probability 1/256.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import LocalUnitary, PureState, genuine_tripartite, permute_qubits
from .canonical import CanonicalForm, branch_unitaries
from .classification import acin_standard_form, invariants_equivalent, j_invariants
from .measures import s_psi_set

_BELL = (
    np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),   # phi+ (identity)
    np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),   # psi+ (sigma_x)
    np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),  # psi- (sigma_y)
    np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),  # phi- (sigma_z)
)


class ClosureViolation(RuntimeError):
    """A generation outcome fell outside the expected four-state family."""


@dataclass(frozen=True)
class ControlledGate:
    """Two-qubit controlled unitary |0><0| x 1 + |1><1| x U."""

    control_qubit: int
    target_qubit: int
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        if u.shape != (2, 2) or np.linalg.norm(u.conj().T @ u - np.eye(2)) > 1e-12:
            raise ValueError("gate unitary must be a 2x2 unitary")
        if self.control_qubit == self.target_qubit:
            raise ValueError("control and target must differ")
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    def matrix(self) -> np.ndarray:
        """4x4 matrix with the control as the more significant qubit."""
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = np.eye(2)
        out[2:, 2:] = self.u
        return out


@dataclass(frozen=True)
class GenerationOutcome:
    """One Bell-outcome combination of the two teleported gates."""

    bell_results: tuple
    probability: float
    final_state: PureState
    s_psi_index: int
    matched_members: tuple


def cj_state(gate: ControlledGate) -> PureState:
    """Channel state of a controlled gate: (|00>|phi+> + |11>(U x 1)|phi+>)/sqrt(2).

    Qubit order: control pair (a, b) then target pair (a, b).
    """
    phi = _BELL[0]
    rotated = np.kron(gate.u, np.eye(2)) @ phi
    amps = np.zeros(16, dtype=complex)
    amps[:4] = phi / np.sqrt(2)        # |00> on the control pair
    amps[12:] = rotated / np.sqrt(2)   # |11>
    return PureState(4, amps)


def bell_project(state: PureState, pair, outcome: int) -> tuple[float, PureState | None]:
    """Project two qubits onto a Bell-basis state and drop them.

    Outcome indexing: 0 phi+, 1 psi+, 2 psi-, 3 phi- (matching the Pauli
    corrections identity, x, y, z of the teleportation identity).  Returns
    (probability, renormalized post state); measuring the whole register or
    hitting a probability below 1e-14 yields a ``None`` post state.
    """
    qi, qj = pair
    n = state.n_qubits
    if qi == qj or not (1 <= qi <= n and 1 <= qj <= n):
        raise ValueError("pair must be two distinct qubit indices")
    if not 0 <= outcome <= 3:
        raise ValueError("outcome must be in 0..3")
    bell = _BELL[outcome].reshape(2, 2)
    post = np.tensordot(bell.conj(), state.tensor(), axes=([0, 1], [qi - 1, qj - 1]))
    amp = post.reshape(-1)
    prob = float(np.linalg.norm(amp) ** 2)
    if prob < 1e-14 or n == 2:
        return prob if prob >= 1e-14 else 0.0, None
    return prob, PureState(n - 2, amp / np.linalg.norm(amp))


def _teleport_gate(state: PureState, gate: ControlledGate, k: int, l: int):
    """Apply one controlled gate by gate teleportation with fixed Bell outcomes.

    Returns (probability, post 3-qubit state in the original qubit order).
    """
    cj = cj_state(gate)
    joint = PureState(7, np.kron(cj.amplitudes, state.amplitudes))
    labels = ["ca", "cb", "ta", "tb", "s1", "s2", "s3"]
    ctrl_sys = f"s{gate.control_qubit}"
    targ_sys = f"s{gate.target_qubit}"

    def pos(name):
        return labels.index(name) + 1

    p1, joint = bell_project(joint, (pos("cb"), pos(ctrl_sys)), k)
    if joint is None:
        return 0.0, None
    labels = [x for x in labels if x not in ("cb", ctrl_sys)]
    p2, joint = bell_project(joint, (pos("tb"), pos(targ_sys)), l)
    if joint is None:
        return 0.0, None
    labels = [x for x in labels if x not in ("tb", targ_sys)]

    # Remaining ancilla qubits take over the measured system roles.
    role = {}
    for idx, name in enumerate(labels):
        if name == "ca":
            role[gate.control_qubit] = idx + 1
        elif name == "ta":
            role[gate.target_qubit] = idx + 1
        else:
            role[int(name[1])] = idx + 1
    order = tuple(role[q] for q in (1, 2, 3))
    return p1 * p2, permute_qubits(joint, order)


def _plus_psi_s(form: CanonicalForm) -> PureState:
    psi_s = np.array([form.a, 0, 0, form.b], dtype=complex)
    return PureState(3, np.concatenate([psi_s, psi_s]) / np.sqrt(2))


def enumerate_generation(form: CanonicalForm) -> list[GenerationOutcome]:
    """All 256 Bell-outcome combinations of the two-gate generation protocol.

    Every outcome has probability 1/256 and is LU-equivalent to a member of
    the four-state family of ``form``; outcomes matching several mutually
    LU-equivalent members share their probability equally among them when
    aggregating per member.
    """
    u2, u3 = branch_unitaries(form.alpha, form.beta, form.gamma, form.beta_prime)
    gate12 = ControlledGate(1, 2, u2)
    gate13 = ControlledGate(1, 3, u3)
    base = _plus_psi_s(form)

    members = s_psi_set(form).members
    member_invs = []
    for m in members:
        if not genuine_tripartite(m):
            raise ClosureViolation("family member is not genuinely tripartite")
        member_invs.append(j_invariants(acin_standard_form(m)))

    outcomes = []
    for k in range(4):
        for l in range(4):
            p12, mid = _teleport_gate(base, gate12, k, l)
            if mid is None:
                raise ClosureViolation("vanishing probability inside the protocol")
            for m in range(4):
                for n in range(4):
                    p13, final = _teleport_gate(mid, gate13, m, n)
                    if final is None:
                        raise ClosureViolation("vanishing probability inside the protocol")
                    inv = j_invariants(acin_standard_form(final))
                    matches = tuple(
                        i for i, mi in enumerate(member_invs) if invariants_equivalent(inv, mi)[0]
                    )
                    if not matches:
                        raise ClosureViolation(
                            f"outcome {(k, l, m, n)} not in the generation family"
                        )
                    outcomes.append(
                        GenerationOutcome(
                            bell_results=((k, l), (m, n)),
                            probability=p12 * p13,
                            final_state=final,
                            s_psi_index=min(matches),
                            matched_members=matches,
                        )
                    )
    return outcomes


def member_aggregates(outcomes) -> np.ndarray:
    """Probability collected per family member, outcomes matching several
    mutually equivalent members contributing equal shares to each."""
    agg = np.zeros(4)
    for o in outcomes:
        share = o.probability / len(o.matched_members)
        for i in o.matched_members:
            agg[i] += share
    return agg
