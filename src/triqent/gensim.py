"""Teleportation-based generation of 3-qubit states.

Each controlled gate is implemented by consuming its channel state (the
4-qubit encoding of the gate) with two Bell measurements (gate
teleportation).  Each gate's channel state, contracted once with the Bell
basis, is one (64, 4) kernel; one matmul with it gives the post states of all
16 outcome pairs of the gate, so two give all 256 outcomes of the protocol.
They reproduce the closed four-state family of the two-branch decomposition,
every outcome occurring with probability 1/256.  Membership is decided on J
invariants: one batched standard-form call on the four members and the 256
outcomes, then one (256, 4) comparison, whose rows index lookup tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qcore import BELL_BASIS, BiseparableInput, PureState, scalar_pow
from .canonical import CanonicalForm, _two_branch_rows, branch_unitaries
from .classification import invariants_equivalent, standard_forms
from .measures import _rows
from .tolerances import ATOL_GATE_UNITARY, _PROB_FLOOR


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
        if u.shape != (2, 2) or np.linalg.norm(u.conj().T @ u - np.eye(2)) > ATOL_GATE_UNITARY:
            raise ValueError("gate unitary must be a 2x2 unitary")
        if self.control_qubit == self.target_qubit:
            raise ValueError("control and target must differ")
        u.flags.writeable = False
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class GenerationOutcome:
    """One Bell-outcome combination of the two teleported gates.

    ``final_amplitudes`` is the normalised (read-only) post state;
    ``final_state`` builds and validates its ``PureState`` on first access.
    """

    bell_results: tuple
    probability: float
    final_amplitudes: np.ndarray
    s_psi_index: int
    matched_members: tuple

    @cached_property
    def final_state(self) -> PureState:
        return PureState(3, self.final_amplitudes)


def cj_state(gate: ControlledGate) -> PureState:
    """Channel state of a controlled gate: (|00>|phi+> + |11>(U x 1)|phi+>)/sqrt(2).

    Qubit order: control pair (a, b) then target pair (a, b).
    """
    phi = BELL_BASIS[0]
    # Control-pair blocks |00>, |01>, |10>, |11>; the middle two are empty.
    return PureState(4, np.concatenate([phi, np.zeros(8), np.kron(gate.u, np.eye(2)) @ phi]) / np.sqrt(2))


# Bell bra pairs, (16, 4, 4): [(k, l), (x, y), (c, t)] = <B_k|_(x, c) <B_l|_(y, t).
_BELL_PAIRS = np.array(
    [np.kron(bk.reshape(2, 2), bl.reshape(2, 2)) for bk in BELL_BASIS for bl in BELL_BASIS]).conj()


def _teleport(psi: np.ndarray, gate: ControlledGate) -> np.ndarray:
    """Teleport ``gate`` through its channel state for all 16 Bell outcomes.

    ``psi`` holds 3-qubit amplitude tensors of shape (..., 2, 2, 2).  The
    outcome k measures (cb, control) and l measures (tb, target) in the
    Bell basis; the ancillas ca and ta then take over the control and
    target roles.  The kernel, channel state times Bell bra pairs, maps
    (control, target) to (k, l, ca, ta); one matmul applies it to every input.
    Returns the unnormalised post states, (..., 4, 4, 2, 2, 2).
    """
    # Channel qubits (ca, cb, ta, tb) regrouped as [(ca, ta), (cb, tb)].
    kernel = (cj_state(gate).tensor().transpose(0, 2, 1, 3).reshape(4, 4) @ _BELL_PAIRS).reshape(64, 4)
    axes = (gate.control_qubit - 4, gate.target_qubit - 4)
    (rest,) = {-3, -2, -1} - set(axes)
    moved = np.moveaxis(psi, (*axes, rest), (-3, -2, -1))
    post = kernel @ moved.reshape(*psi.shape[:-3], 4, 2)
    return np.moveaxis(post.reshape(*psi.shape[:-3], 4, 4, 2, 2, 2), (-3, -2, -1), (*axes, rest))


# Outcome labels ((k, l), (m, n)) in row order; (s_psi_index, matched_members)
# for each match pattern, sum over matched members i of 2^i.
_LABELS = tuple(((k, l), (m, n)) for k, l, m, n in np.ndindex(4, 4, 4, 4))
_MEMBER_BITS = 1 << np.arange(4)
_MATCHES = tuple(
    (min(m, default=None), m) for m in (tuple(i for i in range(4) if bits >> i & 1) for bits in range(16)))


def enumerate_generation(form: CanonicalForm) -> list[GenerationOutcome]:
    """All 256 Bell-outcome combinations of the two-gate generation protocol.

    The gates C-U2 (1 -> 2) and C-U3 (1 -> 3) are teleported onto
    (|0> + |1>)|psi_s>/sqrt(2) one after the other, each for all 16 of its
    outcome pairs at once; outcome ((k, l), (m, n)) is listed in that
    lexicographic order.  Every outcome has probability 1/256 and is
    LU-equivalent to a member of the four-state family of ``form``.  This is
    checked on J invariants, never inferred from the Pauli corrections: one
    ``standard_forms`` call covers the four members and the 256 normalised
    outcomes, and each outcome is compared with every member at once.
    Outcomes matching several mutually LU-equivalent members share their
    probability equally among them when aggregating per member.
    """
    u2, u3 = branch_unitaries(form.alpha, form.beta, form.gamma, form.beta_prime)
    psi_s = np.array([form.a, 0, 0, form.b], dtype=complex)
    base = _two_branch_rows(psi_s, np.eye(4, dtype=complex)).reshape(2, 2, 2)
    finals = _teleport(_teleport(base, ControlledGate(1, 2, u2)), ControlledGate(1, 3, u3)).reshape(256, 8)
    norm = np.sqrt(np.vecdot(finals.real, finals.real) + np.vecdot(finals.imag, finals.imag))
    probs = scalar_pow(norm, 2)
    if (probs < _PROB_FLOOR).any():
        raise ClosureViolation("vanishing probability inside the protocol")
    finals = finals / norm[:, None]
    finals.flags.writeable = False

    members = _rows(form, u2, u3)[:4]
    try:
        inv = standard_forms(np.concatenate([members, finals])).invariants
    except BiseparableInput as exc:
        raise ClosureViolation(f"family member (rows 0-3) or outcome not genuine: {exc}") from exc
    equal, _ = invariants_equivalent(inv[4:, None], inv[None, :4])
    hits = equal @ _MEMBER_BITS
    if not hits.all():
        raise ClosureViolation(f"outcome {_LABELS[hits.argmin()]} not in the generation family")
    return [
        GenerationOutcome(label, prob, amps, *_MATCHES[hit])
        for label, prob, amps, hit in zip(_LABELS, probs.tolist(), finals, hits.tolist())
    ]


def member_aggregates(outcomes) -> np.ndarray:
    """Probability collected per family member, outcomes matching several
    mutually equivalent members contributing equal shares to each."""
    agg = np.zeros(4)
    for o in outcomes:
        share = o.probability / len(o.matched_members)
        for i in o.matched_members:
            agg[i] += share
    return agg
