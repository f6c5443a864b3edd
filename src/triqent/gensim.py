"""Teleportation-based generation of 3-qubit states.

Each controlled gate is implemented by consuming its channel state (the
4-qubit encoding of the gate) with two Bell measurements (gate
teleportation).  One contraction with the Bell basis gives the post states
of all 16 outcome pairs of a gate at once, so two contractions give all 256
outcomes of the protocol; they reproduce the closed four-state family of
the two-branch decomposition, every outcome occurring with probability 1/256.
Membership is decided on J invariants: one batched standard-form call on the
four members and the 256 outcomes, then one (256, 4) comparison.
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
    rotated = np.kron(gate.u, np.eye(2)) @ phi
    amps = np.zeros(16, dtype=complex)
    amps[:4] = phi / np.sqrt(2)        # |00> on the control pair
    amps[12:] = rotated / np.sqrt(2)   # |11>
    return PureState(4, amps)


def _teleport(psi: np.ndarray, gate: ControlledGate) -> np.ndarray:
    """Teleport ``gate`` through its channel state for all 16 Bell outcomes.

    ``psi`` holds 3-qubit amplitude tensors of shape (..., 2, 2, 2).  The
    outcome k measures (cb, control) and l measures (tb, target) in the
    Bell basis; the ancillas ca and ta then take over the control and
    target roles.  Returns the unnormalised post states, (..., 4, 4, 2, 2, 2).
    """
    axes = (gate.control_qubit - 4, gate.target_qubit - 4)
    bell = np.array(BELL_BASIS).reshape(4, 2, 2).conj()
    # a, x, b, y: channel qubits ca, cb, ta, tb; c, t: control, target; r: the third.
    post = np.einsum(
        "kxc,lyt,axby,...rct->...klrab",
        bell, bell, cj_state(gate).tensor(), np.moveaxis(psi, axes, (-2, -1)),
    )
    return np.moveaxis(post, (-2, -1), axes)


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
    finals = _teleport(_teleport(base, ControlledGate(1, 2, u2)), ControlledGate(1, 3, u3))
    finals = finals.reshape(256, 8)
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
    unmatched = np.flatnonzero(~equal.any(axis=1))
    if unmatched.size:
        outcome = tuple(int(i) for i in np.unravel_index(unmatched[0], (4, 4, 4, 4)))
        raise ClosureViolation(f"outcome {outcome} not in the generation family")

    outcomes = []
    for row, ((k, l, m, n), hits) in enumerate(zip(np.ndindex(4, 4, 4, 4), equal.tolist())):
        matches = tuple(i for i, hit in enumerate(hits) if hit)
        outcomes.append(
            GenerationOutcome(
                bell_results=((k, l), (m, n)),
                probability=float(probs[row]),
                final_amplitudes=finals[row],
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
