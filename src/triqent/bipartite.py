"""Two-qubit entanglement primitives and the 1|23 Schmidt machinery.

Everything here is phrased in terms of the symmetric bilinear form
B(u, v) = u^T (sigma_y x sigma_y) v on two-qubit states; the spin-flipped
overlap <u~|v> equals B(u, v).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    PAULI_Y,
    LocalUnitary,
    PureState,
    require_tripartite,
)
from .tolerances import (
    TOL_DEGENERATE,
    TOL_OVERLAP,
    _CAP_NOISE_FLOOR,
    _SLACK_CONCURRENCE,
    _SLACK_UNIT,
    _SNAP_DEGENERATE,
    _TOL_ALIGN_PHASE,
    _TOL_AMPLITUDE,
    _TOL_SELF_OVERLAP,
    _TOL_TAKAGI_GAP,
    _TOL_TAKAGI_PHASE,
    _TOL_ZERO_DIAG,
)

# sigma_y x sigma_y is real symmetric, with entries 0 and +-1 exactly.
_YY = np.ascontiguousarray(np.kron(PAULI_Y, PAULI_Y).real)


def _bilinear(u: np.ndarray, v: np.ndarray) -> complex:
    return complex(u @ _YY @ v)


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) in bits with h(0) = h(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def eof(concurrence: float) -> float:
    """Entanglement of formation as a function of concurrence.

    Strictly increasing on [0, 1] with eof(0) = 0 and eof(1) = 1.
    """
    if not (-_SLACK_CONCURRENCE <= concurrence <= 1 + _SLACK_CONCURRENCE):
        raise ValueError(f"concurrence out of range: {concurrence}")
    c = min(max(concurrence, 0.0), 1.0)
    return binary_entropy(0.5 * (1 + np.sqrt(max(1 - c * c, 0.0))))


def _bisect(below, lo: float, hi: float) -> float:
    """Midpoint of the bracket left by at most 200 halvings of [lo, hi],
    keeping the upper half where ``below(mid)``.

    Stops at the first halving that leaves (lo, hi) unchanged: every later
    one would leave it unchanged too, so the result is that of all 200.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        new = (mid, hi) if below(mid) else (lo, mid)
        if new == (lo, hi):
            break
        lo, hi = new
    return 0.5 * (lo + hi)


def _unit_value(value: float) -> float:
    """``value`` clipped to [0, 1]; ValueError beyond ``_SLACK_UNIT`` outside it or for NaN."""
    if not (-_SLACK_UNIT <= value <= 1 + _SLACK_UNIT):
        raise ValueError(f"value out of range: {value}")
    return min(max(value, 0.0), 1.0)


def eof_inverse(value: float) -> float:
    """Concurrence whose entanglement of formation equals ``value``."""
    v = _unit_value(value)
    return _bisect(lambda mid: eof(mid) < v, 0.0, 1.0)


def binary_entropy_inverse_upper(value: float) -> float:
    """x in [1/2, 1] with h(x) = value."""
    v = _unit_value(value)
    return _bisect(lambda mid: binary_entropy(mid) > v, 0.5, 1.0)


@dataclass(frozen=True)
class SchmidtSplit:
    """Normal form of the 1|23 splitting.

    The witness is a local unitary (acting on qubit 1 only) such that
    ``apply_local(input, witness)`` equals
    sqrt(p)|0>|psi0> + sqrt(1-p)|1>|psi1> exactly, with the eigenvector
    phases fixed so that c0, c1 >= 0.  ``noise_floor`` is
    ``schmidt_noise_floor(p)``.
    """

    p: float
    psi0: PureState
    psi1: PureState
    witness: LocalUnitary
    degenerate: bool
    noise_floor: float


@dataclass(frozen=True)
class TauMatrix:
    """Symmetric 2x2 matrix tau_ij = sqrt(p_i p_j) <psi_i~|psi_j> and scalars.

    ``c23`` = s1 - s2 and ``ca23`` = s1 + s2 are C_23 and C^a_23, and
    ``e_c23``, ``e_ca23`` their entanglements of formation: the ends of the
    interval the branch entanglement E1 lies in.  An overlap at or below
    ``zero`` = max(``TOL_OVERLAP``, ``noise_floor``) counts as zero, where
    ``noise_floor`` is ``schmidt_noise_floor(p)``, computed by the split.
    """

    c0: float
    c1: float
    ctilde: complex
    tau: np.ndarray
    s1: float
    s2: float
    p: float
    degenerate: bool
    noise_floor: float
    c23: float = field(init=False)
    ca23: float = field(init=False)
    e_c23: float = field(init=False)
    e_ca23: float = field(init=False)
    zero: float = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.tau, dtype=complex)
        t.flags.writeable = False
        c23 = min(max(self.s1 - self.s2, 0.0), 1.0)
        ca23 = min(self.s1 + self.s2, 1.0)
        derived = dict(
            tau=t,
            c23=c23,
            ca23=ca23,
            e_c23=eof(c23),
            e_ca23=eof(ca23),
            zero=max(TOL_OVERLAP, self.noise_floor),
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _phase_fix(vec: np.ndarray, c: complex, zero_thr: float) -> np.ndarray:
    """Rotate a global phase so the self-overlap c becomes nonnegative.

    When c vanishes (below ``zero_thr``) the phase is undefined; fall back
    to making the first nonzero amplitude real positive.
    """
    if abs(c) > zero_thr:
        return vec * np.exp(-0.5j * np.angle(c))
    a = vec[int(np.argmax(np.abs(vec) > _TOL_AMPLITUDE))]
    return vec * (abs(a) / a)


def _takagi_2x2(t: np.ndarray) -> np.ndarray:
    """Takagi factorization t = W diag(s1, s2) W^T of a complex symmetric 2x2.

    Returns the unitary W, for s1 >= s2 >= 0; deterministic up to the
    documented column sign fix.
    """
    u, s, vh = np.linalg.svd(t)
    v = vh.conj().T
    c = u.conj().T @ v.conj()
    if s[0] - s[1] > _TOL_TAKAGI_GAP * max(s[0], 1.0):
        d = np.sqrt(np.diag(c).astype(complex))
        w = u @ np.diag(d)
    else:
        # Degenerate singular values: c is a symmetric unitary; take its
        # principal square root through an eigendecomposition.
        ev, evec = np.linalg.eig(c)
        q, _ = np.linalg.qr(evec)
        ev = np.diag(q.conj().T @ c @ q)
        d = np.exp(0.5j * np.angle(ev))
        w = u @ (q @ np.diag(d) @ q.T)
    for k in range(2):
        idx = int(np.argmax(np.abs(w[:, k])))
        a = w[idx, k]
        if abs(a) > _TOL_TAKAGI_PHASE:
            w[:, k] *= abs(a) / a
    return w


def _tau_entries(p: float, psi0: np.ndarray, psi1: np.ndarray):
    c0 = _bilinear(psi0, psi0)
    c1 = _bilinear(psi1, psi1)
    ct = _bilinear(psi0, psi1)
    tau = np.array(
        [
            [p * c0, np.sqrt(p * (1 - p)) * ct],
            [np.sqrt(p * (1 - p)) * ct, (1 - p) * c1],
        ],
        dtype=complex,
    )
    return c0, c1, ct, tau


def schmidt_noise_floor(p: float) -> float:
    """Error scale of quantities built from the 1|23 eigenbasis.

    The eigenvectors are determined only up to machine epsilon divided by
    the Schmidt gap |2p - 1|; overlaps smaller than this are numerical noise.
    """
    eps = np.finfo(float).eps
    return float(min(32 * eps / max(abs(2 * p - 1), eps), _CAP_NOISE_FLOOR))


def schmidt_split(state: PureState) -> SchmidtSplit:
    """1|23 Schmidt normal form of a genuinely tripartite 3-qubit state.

    The returned eigenvectors satisfy c0, c1 >= 0.  For a degenerate
    splitting (p = 1/2) the eigenbasis of the reduced state is not unique;
    it is then canonicalized from the structure of tau: the basis is kept
    as-is if tau is already in the zero-diagonal form (c0 = c1 = 0),
    otherwise it is rotated so that tau becomes diagonal (ctilde = 0).
    """
    if state.n_qubits != 3:
        raise ValueError("schmidt_split expects a 3-qubit state")
    require_tripartite(state)
    m = state.amplitudes.reshape(2, 4)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    p = float(s[0] ** 2)
    psi0 = vh[0]
    psi1 = vh[1]
    w1 = u.conj().T
    degenerate = abs(p - 0.5) <= TOL_DEGENERATE

    if abs(p - 0.5) <= _SNAP_DEGENERATE:
        p = 0.5
        _, _, _, tau = _tau_entries(p, psi0, psi1)
        zero_diag = abs(tau[0, 0]) <= _TOL_ZERO_DIAG and abs(tau[1, 1]) <= _TOL_ZERO_DIAG
        if not zero_diag:
            w = _takagi_2x2(tau)
            a = w.conj().T
            psi0, psi1 = a[0, 0] * psi0 + a[0, 1] * psi1, a[1, 0] * psi0 + a[1, 1] * psi1
            # New normal-form rows are a @ (old rows), so the qubit-1
            # witness picks up the same rotation.
            w1 = a @ w1

    # Self-overlaps below the eigenbasis noise floor carry no phase
    # information; the snapped degenerate basis is rebuilt cleanly, so only
    # the base threshold applies there.
    noise_floor = schmidt_noise_floor(p)
    zero_thr = _TOL_SELF_OVERLAP if p == 0.5 else max(_TOL_SELF_OVERLAP, noise_floor)
    psi0 = _phase_fix(psi0, _bilinear(psi0, psi0), zero_thr)
    psi1 = _phase_fix(psi1, _bilinear(psi1, psi1), zero_thr)
    # A phase on psi_k is compensated by the conjugate phase on |k> of
    # qubit 1, i.e. by a diagonal factor multiplying the witness.
    rotated = w1 @ m
    d0 = _phase_align(psi0, rotated[0] / np.sqrt(p))
    d1 = _phase_align(psi1, rotated[1] / np.sqrt(1 - p))
    w1 = np.diag([d0, d1]) @ w1

    return SchmidtSplit(
        p=p,
        psi0=PureState(2, psi0),
        psi1=PureState(2, psi1),
        witness=LocalUnitary((w1, np.eye(2, dtype=complex), np.eye(2, dtype=complex))),
        degenerate=degenerate,
        noise_floor=noise_floor,
    )


def _phase_align(psi_fixed, current) -> complex:
    """Diagonal witness entry aligning ``current``, a normalised row of the rotated
    input, with the fixed eigenvector."""
    ov = np.vdot(psi_fixed, current)
    return (abs(ov) / ov) if abs(ov) > _TOL_ALIGN_PHASE else 1.0


def tau_matrix(split: SchmidtSplit) -> TauMatrix:
    """tau matrix and its scalars for a Schmidt split."""
    p = split.p
    c0c, c1c, ct, tau = _tau_entries(p, split.psi0.amplitudes, split.psi1.amplitudes)
    s = np.linalg.svd(tau, compute_uv=False)
    return TauMatrix(
        c0=max(float(c0c.real), 0.0),
        c1=max(float(c1c.real), 0.0),
        ctilde=ct,
        tau=tau,
        s1=float(s[0]),
        s2=float(s[1]),
        p=p,
        degenerate=split.degenerate,
        noise_floor=split.noise_floor,
    )


def concurrence_pair_closed_form(tm: TauMatrix) -> tuple[float, float]:
    """(C_23, C^a_23) from the closed form in p, c0, c1, ctilde."""
    p, c0, c1, ct = tm.p, tm.c0, tm.c1, tm.ctilde
    base = p**2 * c0**2 + (1 - p) ** 2 * c1**2
    cross = 2 * p * (1 - p)
    disc = abs(c0 * c1 - ct**2)
    cm = np.sqrt(max(base + cross * (abs(ct) ** 2 - disc), 0.0))
    cp = np.sqrt(max(base + cross * (abs(ct) ** 2 + disc), 0.0))
    return float(cm), float(cp)


def tangle(tm: TauMatrix) -> float:
    """Three-way tangle 4|det tau|."""
    return float(min(4 * abs(np.linalg.det(tm.tau)), 1.0))
