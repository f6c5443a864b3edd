"""Canonical two-branch decomposition of 3-qubit states.

Any genuinely tripartite state is written, up to local unitaries, as an
equal superposition of two biseparable branches carrying the same amount
of 2|3 entanglement:

    (|0>|psi_s> + |1> (U2 x U3)|psi_s>) / sqrt(2)

with psi_s = a|00> + b|11> (a >= b), U2 = Z(alpha) Y(beta) Z(gamma) and
U3 = Y(beta') where Z(x) = exp(i x sigma_z), Y(x) = exp(i x sigma_y).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .qcore import PAULI_I, PAULI_X, PAULI_Z, InternalCheckFailed, LocalUnitary, PureState, check
from .bipartite import (
    SchmidtSplit,
    TauMatrix,
    _bilinear,
    eof,
    schmidt_split,
    tau_matrix,
)
from .tolerances import (
    TOL_CASE,
    TOL_MAXENT,
    _FOLD_TOL,
    _MARGIN_PRODUCT,
    _ORBIT_KEY_SCALE,
    _SLACK_HALF_OPEN,
    _SLACK_RANGE,
    _SNAP_GAUGE,
    _TOL_BRANCH,
    _TOL_EULER,
    _TOL_INTERVAL,
    _TOL_REPRESENTATIVE,
    _TOL_SU2_DIAGONAL,
)

HALF_PI = np.pi / 2


def zrot(xi: float) -> np.ndarray:
    """exp(i xi sigma_z) = diag(e^{i xi}, e^{-i xi})."""
    return np.diag([np.exp(1j * xi), np.exp(-1j * xi)])


def yrot(xi: float) -> np.ndarray:
    """exp(i xi sigma_y) = [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(xi), np.sin(xi)
    return np.array([[c, s], [-s, c]], dtype=complex)


def branch_unitaries(alpha: float, beta: float, gamma: float, beta_prime: float):
    """(U2, U3) for the given decomposition angles."""
    return zrot(alpha) @ yrot(beta) @ zrot(gamma), yrot(beta_prime)


def euler_zyz(u: np.ndarray) -> tuple[float, float, float]:
    """ZYZ angles of a special unitary: u = Z(alpha) Y(beta) Z(gamma).

    beta is returned in [0, pi/2]; when a matrix entry vanishes only one
    phase combination is defined and the whole of it is folded into alpha.
    """
    m00, m01 = u[0, 0], u[0, 1]
    beta = float(np.arctan2(abs(m01), abs(m00)))
    if abs(m01) <= _TOL_EULER:
        return float(np.angle(m00)), beta, 0.0
    if abs(m00) <= _TOL_EULER:
        return float(np.angle(m01)), beta, 0.0
    a0, a1 = np.angle(m00), np.angle(m01)
    return float((a0 + a1) / 2), beta, float((a0 - a1) / 2)


def _to_su2(m: np.ndarray) -> tuple[np.ndarray, complex]:
    """Scale a unitary to unit determinant; returns (su2, dropped phase)."""
    d = np.linalg.det(m)
    root = np.sqrt(abs(d)) * np.exp(0.5j * np.angle(d))
    return m / root, root


class OmegaCase(str, Enum):
    GENERIC = "generic"
    I = "i"
    II = "ii"
    III = "iii"


@dataclass(frozen=True)
class CanonicalForm:
    """Parameters of the two-branch decomposition plus the local-unitary witness.

    ``apply_local(input, witness)`` equals ``reconstruct_state(form)`` up to a
    global phase.  ``e1`` is the entanglement of formation of psi_s.
    """

    a: float
    alpha: float
    beta: float
    gamma: float
    beta_prime: float
    omega: float
    witness: LocalUnitary
    max_entangled_convention: bool
    omega_case: OmegaCase = OmegaCase.GENERIC
    e1: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "e1", eof(self.concurrence_s()))

    @property
    def b(self) -> float:
        return float(np.sqrt(max(1.0 - self.a**2, 0.0)))

    @property
    def params(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.beta_prime)

    def concurrence_s(self) -> float:
        """Concurrence 2ab of the branch state psi_s."""
        return float(min(2 * self.a * self.b, 1.0))


def form_from_params(
    a: float,
    alpha: float,
    beta: float,
    gamma: float,
    beta_prime: float,
    omega: float = 0.0,
) -> CanonicalForm:
    """Build a form with an identity witness (for synthetic inputs)."""
    return CanonicalForm(
        a=float(a),
        alpha=float(alpha),
        beta=float(beta),
        gamma=float(gamma),
        beta_prime=float(beta_prime),
        omega=float(omega),
        witness=LocalUnitary.identity(3),
        max_entangled_convention=bool(abs(a - np.sqrt(1 - a**2)) <= TOL_MAXENT),
    )


def solve_omega(tm: TauMatrix) -> tuple[float, OmegaCase]:
    """Phase making the two measurement branches equally entangled.

    Generic case: omega = arctan(x cot(arg ctilde)) reduced to [0, pi),
    with x = (p c0 + (1-p) c1) / (p c0 - (1-p) c1).  Degenerate cases:
    i  (c0 = c1 = 0)                       -> omega = 0;
    ii (p c0 = (1-p) c1 != 0, ctilde in iR) -> omega maximizing C(psi_s);
    iii (ctilde = 0)                        -> omega maximizing C(psi_s).
    In both ii and iii the maximum sits at omega = 0.  Overlaps at or below
    ``tm.zero`` count as zero.
    """
    p, zero = tm.p, tm.zero
    n = p * tm.c0 + (1 - p) * tm.c1
    d = p * tm.c0 - (1 - p) * tm.c1
    if n <= zero:
        return 0.0, OmegaCase.I
    if abs(tm.ctilde) <= zero:
        return 0.0, OmegaCase.III
    delta = np.angle(tm.ctilde)
    if abs(d) <= zero and abs(np.cos(delta)) <= TOL_CASE:
        return 0.0, OmegaCase.II
    omega = float(np.arctan2(n * np.cos(delta), d * np.sin(delta)))
    return omega % np.pi, OmegaCase.GENERIC


def _branch_states(split: SchmidtSplit, omega: float):
    """Equally likely measurement branches x0, x1 for the given omega."""
    p = split.p
    a0, a1 = split.psi0.amplitudes, split.psi1.amplitudes
    x0 = np.sqrt(p) * a0 + np.exp(1j * omega) * np.sqrt(1 - p) * a1
    x1 = -np.exp(-1j * omega) * np.sqrt(p) * a0 + np.sqrt(1 - p) * a1
    return x0, x1


def _normalize_half_open(x: float) -> float:
    """Reduce an angle modulo pi into (-pi/2, pi/2].

    An angle within ``_SNAP_GAUGE`` of the gauge boundary 0 or pi/2 is put on
    it, so a tiny angle and its sign flip give one node and beta near an edge
    takes the fold.
    """
    y = (x + HALF_PI) % np.pi - HALF_PI
    if y <= -HALF_PI + _SLACK_HALF_OPEN:
        y += np.pi
    if abs(y) < _SNAP_GAUGE:
        return 0.0
    return HALF_PI if abs(y - HALF_PI) < _SNAP_GAUGE else float(y)


def _fold_gauge(params):
    """At beta = 0 (pi/2) only alpha+gamma (alpha-gamma) is defined; fold it.

    Returns (params, flips): wrapping the folded angle by pi negates the
    second branch, which the caller must absorb as a qubit-1 sign.
    """
    alpha, beta, gamma, bp = params
    if abs(beta) <= _FOLD_TOL:
        combined = alpha + gamma
    elif abs(abs(beta) - HALF_PI) <= _FOLD_TOL:
        combined = alpha - gamma
    else:
        return (alpha, beta, gamma, bp), 0
    folded = _normalize_half_open(combined)
    flips = abs(int(round((combined - folded) / np.pi)))
    beta_out = 0.0 if abs(beta) <= _FOLD_TOL else beta
    return (folded, beta_out, 0.0, bp), flips


def _normalize_node(params):
    """Bring all four angles into (-pi/2, pi/2] modulo pi.

    Returns (angles, parity): shifting any angle by pi flips the sign of the
    second branch, so an odd number of shifts costs diag(1, -1) on qubit 1.
    """
    out = []
    flips = 0
    for x in params:
        y = _normalize_half_open(x)
        shift = round((x - y) / np.pi)
        flips += abs(int(shift))
        out.append(y)
    folded, fold_flips = _fold_gauge(tuple(out))
    return folded, (flips + fold_flips) % 2


def _moves(params):
    """The three allowed moves: (beta, beta') sign flip, half-pi shift, swap."""
    al, be, ga, bp = params
    return (al, -be, ga, -bp), (al + HALF_PI, -be, ga + HALF_PI, bp), (-ga, -be, -al, -bp)


def _key(node) -> tuple:
    """Orbit key of a node: each angle rounded to 10 decimals (``_ORBIT_KEY_SCALE``),
    -0.0 made 0.0.

    Plain-float spelling of ``np.round(node, 10) + 0.0``, bit for bit.
    """
    return tuple([round(x * _ORBIT_KEY_SCALE) / _ORBIT_KEY_SCALE + 0.0 for x in node])


# The eight move words that reach every node of an orbit, as ``_moves``
# indices applied left to right; each word extends one listed before it.
_WORDS = ((), (0,), (1,), (2,), (2, 0), (2, 1), (2, 1, 0), (2, 1, 0, 2))


def _orbit(start):
    """(node, word) for each of the ``_WORDS`` replayed from the normalised node
    ``start``, on angles alone; nodes may repeat at a gauge edge."""
    nodes = {(): start}
    for word in _WORDS[1:]:
        nodes[word], _ = _normalize_node(_moves(nodes[word[:-1]])[word[-1]])
    return [(node, word) for word, node in nodes.items()]


def _representative(orbit) -> tuple[tuple, tuple]:
    """Canonical (node, path) of a replayed orbit.

    Candidates are restricted to beta, beta' in [0, pi/2]; the unique
    representative is selected by |alpha| >= |gamma| and then by the largest
    (alpha, gamma, beta, beta') tuple.
    """
    tol = _TOL_REPRESENTATIVE
    candidates = [
        ((a, 0.0 if abs(b) < tol else b, g, 0.0 if abs(v) < tol else v), path)
        for (a, b, g, v), path in orbit
        if b >= -tol and v >= -tol
    ]
    candidates = [c for c in candidates if abs(c[0][0]) >= abs(c[0][2]) - tol]
    if not candidates:
        raise InternalCheckFailed("canonical orbit representative", 1, 0)
    return max(candidates, key=lambda c: _key(c[0]))


def _canonical_node(raw_params) -> tuple[tuple, tuple]:
    """Canonical representative of the parameter orbit plus the path reaching it."""
    return _representative(_orbit(_normalize_node(raw_params)[0]))


def _path_witness(raw, path) -> list:
    """Three 2x2 factors taking the state of ``raw`` to that of the node ``path``
    reaches: each move's unitary, then a qubit-1 sign flip after every odd
    normalisation."""
    flip = (PAULI_Z, PAULI_I, PAULI_I)
    node, parity = _normalize_node(raw)
    fs = [np.eye(2, dtype=complex) for _ in range(3)]
    if parity:
        fs = _left_multiply(flip, fs)
    for k in path:
        u2, u3 = branch_unitaries(*node)
        move = ((PAULI_I, PAULI_Z, PAULI_Z), flip, (PAULI_X, u2.conj().T, u3.conj().T))
        fs = _left_multiply(move[k], fs)
        node, parity = _normalize_node(_moves(node)[k])
        if parity:
            fs = _left_multiply(flip, fs)
    return fs


def _left_multiply(step, fs) -> list:
    """Per-qubit factors of ``fs`` followed by ``step``."""
    return [v @ u for u, v in zip(fs, step)]


def canonical_representatives(raws) -> list[tuple]:
    """Canonical (alpha, beta, gamma, beta') of each distinct orbit among ``raws``.

    Representatives come in first-seen order.  Each orbit is replayed once: a
    raw tuple whose normalised start lies in an orbit already replayed adds
    nothing.
    """
    replayed = set()
    reps = []
    for raw in raws:
        start, _ = _normalize_node(tuple(float(x) for x in raw))
        if _key(start) in replayed:
            continue
        orbit = _orbit(start)
        replayed.update(_key(node) for node, _ in orbit)
        reps.append(_representative(orbit)[0])
    return reps


def canonicalize_params(raw):
    """Canonical (alpha, beta, gamma, beta') reachable by local-unitary moves.

    Idempotent; the output differs from the input only by the allowed
    transformation group (the orientation-reversing swap that corresponds
    to complex conjugation is never applied).
    """
    return canonical_representatives([raw])[0]


def _diagonalize_su2(h: np.ndarray) -> tuple[float, np.ndarray]:
    """theta in [0, pi] and S in SU(2) with S^dag h S = Z(theta)."""
    tr = 0.5 * (h[0, 0] + h[1, 1]).real
    theta = float(np.arccos(np.clip(tr, -1.0, 1.0)))
    if np.sin(theta) < _TOL_SU2_DIAGONAL:
        return (0.0 if tr > 0 else np.pi), PAULI_I.copy()
    ev, vec = np.linalg.eig(h)
    order = np.argsort(-np.angle(ev))
    vec = vec[:, order]
    q, _ = np.linalg.qr(vec)
    # Keep eigenvector directions (QR fixes orthonormality only).
    for k in range(2):
        ov = np.vdot(q[:, k], vec[:, k])
        q[:, k] *= ov / abs(ov)
    q, _ = _to_su2(q)
    return theta, q


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2x2 matrices, bit for bit, without its generic setup."""
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(4, 4)


def _two_branch_rows(branches: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """(|0>|b> + |1> G|b>) / sqrt(2) for the (..., 4) branches b and their 4x4
    gates G: every two-branch state of the package is built here."""
    rotated = (gates @ branches[..., None])[..., 0]
    return np.concatenate([branches, rotated], axis=-1) / np.sqrt(2)


def _require_canonical_range(form: CanonicalForm) -> None:
    """Raise ValueError naming the first parameter outside the canonical range."""
    a = form.a
    if not (1 / np.sqrt(2) - _SLACK_RANGE <= a <= 1 - _MARGIN_PRODUCT):
        raise ValueError(f"a = {a} outside [1/sqrt(2), 1 - {_MARGIN_PRODUCT:g}]")
    for name, val, lo, hi in (
        ("alpha", form.alpha, -HALF_PI, HALF_PI),
        ("gamma", form.gamma, -HALF_PI, HALF_PI),
        ("beta", form.beta, 0.0, HALF_PI),
        ("beta_prime", form.beta_prime, 0.0, HALF_PI),
    ):
        if not (lo - _SLACK_RANGE <= val <= hi + _SLACK_RANGE):
            raise ValueError(f"{name} = {val} outside canonical range")


def reconstruct_state(form: CanonicalForm) -> PureState:
    """3-qubit state of the literal two-branch decomposition."""
    _require_canonical_range(form)
    psi_s = np.array([form.a, 0, 0, form.b], dtype=complex)
    return PureState(3, _two_branch_rows(psi_s, _kron(*branch_unitaries(*form.params))))


def canonical_decomposition(state: PureState) -> CanonicalForm:
    """Canonical form of a genuinely tripartite 3-qubit state."""
    split = schmidt_split(state)
    return decompose_split(split, tau_matrix(split))


def decompose_split(split: SchmidtSplit, tm: TauMatrix) -> CanonicalForm:
    """``canonical_decomposition`` of the state whose split and tau matrix are given."""
    omega, case = solve_omega(tm)
    x0, x1 = _branch_states(split, omega)
    branch_gap = abs(abs(_bilinear(x0, x0)) - abs(_bilinear(x1, x1)))
    check("branch concurrence cross-check", branch_gap, _TOL_BRANCH)

    fs = split.witness.factors
    u_omega = np.array(
        [[1, np.exp(1j * omega)], [-np.exp(-1j * omega), 1]], dtype=complex
    ) / np.sqrt(2)
    fs = _left_multiply((u_omega, PAULI_I, PAULI_I), fs)

    m0 = x0.reshape(2, 2)
    p0, sv, q0h = np.linalg.svd(m0)
    a, b = float(sv[0]), float(sv[1])
    l2, l3 = p0.conj().T, q0h.conj()
    fs = _left_multiply((PAULI_I, l2, l3), fs)
    m1 = l2 @ x1.reshape(2, 2) @ l3.T

    max_entangled = (a - b) <= TOL_MAXENT
    if max_entangled:
        # On a maximally entangled branch the whole second-branch unitary can
        # be pushed onto qubit 2 and conjugated into diagonal form.
        h_raw = m1 @ np.diag([1 / a, 1 / b])
        hu, _, hvh = np.linalg.svd(h_raw)
        h_su2, root = _to_su2(hu @ hvh)
        fs = _left_multiply((np.diag([1, root.conjugate()]), PAULI_I, PAULI_I), fs)
        theta, s = _diagonalize_su2(h_su2)
        fs = _left_multiply((PAULI_I, s.conj().T, s.T), fs)
        raw = (theta, 0.0, 0.0, 0.0)
        a = max(a, 1 / np.sqrt(2))
    else:
        p1, _, q1h = np.linalg.svd(m1)
        g2 = p1
        g3 = q1h.T  # conj(Q1), so that g2 @ diag(a, b) @ g3.T = m1
        g2su, r2 = _to_su2(g2)
        g3su, r3 = _to_su2(g3)
        g_phase = r2 * r3
        fs = _left_multiply((np.diag([1, g_phase.conjugate()]), PAULI_I, PAULI_I), fs)
        # Strip the leading Z of the qubit-3 factor through the Schmidt frame
        # and pass its trailing Z through psi_s onto qubit 2.
        a3, b3, c3 = euler_zyz(g3su)
        fs = _left_multiply((PAULI_I, zrot(a3), zrot(-a3)), fs)
        u2_pre = zrot(a3) @ g2su @ zrot(c3)
        alpha, beta, gamma = euler_zyz(u2_pre)
        raw = (alpha, beta, gamma, b3)

    (alpha, beta, gamma, beta_prime), path = _canonical_node(raw)
    fs = _left_multiply(_path_witness(raw, path), fs)

    form = CanonicalForm(
        a=min(a, 1.0),
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        beta_prime=beta_prime,
        omega=omega,
        witness=LocalUnitary(tuple(fs)),
        max_entangled_convention=bool(max_entangled),
        omega_case=case,
    )
    check("E1 interval cross-check", max(tm.e_c23 - form.e1, form.e1 - tm.e_ca23), _TOL_INTERVAL)
    return form
