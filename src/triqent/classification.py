"""Standard form, polynomial invariants, and the entanglement classification.

A state is CLU when it is local-unitary equivalent to its complex
conjugate; CLU states split into four subclasses according to which
extremum of the assisted-entanglement interval the branch entanglement E1
attains.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .qcore import (
    BiseparableInput,
    LocalUnitary,
    PureState,
    genuine_rows,
    marginal_spectra,
    scalar_pow,
)
from .bipartite import (
    concurrence_pair,
    eof,
    schmidt_noise_floor,
    schmidt_split,
    tangle,
    tau_matrix,
)
from .canonical import decompose_split

TOL_TANGLE = 1e-9
TOL_J6 = 1e-9
TOL_INV = 1e-8
_TOL_ROOT = 1e-12
_TOL_ZERO = 1e-10
# A root's phi (taken in (-pi, pi]) within this of [0, pi] is moved into it.
_TOL_PHI = 1e-9
_TOL_PURITY_TANGLE = 1e-10
# The four CLU criteria scale with different powers of the distance to the
# CLU manifold; each carries its own calibrated threshold.  Exact CLU inputs
# sit below 1e-13 on every test; random NCLU samples were never observed
# under 1e-8 on the extremality gap, 1e-9 on the polynomial residuals or
# 1e-7 on the invariant imaginary part.
TOL_CLU = 1e-10
_TOL_REALITY = 1e-10
_TOL_POLY = 1e-11
_TOL_J6_IMAG = 1e-11


class NotCLU(ValueError):
    """Operation defined only for states LU-equivalent to their conjugate."""


class StateClass(str, Enum):
    CLASS1_W = "Class1_W"
    CLASS2 = "Class2"
    CLASS3 = "Class3"
    CLASS4 = "Class4"
    NCLU = "NCLU"


@dataclass(frozen=True)
class AcinForm:
    """Standard form lambda0|000> + lambda1 e^{i phi}|100> + lambda2|101>
    + lambda3|110> + lambda4|111> with lambda_i >= 0 and phi in [0, pi]."""

    lambdas: tuple
    phi: float
    witness: LocalUnitary

    @property
    def lambda0(self) -> float:
        return self.lambdas[0]

    def amplitudes(self) -> np.ndarray:
        l0, l1, l2, l3, l4 = self.lambdas
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = l0
        amps[0b100] = l1 * np.exp(1j * self.phi)
        amps[0b101] = l2
        amps[0b110] = l3
        amps[0b111] = l4
        return amps

    def state(self) -> PureState:
        return PureState(3, self.amplitudes())


@dataclass(frozen=True)
class InvariantSet:
    """Polynomial local-unitary invariants of the standard form.

    The fields are scalars for one state, or arrays of one shape for a batch.
    """

    j1: float
    j2: float
    j3: float
    j4: float
    j5: float
    j6: complex
    sigma_plus: float
    sigma_minus: float

    @property
    def reals(self) -> np.ndarray:
        """J1..J5 stacked on a last axis."""
        return np.stack((self.j1, self.j2, self.j3, self.j4, self.j5), axis=-1)

    def __getitem__(self, index) -> "InvariantSet":
        """The invariant sets at ``index`` of a batch."""
        return InvariantSet(*(np.asarray(getattr(self, f.name))[index] for f in fields(self)))

    def item(self, *index) -> "InvariantSet":
        """One invariant set of a batch (no index for a single one), as Python scalars."""
        return InvariantSet(*(value.item(*index) for value in vars(self).values()))


@dataclass(frozen=True)
class StandardForms:
    """Standard forms of a batch of states, row by row (see ``AcinForm``).

    ``rotation`` holds the chosen root's qubit-1 rotation and the two
    singular-vector rotations, ``phases`` the three phase diagonals, each
    (N, 3, 2, 2); the witness applies the rotations, then the phases.
    """

    lambdas: np.ndarray
    phi: np.ndarray
    rotation: np.ndarray
    phases: np.ndarray
    invariants: InvariantSet


@dataclass(frozen=True)
class ClassLabel:
    clu: bool
    subclass: StateClass
    evidence: dict


def _cmul(a, b) -> np.ndarray:
    """Complex product with each real product rounded on its own, as scalar
    arithmetic does it (NumPy's array multiply may fuse them)."""
    out = np.empty_like(a)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _modulus(z) -> np.ndarray:
    """|z|, rounded as scalar complex abs rounds it."""
    return np.hypot(z.real, z.imag)


# Column k marks the J's among J1..J4 that involve qubit k + 1.
_QUBIT_JS = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]])

# Candidate qubit-1 rows per root case; the finite roots are filled in.
_CASE_ROWS = np.array(
    [
        [[1, 0], [1, 0]],  # two roots
        [[1, 0], [0, 1]],  # one finite root and the root at infinity
        [[0, 1], [0, 1]],  # double root at infinity: the second row is absent
        [[1, 0], [0, 1]],  # fully degenerate: every combination is singular
    ],
    dtype=complex,
)


def _candidate_rows(det0, det1, mixed, hyperdet):
    """The two candidate qubit-1 rows of each state, and whether the second exists.

    The rotation annihilating det(T0) solves det1 r^2 + mixed r + det0 = 0;
    the first of det1, mixed and det0 above ``_TOL_ROOT`` sets the case.
    """
    big = _modulus(np.array([det1, mixed, det0])) > _TOL_ROOT
    case = np.where(big[0], 0, np.where(big[1], 1, np.where(big[2], 2, 3)))
    rows = _CASE_ROWS[case]
    quad, lin = case == 0, case == 1
    neg_mixed, disc = -mixed[quad], np.sqrt(hyperdet[quad] + 0j)
    rows[quad, :, 1] = np.array([neg_mixed + disc, neg_mixed - disc]).T / (2 * det1[quad, None])
    rows[lin, 0, 1] = -det0[lin] / mixed[lin]
    return rows, case != 2


def _phase_diagonals(present, angle):
    """Phase diagonals and raw phi of each candidate.

    ``present`` and ``angle`` hold, on the last axis, whether T0'00, T1'00,
    T1'01, T1'10 and T1'11 exceed ``_TOL_ZERO`` and their phases.  Only phi
    stays once the phase freedom is spent; a missing amplitude has no phase,
    and with any of lambda2..lambda4 missing phi is put to 0.
    """
    p0, p1, p2, p3, p4 = (present[..., k] for k in range(5))
    q1, q2, q3, q4 = (angle[..., k] for k in range(1, 5))
    full = p2 & p3 & p4
    x = np.where(full, q4 - q2 - q3, np.where(p1, -q1, 0.0))
    phi = np.where(full & p1, np.angle(np.exp(1j * (q1 + x))), 0.0)
    rest = -angle - x[..., None]  # -q_k - x for every k
    y0 = np.where(p3, rest[..., 3], 0.0)
    z0 = np.where(p2, rest[..., 2], 0.0)
    y = np.where(p2 & ~p3 & p4, rest[..., 4] - z0, y0)
    z = np.where(~p2 & p4, rest[..., 4] - y0, z0)
    diag = np.exp(1j * np.array([np.where(p0, -angle[..., 0], 0.0), x, y, z]))
    phases = np.zeros(phi.shape + (3, 2, 2), dtype=complex)
    phases[..., :, 0, 0] = 1
    phases[..., 0, 0, 0] = diag[0]
    for k in range(3):
        phases[..., k, 1, 1] = diag[k + 1]
    return phases, phi


def standard_forms(tensors) -> StandardForms:
    """Standard forms and J invariants of normalised (N, 2, 2, 2) amplitude tensors.

    Each state's qubit-1 rotation annihilating det(T0) is a root of a
    quadratic; both candidate rows of every state are worked through at
    once.  Among the admissible roots (phi in [0, pi] up to ``_TOL_PHI``)
    the one with larger lambda0 is chosen, ties broken by smaller phi, then
    by the first root.  J1..J4 are cross-checked against the single-qubit
    purities and the 3-tangle of the input.  Raises ``BiseparableInput``
    naming the first biseparable row.
    """
    t = np.asarray(tensors, dtype=complex).reshape(-1, 2, 2, 2)
    n = len(t)
    spectra = marginal_spectra(t)
    genuine = genuine_rows(spectra)
    if not genuine.all():
        row = np.flatnonzero(~genuine)[0]
        raise BiseparableInput(f"row {row}: state is biseparable across at least one cut")
    det0, det1 = np.linalg.det(t).T
    # T0[0,0] T1[1,1], T1[0,0] T0[1,1], T0[0,1] T1[1,0], T1[0,1] T0[1,0] and 4 det1 det0.
    flat = t.reshape(n, 8)
    prods = _cmul(
        np.concatenate([flat[:, [0, 4, 1, 5]], 4 * det1[:, None]], axis=1),
        np.concatenate([flat[:, [7, 3, 6, 2]], det0[:, None]], axis=1),
    )
    mixed = prods[:, 0] + prods[:, 1] - prods[:, 2] - prods[:, 3]
    # Cayley's hyperdeterminant: the discriminant of det(T0 + r T1).
    hyperdet = _cmul(mixed, mixed) - prods[:, 4]
    rows, second_exists = _candidate_rows(det0, det1, mixed, hyperdet)

    # Candidate axes from here on: (state, root, ...).
    norm = np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))
    r0 = rows / norm[..., None]
    w1 = np.empty((n, 2, 2, 2), dtype=complex)
    w1[..., 0, :] = r0
    w1[..., 1, 0] = -r0[..., 1].conj()
    w1[..., 1, 1] = r0[..., 0].conj()
    rotated = (w1 @ t.reshape(n, 1, 2, 4)).reshape(n, 2, 2, 2, 2)
    u, sv, vh = np.linalg.svd(rotated[:, :, 0])
    a2, a3 = u.conj().swapaxes(-1, -2), vh.conj()
    blocks = (a2[:, :, None] @ rotated @ a3.swapaxes(-1, -2)[:, :, None]).reshape(n, 2, 8)
    entries = blocks[..., [0, 4, 5, 6, 7]]  # T0'[0,0], then T1' row by row
    mags = _modulus(entries)
    phases, phi = _phase_diagonals(mags > _TOL_ZERO, np.arctan2(entries.imag, entries.real))
    phi = np.where(phi < -_TOL_PHI, phi + 2 * np.pi, phi)
    admissible = (sv[..., 1] <= 1e-9) & (phi <= np.pi + _TOL_PHI)
    admissible[:, 1] &= second_exists
    phi = np.minimum(np.maximum(phi, 0.0), np.pi)
    lambdas = np.concatenate([sv[..., :1], mags[..., 1:]], axis=-1)

    found = admissible.any(axis=1)
    if not found.all():
        row = np.flatnonzero(~found)[0]
        raise AssertionError(f"row {row}: no quadratic root produced a standard form")
    l0 = lambdas[..., 0]
    second = admissible[:, 1] & (
        ~admissible[:, 0]
        | (l0[:, 1] > l0[:, 0])
        | ((l0[:, 1] == l0[:, 0]) & (phi[:, 1] < phi[:, 0]))
    )
    pick = (np.arange(n), second.astype(int))
    lambdas, phi = lambdas[pick], phi[pick]
    inv = _invariants(lambdas, phi)
    _check_purities_and_tangle(spectra, hyperdet, inv)
    rotation = np.stack([w1, a2, a3], axis=2)[pick]
    return StandardForms(lambdas, phi, rotation, phases[pick], inv)


def _check_purities_and_tangle(spectra, hyperdet, inv: InvariantSet) -> None:
    """J4 = tau/4 and Tr rho_k^2 = 1 - 2 (the three J's involving qubit k).

    Neither side depends on the root choice: the purities come from the
    marginal spectra, the 3-tangle tau = 4|hyperdet| from the amplitudes.
    """
    purity = (spectra**2).sum(axis=-1)
    expected = 1 - 2 * (np.array([inv.j1, inv.j2, inv.j3, inv.j4]).T @ _QUBIT_JS)
    resid = np.maximum(np.abs(purity - expected).max(axis=-1), np.abs(inv.j4 - _modulus(hyperdet)))
    worst = int(np.argmax(resid))
    if not resid[worst] <= _TOL_PURITY_TANGLE:
        raise AssertionError(f"row {worst}: purity/tangle cross-check failed, residual {resid[worst]:.3e}")


def acin_standard_form(state: PureState) -> AcinForm:
    """Standard form of a genuinely tripartite state: ``standard_forms`` on one row."""
    return _acin_form(standard_forms(state.tensor()))


def _acin_form(forms: StandardForms) -> AcinForm:
    """The ``AcinForm`` of a batch of one, with the witness of its chosen root."""
    witness = LocalUnitary(tuple(forms.rotation[0])).then(LocalUnitary(tuple(forms.phases[0])))
    return AcinForm(lambdas=tuple(forms.lambdas[0].tolist()), phi=forms.phi.item(0), witness=witness)


def _invariants(lambdas, phi) -> InvariantSet:
    """J1..J6 and the Schmidt weights from lambdas (..., 5) and phi (...)."""
    l0, l1, l2, l3, l4 = (lambdas[..., k] for k in range(5))
    squares = scalar_pow(lambdas, 2)
    s0, s1, s2, s3, s4 = (squares[..., k] for k in range(5))
    rot = np.exp(1j * phi)
    cross = l1 * l4 * rot - l2 * l3
    j1 = scalar_pow(_modulus(cross), 2)
    j2 = s0 * s2
    j3 = s0 * s3
    j4 = s0 * s4
    j5 = s0 * (j1 + s2 * s3 - s1 * s4)
    z = l4 * (1 - 2 * s0 - 2 * s1) + 2 * l1 * l2 * l3 * rot.conj()
    j6 = scalar_pow(l0, 4) * s4 * _cmul(z, z)
    disc = np.sqrt(np.maximum(1 - 4 * (j2 + j3 + j4), 0.0))
    return InvariantSet(j1, j2, j3, j4, j5, j6, (1 + disc) / 2, (1 - disc) / 2)


def j_invariants(form: AcinForm) -> InvariantSet:
    """Polynomial invariants of the standard form, plus the Schmidt weights."""
    return _invariants(np.array(form.lambdas), np.array(form.phi)).item()


def _clu_tests(state: PureState, tol_clu: float = TOL_CLU) -> dict:
    """The one pass over a state: each stage computed once, then every CLU criterion."""
    split = schmidt_split(state)
    tm = tau_matrix(split)
    form = decompose_split(split, tm)
    c23, ca23 = concurrence_pair(tm)
    e1 = eof(form.concurrence_s())
    gap_min = abs(e1 - eof(c23))
    gap_max = abs(e1 - eof(ca23))
    forms = standard_forms(state.tensor())
    acin, inv = _acin_form(forms), forms.invariants.item(0)

    extremal = min(gap_min, gap_max) <= tol_clu
    ct_sq = tm.ctilde**2
    # Quantities built from the 1|23 eigenbasis are only reliable above the
    # Schmidt-gap noise floor; widen the zero detections accordingly so that
    # exactly-CLU states with nearly degenerate splittings stay CLU.
    zero = max(_TOL_ZERO, schmidt_noise_floor(tm.p))
    structural = (
        split.degenerate
        or tm.c0 <= zero
        or tm.c1 <= zero
        or abs(tm.ctilde) <= zero
    )
    reality = structural or abs(ct_sq.imag) <= _TOL_REALITY + zero
    res23 = abs(abs(inv.j5) - 2 * np.sqrt(max(inv.j1 * inv.j2 * inv.j3, 0.0)))
    res24 = abs(
        (inv.j4 + inv.j5) ** 2
        - 4 * (inv.j1 + inv.j4) * (inv.j2 + inv.j4) * (inv.j3 + inv.j4)
    )
    poly = res23 <= _TOL_POLY or res24 <= _TOL_POLY
    j6_real = abs(inv.j6.imag) <= _TOL_J6_IMAG

    return {
        "e1": e1,
        "gap_min": gap_min,
        "gap_max": gap_max,
        "tangle": tangle(tm),
        "extremal_test": extremal,
        "ctilde_reality_test": reality,
        "structural_clu": structural,
        "im_ctilde_sq": float(ct_sq.imag),
        "polynomial_test": poly,
        "res_eq23": float(res23),
        "res_eq24": float(res24),
        "j6": inv.j6,
        "im_j6_test": j6_real,
        "invariants": inv,
        "standard_form": acin,
        "form": form,
        "split": split,
        "tau": tm,
        "split_degenerate": split.degenerate,
    }


# Decisive bands for the cross-criteria consistency check.  The extremality
# gap and the polynomial residuals detect the distance to the CLU manifold
# only quadratically, so small values of theirs cannot certify CLU; values
# above these bands, however, are sound NCLU proofs (exactly-CLU inputs stay
# below 1e-13 on all of them).
_NCLU_GAP = 1e-6
_NCLU_POLY = 1e-7
_NCLU_REALITY = 1e-6
_PINNED_OVERLAP = 1e-4


def is_clu(state: PureState, tol_clu: float = TOL_CLU) -> tuple[bool, dict]:
    """Whether the state is LU-equivalent to its complex conjugate.

    The production decision combines the reality of the Grassl-type
    invariant with the structural criteria (degenerate splitting or a
    vanishing overlap, whose phase freedom always permits a real cross
    overlap).  The extremality, overlap-reality and polynomial criteria are
    mandatory cross-checks: a decisive contradiction is a hard error, not a
    fallback.

    The evidence dict holds each criterion's value and outcome, and the stages
    they were computed from: ``split``, ``tau``, the canonical ``form``, the
    ``standard_form`` and its ``invariants``.
    """
    ev = _clu_tests(state, tol_clu=tol_clu)
    verdict = ev["structural_clu"] or ev["im_j6_test"]
    if ev["structural_clu"] and not ev["im_j6_test"]:
        raise AssertionError(f"structural CLU proof against nonreal invariant: {ev}")
    if verdict:
        gap = min(ev["gap_min"], ev["gap_max"])
        if gap >= _NCLU_GAP:
            raise AssertionError(f"CLU verdict against extremality gap {gap}: {ev}")
        if min(ev["res_eq23"], ev["res_eq24"]) >= _NCLU_POLY:
            raise AssertionError(f"CLU verdict against polynomial residuals: {ev}")
        tm = ev["tau"]
        pinned = (
            not ev["split_degenerate"]
            and min(tm.c0, tm.c1, abs(tm.ctilde)) >= _PINNED_OVERLAP
        )
        if pinned and abs(ev["im_ctilde_sq"]) >= _NCLU_REALITY:
            raise AssertionError(f"CLU verdict against nonreal cross overlap: {ev}")
    return verdict, ev


def _det_tau_realified(tm) -> float:
    """det of tau after the sign redefinitions that make it real.

    For a real or purely imaginary ctilde the realification flips the sign
    of one diagonal overlap when needed; when an overlap vanishes its phase
    is free and ctilde is rotated real directly.
    """
    p, c0, c1, ct = tm.p, tm.c0, tm.c1, tm.ctilde
    pp = p * (1 - p)
    zero = max(_TOL_ZERO, schmidt_noise_floor(p))
    if abs(ct) <= zero:
        return pp * c0 * c1
    if c0 <= zero or c1 <= zero:
        return pp * (c0 * c1 - abs(ct) ** 2)
    ct_sq = ct**2
    if ct_sq.real >= 0:
        return pp * (c0 * c1 - abs(ct_sq))
    return pp * (-c0 * c1 - abs(ct_sq))


def det_tau_sign(state: PureState) -> tuple[int, bool]:
    """Sign of det tau after making tau real, and whether it is well defined.

    The sign is ill-defined exactly when some eigenbasis choice makes the
    cross overlap ctilde vanish: a degenerate splitting, ctilde = 0
    directly, or a vanishing Grassl-type invariant at nonzero tangle.
    """
    clu, ev = is_clu(state)
    if not clu:
        raise NotCLU("det tau sign is defined for CLU states only")
    tm = ev["tau"]
    inv = ev["invariants"]
    well_defined = not (
        ev["split_degenerate"]
        or abs(tm.ctilde) <= max(_TOL_ZERO, schmidt_noise_floor(tm.p))
        or (abs(inv.j6) <= TOL_J6 and ev["tangle"] > TOL_TANGLE)
    )
    det_r = _det_tau_realified(tm)
    if abs(det_r) <= TOL_TANGLE / 4:
        return 0, well_defined
    return (1 if det_r > 0 else -1), well_defined


def realified_det_tau(state: PureState) -> float:
    """det of the realified tau matrix (the quantity whose sign classifies)."""
    clu, ev = is_clu(state)
    if not clu:
        raise NotCLU("realified tau is defined for CLU states only")
    return _det_tau_realified(ev["tau"])


def classify(state: PureState, tol_clu: float = TOL_CLU) -> ClassLabel:
    """CLU/NCLU verdict plus the CLU subclass.

    Subclasses: vanishing tangle is the W class; a vanishing Grassl-type
    invariant (at nonzero tangle) is class 4, positive real part class 2,
    negative class 3.
    """
    return label_from_evidence(*is_clu(state, tol_clu=tol_clu))


def label_from_evidence(clu: bool, ev: dict) -> ClassLabel:
    """Subclass label from an ``is_clu`` verdict and its evidence dict.

    Class 2 states must sit on the maximal branch, class 3 on the minimal one.
    """
    inv = ev["invariants"]
    evidence = {k: ev[k] for k in ("e1", "gap_min", "gap_max", "tangle", "res_eq23", "res_eq24")}
    evidence.update(im_j6=float(inv.j6.imag), re_j6=float(inv.j6.real))
    if not clu:
        return ClassLabel(clu=False, subclass=StateClass.NCLU, evidence=evidence)
    if ev["tangle"] <= TOL_TANGLE:
        sub = StateClass.CLASS1_W
    elif abs(inv.j6) <= TOL_J6:
        sub = StateClass.CLASS4
    elif inv.j6.real > 0:
        sub = StateClass.CLASS2
    else:
        sub = StateClass.CLASS3
    if sub is StateClass.CLASS2 and ev["gap_max"] > TOL_CLU:
        raise AssertionError(f"class-2 state off the maximal branch: {evidence}")
    if sub is StateClass.CLASS3 and ev["gap_min"] > TOL_CLU:
        raise AssertionError(f"class-3 state off the minimal branch: {evidence}")
    return ClassLabel(clu=True, subclass=sub, evidence=evidence)


def lu_equivalent(s1: PureState, s2: PureState) -> tuple[bool, bool]:
    """(equal, conjugate_pair) decided through the complete invariant set."""
    equal, conj_pair = invariants_equivalent(*(j_invariants(acin_standard_form(s)) for s in (s1, s2)))
    return bool(equal), bool(conj_pair)


def invariants_equivalent(inv1: InvariantSet, inv2: InvariantSet) -> tuple:
    """(equal, conjugate_pair): the invariant sets match, or match up to conjugation.

    Broadcasts over batches: two batches give boolean arrays of their
    broadcast shape.
    """
    reals_match = (np.abs(inv1.reals - inv2.reals) <= TOL_INV).all(axis=-1)
    equal = reals_match & (np.abs(inv1.j6 - inv2.j6) <= TOL_INV)
    conj_pair = (
        reals_match
        & ~equal
        & (np.abs(inv1.j6 - np.conj(inv2.j6)) <= TOL_INV)
        & (np.abs(np.imag(inv1.j6)) > TOL_INV)
    )
    return equal, conj_pair
