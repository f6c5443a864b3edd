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
    InternalCheckFailed,
    LocalUnitary,
    PureState,
    check,
    genuine_rows,
    marginal_spectra,
    scalar_pow,
)
from .bipartite import SchmidtSplit, TauMatrix, schmidt_split, tangle, tau_matrix
from .canonical import CanonicalForm, decompose_split
from .tolerances import (
    TOL_CLU,
    TOL_INV,
    TOL_J6,
    TOL_TANGLE,
    _NCLU_GAP,
    _NCLU_POLY,
    _NCLU_REALITY,
    _PINNED_OVERLAP,
    _TOL_J6_IMAG,
    _TOL_PHI,
    _TOL_POLY,
    _TOL_PURITY_TANGLE,
    _TOL_REALITY,
    _TOL_ROOT,
    _TOL_ROOT_RANK,
    _TOL_ZERO,
)


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
    admissible = (sv[..., 1] <= _TOL_ROOT_RANK) & (phi <= np.pi + _TOL_PHI)
    admissible[:, 1] &= second_exists
    phi = np.minimum(np.maximum(phi, 0.0), np.pi)
    lambdas = np.concatenate([sv[..., :1], mags[..., 1:]], axis=-1)

    missing = ~admissible.any(axis=1)
    if missing.any():
        row = np.flatnonzero(missing)[0]
        raise InternalCheckFailed(f"row {row}: admissible standard-form root", missing.sum(), 0)
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
    check(f"row {worst}: purity/tangle cross-check", resid[worst], _TOL_PURITY_TANGLE)


def acin_standard_form(state: PureState) -> AcinForm:
    """Standard form of a genuinely tripartite state: ``standard_forms`` on one row."""
    return _acin_form(standard_forms(state.tensor()))


def _acin_form(forms: StandardForms) -> AcinForm:
    """The ``AcinForm`` of a batch of one, with the witness of its chosen root."""
    witness = LocalUnitary(tuple(ph @ rot for rot, ph in zip(forms.rotation[0], forms.phases[0])))
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


@dataclass(frozen=True)
class StateAnalysis:
    """Every stage, CLU criterion and label of one state, built by ``analyze``.

    Stages: the 1|23 ``split``, its ``tau`` matrix, the canonical ``form``, the
    ``standard_form`` and its ``invariants``.  Numbers: ``gap_min`` and
    ``gap_max``, the distances of E1 from E(C23) and E(Ca23); the ``tangle``;
    ``res_eq23`` and ``res_eq24``, the residuals of the two polynomial CLU
    conditions; and Im ctilde^2.  Criteria: ``structural`` (a degenerate split
    or a vanishing overlap) and the outcomes of the four CLU tests: E1 at an
    end of the interval (``extremal``), a real ctilde^2 (``reality``), a
    vanishing polynomial residual (``polynomial``) and a real J6 (``j6_real``).
    """

    split: SchmidtSplit
    tau: TauMatrix
    form: CanonicalForm
    standard_form: AcinForm
    invariants: InvariantSet
    gap_min: float
    gap_max: float
    tangle: float
    res_eq23: float
    res_eq24: float
    im_ctilde_sq: float
    structural: bool
    extremal: bool
    reality: bool
    polynomial: bool
    j6_real: bool
    label: ClassLabel

    @property
    def clu(self) -> bool:
        return self.label.clu


def analyze(state: PureState) -> StateAnalysis:
    """The one pass over a state: each stage computed once, then every CLU
    criterion, the verdict and the subclass.

    The verdict combines the reality of the Grassl-type invariant J6 with the
    structural criterion, whose phase freedom always permits a real cross
    overlap.  The extremality, overlap-reality and polynomial criteria are
    mandatory cross-checks: a decisive contradiction raises
    ``InternalCheckFailed``, not a fallback, and so does a class-2 state off
    the maximal branch or a class-3 state off the minimal one.

    Subclasses: vanishing tangle is the W class; a vanishing J6 (at nonzero
    tangle) is class 4, positive real part class 2, negative class 3.
    """
    split = schmidt_split(state)
    tm = tau_matrix(split)
    form = decompose_split(split, tm)
    forms = standard_forms(state.tensor())
    inv = forms.invariants.item(0)
    gap_min = abs(form.e1 - tm.e_c23)
    gap_max = abs(form.e1 - tm.e_ca23)
    tau3 = tangle(tm)

    ct_sq = tm.ctilde**2
    # Quantities built from the 1|23 eigenbasis are only reliable above the
    # Schmidt-gap noise floor; the zero detections sit at ``tm.zero`` so that
    # exactly-CLU states with nearly degenerate splittings stay CLU.
    structural = split.degenerate or min(tm.c0, tm.c1, abs(tm.ctilde)) <= tm.zero
    res23 = abs(abs(inv.j5) - 2 * np.sqrt(max(inv.j1 * inv.j2 * inv.j3, 0.0)))
    res24 = abs(
        (inv.j4 + inv.j5) ** 2
        - 4 * (inv.j1 + inv.j4) * (inv.j2 + inv.j4) * (inv.j3 + inv.j4)
    )
    j6_real = abs(inv.j6.imag) <= _TOL_J6_IMAG

    clu = structural or j6_real
    if structural:
        check("structural CLU vs Im J6 check", abs(inv.j6.imag), _TOL_J6_IMAG)
    if clu:
        check("CLU vs extremality gap check", min(gap_min, gap_max), _NCLU_GAP)
        check("CLU vs polynomial residual check", min(res23, res24), _NCLU_POLY)
        if not split.degenerate and min(tm.c0, tm.c1, abs(tm.ctilde)) >= _PINNED_OVERLAP:
            check("CLU vs cross-overlap reality check", abs(ct_sq.imag), _NCLU_REALITY)

    if not clu:
        sub = StateClass.NCLU
    elif tau3 <= TOL_TANGLE:
        sub = StateClass.CLASS1_W
    elif abs(inv.j6) <= TOL_J6:
        sub = StateClass.CLASS4
    elif inv.j6.real > 0:
        sub = StateClass.CLASS2
        check("class-2 maximal-branch check", gap_max, TOL_CLU)
    else:
        sub = StateClass.CLASS3
        check("class-3 minimal-branch check", gap_min, TOL_CLU)

    return StateAnalysis(
        split=split,
        tau=tm,
        form=form,
        standard_form=_acin_form(forms),
        invariants=inv,
        gap_min=gap_min,
        gap_max=gap_max,
        tangle=tau3,
        res_eq23=float(res23),
        res_eq24=float(res24),
        im_ctilde_sq=float(ct_sq.imag),
        structural=structural,
        extremal=min(gap_min, gap_max) <= TOL_CLU,
        reality=structural or abs(ct_sq.imag) <= _TOL_REALITY + tm.zero,
        polynomial=res23 <= _TOL_POLY or res24 <= _TOL_POLY,
        j6_real=j6_real,
        label=ClassLabel(clu=clu, subclass=sub),
    )


def classify(state: PureState) -> ClassLabel:
    """CLU/NCLU verdict plus the CLU subclass (see ``analyze``)."""
    return analyze(state).label


def _det_tau_realified(tm: TauMatrix) -> float:
    """det of tau after the sign redefinitions that make it real.

    For a real or purely imaginary ctilde the realification flips the sign
    of one diagonal overlap when needed; when an overlap vanishes its phase
    is free and ctilde is rotated real directly.
    """
    p, c0, c1, ct = tm.p, tm.c0, tm.c1, tm.ctilde
    pp = p * (1 - p)
    if abs(ct) <= tm.zero:
        return pp * c0 * c1
    if c0 <= tm.zero or c1 <= tm.zero:
        return pp * (c0 * c1 - abs(ct) ** 2)
    ct_sq = ct**2
    if ct_sq.real >= 0:
        return pp * (c0 * c1 - abs(ct_sq))
    return pp * (-c0 * c1 - abs(ct_sq))


def det_tau_sign(analysis: StateAnalysis) -> tuple[int, bool]:
    """Sign of det tau after making tau real, and whether it is well defined.

    The sign is ill-defined exactly when some eigenbasis choice makes the
    cross overlap ctilde vanish: a degenerate splitting, ctilde = 0
    directly, or a vanishing Grassl-type invariant at nonzero tangle.
    """
    if not analysis.clu:
        raise NotCLU("det tau sign is defined for CLU states only")
    tm = analysis.tau
    well_defined = not (
        analysis.split.degenerate
        or abs(tm.ctilde) <= tm.zero
        or (abs(analysis.invariants.j6) <= TOL_J6 and analysis.tangle > TOL_TANGLE)
    )
    det_r = _det_tau_realified(tm)
    if abs(det_r) <= TOL_TANGLE / 4:
        return 0, well_defined
    return (1 if det_r > 0 else -1), well_defined


def realified_det_tau(analysis: StateAnalysis) -> float:
    """det of the realified tau matrix (the quantity whose sign classifies)."""
    if not analysis.clu:
        raise NotCLU("realified tau is defined for CLU states only")
    return _det_tau_realified(analysis.tau)


def lu_equivalent(s1: PureState, s2: PureState) -> tuple[bool, bool]:
    """(equal, conjugate_pair) from the invariants of one ``standard_forms`` call on both."""
    inv = standard_forms(np.stack([s1.tensor(), s2.tensor()])).invariants
    equal, conj_pair = invariants_equivalent(inv[0], inv[1])
    return bool(equal), bool(conj_pair)


def invariants_equivalent(inv1: InvariantSet, inv2: InvariantSet) -> tuple:
    """(equal, conjugate_pair): the invariant sets match, or, when they do not,
    match up to conjugating J6.  A state and its conjugate set exactly one flag.

    Broadcasts over batches: two batches give boolean arrays of their
    broadcast shape.
    """
    reals_match = (np.abs(inv1.reals - inv2.reals) <= TOL_INV).all(axis=-1)
    equal = reals_match & (np.abs(inv1.j6 - inv2.j6) <= TOL_INV)
    conj_pair = reals_match & ~equal & (np.abs(inv1.j6 - np.conj(inv2.j6)) <= TOL_INV)
    return equal, conj_pair
