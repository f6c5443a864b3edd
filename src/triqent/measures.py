"""Operational entanglement measures E1..E6 of the two-branch decomposition.

All measures are stored as entropies in [0, 1]; every rank-2 reduction has
eigenvalues (1 +- |ov|)/2 for some overlap ov, so E = h((1 + |ov|)/2).
E6 is the binary measure separating the two generation-process states that
agree on E1..E5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import BELL_BASIS, PAULI_I, PAULIS, PureState, entropy, partial_trace
from .bipartite import (
    binary_entropy,
    binary_entropy_inverse_upper,
    eof,
    eof_inverse,
)
from .canonical import (
    CanonicalForm,
    TOL_MAXENT,
    _two_branch,
    branch_unitaries,
    canonicalize_params,
    form_from_params,
    reconstruct_state,
)

TOL_E6 = 1e-9
_TOL_XCHECK = 1e-10
_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


class InconsistentMeasures(ValueError):
    """No canonical form reproduces the given measure set."""


@dataclass(frozen=True)
class MeasureSet:
    """The complete operational measure set of one state."""

    e1: float
    e2: float
    e3: float
    e4: float
    e5: float
    e6: int
    e_1_23: float

    def as_dict(self) -> dict:
        return {
            "E1": self.e1,
            "E2": self.e2,
            "E3": self.e3,
            "E4": self.e4,
            "E5": self.e5,
            "E6": self.e6,
            "E_1_23": self.e_1_23,
        }


@dataclass(frozen=True)
class SPsiSet:
    """The four states closed under the Bell-measurement generation process.

    members[0] is the state itself, members[1] the conjugate of the partner,
    members[2] the conjugate state and members[3] the partner obtained by
    flipping the sign of beta.
    """

    members: tuple

    @property
    def psi(self) -> PureState:
        return self.members[0]

    @property
    def psi_prime(self) -> PureState:
        return self.members[3]

    @property
    def psi_conj(self) -> PureState:
        return self.members[2]

    @property
    def psi_prime_conj(self) -> PureState:
        return self.members[1]


def _rank2_entropy(overlap_mag: float) -> float:
    return binary_entropy(0.5 * (1 + min(overlap_mag, 1.0)))


def e1(form: CanonicalForm) -> float:
    """Entanglement of the branch state psi_s."""
    return eof(form.concurrence_s())


def _cj_mixture(u: np.ndarray) -> np.ndarray:
    rotated = np.kron(u, np.eye(2)) @ BELL_BASIS[0]
    return 0.5 * (np.outer(BELL_BASIS[0], BELL_BASIS[0].conj()) + np.outer(rotated, rotated.conj()))


def e2_e3_imp(form: CanonicalForm) -> tuple[float, float]:
    """Implementation cost of the two controlled gates.

    Entropy of the mixture of the Bell state with its gate-rotated image,
    cross-checked against the closed trigonometric overlap.
    """
    u2, u3 = branch_unitaries(form.alpha, form.beta, form.gamma, form.beta_prime)
    values = []
    for u, ov_trig in (
        (u2, np.cos(form.beta) * np.cos(form.alpha + form.gamma)),
        (u3, np.cos(form.beta_prime)),
    ):
        ev = np.linalg.eigvalsh(_cj_mixture(u))
        val = float(-(ev[ev > 1e-300] * np.log2(ev[ev > 1e-300])).sum())
        trig = _rank2_entropy(abs(ov_trig))
        if abs(val - trig) > _TOL_XCHECK:
            raise AssertionError(f"gate-cost cross-check failed: {val} vs {trig}")
        values.append(val)
    return values[0], values[1]


def _gain_backward_state(a: float, b: float, u2: np.ndarray) -> PureState:
    """Reversed control (qubit 2 controls U2 on qubit 1) applied to |+>|psi_s>."""
    plus2 = u2 @ _PLUS
    amps = np.zeros(8, dtype=complex)
    # a |+>_1 |00>_23 + b (U2|+>)_1 |11>_23
    for q1 in range(2):
        amps[q1 * 4 + 0b00] += a * _PLUS[q1]
        amps[q1 * 4 + 0b11] += b * plus2[q1]
    return PureState(3, amps)


def e4_e5_gain(form: CanonicalForm) -> tuple[float, float]:
    """Entanglement created across 1|23 by the first controlled gate.

    e4 has qubit 1 as control, e5 has qubit 2 as control; both are computed
    from the constructed state and cross-checked against the closed
    trigonometric correspondence via the reduced-state purity.
    """
    a, b = form.a, form.b
    al, be, ga = form.alpha, form.beta, form.gamma
    u2, _ = branch_unitaries(al, be, ga, form.beta_prime)
    psi_s = np.array([a, 0, 0, b], dtype=complex)
    out = []
    ov4_sq = np.cos(be) ** 2 * (
        (a**2 - b**2) ** 2 + 4 * a**2 * b**2 * np.cos(al + ga) ** 2
    )
    pur5 = a**4 + b**4 + 2 * a**2 * b**2 * (
        np.cos(al + ga) ** 2 * np.cos(be) ** 2 + np.sin(al - ga) ** 2 * np.sin(be) ** 2
    )
    for state, purity_expected in (
        (_two_branch(psi_s, u2, PAULI_I), 0.5 * (1 + ov4_sq)),
        (_gain_backward_state(a, b, u2), pur5),
    ):
        rho1 = partial_trace(state, {1})
        if abs(rho1.purity() - purity_expected) > _TOL_XCHECK:
            raise AssertionError(
                f"gain cross-check failed: {rho1.purity()} vs {purity_expected}"
            )
        out.append(entropy(rho1))
    return out[0], out[1]


def s_psi_set(form: CanonicalForm) -> SPsiSet:
    """The four generation-process states U_c13 U_c12 (sigma_n on qubit 2)|+>|psi_s>.

    Member n is the two-branch state of the branch (sigma_n x 1)|psi_s>; member 0
    is ``reconstruct_state(form)``, whose range check raises ValueError.
    """
    u2, u3 = branch_unitaries(form.alpha, form.beta, form.gamma, form.beta_prime)
    psi_s = np.array([form.a, 0, 0, form.b], dtype=complex)
    members = [reconstruct_state(form)]
    members += [_two_branch(np.kron(sigma, PAULI_I) @ psi_s, u2, u3) for sigma in PAULIS[1:]]
    return SPsiSet(tuple(members))


def _family_entropies(form: CanonicalForm) -> list[float]:
    """E_{1|23} of each ``s_psi_set`` member, in member order."""
    return [entropy(partial_trace(m, {1})) for m in s_psi_set(form).members]


def _checked_splitting(form: CanonicalForm, val: float) -> float:
    """``val`` as E_{1|23} of ``form``'s state, after the trig cross-check."""
    ov_sq = splitting_overlap_sq(
        form.a, form.alpha, form.beta, form.gamma, form.beta_prime
    )
    trig = _rank2_entropy(np.sqrt(max(ov_sq, 0.0)))
    if abs(val - trig) > _TOL_XCHECK:
        raise AssertionError(f"splitting cross-check failed: {val} vs {trig}")
    return val


def splitting_entanglement(form: CanonicalForm) -> float:
    """E_{1|23} of the state itself, with trig cross-check."""
    return _checked_splitting(form, entropy(partial_trace(reconstruct_state(form), {1})))


def splitting_overlap_sq(a, alpha, beta, gamma, beta_prime) -> float:
    """|<psi_s| U2 x U3 |psi_s>|^2 expanded in the decomposition angles.

    The last term flips sign between the state and its generation partner.
    """
    b = np.sqrt(max(1 - a * a, 0.0))
    first = 4 * a**2 * b**2 * np.sin(beta) ** 2 * np.sin(beta_prime) ** 2 * np.cos(alpha - gamma) ** 2
    second = np.cos(beta) ** 2 * np.cos(beta_prime) ** 2 * (
        (a**2 - b**2) ** 2 + 4 * a**2 * b**2 * np.cos(alpha + gamma) ** 2
    )
    last = (
        4 * a * b
        * np.cos(beta) * np.cos(beta_prime) * np.sin(beta) * np.sin(beta_prime)
        * np.cos(alpha + gamma) * np.cos(alpha - gamma)
    )
    return float(first + second + last)


def _e6_from(values, tol: float) -> int:
    """E6 from the family entropies ``values`` (member 0 first)."""
    lo, hi = min(values), max(values)
    if hi - lo <= tol:
        return 0
    return 0 if values[0] <= lo + tol else 1


def e6(form: CanonicalForm, tol: float = TOL_E6) -> int:
    """0 when the state's E_{1|23} is minimal inside its generation set, else 1.

    When the whole set is degenerate (the state and its partner are
    LU-equivalent) the convention is 0.
    """
    return _e6_from(_family_entropies(form), tol)


def measure_set(form: CanonicalForm) -> MeasureSet:
    """All measures of one canonical form.

    The four generation-family states are built and their 1|23 entropies
    taken once: E6 compares all four, and E_{1|23} is member 0's entropy,
    cross-checked against ``splitting_overlap_sq``.  An out-of-range form
    raises ValueError.
    """
    v2, v3 = e2_e3_imp(form)
    v4, v5 = e4_e5_gain(form)
    family = _family_entropies(form)
    return MeasureSet(
        e1=e1(form),
        e2=v2,
        e3=v3,
        e4=v4,
        e5=v5,
        e6=_e6_from(family, TOL_E6),
        e_1_23=_checked_splitting(form, family[0]),
    )


def _overlap_from_entropy(value: float) -> float:
    """|ov| of a rank-2 reduction whose entropy is ``value``."""
    return min(max(2 * binary_entropy_inverse_upper(value) - 1, 0.0), 1.0)


def invert_measures(ms: MeasureSet, tol_match: float = 1e-6) -> list[CanonicalForm]:
    """Canonical-form candidates reproducing an internally consistent measure set.

    At most four candidates survive; when a = b within tolerance only e1, e2
    and e5 are independent and the single degenerate candidate is returned
    (recognizable by its max_entangled_convention flag).  Close to equal
    Schmidt weights the split between the rotation angle of the controlled
    gate and its phases is identifiable only to O(a - b); the acceptance
    filter widens accordingly there.

    Raises InconsistentMeasures when no candidate reproduces ``ms``.
    """
    cs = eof_inverse(ms.e1)
    a_sq = 0.5 * (1 + np.sqrt(max(1 - cs * cs, 0.0)))
    a = float(np.sqrt(a_sq))
    b = float(np.sqrt(max(1 - a_sq, 0.0)))
    if 0 < abs(2 * a_sq - 1) <= 1e-4:
        tol_match = max(tol_match, 2e-2)

    raw_candidates = []
    if a - b <= TOL_MAXENT:
        theta = float(np.arccos(_overlap_from_entropy(ms.e2)))
        raw_candidates.append((theta, 0.0, 0.0, 0.0))
    else:
        beta_prime = float(np.arccos(_overlap_from_entropy(ms.e3)))
        v2 = _overlap_from_entropy(ms.e2) ** 2
        ov4_sq = _overlap_from_entropy(ms.e4) ** 2
        cos2_beta = (ov4_sq - 4 * a_sq * (1 - a_sq) * v2) / (2 * a_sq - 1) ** 2
        cos2_beta = min(max(cos2_beta, 0.0), 1.0)
        beta = float(np.arccos(np.sqrt(cos2_beta)))
        r5 = _overlap_from_entropy(ms.e5)
        kappa_sq = 1 - (1 - r5 * r5) / (4 * a_sq * (1 - a_sq))
        kappa_sq = min(max(kappa_sq, 0.0), 1.0)
        if cos2_beta > 1e-9:
            cos2_sum = min(max(v2 / cos2_beta, 0.0), 1.0)
        else:
            cos2_sum = None
        sin2_beta = 1 - cos2_beta
        if sin2_beta > 1e-9 and cos2_sum is not None:
            sin2_diff = (kappa_sq - cos2_sum * cos2_beta) / sin2_beta
            sin2_diff = min(max(sin2_diff, 0.0), 1.0)
        else:
            sin2_diff = None

        if cos2_sum is None:
            # beta = pi/2: only alpha - gamma is physical.
            d = float(np.arcsin(np.sqrt(min(max(kappa_sq, 0.0), 1.0))))
            for dv in (d, -d, np.pi - d, d - np.pi):
                raw_candidates.append((dv, np.pi / 2, 0.0, beta_prime))
        elif sin2_diff is None:
            # beta = 0: only alpha + gamma is physical.
            s = float(np.arccos(np.sqrt(cos2_sum)))
            for sv in (s, -s, np.pi - s, s - np.pi):
                raw_candidates.append((sv, 0.0, 0.0, beta_prime))
        else:
            s = float(np.arccos(np.sqrt(cos2_sum)))
            d = float(np.arcsin(np.sqrt(sin2_diff)))
            for sv in (s, -s, np.pi - s, s - np.pi):
                for dv in (d, -d, np.pi - d, d - np.pi):
                    alpha = (sv + dv) / 2
                    gamma = (sv - dv) / 2
                    raw_candidates.append((alpha, beta, gamma, beta_prime))

    seen = set()
    result = []
    for raw in raw_candidates:
        params = canonicalize_params(raw)
        key = tuple(np.round(params, 8))
        if key in seen:
            continue
        seen.add(key)
        form = form_from_params(a, *params)
        try:
            got = measure_set(form)
        except (ValueError, AssertionError):
            continue
        resid = max(
            abs(got.e1 - ms.e1),
            abs(got.e2 - ms.e2),
            abs(got.e3 - ms.e3),
            abs(got.e4 - ms.e4),
            abs(got.e5 - ms.e5),
            abs(got.e_1_23 - ms.e_1_23),
            abs(got.e6 - ms.e6),
        )
        if resid <= tol_match:
            result.append(form)
    if not result:
        raise InconsistentMeasures("no canonical form reproduces the measure set")
    return result[:4]
