"""Operational entanglement measures E1..E6 of the two-branch decomposition.

All measures are stored as entropies in [0, 1]; every rank-2 reduction has
eigenvalues (1 +- |ov|)/2 for some overlap ov, so E = h((1 + |ov|)/2).
E6 is the binary measure separating the two generation-process states that
agree on E1..E5.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .qcore import BELL_BASIS, PAULI_I, PAULIS, PureState, check, density_spectra, entropies, normalized_rows
from .bipartite import (
    binary_entropy,
    binary_entropy_inverse_upper,
    eof_inverse,
)
from .canonical import (
    CanonicalForm,
    _kron,
    _require_canonical_range,
    _two_branch_rows,
    branch_unitaries,
    canonical_representatives,
    form_from_params,
)
from .tolerances import (
    TOL_E6,
    TOL_MAXENT,
    _BAND_NEAR_MAXENT,
    _DEDUP_DECIMALS,
    _TOL_BETA_EDGE,
    _TOL_MATCH,
    _TOL_MATCH_NEAR_MAXENT,
    _TOL_XCHECK,
)

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
        return {f.name.upper(): getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class SPsiSet:
    """The four states closed under the Bell-measurement generation process.

    members[0] is the state itself, members[1] the conjugate of the partner,
    members[2] the conjugate state and members[3] the partner obtained by
    flipping the sign of beta.
    """

    members: tuple


def _rank2_entropy(overlap_mag: float) -> float:
    return binary_entropy(0.5 * (1 + min(overlap_mag, 1.0)))


# (sigma_n x 1): the branch of family member n is _FLIPS[n] psi_s, and E4's is psi_s.
_FLIPS = np.array([np.kron(sigma, PAULI_I) for sigma in (*PAULIS, PAULI_I)])
_BELL_OUTER = np.outer(BELL_BASIS[0], BELL_BASIS[0].conj())


def _rows(form: CanonicalForm, u2: np.ndarray, u3: np.ndarray) -> np.ndarray:
    """The (6, 8) amplitudes of the states whose 1|23 entropies are measured,
    after ``reconstruct_state``'s range check and with ``PureState``'s norm rule.

    Rows 0-3 are the ``s_psi_set`` members.  Row 4 is E4's forward gain state,
    (|0>|psi_s> + |1>(U2 x 1)|psi_s>) / sqrt(2); row 5 E5's backward one, where
    qubit 2 controls U2 on qubit 1 of |+>|psi_s>: a |+>|00> + b (U2|+>)|11>.
    """
    _require_canonical_range(form)
    a, b = form.a, form.b
    gates = np.array([_kron(u2, u3), _kron(u2, PAULI_I)])[[0, 0, 0, 0, 1]]
    amps = np.zeros((6, 8), dtype=complex)
    amps[:5] = _two_branch_rows(_FLIPS @ np.array([a, 0, 0, b], dtype=complex), gates)
    amps[5, [0b000, 0b100]] += a * _PLUS
    amps[5, [0b011, 0b111]] += b * (u2 @ _PLUS)
    return normalized_rows(amps)


def _measures(form: CanonicalForm) -> tuple[list, list]:
    """(E2, E3) and the 1|23 entropies of the six ``_rows``, from one stacked reduction.

    E2 and E3 are the entropies of the Choi-Jamiolkowski mixtures of the Bell
    state with its images under U2 and U3, checked against their closed
    trigonometric overlaps; E4 and E5 are checked through their reduced
    purities, and E_{1|23} (row 0) against ``splitting_overlap_sq``."""
    u2, u3 = branch_unitaries(*form.params)
    m = _rows(form, u2, u3).reshape(6, 2, 4)
    rho = m @ m.conj().swapaxes(-1, -2)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    entropies_1_23 = entropies(density_spectra(rho)).tolist()

    a, b = form.a, form.b
    al, be, ga, bp = form.params
    # (u x 1)|phi+> has the amplitudes u_ij / sqrt(2).
    rotated = np.stack([u2, u3]).reshape(2, 4) * BELL_BASIS[0][0]
    mixtures = 0.5 * (_BELL_OUTER + rotated[:, :, None] * rotated.conj()[:, None, :])
    gate_costs = entropies(np.linalg.eigvalsh(mixtures)).tolist()
    for val, ov_trig in zip(gate_costs, (np.cos(be) * np.cos(al + ga), np.cos(bp))):
        check("gate-cost cross-check", abs(val - _rank2_entropy(abs(ov_trig))), _TOL_XCHECK)

    ov4_sq = np.cos(be) ** 2 * ((a**2 - b**2) ** 2 + 4 * a**2 * b**2 * np.cos(al + ga) ** 2)
    pur5 = a**4 + b**4 + 2 * a**2 * b**2 * (
        np.cos(al + ga) ** 2 * np.cos(be) ** 2 + np.sin(al - ga) ** 2 * np.sin(be) ** 2
    )
    purities = np.trace(rho[4:] @ rho[4:], axis1=-2, axis2=-1).real
    for purity, expected in zip(purities.tolist(), (0.5 * (1 + ov4_sq), pur5)):
        check("gain cross-check", abs(purity - expected), _TOL_XCHECK)

    splitting = _rank2_entropy(np.sqrt(max(splitting_overlap_sq(a, al, be, ga, bp), 0.0)))
    check("splitting cross-check", abs(entropies_1_23[0] - splitting), _TOL_XCHECK)
    return gate_costs, entropies_1_23


def s_psi_set(form: CanonicalForm) -> SPsiSet:
    """The four generation-process states U_c13 U_c12 (sigma_n on qubit 2)|+>|psi_s>.

    Member n is the two-branch state of the branch (sigma_n x 1)|psi_s>; member 0
    is ``reconstruct_state(form)``, whose range check raises ValueError.
    """
    rows = _rows(form, *branch_unitaries(*form.params))
    return SPsiSet(tuple(PureState(3, row) for row in rows[:4]))


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


def _e6_from(values) -> int:
    """E6 from the family entropies ``values`` (member 0 first)."""
    lo, hi = min(values), max(values)
    if hi - lo <= TOL_E6:
        return 0
    return 0 if values[0] <= lo + TOL_E6 else 1


def e6(form: CanonicalForm) -> int:
    """0 when the state's E_{1|23} is minimal inside its generation set, else 1.

    When the whole set is degenerate (the state and its partner are
    LU-equivalent) the convention is 0.
    """
    return _e6_from(_measures(form)[1][:4])


def measure_set(form: CanonicalForm) -> MeasureSet:
    """All measures of one canonical form, from one ``_measures`` pass.

    E6 compares the entropies of the four generation-family states, and
    E_{1|23} is member 0's.  An out-of-range form raises ValueError.
    """
    (v2, v3), entropies_1_23 = _measures(form)
    return MeasureSet(
        e1=form.e1,
        e2=v2,
        e3=v3,
        e4=entropies_1_23[4],
        e5=entropies_1_23[5],
        e6=_e6_from(entropies_1_23[:4]),
        e_1_23=entropies_1_23[0],
    )


def _overlap_from_entropy(value: float) -> float:
    """|ov| of a rank-2 reduction whose entropy is ``value``."""
    return min(max(2 * binary_entropy_inverse_upper(value) - 1, 0.0), 1.0)


def _images(x: float) -> tuple:
    """The four angles sharing |cos| and |sin| with ``x`` in [0, pi/2]."""
    return x, -x, np.pi - x, x - np.pi


def invert_measures(ms: MeasureSet) -> list[CanonicalForm]:
    """Canonical-form candidates reproducing an internally consistent measure set.

    The measures fix a state only up to local unitaries and complex
    conjugation, so the candidates may hold both a source form and its
    conjugate's.  At most four candidates survive.

    The raw candidates pair each of the four ``sums`` alpha + gamma that share
    |cos(alpha + gamma)| with each of the four ``diffs`` alpha - gamma that
    share |sin(alpha - gamma)|.  Within ``_TOL_BETA_EDGE`` of beta = pi/2 (on
    cos^2 beta) only alpha - gamma is physical and ``sums`` is (0,); within it
    of beta = 0 (on sin^2 beta) only alpha + gamma is, and ``diffs`` is (0,).
    Either way beta is put exactly on the edge.

    When a = b within tolerance only e1, e2 and e5 are independent, and the
    single degenerate candidate is returned (recognizable by its
    max_entangled_convention flag).  Close to equal Schmidt weights the split
    between the rotation angle of the controlled gate and its phases is
    identifiable only to O(a - b); within ``_BAND_NEAR_MAXENT`` of a^2 = b^2 the
    acceptance filter widens from ``_TOL_MATCH`` to ``_TOL_MATCH_NEAR_MAXENT``.

    A candidate outside the canonical range is skipped; a failed internal
    cross-check propagates.  Raises InconsistentMeasures when no candidate
    reproduces ``ms``.
    """
    cs = eof_inverse(ms.e1)
    a_sq = 0.5 * (1 + np.sqrt(max(1 - cs * cs, 0.0)))
    a = float(np.sqrt(a_sq))
    b = float(np.sqrt(max(1 - a_sq, 0.0)))
    tol_match = _TOL_MATCH_NEAR_MAXENT if 0 < abs(2 * a_sq - 1) <= _BAND_NEAR_MAXENT else _TOL_MATCH

    if a - b <= TOL_MAXENT:
        theta = float(np.arccos(_overlap_from_entropy(ms.e2)))
        raws = [(theta, 0.0, 0.0, 0.0)]
    else:
        beta_prime = float(np.arccos(_overlap_from_entropy(ms.e3)))
        v2 = _overlap_from_entropy(ms.e2) ** 2
        ov4_sq = _overlap_from_entropy(ms.e4) ** 2
        cos2_beta = (ov4_sq - 4 * a_sq * (1 - a_sq) * v2) / (2 * a_sq - 1) ** 2
        cos2_beta = min(max(cos2_beta, 0.0), 1.0)
        r5 = _overlap_from_entropy(ms.e5)
        kappa_sq = 1 - (1 - r5 * r5) / (4 * a_sq * (1 - a_sq))
        kappa_sq = min(max(kappa_sq, 0.0), 1.0)
        if cos2_beta > _TOL_BETA_EDGE:
            cos2_sum = min(max(v2 / cos2_beta, 0.0), 1.0)
            sums = _images(float(np.arccos(np.sqrt(cos2_sum))))
        else:
            # beta = pi/2: only alpha - gamma is physical.
            cos2_beta = cos2_sum = 0.0
            sums = (0.0,)
        beta = float(np.arccos(np.sqrt(cos2_beta)))
        sin2_beta = 1 - cos2_beta
        if sin2_beta > _TOL_BETA_EDGE:
            sin2_diff = min(max((kappa_sq - cos2_sum * cos2_beta) / sin2_beta, 0.0), 1.0)
            diffs = _images(float(np.arcsin(np.sqrt(sin2_diff))))
        else:
            # beta = 0: only alpha + gamma is physical.
            beta, diffs = 0.0, (0.0,)
        raws = [((s + d) / 2, beta, (s - d) / 2, beta_prime) for s in sums for d in diffs]

    seen = set()
    result = []
    for params in canonical_representatives(raws):
        key = tuple(np.round(params, _DEDUP_DECIMALS))
        if key in seen:
            continue
        seen.add(key)
        form = form_from_params(a, *params)
        try:
            got = measure_set(form)
        except ValueError:
            continue
        resid = max(abs(getattr(got, f.name) - getattr(ms, f.name)) for f in fields(MeasureSet))
        if resid <= tol_match:
            result.append(form)
    if not result:
        raise InconsistentMeasures("no canonical form reproduces the measure set")
    return result[:4]
