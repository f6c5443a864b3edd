"""Regression coverage for numerically delicate regimes: nearly degenerate
splittings, states close to the conjugation-equivalence manifold, and
measure inversion near equal Schmidt weights."""

import numpy as np
import pytest

from triqent import qcore
from triqent.canonical import canonical_decomposition, form_from_params, reconstruct_state
from triqent.classification import StateClass, analyze, classify
from triqent.measures import invert_measures, measure_set
from triqent.qcore import PureState, apply_local, random_local_unitary

from conftest import states_close


def weighted_ghz(p: float) -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0] = np.sqrt(p)
    amps[7] = np.sqrt(1 - p)
    return PureState(3, amps)


class TestNearDegenerateSplitting:
    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
    def test_dressed_weighted_ghz_stays_class4(self, eps):
        state = weighted_ghz(0.5 + eps)
        for seed in (1, 2, 3):
            dressed = apply_local(state, random_local_unitary(3, seed))
            label = classify(dressed)
            assert label.clu
            assert label.subclass is StateClass.CLASS4

    def test_away_from_degeneracy_becomes_class2(self):
        # Unequal weights make the invariant strictly positive real.
        label = classify(weighted_ghz(0.5 + 1e-3))
        assert label.subclass is StateClass.CLASS2

    @pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6])
    def test_decomposition_well_behaved(self, eps):
        state = apply_local(weighted_ghz(0.5 + eps), random_local_unitary(3, 4))
        form = canonical_decomposition(state)
        rec = reconstruct_state(form)
        rot = apply_local(state, form.witness)
        assert states_close(rot, rec, atol=1e-8, up_to_phase=True)
        assert abs(measure_set(form).e1 - 1) < 1e-6


class TestManifoldShell:
    def test_no_hard_errors_and_honest_verdicts(self):
        # States a small distance from the conjugation-equivalence manifold
        # must classify without tripping the consistency check.
        rng = np.random.default_rng(5)
        seen = set()
        for trial in range(60):
            lams = rng.uniform(0.2, 1, 5)
            lams[1] = 10 ** rng.uniform(-9, -3)
            lams /= np.linalg.norm(lams)
            phi = rng.uniform(0.2, np.pi - 0.2)
            amps = np.zeros(8, dtype=complex)
            amps[0b000] = lams[0]
            amps[0b100] = lams[1] * np.exp(1j * phi)
            amps[0b101] = lams[2]
            amps[0b110] = lams[3]
            amps[0b111] = lams[4]
            state = apply_local(
                PureState(3, amps), random_local_unitary(3, 100 + trial)
            )
            if not qcore.genuine_tripartite(state):
                continue
            seen.add(classify(state).subclass)
        assert StateClass.NCLU in seen  # far side of the detection boundary
        assert seen <= {StateClass.NCLU, StateClass.CLASS2, StateClass.CLASS4}

    def test_exact_manifold_members_are_clu(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            lams = rng.uniform(0.2, 1, 5)
            lams[1] = 0.0
            lams /= np.linalg.norm(lams)
            amps = np.zeros(8, dtype=complex)
            amps[0b000] = lams[0]
            amps[0b101] = lams[2]
            amps[0b110] = lams[3]
            amps[0b111] = lams[4]
            state = apply_local(
                PureState(3, amps), random_local_unitary(3, 500 + trial)
            )
            if not qcore.genuine_tripartite(state):
                continue
            assert analyze(state).clu


class TestFoldedGaugeFamilies:
    @pytest.mark.parametrize("beta", [0.0, np.pi / 2])
    def test_witness_exact_when_angles_fold(self, beta):
        # At beta = 0 (pi/2) only alpha+gamma (alpha-gamma) is physical; the
        # folding may wrap by pi, which must show up as a qubit-1 sign in the
        # witness, not as a silent branch flip.
        worst = 0.0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            alpha = rng.uniform(-np.pi / 2, np.pi / 2)
            a = float(np.sqrt(rng.uniform(0.55, 0.95)))
            base = form_from_params(a, alpha, beta, 0.0, rng.uniform(0, np.pi / 2))
            state = apply_local(
                reconstruct_state(base), random_local_unitary(3, 7 * seed + 3)
            )
            form = canonical_decomposition(state)
            rec = reconstruct_state(form)
            rot = apply_local(state, form.witness)
            worst = max(worst, 1 - abs(np.vdot(rot.amplitudes, rec.amplitudes)))
            assert abs(form.beta - beta) < 1e-8
        assert worst < 1e-9


class TestNearMaxEntInversion:
    def test_candidates_returned_within_identifiability_limit(self):
        form = form_from_params(np.sqrt(0.5 + 1e-7), 0.4, 0.3, 0.2, 0.6)
        cands = invert_measures(measure_set(form))
        assert 1 <= len(cands) <= 4
        # the stable parameters are recovered accurately
        best = min(cands, key=lambda c: abs(c.alpha - 0.4))
        assert abs(best.beta_prime - 0.6) < 1e-6
        assert abs(best.a - form.a) < 1e-6
        assert abs(best.alpha - 0.4) < 1e-2
        assert abs(best.beta - 0.3) < 1e-2

    def test_exact_maxent_unaffected(self):
        form = form_from_params(1 / np.sqrt(2), 0.6, 0.0, 0.0, 0.0)
        cands = invert_measures(measure_set(form))
        assert len(cands) == 1
        assert cands[0].max_entangled_convention
        assert abs(cands[0].alpha - 0.6) < 1e-9
