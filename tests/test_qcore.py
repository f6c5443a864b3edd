import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triqent import qcore
from triqent.qcore import (
    InternalCheckFailed,
    LocalUnitary,
    PureState,
    apply_local,
    density_spectra,
    entropies,
    genuine_tripartite,
    haar_state,
    haar_unitary,
    permute_qubits,
)

from conftest import basis, genuine_haar, reduced, states_close


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(2, np.array([1, 1, 0, 0], dtype=complex))

    def test_rejects_bad_qubit_count(self):
        with pytest.raises(ValueError):
            PureState(1, np.array([1, 0], dtype=complex))
        with pytest.raises(ValueError):
            PureState(12, np.zeros(4096, dtype=complex))

    def test_amplitudes_immutable(self, ghz):
        with pytest.raises(ValueError):
            ghz.amplitudes[0] = 0.0

    def test_qubit1_is_most_significant(self):
        # |100> must be index 4
        s = basis(3, 4)
        assert abs(s.tensor()[1, 0, 0] - 1) < 1e-15


class TestApplyLocal:
    def test_identity(self):
        s = basis(3, 0)
        out = apply_local(s, LocalUnitary.identity(3))
        assert states_close(out, s, atol=1e-14)

    def test_bit_flip_on_first_qubit(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        out = apply_local(basis(3, 0), LocalUnitary((sx, qcore.PAULI_I, qcore.PAULI_I)))
        assert states_close(out, basis(3, 0b100), atol=1e-14)

    def test_factor_count_mismatch(self, ghz):
        with pytest.raises(ValueError, match="factors"):
            apply_local(ghz, LocalUnitary.identity(2))

    def test_non_unitary_factor_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            LocalUnitary((np.array([[1, 1], [0, 1]]), qcore.PAULI_I, qcore.PAULI_I))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved(self, seed):
        state = haar_state(3, seed)
        dressed = apply_local(state, qcore.random_local_unitary(3, seed + 1))
        assert abs(np.linalg.norm(dressed.amplitudes) - 1) < 1e-12


class TestPartialTrace:
    # The package reduces 3-qubit states in two ways: ``marginal_spectra`` in
    # closed form per qubit, and ``density_spectra`` on stacked matrices.
    # ``reduced`` is the einsum oracle of the reductions themselves.
    def test_product_state(self):
        state = basis(3, 0)
        assert np.allclose(reduced(state, {1}), [[1, 0], [0, 0]], atol=1e-14)
        assert np.array_equal(qcore.marginal_spectra(state.tensor()), [[0, 1]] * 3)

    def test_ghz_marginal_maximally_mixed(self, ghz):
        assert np.allclose(reduced(ghz, {1}), np.eye(2) / 2, atol=1e-14)
        assert np.allclose(qcore.marginal_spectra(ghz.tensor()), 0.5, atol=1e-14)

    def test_w_pair_eigenvalues_match_direct_eigendecomposition(self, w):
        # Oracle: build rho_23 from explicit outer products and diagonalize.
        m = w.amplitudes.reshape(2, 4)
        rho_direct = m[0][:, None] @ m[0][None, :].conj() + m[1][:, None] @ m[1][None, :].conj()
        expected = np.linalg.eigvalsh(rho_direct)
        got = density_spectra(reduced(w, {2, 3}))
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(expected[2:], [1 / 3, 2 / 3], atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_complementary_spectra_agree(self, seed):
        state = haar_state(3, seed)
        marginals = qcore.marginal_spectra(state.tensor())
        for q in (1, 2, 3):
            assert np.allclose(marginals[q - 1], density_spectra(reduced(state, {q})), atol=1e-12)
        ev23 = density_spectra(reduced(state, {2, 3}))
        assert np.allclose(marginals[0], ev23[2:], atol=1e-10)
        assert np.all(np.abs(ev23[:2]) < 1e-10)


def reduced_entropy(state, keep) -> float:
    return float(entropies(density_spectra(reduced(state, keep))))


class TestEntropy:
    def test_pure_projector(self):
        assert reduced_entropy(basis(3, 0), {1}) == 0.0

    def test_maximally_mixed(self, ghz):
        assert abs(reduced_entropy(ghz, {1}) - 1.0) < 1e-12

    def test_two_thirds_one_third(self, w):
        # Oracle: -sum(lambda log2 lambda) evaluated directly.
        expected = -(2 / 3) * np.log2(2 / 3) - (1 / 3) * np.log2(1 / 3)
        assert abs(expected - 0.9182958340544896) < 1e-15
        assert abs(reduced_entropy(w, {1}) - expected) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_bounds_and_zero_iff_pure(self, seed):
        spectrum = density_spectra(reduced(haar_state(3, seed), {1, 2}))
        s = float(entropies(spectrum))
        assert -1e-12 <= s <= 2.0
        if s < 1e-12:
            assert spectrum[-1] >= 1 - 1e-9

    def test_reuses_the_validated_spectrum(self, monkeypatch):
        # One eigvalsh call validates a stack of reductions, and the entropies
        # are taken from that spectrum.
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m):
            calls.append(np.shape(m))
            return eigvalsh(m)

        stack = np.array([reduced(genuine_haar(8), {q}) for q in (1, 2, 3)])
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        s = entropies(density_spectra(stack))
        assert calls == [(3, 2, 2)]
        monkeypatch.undo()
        for rho, value in zip(stack, s):
            expected = eigvalsh(rho)
            assert value == -(expected * np.log2(expected)).sum()


class TestDensitySpectra:
    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0.5, 0.1], [0.0, 0.5]], "not Hermitian"),
            ([[0.5, 0.0], [0.0, 0.5 + 1e-9]], "trace is not 1"),
            ([[-1e-9, 0.0], [0.0, 1 + 1e-9]], "significantly negative eigenvalue"),
        ],
    )
    def test_rejects_invalid_matrices(self, matrix, message):
        valid = np.eye(2) / 2
        for m in (np.array(matrix), np.array([valid, matrix])):
            with pytest.raises(ValueError, match=message):
                density_spectra(m.astype(complex))

    def test_accepts_a_negative_eigenvalue_within_tolerance(self):
        spectrum = density_spectra(np.diag([-5e-11, 1 + 5e-11]).astype(complex))
        assert np.allclose(spectrum, [-5e-11, 1 + 5e-11], rtol=0, atol=1e-20)

    def test_clip_rule(self):
        clip = qcore.EIG_CLIP
        assert np.array_equal(entropies(np.array([[-clip, 0.5, 0.5], [0.0, 0.0, 1.0]])), [1.0, 0.0])
        assert entropies(np.array([-0.5 * clip, 1.0])) == 0.0
        for spectra in (np.array([-1.5 * clip, 1.0]), np.array([[0.5, 0.5], [-2 * clip, 1.0]])):
            with pytest.raises(ValueError, match="below clipping tolerance"):
                entropies(spectra)


class TestSampling:
    def test_haar_deterministic(self):
        a = haar_state(3, 42)
        b = haar_state(3, 42)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_haar_range_check(self):
        with pytest.raises(ValueError):
            haar_state(1, 0)

    def test_single_qubit_bloch_vector_averages_out(self):
        # Monte-Carlo oracle: mean Bloch vector of 10^4 Haar qubits ~ 0.
        total = np.zeros(3)
        n = 10_000
        rng = np.random.default_rng(202)
        for _ in range(n):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z /= np.linalg.norm(z)
            total += [
                2 * (z[0].conjugate() * z[1]).real,
                2 * (z[0].conjugate() * z[1]).imag,
                abs(z[0]) ** 2 - abs(z[1]) ** 2,
            ]
        assert np.linalg.norm(total / n) < 0.05

    def test_haar_unitary_is_unitary_and_deterministic(self):
        u = haar_unitary(7)
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-12
        assert np.array_equal(u, haar_unitary(7))

    def test_rotation_invariance_of_overlap_distribution(self):
        # Mean squared overlap with any fixed state is 1/dim for Haar states.
        fixed = haar_state(2, 999)
        vals = [abs(np.vdot(fixed.amplitudes, haar_state(2, s).amplitudes)) ** 2 for s in range(2000)]
        assert abs(np.mean(vals) - 1 / 4) < 0.02


class TestGenuineTripartite:
    def test_ghz_true(self, ghz):
        assert genuine_tripartite(ghz)

    def test_product_with_bell_false(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        amps = np.kron(np.array([1, 0], dtype=complex), phi)
        assert not genuine_tripartite(PureState(3, amps))

    def test_full_product_false(self):
        assert not genuine_tripartite(basis(3, 0))


class TestPermute:
    def test_swap_reorders_bits(self):
        s = basis(3, 0b100)
        out = permute_qubits(s, (2, 1, 3))
        assert states_close(out, basis(3, 0b010), atol=1e-15)

    def test_roundtrip(self):
        state = genuine_haar(5)
        out = permute_qubits(permute_qubits(state, (3, 2, 1)), (3, 2, 1))
        assert states_close(out, state, atol=1e-14)


class TestInternalCheck:
    def test_passes_within_tolerance(self):
        qcore.check("x cross-check", 1e-10, 1e-10)
        qcore.check("x cross-check", -5.0, 1e-10)

    def test_raises_with_name_value_and_tolerance(self):
        with pytest.raises(InternalCheckFailed) as exc:
            qcore.check("x cross-check", 2.5e-9, 1e-10)
        err = exc.value
        assert isinstance(err, AssertionError)
        assert (err.check, err.value, err.tol) == ("x cross-check", 2.5e-9, 1e-10)
        assert str(err) == "x cross-check failed: 2.500e-09 > 1.0e-10"

    def test_nan_fails(self):
        with pytest.raises(InternalCheckFailed, match="nan"):
            qcore.check("x cross-check", float("nan"), 1e-10)

    def test_package_has_no_other_assertion(self):
        # Every internal check goes through qcore.check or raises InternalCheckFailed.
        found = []
        for path in sorted(Path(qcore.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                raised = getattr(node, "exc", None)
                raised = getattr(raised, "func", raised)
                if isinstance(node, ast.Assert) or getattr(raised, "id", None) == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []
