import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triqent import bipartite, qcore
from triqent.bipartite import (
    binary_entropy_inverse_upper,
    concurrence_pair_closed_form,
    eof,
    eof_inverse,
    schmidt_split,
    tangle,
    tau_matrix,
    _bilinear,
    _YY,
)
from triqent.qcore import BiseparableInput, PureState, apply_local, haar_state

from conftest import basis, genuine_haar, random_acin_state, reduced, states_close

PHI_PLUS = PureState(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def wootters_pair(state):
    """Oracle: mixed-state concurrence and assisted concurrence of rho_23.

    Square roots of the eigenvalues of rho (YY rho* YY); their alternating
    sum is the concurrence, their plain sum the assisted concurrence.
    """
    rho = reduced(state, {2, 3})
    rr = rho @ _YY @ rho.conj() @ _YY
    sq = np.sqrt(np.clip(np.sort(np.linalg.eigvals(rr).real)[::-1], 0, None))
    return max(0.0, sq[0] - sq[1:].sum()), sq.sum()


def spin_flipped(amps) -> np.ndarray:
    """|psi~> = (sigma_y x sigma_y)|psi*> of a 2-qubit amplitude vector."""
    return np.kron(qcore.PAULI_Y, qcore.PAULI_Y) @ np.conj(amps)


class TestSpinFlip:
    # The package never builds |psi~>: it takes <u~|v> as the bilinear form
    # u^T (sigma_y x sigma_y) v.
    def test_phi_plus_eigenstate(self):
        phi = PHI_PLUS.amplitudes
        assert np.allclose(spin_flipped(phi), -phi, atol=1e-15)
        assert abs(_bilinear(phi, phi) + 1) < 1e-15

    def test_zero_zero(self):
        zero, three = basis(2, 0).amplitudes, basis(2, 3).amplitudes
        assert np.array_equal(spin_flipped(zero), -three)
        v = haar_state(2, 5).amplitudes
        assert _bilinear(zero, v) == -v[3]

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, seed):
        u, v = haar_state(2, seed).amplitudes, haar_state(2, seed + 1).amplitudes
        assert np.array_equal(_YY @ _YY, np.eye(4))
        assert np.allclose(spin_flipped(spin_flipped(u)), u, atol=1e-15)
        assert abs(_bilinear(u, v) - np.vdot(spin_flipped(u), v)) < 1e-15
        assert abs(_bilinear(u, v) - _bilinear(v, u)) < 1e-15


def tau_of_branches(psi0, p=0.7):
    """tau of sqrt(p)|0>|psi0> + sqrt(1 - p)|1>|psi1>, psi1 = (|01> + |10>)/sqrt(2)."""
    psi1 = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    amps = np.concatenate([np.sqrt(p) * psi0, np.sqrt(1 - p) * psi1])
    return tau_matrix(schmidt_split(PureState(3, amps)))


class TestConcurrencePure:
    # The branch self-overlaps c0 and c1 of the tau matrix are the pure-state
    # concurrences |<psi~|psi>| of the two Schmidt branches.
    def test_bell(self):
        tm = tau_of_branches(PHI_PLUS.amplitudes)
        assert abs(tm.c0 - 1) < 1e-12 and abs(tm.c1 - 1) < 1e-12

    def test_product(self):
        tm = tau_of_branches(basis(2, 0).amplitudes)
        assert tm.c0 < 1e-12 and abs(tm.c1 - 1) < 1e-12

    @pytest.mark.parametrize("a", [0.3, 0.6, 1 / np.sqrt(2), 0.95])
    def test_schmidt_pair(self, a):
        b = np.sqrt(1 - a * a)
        psi = np.array([a, 0, 0, b], dtype=complex)
        assert abs(tau_of_branches(psi).c0 - 2 * a * b) < 1e-12
        assert abs(abs(_bilinear(psi, psi)) - 2 * a * b) < 1e-15


class TestEof:
    def test_endpoints(self):
        assert eof(0.0) == 0.0
        assert abs(eof(1.0) - 1.0) < 1e-12

    def test_half(self):
        # Oracle: h((1 + sqrt(3)/2)/2) evaluated directly.
        x = (1 + np.sqrt(3) / 2) / 2
        expected = -x * np.log2(x) - (1 - x) * np.log2(1 - x)
        assert abs(expected - 0.35457890266527) < 1e-12
        assert abs(eof(0.5) - expected) < 1e-14

    def test_two_thirds(self):
        assert abs(eof(2 / 3) - 0.5500477595827576) < 1e-12

    def test_monotone(self):
        grid = np.linspace(0, 1, 200)
        vals = [eof(c) for c in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eof(1.1)

    @pytest.mark.parametrize("fn", [eof, eof_inverse, binary_entropy_inverse_upper])
    def test_nan_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(np.nan)

    @pytest.mark.parametrize(
        "inverse, name, below, lo, hi",
        [
            (eof_inverse, "eof", lambda f, v, mid: f(mid) < v, 0.0, 1.0),
            (binary_entropy_inverse_upper, "binary_entropy", lambda f, v, mid: f(mid) > v, 0.5, 1.0),
        ],
        ids=["eof_inverse", "binary_entropy_inverse_upper"],
    )
    def test_bisection_stops_at_its_fixed_point(self, monkeypatch, inverse, name, below, lo, hi):
        # Oracle: the same bisection run for all 200 halvings.
        f = getattr(bipartite, name)

        def reference(v):
            a, b = lo, hi
            for _ in range(200):
                mid = 0.5 * (a + b)
                if below(f, v, mid):
                    a = mid
                else:
                    b = mid
            return 0.5 * (a + b)

        grid = np.linspace(0, 1, 101)
        expected = [reference(v) for v in grid]
        steps = []

        def counted(x):
            steps[-1] += 1
            return f(x)

        monkeypatch.setattr(bipartite, name, counted)
        for v, want in zip(grid, expected):
            steps.append(0)
            assert inverse(v) == want
        # Only close to v = 0 does eof_inverse halve into the subnormals.
        assert max(steps[1:]) <= 64

    @given(st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_inverse_roundtrip(self, c):
        # The inverse near c = 0 is ill-conditioned (E ~ c^2 log c), so the
        # sharp statement is agreement in the value domain.
        back = eof_inverse(eof(c))
        assert abs(back - c) < 1e-7
        assert abs(eof(back) - eof(c)) < 1e-12


class TestSchmidtSplit:
    def test_ghz(self, ghz):
        split = schmidt_split(ghz)
        assert abs(split.p - 0.5) < 1e-12
        assert split.degenerate
        # both eigenvectors lie in span{|00>, |11>}
        for psi in (split.psi0, split.psi1):
            assert abs(psi.amplitudes[1]) < 1e-12 and abs(psi.amplitudes[2]) < 1e-12

    def test_w(self, w):
        # Oracle: direct SVD of the explicit 2x4 coefficient matrix.
        m = w.amplitudes.reshape(2, 4)
        s = np.linalg.svd(m, compute_uv=False)
        assert abs(s[0] ** 2 - 2 / 3) < 1e-12
        split = schmidt_split(w)
        assert abs(split.p - 2 / 3) < 1e-12
        assert not split.degenerate
        expected0 = np.zeros(4, dtype=complex)
        expected0[1] = expected0[2] = 1 / np.sqrt(2)
        assert states_close(split.psi0, expected0, atol=1e-10, up_to_phase=True)
        assert states_close(split.psi1, basis(2, 0), atol=1e-10, up_to_phase=True)

    def test_acin_state_p_equals_sigma_plus(self):
        # Oracle: the closed form (1 + sqrt(1 - 4(J2+J3+J4)))/2 from the
        # standard-form amplitudes.
        rng = np.random.default_rng(17)
        for _ in range(25):
            lams, _, state = random_acin_state(rng)
            if not qcore.genuine_tripartite(state):
                continue
            l0, l1, l2, l3, l4 = lams
            jsum = l0**2 * (l2**2 + l3**2 + l4**2)
            sigma_plus = (1 + np.sqrt(1 - 4 * jsum)) / 2
            assert abs(schmidt_split(state).p - sigma_plus) < 1e-9

    def test_biseparable_rejected(self):
        with pytest.raises(BiseparableInput):
            schmidt_split(basis(3, 0))

    def test_product_in_23_unreachable(self):
        # The (C23, Ca23) = (0, 0) fixture a|0>|00> + b|1>|01> never reaches
        # the tau machinery: qubit 3 is pure, so the tripartite guard fires.
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = 0.8
        amps[0b101] = 0.6
        with pytest.raises(BiseparableInput):
            schmidt_split(PureState(3, amps))

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_normal_form_invariants(self, seed):
        state = genuine_haar(seed)
        split = schmidt_split(state)
        # C1: orthonormal eigenvectors
        assert abs(np.vdot(split.psi0.amplitudes, split.psi1.amplitudes)) < 1e-10
        # C2: nonnegative self-overlaps
        tm = tau_matrix(split)
        assert tm.c0 >= -1e-12 and tm.c1 >= -1e-12
        # witness reproduces the normal form exactly
        rotated = apply_local(state, split.witness)
        normal = np.concatenate(
            [np.sqrt(split.p) * split.psi0.amplitudes, np.sqrt(1 - split.p) * split.psi1.amplitudes]
        )
        assert np.linalg.norm(rotated.amplitudes - normal) < 1e-10


class TestTauMatrix:
    def test_ghz(self, ghz):
        tm = tau_matrix(schmidt_split(ghz))
        assert tm.c0 == 0.0 and tm.c1 == 0.0
        assert abs(tm.ctilde + 1) < 1e-12
        assert np.allclose(tm.tau, [[0, -0.5], [-0.5, 0]], atol=1e-12)

    def test_w(self, w):
        tm = tau_matrix(schmidt_split(w))
        assert np.allclose(tm.tau, np.diag([2 / 3, 0]), atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_entries_definitional(self, seed):
        tm = tau_matrix(schmidt_split(genuine_haar(seed)))
        assert abs(tm.tau[0, 0] - tm.p * tm.c0) < 1e-12
        assert abs(tm.tau[1, 1] - (1 - tm.p) * tm.c1) < 1e-12
        assert abs(tm.tau[0, 1] - tm.tau[1, 0]) < 1e-10

    def test_phase_transformation_of_off_diagonal(self):
        # Direct recomputation: multiplying the eigenvectors by phases
        # e^{i a1}, e^{i a2} scales the cross entry by e^{i(a1+a2)}.
        split = schmidt_split(genuine_haar(12))
        a1, a2 = 0.37, -1.1
        v0 = split.psi0.amplitudes * np.exp(1j * a1)
        v1 = split.psi1.amplitudes * np.exp(1j * a2)
        before = split.psi0.amplitudes @ _YY @ split.psi1.amplitudes
        after = v0 @ _YY @ v1
        assert abs(after - np.exp(1j * (a1 + a2)) * before) < 1e-12

    def test_singular_values_invariant_under_lu_on_23(self):
        state = genuine_haar(21)
        tm = tau_matrix(schmidt_split(state))
        for seed in (3, 4):
            u2 = qcore.haar_unitary(seed)
            u3 = qcore.haar_unitary(seed + 50)
            lu = qcore.LocalUnitary((np.eye(2, dtype=complex), u2, u3))
            tm2 = tau_matrix(schmidt_split(apply_local(state, lu)))
            assert abs(tm.s1 - tm2.s1) < 1e-10 and abs(tm.s2 - tm2.s2) < 1e-10


class TestConcurrencePair:
    def test_ghz(self, ghz):
        # Oracle: singular values of [[0,-1/2],[-1/2,0]] are {1/2, 1/2}.
        sv = np.linalg.svd(np.array([[0, -0.5], [-0.5, 0]]), compute_uv=False)
        assert np.allclose(sv, [0.5, 0.5])
        tm = tau_matrix(schmidt_split(ghz))
        assert abs(tm.c23 - 0) < 1e-12 and abs(tm.ca23 - 1) < 1e-12

    def test_w(self, w):
        tm = tau_matrix(schmidt_split(w))
        assert abs(tm.c23 - 2 / 3) < 1e-12 and abs(tm.ca23 - 2 / 3) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_svd(self, seed):
        tm = tau_matrix(schmidt_split(genuine_haar(seed)))
        closed = concurrence_pair_closed_form(tm)
        assert abs(tm.c23 - closed[0]) < 1e-9
        assert abs(tm.ca23 - closed[1]) < 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_matches_mixed_state_oracle(self, seed):
        state = genuine_haar(seed)
        tm = tau_matrix(schmidt_split(state))
        oc, oca = wootters_pair(state)
        assert abs(tm.c23 - oc) < 1e-6
        assert abs(tm.ca23 - oca) < 1e-6


class TestTangle:
    def test_ghz(self, ghz):
        assert abs(tangle(tau_matrix(schmidt_split(ghz))) - 1) < 1e-12

    def test_w(self, w):
        assert tangle(tau_matrix(schmidt_split(w))) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_monogamy_identity(self, seed):
        tm = tau_matrix(schmidt_split(genuine_haar(seed)))
        assert abs(tm.ca23**2 - tm.c23**2 - tangle(tm)) < 1e-9
