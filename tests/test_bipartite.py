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
    spin_flip,
    tangle,
    tau_matrix,
    concurrence_pure,
    _YY,
)
from triqent.qcore import BiseparableInput, PureState, apply_local, basis_state, haar_state

from conftest import genuine_haar, random_acin_state

PHI_PLUS = PureState(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def wootters_pair(state):
    """Oracle: mixed-state concurrence and assisted concurrence of rho_23.

    Square roots of the eigenvalues of rho (YY rho* YY); their alternating
    sum is the concurrence, their plain sum the assisted concurrence.
    """
    rho = qcore.partial_trace(state, {2, 3}).matrix
    rr = rho @ _YY @ rho.conj() @ _YY
    sq = np.sqrt(np.clip(np.sort(np.linalg.eigvals(rr).real)[::-1], 0, None))
    return max(0.0, sq[0] - sq[1:].sum()), sq.sum()


class TestSpinFlip:
    def test_phi_plus_eigenstate(self):
        assert np.allclose(spin_flip(PHI_PLUS).amplitudes, -PHI_PLUS.amplitudes, atol=1e-15)

    def test_zero_zero(self):
        out = spin_flip(basis_state(2, 0))
        assert np.allclose(out.amplitudes, -basis_state(2, 3).amplitudes, atol=1e-15)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, seed):
        psi = haar_state(2, seed)
        assert spin_flip(spin_flip(psi)).isclose(psi, atol=1e-12)

    def test_wrong_qubit_count(self, ghz):
        with pytest.raises(ValueError):
            spin_flip(ghz)


class TestConcurrencePure:
    def test_bell(self):
        assert abs(concurrence_pure(PHI_PLUS) - 1) < 1e-12

    def test_product(self):
        assert concurrence_pure(basis_state(2, 0)) == 0.0

    @pytest.mark.parametrize("a", [0.3, 0.6, 1 / np.sqrt(2), 0.95])
    def test_schmidt_pair(self, a):
        b = np.sqrt(1 - a * a)
        psi = PureState(2, np.array([a, 0, 0, b], dtype=complex))
        assert abs(concurrence_pure(psi) - 2 * a * b) < 1e-12


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
        assert split.psi0.isclose(PureState(2, expected0), atol=1e-10, up_to_phase=True)
        assert split.psi1.isclose(basis_state(2, 0), atol=1e-10, up_to_phase=True)

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
            schmidt_split(basis_state(3, 0))

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
        assert abs(split.psi0.overlap(split.psi1)) < 1e-10
        # C2: nonnegative self-overlaps
        tm = tau_matrix(split)
        assert tm.c0 >= -1e-12 and tm.c1 >= -1e-12
        # witness reproduces the normal form exactly
        rotated = apply_local(state, split.witness)
        assert np.linalg.norm(rotated.amplitudes - split.normal_state().amplitudes) < 1e-10


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
