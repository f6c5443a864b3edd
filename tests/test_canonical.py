import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triqent import canonical, qcore
from triqent.bipartite import (
    TauMatrix,
    _bilinear,
    eof,
    schmidt_noise_floor,
    schmidt_split,
    tau_matrix,
)
from triqent import cli
from triqent.canonical import (
    OmegaCase,
    _branch_states,
    _canonical_node,
    _key,
    _normalize_node,
    _orbit,
    _path_witness,
    branch_unitaries,
    canonical_decomposition,
    canonicalize_params,
    euler_zyz,
    form_from_params,
    reconstruct_state,
    solve_omega,
    yrot,
    zrot,
)
from triqent.qcore import (
    BiseparableInput,
    InternalCheckFailed,
    LocalUnitary,
    PureState,
    apply_local,
)

from conftest import basis, genuine_haar, states_close

HALF_PI = np.pi / 2


def make_tau(p, c0, c1, ctilde):
    tau = np.array(
        [
            [p * c0, np.sqrt(p * (1 - p)) * ctilde],
            [np.sqrt(p * (1 - p)) * ctilde, (1 - p) * c1],
        ],
        dtype=complex,
    )
    s = np.linalg.svd(tau, compute_uv=False)
    return TauMatrix(c0=c0, c1=c1, ctilde=ctilde, tau=tau, s1=s[0], s2=s[1], p=p,
                     degenerate=abs(p - 0.5) < 1e-9, noise_floor=schmidt_noise_floor(p))


_GAUGE_EDGE_TUPLES = [
    (al, be, ga, bp)
    for al, ga in ((0.3, -1.1), (2.9, -2.4), (-3.1, 1.6))
    for be in (0.0, HALF_PI, -HALF_PI)
    for bp in (0.0, HALF_PI)
] + [(HALF_PI, 0.0, 0.0, 0.0)]


def branch_concurrence(split, omega):
    x0, _ = _branch_states(split, omega)
    return abs(_bilinear(x0, x0))


class TestSolveOmega:
    def test_ghz_case_i(self, ghz):
        omega, case = solve_omega(tau_matrix(schmidt_split(ghz)))
        assert omega == 0.0 and case is OmegaCase.I

    def test_generic_example(self):
        # p c0 = 0.4, (1-p) c1 = 0.2, arg ctilde = pi/4: arctan(3 cot(pi/4)).
        tm = make_tau(0.5, 0.8, 0.4, 0.3 * np.exp(1j * np.pi / 4))
        omega, case = solve_omega(tm)
        assert case is OmegaCase.GENERIC
        assert abs(omega - np.arctan(3)) < 1e-12
        assert abs(omega - 1.2490457723982544) < 1e-12

    def test_w_case_iii_with_constant_sweep(self, w):
        split = schmidt_split(w)
        omega, case = solve_omega(tau_matrix(split))
        assert case is OmegaCase.III and omega == 0.0
        # Oracle: C(psi_s) does not depend on omega for the W state.
        values = [branch_concurrence(split, om) for om in np.linspace(0, np.pi, 13)]
        assert max(values) - min(values) < 1e-12
        assert abs(values[0] - 2 / 3) < 1e-12

    def test_case_ii_maximizes(self):
        # p c0 = (1-p) c1 != 0 with purely imaginary ctilde: every omega
        # equalizes the branches; the canonical choice maximizes C(psi_s).
        tm = make_tau(0.6, 0.5, 0.75, 0.2j)
        omega, case = solve_omega(tm)
        assert case is OmegaCase.II and omega == 0.0

    def test_case_iii_zero_is_maximum(self):
        tm = make_tau(0.7, 0.5, 0.4, 0.0)
        omega, case = solve_omega(tm)
        assert case is OmegaCase.III and omega == 0.0
        # Oracle: the closed form p^2 c0^2 + q^2 c1^2 + 2pq c0 c1 cos 2w peaks at 0.
        p, q, c0, c1 = 0.7, 0.3, 0.5, 0.4
        grid = np.linspace(0, np.pi, 181)
        vals = p**2 * c0**2 + q**2 * c1**2 + 2 * p * q * c0 * c1 * np.cos(2 * grid)
        assert np.argmax(vals) == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_branches_equally_entangled(self, seed):
        split = schmidt_split(genuine_haar(seed))
        omega, _ = solve_omega(tau_matrix(split))
        x0, x1 = _branch_states(split, omega)
        assert abs(abs(_bilinear(x0, x0)) - abs(_bilinear(x1, x1))) < 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_branch_concurrence(self, seed):
        # Oracle for the generic branch: C(psi_s)^2 equals
        # p^2 c0^2 + q^2 c1^2 + 2pq (c0 c1 cos 2w + 2|ct|^2).
        split = schmidt_split(genuine_haar(seed))
        tm = tau_matrix(split)
        omega, case = solve_omega(tm)
        if case is not OmegaCase.GENERIC:
            return
        p, q = tm.p, 1 - tm.p
        closed = (
            p**2 * tm.c0**2
            + q**2 * tm.c1**2
            + 2 * p * q * (tm.c0 * tm.c1 * np.cos(2 * omega) + 2 * abs(tm.ctilde) ** 2)
        )
        assert abs(branch_concurrence(split, omega) ** 2 - closed) < 1e-9


class TestCanonicalDecomposition:
    def test_ghz(self, ghz):
        form = canonical_decomposition(ghz)
        assert abs(form.a - 1 / np.sqrt(2)) < 1e-12
        assert abs(form.alpha - HALF_PI) < 1e-12
        assert form.beta == 0.0 and form.gamma == 0.0 and form.beta_prime == 0.0
        assert form.max_entangled_convention
        rec = reconstruct_state(form)
        assert states_close(apply_local(ghz, form.witness), rec, atol=1e-9, up_to_phase=True)

    def test_w_branch_entanglement(self, w):
        form = canonical_decomposition(w)
        assert abs(form.concurrence_s() - 2 / 3) < 1e-9
        assert abs(eof(form.concurrence_s()) - eof(2 / 3)) < 1e-9

    def test_real_state_hits_an_extremum(self):
        for seed in range(5):
            state = qcore.real_state(3, seed + 1)
            if not qcore.genuine_tripartite(state):
                continue
            form = canonical_decomposition(state)
            tm = tau_matrix(schmidt_split(state))
            e1 = eof(form.concurrence_s())
            assert min(abs(e1 - eof(tm.c23)), abs(e1 - eof(tm.ca23))) < 1e-8

    def test_biseparable_rejected(self):
        with pytest.raises(BiseparableInput):
            canonical_decomposition(basis(3, 0))

    def test_omega_moves_between_extrema(self):
        # Case-iii state (both self-overlaps positive, cross overlap zero):
        # omega = 0 gives the maximal branch, pi/2 the minimal.
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = amps[0b011] = np.sqrt(0.35)
        amps[0b100] = np.sqrt(0.15)
        amps[0b111] = -np.sqrt(0.15)
        state = PureState(3, amps)
        split = schmidt_split(state)
        tm = tau_matrix(split)
        _, case = solve_omega(tm)
        assert case is OmegaCase.III
        f_max = canonical_decomposition(state)
        assert abs(f_max.concurrence_s() - tm.ca23) < 1e-9
        assert abs(branch_concurrence(split, np.pi / 2) - tm.c23) < 1e-9

    @pytest.mark.parametrize("name", ["haar", "ghz", "w"])
    def test_builds_the_witness_once(self, monkeypatch, name):
        # One LocalUnitary for the split's qubit-1 rotation and one for the
        # composed witness; every step in between multiplies plain factors.
        state = {"haar": genuine_haar(3), "ghz": qcore.ghz_state(), "w": qcore.w_state()}[name]
        built = []
        post_init = LocalUnitary.__post_init__

        def counted(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(LocalUnitary, "__post_init__", counted)
        form = canonical_decomposition(state)
        assert len(built) == 2
        assert states_close(apply_local(state, form.witness), reconstruct_state(form), atol=1e-9, up_to_phase=True)

    def test_class4_with_tiny_noise(self):
        # Record 18 of 40 class-4 states (rng 0) plus 1e-12 complex noise: the
        # decomposition lands on raw angles with |alpha| = |gamma| to 2e-11.
        rng = np.random.default_rng(0)
        for _ in range(19):
            z = cli._class_state("class4", rng).amplitudes
            z = z + 1e-12 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        state = PureState(3, z / np.linalg.norm(z))
        form = canonical_decomposition(state)
        assert abs(abs(form.alpha) - abs(form.gamma)) < 1e-10
        assert states_close(apply_local(state, form.witness), reconstruct_state(form), atol=1e-9, up_to_phase=True)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_witness_and_interval(self, seed):
        state = genuine_haar(seed)
        form = canonical_decomposition(state)
        rec = reconstruct_state(form)
        assert states_close(apply_local(state, form.witness), rec, atol=1e-9, up_to_phase=True)
        assert 1 / np.sqrt(2) - 1e-12 <= form.a <= 1.0
        assert -HALF_PI - 1e-12 <= form.alpha <= HALF_PI + 1e-12
        assert 0 <= form.beta <= HALF_PI + 1e-12
        assert 0 <= form.beta_prime <= HALF_PI + 1e-12
        assert abs(form.alpha) >= abs(form.gamma) - 1e-10

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_parameters(self, seed):
        form = canonical_decomposition(genuine_haar(seed))
        again = canonical_decomposition(reconstruct_state(form))
        assert abs(form.a - again.a) < 1e-8
        assert np.allclose(form.params, again.params, atol=1e-8)


class TestInternalChecks:
    @pytest.mark.parametrize("constant", ["_TOL_BRANCH", "_TOL_INTERVAL"])
    def test_check_reports_its_residual(self, monkeypatch, constant):
        state = genuine_haar(21)
        split = schmidt_split(state)
        tm = tau_matrix(split)
        form = canonical_decomposition(state)
        x0, x1 = _branch_states(split, form.omega)
        e1 = eof(form.concurrence_s())
        branch_gap = abs(abs(_bilinear(x0, x0)) - abs(_bilinear(x1, x1)))
        expected = {
            "_TOL_BRANCH": ("branch concurrence cross-check", branch_gap),
            "_TOL_INTERVAL": ("E1 interval cross-check", max(eof(tm.c23) - e1, e1 - eof(tm.ca23))),
        }[constant]
        monkeypatch.setattr(canonical, constant, -1.0)
        with pytest.raises(InternalCheckFailed) as exc:
            canonical_decomposition(state)
        assert (exc.value.check, exc.value.value, exc.value.tol) == (*expected, -1.0)


class TestCanonicalizeParams:
    def test_fixed_point(self):
        out = canonicalize_params((HALF_PI, 0, 0, 0))
        assert np.allclose(out, (HALF_PI, 0, 0, 0), atol=1e-12)

    def test_sign_flip_pair_is_gauge(self):
        a = canonicalize_params((0.2, 0.3, 0.4, 0.1))
        b = canonicalize_params((0.2, -0.3, 0.4, -0.1))
        assert np.allclose(a, b, atol=1e-12)

    def test_search_example(self):
        # Exhaustive search over the allowed move group: the only range-valid
        # representative with |alpha| >= |gamma| keeps the orientation.
        out = canonicalize_params((0.2, 0.3, 0.4, 0.1))
        assert np.allclose(out, (-0.4, 0.3, -0.2, 0.1), atol=1e-12)

    @given(st.one_of(st.tuples(*[st.floats(-3.2, 3.2)] * 4), st.sampled_from(_GAUGE_EDGE_TUPLES)))
    @settings(max_examples=100, deadline=None)
    def test_orbit_matches_independent_search(self, start):
        # Oracle: regenerate the orbit by a breadth-first search with an
        # independent implementation of the three moves and of the gauge
        # fold, and compare as sets with the eight replayed words.
        def norm_half(x):
            y = (x + HALF_PI) % np.pi - HALF_PI
            y = y + np.pi if y <= -HALF_PI + 1e-12 else y
            return 0.0 if abs(y) < 1e-9 else HALF_PI if abs(y - HALF_PI) < 1e-9 else y

        def normalize(t):
            al, be, ga, bp = (norm_half(v) for v in t)
            if be == 0.0:
                al, ga = norm_half(al + ga), 0.0
            elif be == HALF_PI:
                al, ga = norm_half(al - ga), 0.0
            return al, be, ga, bp

        def key(t):
            return tuple(round(v, 9) + 0.0 for v in t)

        seen = {key(normalize(start))}
        frontier = [normalize(start)]
        while frontier:
            al, be, ga, bp = frontier.pop()
            for nxt in (
                (al, -be, ga, -bp),
                (al + HALF_PI, -be, ga + HALF_PI, bp),
                (-ga, -be, -al, -bp),
            ):
                node = normalize(nxt)
                if key(node) not in seen:
                    seen.add(key(node))
                    frontier.append(node)
        orbit = _orbit(_normalize_node(start)[0])
        assert [word for _, word in orbit] == list(canonical._WORDS)
        assert {key(p) for p, _ in orbit} == seen

    def test_alpha_next_to_minus_gamma(self):
        # |alpha| and |gamma| agree to 1.6e-11: the swapped node is a distinct
        # orbit node that passes the |alpha| >= |gamma| filter.
        out = canonicalize_params((-1.3078365445531, 0.29384, 1.3078365445693, 1.43813))
        assert np.allclose(out, (-1.3078365445693, 0.29384, 1.3078365445531, 1.43813), atol=1e-12)
        assert canonicalize_params(out) == out

    def test_folded_angle_snaps_to_the_edge(self):
        # At beta = 0 the folded alpha + gamma is 1.0e-10: it lands on 0 at
        # once, as a normalised angle that close to an edge does, not on the
        # second pass.
        out = canonicalize_params((0.9673499063300373, 0.0, -0.9673499062300372, 0.0))
        assert out == (0.0, 0.0, 0.0, 0.0)
        assert canonicalize_params(out) == out

    @given(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, a, b, g, v):
        out = canonicalize_params((a, b, g, v))
        again = canonicalize_params(out)
        assert np.allclose(out, again, atol=1e-9)

    def test_output_state_is_lu_equivalent(self):
        # The canonical parameters describe the same state up to local
        # unitaries: compare through the reconstructed states' invariants.
        from triqent.classification import lu_equivalent

        raw = (0.9, 1.2, -0.7, 0.4)
        out = canonicalize_params(raw)
        s_raw = reconstruct_state(form_from_params(0.8, *_wrap(raw)))
        s_out = reconstruct_state(form_from_params(0.8, *out))
        equal, _ = lu_equivalent(s_raw, s_out)
        assert equal

    @given(
        st.lists(
            st.one_of(
                st.floats(-4, 4),
                st.sampled_from([0.0, -0.0, 5e-11, -5e-11, 1.5e-10, -2.5e-10]),
                st.builds(lambda k, sign: sign * (k + 0.5) / 1e10,
                          st.integers(0, 4 * 10**10), st.sampled_from([1, -1])),
            ),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_key_is_numpy_rounding(self, node):
        # Oracle: the NumPy spelling of the key, compared bit for bit.
        assert np.array(_key(node)).tobytes() == (np.round(node, 10) + 0.0).tobytes()

    def test_orbit_builds_no_witness(self, monkeypatch):
        # Only decompose_split needs a witness; the orbit replay itself runs
        # on angles alone, generic or at a gauge edge with pi-shifted angles.
        class NoWitness:
            def __init__(self, *args):
                raise AssertionError("orbit replay built a LocalUnitary")

            identity = classmethod(__init__)

        monkeypatch.setattr(canonical, "LocalUnitary", NoWitness)
        assert np.allclose(canonicalize_params((0.2, 0.3, 0.4, 0.1)), (-0.4, 0.3, -0.2, 0.1))
        edge = canonicalize_params((2.9, -1e-13, 2.5, np.pi - 1e-13))
        assert edge[1] == 0.0 and edge[2] == 0.0 and edge[3] == 0.0


def _two_branch_state(a, raw) -> PureState:
    """The literal two-branch state of (possibly out-of-range) angles."""
    psi_s = np.array([a, 0, 0, np.sqrt(1 - a**2)], dtype=complex)
    u2, u3 = branch_unitaries(*raw)
    return PureState(3, np.concatenate([psi_s, np.kron(u2, u3) @ psi_s]) / np.sqrt(2))


def _path_witness_misalignment(a, raw) -> float:
    params, path = _canonical_node(raw)
    rot = apply_local(_two_branch_state(a, raw), LocalUnitary(tuple(_path_witness(raw, path))))
    rec = reconstruct_state(form_from_params(a, *params))
    return 1 - abs(np.vdot(rot.amplitudes, rec.amplitudes))


class TestPathWitness:
    @pytest.mark.parametrize("raw", _GAUGE_EDGE_TUPLES)
    @pytest.mark.parametrize("a", [0.8, 1 / np.sqrt(2)])
    def test_gauge_edges(self, a, raw):
        assert _path_witness_misalignment(a, raw) <= 1e-12

    @given(*[st.floats(-3.2, 3.2)] * 4)
    @settings(max_examples=300, deadline=None)
    def test_every_path(self, al, be, ga, bp):
        assert _path_witness_misalignment(0.8, (al, be, ga, bp)) <= 1e-12

    @given(
        st.floats(-3.2, 3.2),
        st.sampled_from([1, -1]),
        st.sampled_from([1, 0, -1]),
        st.integers(9, 14),
        *[st.one_of(st.floats(-3.2, 3.2), st.sampled_from([0.0, HALF_PI, -HALF_PI]))] * 2,
    )
    @settings(max_examples=150, deadline=None)
    def test_alpha_next_to_plus_minus_gamma(self, ga, sign, s, k, be, bp):
        # alpha = +-gamma + s 10^-k: the swap move maps the node to one within
        # 10^-k of it, at a generic angle or at a gauge edge.
        raw = (sign * ga + s * 10.0**-k, be, ga, bp)
        out = canonicalize_params(raw)
        assert canonicalize_params(out) == out
        assert _path_witness_misalignment(0.8, raw) <= 1e-12


def _wrap(raw):
    # reconstruct_state wants in-range parameters; wrap the raw tuple by the
    # identity-preserving pi-shifts only (valid for this fixture).
    a, b, g, v = raw
    return a - np.pi if a > HALF_PI else a, b, g, v


class TestReconstruct:
    def test_ghz_parameters_give_ghz_class(self, ghz):
        from triqent.classification import lu_equivalent

        state = reconstruct_state(form_from_params(1 / np.sqrt(2), HALF_PI, 0, 0, 0))
        equal, _ = lu_equivalent(state, ghz)
        assert equal

    def test_product_branch_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            reconstruct_state(form_from_params(1.0, 0.3, 0.2, 0.1, 0.0))

    def test_out_of_range_angle_rejected(self):
        with pytest.raises(ValueError, match="canonical range"):
            reconstruct_state(form_from_params(0.8, 2.5, 0.2, 0.1, 0.0))


class TestRotationHelpers:
    def test_zyz_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = qcore.haar_unitary(0, rng=rng)
            su = u / np.sqrt(np.linalg.det(u))
            al, be, ga = euler_zyz(su)
            rebuilt = zrot(al) @ yrot(be) @ zrot(ga)
            assert min(
                np.linalg.norm(rebuilt - su), np.linalg.norm(rebuilt + su)
            ) < 1e-10
            assert 0 <= be <= HALF_PI + 1e-12

    def test_branch_unitaries_shapes(self):
        u2, u3 = branch_unitaries(0.3, 0.2, 0.1, 0.4)
        assert np.allclose(u2 @ u2.conj().T, np.eye(2), atol=1e-12)
        assert np.allclose(u3, yrot(0.4), atol=1e-15)
