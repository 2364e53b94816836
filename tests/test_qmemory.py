import cmath
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi1d import pointcore
from fermi1d import qmemory as qm
from fermi1d.errors import (
    DegenerateSampling,
    Inconsistent,
    NotSpecialUnitary,
    PhaseBlind,
    ZeroCoupling,
)


def haar_su2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))
    return q / np.sqrt(np.linalg.det(q) + 0j)


def random_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return qm.MemoryState.from_vec(v / np.linalg.norm(v))


_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def reference_factor(parity, k, g1, g3):
    """The parity factor e of one wave, written out per parity."""
    if parity == "even":
        return (2.0 * k - 1j * g1) / (2.0 * k + 1j * g1)
    return (2.0 - 1j * g3 * k) / (2.0 + 1j * g3 * k)


def numpy_wave(parity, k, g1, g3):
    """Re(e) I + i Im(e) sigma of one wave as a numpy matrix."""
    e = reference_factor(parity, k, g1, g3)
    return e.real * np.eye(2) + 1j * e.imag * (
        _SIGMA1 if parity == "even" else _SIGMA3)


def numpy_plan_matrix(plan, g1, g3):
    u = np.eye(2, dtype=complex)
    for parity, k in zip(plan.parity, plan.k):
        u = u @ numpy_wave(parity, k, g1, g3)
    return u


def reference_wave(parity, k, g1, g3):
    """Re(e) I + i Im(e) sigma of one wave on Python complex numbers, as
    the first row (a, b) of [[a, b], [-b*, a*]]."""
    e = reference_factor(parity, k, g1, g3)
    if parity == "even":
        return complex(e.real, 0.0), complex(0.0, e.imag)
    return e, 0j


def reference_matrix(a, b):
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def reference_plan_matrix(plan, g1, g3):
    """The ordered product of the waves on Python complex numbers:
    (a1, b1)(a2, b2) = (a1 a2 - b1 b2*, a1 b2 + b1 a2*)."""
    a, b = 1 + 0j, 0j
    for parity, k in zip(plan.parity, plan.k):
        c, d = reference_wave(parity, k, g1, g3)
        a, b = a * c - b * d.conjugate(), a * d + b * c.conjugate()
    return reference_matrix(a, b)


def assert_same_bits(a, b):
    """Equal values with equal signs of zero."""
    np.testing.assert_array_equal(a, b)
    assert np.array_equal(np.asarray(a).view(np.int64),
                          np.asarray(b).view(np.int64)), (a, b)


_coupling = st.floats(0.05, 20.0) | st.floats(-20.0, -0.05)
_plans = st.lists(st.tuples(st.sampled_from(("even", "odd")),
                            st.floats(1e-3, 1e3)), max_size=6)
_bounded = st.floats(0.5, 4.0) | st.floats(-4.0, -0.5)


@st.composite
def states(draw):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4,
                               max_size=4)))
    if np.linalg.norm(v) < 0.1:
        v = np.array([1.0, 0.0, 0.0, 0.0])
    z = v[:2] + 1j * v[2:]
    return qm.MemoryState.from_vec(z / np.linalg.norm(z))


class TestScattering:
    def test_odd_quarter_turn(self):
        state = qm.MemoryState(1.0, 0.0)
        out = qm.apply_plan(state, qm.Plan(("odd",), (1.0,)),
                            g1=1.0, g3=2.0)
        np.testing.assert_allclose(out.vec, [-1j, 0.0], atol=1e-15)

    def test_even_quarter_turn(self):
        state = qm.MemoryState(1.0, 0.0)
        out = qm.apply_plan(state, qm.Plan(("even",), (1.0,)),
                            g1=2.0, g3=1.0)
        np.testing.assert_allclose(out.vec, [0.0, -1j], atol=1e-15)

    def test_matrices_are_special_unitary(self):
        for m in (qm.s_minus(1.7, 0.6), qm.s_plus(-2.3, 1.9)):
            np.testing.assert_allclose(m @ m.conj().T, np.eye(2),
                                       atol=1e-14)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-14)

    def test_rotation_angles(self):
        wave = qm.Plan(("odd",), (0.8,))
        theta = qm.op_angle(wave, g1=0.0, g3=1.5)
        expected = cmath.exp(-1j * theta)
        assert qm.plan_matrix(wave, 0.0, 1.5)[0, 0] == \
            pytest.approx(expected, abs=1e-14)

    def test_plan_order(self):
        # the last wave of a plan scatters first
        g1, g3 = 1.0, 1.0
        plan = qm.Plan(("even", "odd"), (0.7, 1.2))
        m = (qm.plan_matrix(qm.Plan(("even",), (0.7,)), g1, g3)
             @ qm.plan_matrix(qm.Plan(("odd",), (1.2,)), g1, g3))
        np.testing.assert_allclose(qm.plan_matrix(plan, g1, g3), m,
                                   atol=1e-15)


class TestMemoryState:
    def test_from_vec_accepts_a_column(self):
        state = qm.MemoryState.from_vec([[0.6], [0.8j]])
        assert (state.a1, state.a2) == (0.6, 0.8j)

    @pytest.mark.parametrize("vec", [[0.6, 0.8, 5.0], [1.0]])
    def test_from_vec_needs_two_components(self, vec):
        with pytest.raises(ValueError, match="two components"):
            qm.MemoryState.from_vec(vec)

    def test_admissibility_rejects_a_third_component(self):
        with pytest.raises(ValueError, match="two components"):
            qm.admissibility_check(1.0, 0.0, 1.0, 2.0, 2.0,
                                   [[0.6, 0.8, 5.0]])


class TestPlan:
    @settings(max_examples=300, deadline=None)
    @given(_plans, _coupling, _coupling)
    def test_matrices_equal_phase_rotation_product(self, waves, g1, g3):
        plan = qm.Plan(tuple(p for p, _ in waves),
                       tuple(k for _, k in waves))
        assert len(plan) == len(waves)
        assert_same_bits(qm.plan_matrix(plan, g1, g3),
                         reference_plan_matrix(plan, g1, g3))
        for parity, k in waves:
            matrix = (qm.s_plus(g1, k) if parity == "even"
                      else qm.s_minus(g3, k))
            assert_same_bits(matrix, reference_matrix(
                *reference_wave(parity, k, g1, g3)))

    @settings(max_examples=300, deadline=None)
    @given(_plans, _coupling, _coupling)
    def test_matrices_match_numpy_product(self, waves, g1, g3):
        plan = qm.Plan(tuple(p for p, _ in waves),
                       tuple(k for _, k in waves))
        np.testing.assert_allclose(qm.plan_matrix(plan, g1, g3),
                                   numpy_plan_matrix(plan, g1, g3),
                                   rtol=0, atol=1e-15)

    def test_wavenumbers_checked_once_per_plan(self, monkeypatch):
        calls = {"spectral_points": 0, "numpy": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        class CountedModule:
            """The module, each of its functions counted as numpy."""

            def __init__(self, module):
                self.module = module

            def __getattr__(self, name):
                value = getattr(self.module, name)
                if isinstance(value, types.ModuleType):
                    return CountedModule(value)
                return counted("numpy", value) if callable(value) else value

        check = counted("spectral_points", pointcore.spectral_points)
        monkeypatch.setattr(qm, "spectral_points", check)
        monkeypatch.setattr(pointcore, "spectral_points", check)
        monkeypatch.setattr(qm, "np", CountedModule(np))
        monkeypatch.setattr(pointcore, "np", CountedModule(np))
        u = haar_su2(np.random.default_rng(17))
        state = qm.MemoryState.from_vec(u[:, 0])
        g1, g3 = 1.3, -0.9
        for build in (lambda: qm.write(qm.STANDARD_STATE, state, g1, g3),
                      lambda: qm.reset(state, qm.STANDARD_STATE, g1, g3),
                      lambda: qm.factorize_su2(u, g1, g3)):
            calls["spectral_points"] = 0
            plan = build()
            assert len(plan) > 1
            assert calls["spectral_points"] == 1
        calls.update(spectral_points=0, numpy=0)
        qm.apply_plan(state, plan, g1, g3)
        assert calls == {"spectral_points": 0, "numpy": 0}
        qm.plan_matrix(plan, g1, g3)
        assert calls == {"spectral_points": 0, "numpy": 1}

    def test_rejects_bad_waves(self):
        for parity, k in ((("even", "sideways"), (1.0, 1.0)),
                          (("odd",), (1.0, 2.0)),
                          (("even", "odd"), (1.0, 0.0)),
                          (("odd",), (float("nan"),))):
            with pytest.raises(ValueError):
                qm.Plan(parity, k)

    @settings(max_examples=200, deadline=None)
    @given(states(), _bounded, _bounded)
    def test_write_reset_round_trip(self, target, g1, g3):
        s = qm.STANDARD_STATE
        plan = qm.write(s, target, g1, g3)
        written = qm.apply_plan(s, plan, g1, g3)
        assert written.distance_up_to_phase(target) < 1e-12
        back = qm.reset(written, s, g1, g3)
        assert qm.apply_plan(written, back, g1, g3
                             ).distance_up_to_phase(s) < 1e-12
        for p in (plan, back):
            u = qm.plan_matrix(p, g1, g3)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2),
                                       rtol=0, atol=1e-12)
            assert abs(np.linalg.det(u) - 1.0) < 1e-12


class TestFactorization:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            u = haar_su2(rng)
            plan = qm.factorize_su2(u, g1=1.0, g3=1.0)
            assert len(plan) <= 6
            err = np.max(np.abs(qm.plan_matrix(plan, 1.0, 1.0) - u))
            assert err < 1e-9

    def test_identity_is_empty_plan(self):
        assert len(qm.factorize_su2(np.eye(2), 1.0, 1.0)) == 0

    def test_rejects_non_unitary(self):
        with pytest.raises(NotSpecialUnitary):
            qm.factorize_su2(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0, 1.0)

    def test_rejects_determinant(self):
        with pytest.raises(NotSpecialUnitary):
            qm.factorize_su2(np.diag([1.0, 1j]), 1.0, 1.0)

    def test_needs_both_couplings(self):
        with pytest.raises(ZeroCoupling):
            qm.factorize_su2(np.eye(2), 0.0, 1.0)


class TestReadout:
    def test_pattern_value(self):
        state = qm.MemoryState(1.0, 0.0)
        vals = qm.interference_pattern(state, qm.Plan(("odd",), (1.0,)),
                                       g1=0.0, g3=2.0,
                                       xs=[math.pi / 4.0])
        assert vals[0] == pytest.approx(4.0, abs=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_pattern_needs_positive_finite_positions(self, x):
        with pytest.raises(ValueError, match="positive and finite"):
            qm.interference_pattern(qm.MemoryState(1.0, 0.0),
                                    qm.Plan(("odd",), (1.0,)), 1.0, 2.0,
                                    [0.5, x])

    def test_observables_frozen(self):
        state = qm.MemoryState(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
        ref = qm.MemoryState(1.0, 0.0)
        assert qm.observe(state, "A1") == pytest.approx(0.0, abs=1e-15)
        assert qm.observe(state, "A2") == pytest.approx(0.0, abs=1e-15)
        assert qm.observe(state, "Ay") == pytest.approx(1.0, abs=1e-15)
        assert qm.observe(state, "A3", ref) == \
            pytest.approx(1.0 + math.sqrt(2.0), abs=1e-14)

    def test_observables_lie_in_the_unit_ball(self):
        qm.Observables(0.6, 0.0, 0.8, 0.0)
        qm.Observables(0.6, 0.0, 0.8 * (1.0 + 4e-10), 0.0)
        for a1, a2, ay in ((0.6, 0.0, 0.8 * (1.0 + 1e-9)),
                           (0.6, 0.8, 1e-4), (0.0, 0.0, 1.001)):
            with pytest.raises(ValueError):
                qm.Observables(a1, a2, ay, 0.0)

    def test_estimator_recovers_a1(self):
        state = qm.MemoryState(0.8, 0.6j)
        wave = qm.Plan(("odd",), (1.0,))
        xs = np.linspace(0.1, 3.0, 60)
        vals = qm.interference_pattern(state, wave, 1.0, 2.0, xs)
        est = qm.estimate_from_pattern(zip(xs, vals), 1.0,
                                       qm.estimator_phase(wave, 1.0, 2.0))
        assert est == pytest.approx(qm.observe(state, "A1"), abs=1e-12)

    def test_estimator_recovers_a2(self):
        state = qm.MemoryState(0.8, 0.6 * cmath.exp(0.4j))
        wave = qm.Plan(("even",), (1.0,))
        xs = np.linspace(0.1, 3.0, 60)
        vals = qm.interference_pattern(state, wave, 2.0, 1.0, xs)
        est = qm.estimate_from_pattern(zip(xs, vals), 1.0,
                                       qm.estimator_phase(wave, 2.0, 1.0))
        assert est == pytest.approx(qm.observe(state, "A2"), abs=1e-12)

    def test_phase_blind(self):
        with pytest.raises(PhaseBlind):
            qm.estimate_from_pattern([(0.1, 2.0), (0.2, 2.0), (0.3, 2.0)],
                                     1.0, 0.0)

    def test_degenerate_sampling(self):
        with pytest.raises(DegenerateSampling):
            qm.estimate_from_pattern([(0.5, 2.0), (0.5, 2.0), (0.5, 2.0)],
                                     1.0, math.pi / 2.0)


def near(base, eps, rng):
    """A state at distance eps from base, in a random direction."""
    d = rng.normal(size=2) + 1j * rng.normal(size=2)
    d -= np.vdot(base.vec, d) * base.vec
    v = base.vec + eps * d / np.linalg.norm(d)
    return qm.MemoryState.from_vec(v / np.linalg.norm(v))


# The standard state and the poles of the Bloch sphere, with states 1e-6
# to 1e-12 from them: there interference with the standard state cannot
# tell a state from its mirror image, so the read needs the third Bloch
# component.
_DEGENERATE = {"standard": qm.STANDARD_STATE,
               "up": qm.MemoryState(1.0, 0.0),
               "down": qm.MemoryState(0.0, 1.0),
               "down_i": qm.MemoryState(0.0, 1j)}
_NEAR_DEGENERATE = ([("standard", eps) for eps in (0.0, 1e-6, 1e-9, 1e-12)]
                    + [(base, eps) for base in ("up", "down", "down_i")
                       for eps in (0.0, 1e-6, 1e-8, 3e-9, 1e-12)])


class TestReconstruction:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        states = [random_state(rng) for _ in range(200)]
        states += [near(_DEGENERATE[base], eps, rng)
                   for base, eps in _NEAR_DEGENERATE]
        for state in states:
            obs = qm.Observables(*(qm.observe(state, which) for which in
                                   ("A1", "A2", "Ay")), 0.0)
            rec = qm.reconstruct_state(obs)
            assert rec.distance_up_to_phase(state) < 1e-15

    def test_zero_bloch_vector_is_inconsistent(self):
        with pytest.raises(Inconsistent):
            qm.reconstruct_state(qm.Observables(0.0, 0.0, 0.0, 0.0))


class TestProtocol:
    def test_write(self):
        s = qm.MemoryState(1.0, 0.0)
        target = qm.MemoryState(0.0, -1j)
        plan = qm.write(s, target, g1=2.0, g3=2.0)
        out = qm.apply_plan(s, plan, 2.0, 2.0)
        assert out.distance_up_to_phase(target) < 1e-12

    def test_reset(self):
        rng = np.random.default_rng(13)
        s = qm.STANDARD_STATE
        state = random_state(rng)
        plan = qm.reset(state, s, g1=1.0, g3=1.0)
        out = qm.apply_plan(state, plan, 1.0, 1.0)
        assert out.distance_up_to_phase(s) < 1e-12

    def test_noiseless_read(self):
        rng = np.random.default_rng(14)
        s = qm.STANDARD_STATE
        for _ in range(25):
            state = random_state(rng)
            obs, recovered, final = qm.read_protocol(state, s, 2.0, 2.0)
            assert recovered.distance_up_to_phase(state) < 1e-9
            assert final.distance_up_to_phase(state) < 1e-9

    def test_noisy_read(self):
        rng = np.random.default_rng(15)
        s = qm.STANDARD_STATE
        for _ in range(10):
            state = random_state(rng)
            _, recovered, _ = qm.read_protocol(state, s, 2.0, 2.0,
                                               noise_sigma=1e-4, rng=rng)
            assert recovered.distance_up_to_phase(state) < 1e-3

    @pytest.mark.parametrize("base, eps", _NEAR_DEGENERATE)
    def test_read_at_and_near_degenerate_states(self, base, eps):
        rng = np.random.default_rng(18)
        s = qm.STANDARD_STATE
        state = near(_DEGENERATE[base], eps, rng)
        for _ in range(4):
            g1, g3 = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 4.0, 2)
            _, recovered, final = qm.read_protocol(state, s, g1, g3)
            assert recovered.distance_up_to_phase(state) < 1e-9
            assert final.distance_up_to_phase(state) < 1e-9
            _, recovered, _ = qm.read_protocol(state, s, g1, g3,
                                               noise_sigma=1e-4, rng=rng)
            assert recovered.distance_up_to_phase(state) < 1e-3

    def test_noisy_read_replay(self):
        # Over the 240-point full-period design at a quarter turn, each
        # fitted Bloch component has standard error sigma/sqrt(480); no
        # read may miss by more than six of them.
        sigma = 1e-4
        bound = 6.0 * sigma / math.sqrt(480.0)
        s = qm.STANDARD_STATE
        rng = np.random.default_rng(1067)
        state = random_state(rng)
        _, recovered, _ = qm.read_protocol(state, s, 2.0, 2.0,
                                           noise_sigma=sigma, rng=rng)
        worst = recovered.distance_up_to_phase(state)
        rng = np.random.default_rng(2608)
        v = rng.normal(size=(4000, 2)) + 1j * rng.normal(size=(4000, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        g = rng.choice([-1.0, 1.0], (4000, 2))
        g *= rng.uniform(0.5, 4.0, (4000, 2))
        for (a1, a2), (g1, g3) in zip(v.tolist(), g.tolist()):
            state = qm.MemoryState(a1, a2)
            _, recovered, _ = qm.read_protocol(state, s, g1, g3,
                                               noise_sigma=sigma, rng=rng)
            worst = max(worst, recovered.distance_up_to_phase(state))
        assert worst <= bound, worst

    def test_projection_matches_lstsq_fit(self):
        # A read projects its 240 samples on fixed sines; the general
        # estimator fits the same positions and noise draws by lstsq.
        rng = np.random.default_rng(2201)
        xs_of_period = 0.1 + np.arange(240) / 240.0
        worst = 0.0
        for case in range(500):
            g1, g3 = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.1, 10.0, 2)
            state = random_state(rng)
            sigma = 1e-4 if case % 2 else 0.0
            for wave in (qm.Plan(("odd",), (2.0 / abs(g3),)),
                         qm.Plan(("even",), (abs(g1) / 2.0,))):
                seed = int(rng.integers(2 ** 32))
                est, _ = qm._interrogate(state, wave, g1, g3, sigma,
                                         np.random.default_rng(seed))
                xs = xs_of_period * math.pi / wave.k[0]
                values = qm.interference_pattern(state, wave, g1, g3, xs)
                if sigma:
                    values = values + np.random.default_rng(seed).normal(
                        0.0, sigma, size=values.shape)
                ref = qm.estimate_from_pattern(
                    zip(xs, values), wave.k[0],
                    qm.estimator_phase(wave, g1, g3))
                worst = max(worst, abs(est - ref))
        assert worst <= 1e-13, worst

    def test_read_scatters_nine_waves_without_lstsq(self, monkeypatch):
        # Each interrogating wave is undone by itself, so the read's only
        # plans are its two waves and the quarter turn about sigma_3 and
        # its undo, and no fit goes through lstsq.
        def no_lstsq(*args, **kwargs):
            raise AssertionError("lstsq called")

        plans = []
        check = qm.Plan.__post_init__

        def counted(plan):
            plans.append(plan)
            check(plan)

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        monkeypatch.setattr(qm.Plan, "__post_init__", counted)
        for g1, g3 in ((1.7, -2.3), (-0.6, 3.1)):
            plans.clear()
            _, recovered, final = qm.read_protocol(
                qm.STANDARD_STATE, qm.STANDARD_STATE, g1, g3)
            assert recovered.distance_up_to_phase(qm.STANDARD_STATE) < 1e-15
            assert final.distance_up_to_phase(qm.STANDARD_STATE) < 1e-15
            # three interrogations of one wave, each scattered twice, and
            # three waves for the turn and its undo: nine in all
            assert len(plans) == 4
            assert [len(p) for p in plans[:2]] == [1, 1]
            assert sum(map(len, plans[2:])) == 3

    def test_needs_both_couplings(self):
        with pytest.raises(ZeroCoupling):
            qm.read_protocol(qm.STANDARD_STATE, qm.STANDARD_STATE,
                             0.0, 1.0)


class TestAdmissibility:
    def test_pure_parity_waves_are_admissible(self):
        rng = np.random.default_rng(16)
        states = [random_state(rng) for _ in range(20)]
        for alpha, beta in ((1.0, 0.0), (0.0, 1.0)):
            rep = qm.admissibility_check(alpha, beta, 1.0, 2.0, 2.0,
                                         states)
            assert rep.purity == pytest.approx(1.0, abs=1e-12)
            assert rep.admissible

    def test_mixed_wave_entangles(self):
        r = 1.0 / math.sqrt(2.0)
        rep = qm.admissibility_check(r, r, 1.0, 2.0, 2.0,
                                     [qm.MemoryState(1.0, 0.0)])
        assert rep.purity == pytest.approx(0.5, abs=1e-12)
        assert not rep.admissible

    def test_normalization_required(self):
        with pytest.raises(ValueError):
            qm.admissibility_check(1.0, 1.0, 1.0, 2.0, 2.0,
                                   [qm.MemoryState(1.0, 0.0)])

    def test_raw_vector_must_be_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            qm.admissibility_check(1.0, 0.0, 1.0, 2.0, 2.0, [[2, 0]])
