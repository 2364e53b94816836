import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi1d import pointcore
from fermi1d.errors import (
    MissingLimit,
    PoleAtSpectralPoint,
    SignUndefined,
    UndefinedScale,
)


def quads_from_couplings(g, kappa):
    return pointcore.resolvent_from_couplings(g, kappa).as_array()


class TestResolventFromCouplings:
    def test_pure_delta(self):
        # all four sectors equal g1 / (g1 + 2 kappa)
        f = quads_from_couplings((1.0, 0.0, 0.0), 1.0)
        assert np.allclose(f, [1 / 3, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_pure_delta_prime(self):
        # f1 = f3 = -kappa/(kappa - 2/g3), f2 = f4 = kappa/(kappa - 2/g3)
        g3 = 2.0
        kappa = 3.0
        f = quads_from_couplings((0.0, 0.0, g3), kappa)
        c = -2.0 / g3
        assert np.allclose(
            f, [-kappa / (kappa + c), kappa / (kappa + c),
                -kappa / (kappa + c), kappa / (kappa + c)], atol=1e-15)

    def test_general_frozen(self):
        # D = g3 k - (4 - g1 g3 + g2^2)/2 - g1/k; hand-evaluated
        f = quads_from_couplings((1.0, 2.0, 3.0), 2.0)
        d = 3.0 * 2.0 - 0.5 * (4.0 - 3.0 + 4.0) - 0.5
        expected = np.array([(-6.0 + 4.0 - 0.5) / d,
                             1.0 + 0.5 * (4.0 + 3.0 - 4.0) / d,
                             (-6.0 - 4.0 - 0.5) / d,
                             1.0 + 0.5 * (4.0 + 3.0 - 4.0) / d])
        assert np.allclose(f, expected, atol=1e-15)

    def test_pole_raises(self):
        # g = (2, 0, 2): D(1) = 2 - 2 - 2/1... = 2 - 1 - ... vanishes
        with pytest.raises(PoleAtSpectralPoint) as err:
            pointcore.resolvent_from_couplings((2.0, 0.0, 2.0), 1.0)
        assert err.value.kappa == 1.0

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            pointcore.resolvent_from_couplings((1.0, 0.0, 0.0), -1.0)
        with pytest.raises(ValueError):
            pointcore.resolvent_from_couplings((1.0, 0.0, 0.0), 0.0)


class TestConstants:
    def test_canonical_representative(self):
        c = pointcore.constants_from_couplings((2.0, 0.0, 2.0))
        assert c.family == pointcore.FAMILY_GENERIC
        assert c.c0 == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose([c.c1, c.c2, c.c3, c.c4],
                                   [0.0, -2.0, 0.0, -2.0], atol=1e-15)

    def test_pure_mixed_coupling(self):
        c = pointcore.constants_from_couplings((0.0, 1.0, 0.0))
        assert c.family == pointcore.FAMILY_SMALL_SCALE
        assert c.gamma == 0.0
        np.testing.assert_allclose([c.c1, c.c2, c.c3, c.c4],
                                   [5 / 4, 3 / 4, 1.0, 3 / 4], atol=1e-15)

    def test_free_case_raises(self):
        with pytest.raises(UndefinedScale):
            pointcore.constants_from_couplings((0.0, 0.0, 0.0))

    def test_evaluation_frozen(self):
        c = pointcore.ResolventConstants(1.0, 0.0, 2.0, 0.0, 2.0)
        f = pointcore.resolvent_from_constants(c, 2.0).as_array()
        # t = 2 (2 - 1/2) = 3, num = 2 (2 + 1/2) = 5
        np.testing.assert_allclose(f, [-5 / 3, -1 / 3, -5 / 3, -1 / 3],
                                   atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = rng.uniform(-5.0, 5.0, size=3)
            kappa = rng.uniform(0.1, 10.0)
            try:
                direct = quads_from_couplings(g, kappa)
            except PoleAtSpectralPoint:
                continue
            if np.max(np.abs(direct)) > 100.0:
                continue  # too close to a pole for a tight comparison
            c = pointcore.constants_from_couplings(g)
            via = pointcore.resolvent_from_constants(c, kappa).as_array()
            np.testing.assert_allclose(via, direct, atol=1e-10, rtol=1e-10)

    def test_limit_families_round_trip(self):
        for g in [(1.5, 0.7, 0.0), (0.0, 0.7, -2.0), (0.0, 2.0, 0.0),
                  (-1.5, 0.0, 0.0)]:
            c = pointcore.constants_from_couplings(g)
            for kappa in (0.3, 1.0, 4.0):
                direct = quads_from_couplings(g, kappa)
                via = pointcore.resolvent_from_constants(c, kappa)
                np.testing.assert_allclose(via.as_array(), direct,
                                           atol=1e-13)


class TestDual:
    def test_quad_dual_is_involution(self):
        def provider(kappa):
            return pointcore.resolvent_from_couplings((1.0, 2.0, 3.0),
                                                      kappa)

        double = pointcore.dual_transform_quad(
            pointcore.dual_transform_quad(provider))
        np.testing.assert_allclose(double(1.7).as_array(),
                                   provider(1.7).as_array(), atol=1e-15)

    def test_constants_dual_matches_quad_dual(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = rng.uniform(-5.0, 5.0, size=3)
            if g[0] == 0.0 or g[2] == 0.0:
                continue
            c = pointcore.constants_from_couplings(g)
            dual_c = pointcore.dual_transform(c)

            def provider(kappa):
                return pointcore.resolvent_from_constants(c, kappa)

            dual_q = pointcore.dual_transform_quad(provider)
            for kappa in (0.4, 1.3, 2.6):
                try:
                    expected = dual_q(kappa).as_array()
                except PoleAtSpectralPoint:
                    continue
                if np.max(np.abs(expected)) > 100.0:
                    continue
                got = pointcore.resolvent_from_constants(
                    dual_c, kappa).as_array()
                np.testing.assert_allclose(got, expected, atol=1e-10,
                                           rtol=1e-10)

    def test_limit_families_exchange(self):
        c = pointcore.constants_from_couplings((2.0, 0.0, 0.0))
        dual = pointcore.dual_transform(c)
        assert dual.family == pointcore.FAMILY_LARGE_SCALE
        assert pointcore.dual_transform(dual).family == \
            pointcore.FAMILY_SMALL_SCALE


class TestGreensFunction:
    def test_free_case(self):
        val = pointcore.greens_function((0.0, 0.0, 0.0), 2.0, 0.5, -0.3)
        assert val == pytest.approx(math.exp(-2.0 * 0.8) / 4.0, abs=1e-15)

    def test_sign_sector_selection(self):
        g = (1.0, 2.0, 3.0)
        quad = pointcore.resolvent_from_couplings(g, 1.0)
        x, xp = 0.5, -0.3
        expected = (math.exp(-abs(x - xp))
                    - quad.f4 * math.exp(-(abs(x) + abs(xp)))) / 2.0
        assert pointcore.greens_function(g, 1.0, x, xp) == \
            pytest.approx(expected, abs=1e-15)

    def test_origin_raises(self):
        with pytest.raises(SignUndefined):
            pointcore.greens_function((1.0, 0.0, 0.0), 1.0, 0.0, 1.0)

    def test_symmetry(self):
        g = (1.0, 2.0, 3.0)
        a = pointcore.greens_function(g, 1.3, 0.7, -0.4)
        b = pointcore.greens_function(g, 1.3, -0.4, 0.7)
        assert a == pytest.approx(b, abs=1e-15)

    def test_broadcasts_over_coordinates(self):
        g = (1.0, 2.0, 3.0)
        x = np.array([0.7, -0.4, -1.1, 1.5])[:, None]
        xp = np.array([1.3, 0.9, -0.6, -0.8, 2.5])
        grid = pointcore.greens_function(g, 1.3, x, xp)
        assert grid.shape == (4, 5)
        expected = [[pointcore.greens_function(g, 1.3, a, b) for b in xp]
                    for a in x[:, 0]]
        np.testing.assert_allclose(grid, expected, rtol=1e-15, atol=0.0)
        assert type(pointcore.greens_function(g, 1.3, 0.7, -0.4)) is float
        with pytest.raises(SignUndefined):
            pointcore.greens_function(g, 1.3, x, np.array([1.0, 0.0]))


class TestSMatrix:
    def test_delta_barrier(self):
        s = pointcore.s_matrix((2.0, 0.0, 0.0), 1.0)
        assert s[0, 0] == pytest.approx((1.0 - 1.0j) / 2.0, abs=1e-15)
        assert s[1, 0] == pytest.approx((-1.0 - 1.0j) / 2.0, abs=1e-15)

    def test_free_is_identity(self):
        s = pointcore.s_matrix((0.0, 0.0, 0.0), 1.0)
        np.testing.assert_allclose(s, np.eye(2), atol=1e-15)

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = rng.uniform(-5.0, 5.0, size=3)
            k = rng.uniform(0.1, 10.0)
            s = pointcore.s_matrix(g, k)
            np.testing.assert_allclose(s @ s.conj().T, np.eye(2),
                                       atol=1e-12)

    def test_parity_phases(self):
        g1, g3, k = 1.3, -0.7, 2.1
        s = pointcore.s_matrix((g1, 0.0, g3), k)
        even = pointcore.even_phase(g1, k)
        odd = pointcore.odd_phase(g3, k)
        assert s[0, 0] + s[1, 0] == pytest.approx(even, abs=1e-14)
        assert s[0, 0] - s[1, 0] == pytest.approx(odd, abs=1e-14)


class TestBoundStates:
    def test_attractive_delta(self):
        assert pointcore.bound_states((-2.0, 0.0, 0.0)) == \
            pytest.approx([1.0], abs=1e-14)

    def test_repulsive_delta(self):
        assert pointcore.bound_states((1.0, 0.0, 0.0)) == []

    def test_quadratic_case(self):
        # (-4, 0, 1): kappa D = (kappa - 2)^2, a double root reported once
        for g, expected in (((2.0, 0.0, 2.0), [1.0]),
                            ((-4.0, 0.0, 1.0), [2.0])):
            roots = pointcore.bound_states(g)
            assert roots == pytest.approx(expected, abs=1e-12)
            with pytest.raises(PoleAtSpectralPoint):
                pointcore.resolvent_from_couplings(g, roots[0])


def s_matrix_complex(g, k):
    """The closed-form S-matrix evaluated in Python complex arithmetic,
    the rounding the grid kernel reproduces in real arithmetic."""
    g1, g2, g3 = g
    d = (1j * g3 * k + 0.5 * (4.0 - g1 * g3 + g2 ** 2) + 1j * g1 / k)
    diag = 0.5 * (4.0 + g1 * g3 - g2 ** 2) / d
    spm = (1j * g3 * k - 2.0 * g2 - 1j * g1 / k) / d
    smp = (1j * g3 * k + 2.0 * g2 - 1j * g1 / k) / d
    return np.array([[diag, spm], [smp, diag]])


def assert_same_bits(a, b):
    """Equal values with equal signs of zero."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert np.array_equal(a.view(np.int64), b.view(np.int64)), (a, b)


_strength = st.floats(1e-3, 1e3)
_FAMILIES = ("++", "+-", "-+", "--", "g1=0", "g3=0", "g2-only")


@st.composite
def couplings(draw):
    """Couplings from one of the sign sectors of (g1, g3) or one of the
    g1 = 0, g3 = 0 and pure-g2 families."""
    family = draw(st.sampled_from(_FAMILIES))
    g1, g3 = draw(_strength), draw(_strength)
    g2 = draw(st.floats(-30.0, 30.0))
    if family in ("++", "+-", "-+", "--"):
        g1 = g1 if family[0] == "+" else -g1
        g3 = g3 if family[1] == "+" else -g3
    elif family == "g1=0":
        g1 = 0.0
    elif family == "g3=0":
        g3 = 0.0
    else:
        g1 = g3 = 0.0
        g2 = draw(st.floats(1e-3, 30.0) | st.floats(-30.0, -1e-3))
    return (g1, g2, g3)


_points = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30)


def assert_array_call_equals_points(fn, kappa):
    """fn over the kappa array equals fn at each point bit for bit, or
    raises what the first point that raises does."""
    quads = []
    for point in kappa:
        try:
            quads.append(fn(float(point)).as_array())
        except (PoleAtSpectralPoint, ValueError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                fn(kappa)
            return
    quad = fn(kappa)
    assert quad.f1.shape == kappa.shape
    assert_same_bits(quad.as_array(), np.stack(quads, axis=-1))


class _Float(float):
    """A float that is not a Python float, so it takes the numpy check."""


def outcome(fn, value):
    """(type, value) of fn(value), or (exception type, message)."""
    try:
        out = fn(value)
    except Exception as exc:
        return type(exc), str(exc)
    return type(out), out


_atoms = (st.floats() | st.floats().map(np.float64)
          | st.sampled_from([-0.0, 0.0, 5e-324, 1.7976931348623157e308,
                             1.8e308, -math.inf, math.nan])
          | st.integers(-3, 3) | st.just(10 ** 400) | st.none()
          | st.sampled_from(["1.5", "-2", "nan", "k"]))


class TestSpectralPoints:
    @settings(max_examples=500, deadline=None)
    @given(_atoms | st.lists(_atoms, max_size=5).map(tuple))
    def test_python_check_matches_numpy_check(self, points):
        # A float subclass and a list are not checked in Python, so they
        # give what the numpy check gives for the same value.
        numpy_form = (list(points) if type(points) is tuple
                      else _Float(points) if type(points) is float
                      else points)
        (kind, got), (ref_kind, ref) = (
            outcome(pointcore.spectral_points, points),
            outcome(pointcore.spectral_points, numpy_form))
        assert kind is ref_kind
        if isinstance(ref, np.ndarray):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)
        else:
            assert got == ref


class TestGridKernels:
    @settings(max_examples=300, deadline=None)
    @given(couplings(), _points)
    def test_resolvent_grid_equals_scalar_view(self, g, kappa):
        # the bound states put pole-mask points into the grid
        kappa = np.array(kappa + pointcore.bound_states(g))
        quad, pole = pointcore.resolvent_grid(g, kappa)
        for j, point in enumerate(kappa):
            try:
                point_quad = pointcore.resolvent_from_couplings(g, point)
            except PoleAtSpectralPoint:
                assert pole[j]
                assert np.isnan(quad.as_array()[:, j]).all()
                continue
            assert not pole[j]
            assert_same_bits(quad.as_array()[:, j], point_quad.as_array())
        # array calls, in both orders so that a pole may come first, for
        # the couplings and for every constants family
        kernels = [functools.partial(pointcore.resolvent_from_couplings, g)]
        if any(g):
            c = pointcore.constants_from_couplings(g)
            kernels += [
                functools.partial(pointcore.resolvent_from_constants, family)
                for family in (c, pointcore.dual_transform(c))]
        for kernel in kernels:
            for points in (kappa, kappa[::-1]):
                assert_array_call_equals_points(kernel, points)

    @settings(max_examples=300, deadline=None)
    @given(couplings(), _points)
    def test_s_matrix_grid_equals_complex_evaluation(self, g, k):
        k = np.array(k)
        s = pointcore.s_matrix_grid(g, k)
        assert s.shape == (len(k), 2, 2)
        for j, point in enumerate(k):
            assert_same_bits(s[j], s_matrix_complex(g, point))
            assert_same_bits(s[j], pointcore.s_matrix(g, point))

    def test_kernels_broadcast(self):
        kappa = np.array([[0.5, 1.0], [1.5, 2.0]])
        quad, pole = pointcore.resolvent_grid((2.0, 0.0, 2.0), kappa)
        assert pole.tolist() == [[False, True], [False, False]]
        assert quad.f1.shape == kappa.shape
        assert np.isnan(quad.f1[0, 1]) and not np.isnan(quad.f1[0, 0])
        assert pointcore.s_matrix_grid((1.0, 0.5, -1.0),
                                       kappa).shape == (2, 2, 2, 2)

    def test_non_finite_points_raise(self):
        g = (1.5, 0.3, -0.7)
        # g1 / kappa overflows
        with pytest.raises(ValueError, match="not finite at kappa = 1e-320"):
            pointcore.resolvent_grid(g, [1.0, 1e-320])
        with pytest.raises(ValueError, match="not finite"):
            pointcore.resolvent_from_couplings(g, 1e-320)
        with pytest.raises(ValueError, match="not finite at k = 1e-320"):
            pointcore.s_matrix_grid(g, [1.0, 1e-320])
        with pytest.raises(ValueError, match="not finite at k = 1e-320$"):
            pointcore.s_matrix(g, 1e-320)
        with pytest.raises(ValueError):
            pointcore.resolvent_grid(g, [1.0, 0.0])


class TestPairings:
    def test_delta_pairing_smooth(self):
        assert pointcore.pair_delta(lambda x: math.cos(x)) == \
            pytest.approx(1.0, abs=1e-9)

    def test_delta_pairing_jump(self):
        g = lambda x: 2.0 + x if x > 0 else -1.0 + x  # noqa: E731
        assert pointcore.pair_delta(g) == pytest.approx(0.5, abs=1e-9)
        assert pointcore.pair_delta(limits=(2.0, -1.0)) == 0.5

    def test_delta_prime_pairing(self):
        g = lambda x: 3.0 * x if x > 0 else -x  # noqa: E731
        assert pointcore.pair_delta_prime_p(g) == \
            pytest.approx(-1.0, abs=1e-8)
        assert pointcore.pair_delta_prime_p(derivatives=(3.0, -1.0)) == -1.0

    def test_divergent_limit_raises(self):
        with pytest.raises(MissingLimit):
            pointcore.pair_delta(lambda x: 1.0 / x)
