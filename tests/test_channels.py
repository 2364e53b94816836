import math

import numpy as np
import pytest

from fermi1d import channels, pointcore, qmemory
from fermi1d.channels import IncidentWave, MatrixCouplings, SiteArray
from fermi1d.errors import SingularSystem
from fermi1d.verify import transfer_matrix_oracle


def scalar_site(g1=0.0, g2=0.0, g3=0.0, position=0.0):
    return (position, MatrixCouplings.from_scalars(g1, g2, g3))


def dense_matching_s_matrix(sites, k):
    """Reference S-matrix from the global plane-wave matching system,
    assembled site by site and solved densely with np.linalg.solve.

    Unknowns [A_0, B_0, ..., A_m, B_m]; the wave on segment s is
    E u_s with E = [e I, conj(e) I], e = exp(ikx), and its derivative
    D u_s with D = ik [e I, -conj(e) I].  Rows: n pins of A_0, then per
    site Delta psi + C2 psi_bar + C3 psi_bar' = 0 and Delta psi' -
    C1 psi_bar - C2 psi_bar' = 0, then n pins of B_m.
    """
    n, m = sites.n, len(sites)
    dim = 2 * n * (m + 1)
    mat = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(n)
    mat[:n, :n] = eye
    mat[-n:, -n:] = eye
    for t, x in enumerate(sites.positions):
        c1, c2, c3 = sites.couplings[:, t]
        e = np.exp(1j * k * x)
        big_e = np.hstack([e * eye, np.conj(e) * eye])
        big_d = 1j * k * np.hstack([e * eye, -np.conj(e) * eye])
        rows = slice(n + 2 * n * t, n + 2 * n * (t + 1))
        for side, cols in ((-1.0, slice(2 * n * t, 2 * n * (t + 1))),
                           (1.0, slice(2 * n * (t + 1), 2 * n * (t + 2)))):
            mat[rows, cols] = np.vstack([
                side * big_e + c2 @ big_e / 2 + c3 @ big_d / 2,
                side * big_d - c1 @ big_e / 2 - c2 @ big_d / 2])
    rhs = np.zeros((dim, 2 * n), dtype=complex)
    rhs[:n, :n] = eye
    rhs[-n:, n:] = eye
    sol = np.linalg.solve(mat, rhs)
    return np.vstack([sol[-2 * n:-n], sol[n:2 * n]])  # [A_m; B_0]


def complex_hermitian_array(rng, m, n):
    """m sites of n x n couplings with imaginary off-diagonal parts."""
    def herm():
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (a + a.conj().T) / 2.0
    positions = np.cumsum(rng.uniform(0.2, 1.5, m))
    return SiteArray([(x, MatrixCouplings(herm(), herm(), herm()))
                      for x in positions])


class TestTypes:
    def test_couplings_must_be_hermitian(self):
        with pytest.raises(ValueError):
            MatrixCouplings(np.array([[0.0, 1.0], [0.0, 0.0]]),
                            np.zeros((2, 2)), np.zeros((2, 2)))

    def test_hermiticity_tolerance_is_relative(self):
        # a hermitian matrix at scale 1e6 after an orthogonal similarity
        # carries round-off asymmetry of about 1e-10
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = q @ (1e6 * (a + a.T) / 2.0) @ q.T
        assert np.max(np.abs(m - m.T)) > 1e-12
        zero = np.zeros((3, 3))
        MatrixCouplings(m, zero, zero)
        bad = m.copy()
        bad[0, 1] += 1e-6 * np.max(np.abs(m))
        with pytest.raises(ValueError, match="c1 must be hermitian"):
            MatrixCouplings(bad, zero, zero)
        with pytest.raises(ValueError, match="c3 must be hermitian"):
            MatrixCouplings(zero, zero, 1e-6 * np.array(
                [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        # checked as one stack, each matrix against its own scale: a
        # global scale of 1e6 would pass the second site's asymmetry
        couplings = np.zeros((3, 2, 3, 3))
        couplings[0] = m, 1e-6 * np.eye(3)
        SiteArray.from_arrays([0.0, 1.0], couplings)
        couplings[0, 1, 0, 1] += 1e-12
        with pytest.raises(ValueError, match="c1 must be hermitian"):
            SiteArray.from_arrays([0.0, 1.0], couplings)

    def test_sites_must_share_channel_count(self):
        two = MatrixCouplings(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            SiteArray([scalar_site(1.0), (1.0, two)])

    def test_sites_must_be_ordered(self):
        with pytest.raises(ValueError):
            SiteArray([scalar_site(1.0, position=1.0),
                       scalar_site(1.0, position=0.0)])

    def test_incident_wave_validation(self):
        with pytest.raises(ValueError):
            IncidentWave(-1.0, "left")
        with pytest.raises(ValueError):
            IncidentWave(1.0, "sideways")
        with pytest.raises(ValueError):
            IncidentWave(1.0, "left", np.array([1.0, 1.0]))

    def test_non_finite_inputs_are_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                MatrixCouplings.from_scalars(bad, 0.0, 0.0)
            with pytest.raises(ValueError):
                MatrixCouplings(np.eye(2), np.zeros((2, 2)),
                                np.diag([1.0, bad]))
            with pytest.raises(ValueError):
                SiteArray([scalar_site(1.0, position=bad)])
            with pytest.raises(ValueError):
                SiteArray([scalar_site(1.0, position=0.0),
                           scalar_site(1.0, position=bad)])
            with pytest.raises(ValueError):
                IncidentWave(1.0, "left", np.array([bad]))

    def test_full_s_matrix_rejects_bad_k(self):
        arr = SiteArray([scalar_site(1.0)])
        for k in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                channels.full_s_matrix(arr, k)


class TestSingleSite:
    def test_matches_closed_form_s_matrix(self):
        for g in [(2.0, 0.0, 0.0), (1.0, 2.0, 3.0), (-1.5, 0.7, 2.2),
                  (0.3, 0.0, 1.0)]:
            arr = SiteArray([scalar_site(*g)])
            for k in (0.5, 1.0, 3.7, 1e4, 1e6, 1e8):
                s_ref = pointcore.s_matrix(g, k)
                s = channels.full_s_matrix(arr, k)
                np.testing.assert_allclose(s, s_ref, atol=1e-13)

    def test_empty_array_is_identity(self):
        arr = SiteArray([])
        np.testing.assert_allclose(channels.full_s_matrix(arr, 1.0),
                                   np.eye(2), atol=1e-15)
        # an empty array keeps its channel count: 2n x 2n identities
        s, singular = channels.full_s_matrix_grid(
            SiteArray.from_arrays([], np.zeros((3, 0, 2, 2))), [1.0, 2.0])
        assert s.shape == (2, 4, 4)
        np.testing.assert_array_equal(s, [np.eye(4)] * 2)
        assert not singular.any()

    def test_flux_conservation(self):
        arr = SiteArray([scalar_site(1.0, 2.0, 3.0)])
        for mode in ("left", "right", "even", "odd"):
            sol = channels.solve_scattering(arr, IncidentWave(1.3, mode))
            assert abs(sol.flux_residual) < 1e-12

    def test_delta_barrier_probabilities(self):
        arr = SiteArray([scalar_site(g1=2.0)])
        sol = channels.solve_scattering(arr, IncidentWave(1.0, "left"))
        assert sol.transmission[0] == pytest.approx(0.5, abs=1e-14)
        assert sol.reflection[0] == pytest.approx(0.5, abs=1e-14)


class TestMultiSite:
    def test_two_deltas_match_transfer_matrices(self):
        sites = [(0.0, 1.0), (1.0, -0.5)]
        arr = SiteArray([scalar_site(g1=s, position=p) for p, s in sites])
        for k in (0.7, 1.0, 2.4):
            t, r = transfer_matrix_oracle(sites, k)
            sol = channels.solve_scattering(arr, IncidentWave(k, "left"))
            assert sol.outgoing_right[0] == pytest.approx(t, abs=1e-13)
            assert sol.outgoing_left[0] == pytest.approx(r, abs=1e-13)

    def test_s_matrix_unitarity(self):
        arr = SiteArray([scalar_site(1.0, 0.5, 0.3, position=0.0),
                         scalar_site(-0.7, 0.0, 1.1, position=1.3)])
        s = channels.full_s_matrix(arr, 0.9)
        np.testing.assert_allclose(s @ s.conj().T, np.eye(2), atol=1e-12)

    def test_long_delta_array_matches_transfer_matrices(self):
        rng = np.random.default_rng(2000)
        sites = list(zip(np.cumsum(rng.uniform(0.3, 1.2, 2000)),
                         rng.uniform(-0.2, 0.2, 2000)))
        arr = SiteArray([scalar_site(g1=s, position=p) for p, s in sites])
        for k in (0.4, 1.7, 3.9):
            t, r = transfer_matrix_oracle(sites, k)
            sol = channels.solve_scattering(arr, IncidentWave(k, "left"))
            assert abs(sol.outgoing_right[0] - t) < 1e-12
            assert abs(sol.outgoing_left[0] - r) < 1e-12
            s = channels.full_s_matrix(arr, k)
            np.testing.assert_allclose(s @ s.conj().T, np.eye(2),
                                       atol=1e-12)

    def test_dirichlet_box_is_singular_at_its_modes(self):
        # g2 = +2 leaves psi = 0 on its right and psi' = 0 on its left,
        # g2 = -2 the mirror image: the two sites close a Dirichlet box
        # on [0, 1] whose modes k = pi, 2 pi are embedded in the
        # continuum, while waves from outside are fully reflected.
        arr = SiteArray([scalar_site(g2=2.0, position=0.0),
                         scalar_site(g2=-2.0, position=1.0)])
        for k in (math.pi, 2.0 * math.pi):
            with pytest.raises(SingularSystem):
                channels.full_s_matrix(arr, k)
            with pytest.raises(SingularSystem):
                channels.solve_scattering(arr, IncidentWave(k, "left"))
        s = channels.full_s_matrix(arr, 1.3 * math.pi)
        np.testing.assert_allclose(np.abs(s), [[0.0, 1.0], [1.0, 0.0]],
                                   atol=1e-12)
        np.testing.assert_allclose(s @ s.conj().T, np.eye(2), atol=1e-12)

    def test_complex_hermitian_columns_match_single_solves(self):
        rng = np.random.default_rng(21)
        for n in (2, 3):
            arr = complex_hermitian_array(rng, 5, n)
            k = 1.3
            s = channels.full_s_matrix(arr, k)
            np.testing.assert_allclose(s @ s.conj().T, np.eye(2 * n),
                                       atol=1e-12)
            for j in range(n):
                unit = np.eye(n)[j]
                for col, mode in ((j, "left"), (n + j, "right")):
                    sol = channels.solve_scattering(
                        arr, IncidentWave(k, mode, unit))
                    np.testing.assert_allclose(
                        s[:n, col], sol.outgoing_right, atol=1e-13)
                    np.testing.assert_allclose(
                        s[n:, col], sol.outgoing_left, atol=1e-13)

    def test_matches_dense_matching_system(self):
        # an oracle the cascade was not derived from: one global system,
        # also with the array shifted far from the origin, where each
        # site is still solved at its own origin
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 4):
            for m in (1, 2, 7, 30):
                arr = complex_hermitian_array(rng, m, n)
                shifted = SiteArray.from_arrays(arr.positions + 1e3,
                                                arr.couplings)
                for sites in (arr, shifted):
                    for k in (0.4, 1.3, 3.1):
                        np.testing.assert_allclose(
                            channels.full_s_matrix(sites, k),
                            dense_matching_s_matrix(sites, k),
                            rtol=0, atol=1e-12)


class TestGuard:
    def test_well_posed_pair_at_large_k_is_not_flagged(self):
        arr = SiteArray([scalar_site(g1=1.0, position=0.0),
                         scalar_site(g1=-0.3, position=1.0)])
        s = channels.full_s_matrix(arr, 1e13)
        np.testing.assert_allclose(s @ s.conj().T, np.eye(2), atol=1e-12)

    def test_dirichlet_box_grid_mask(self):
        arr = SiteArray([scalar_site(g2=2.0, position=0.0),
                         scalar_site(g2=-2.0, position=1.0)])
        ks = np.array([1.0, 1.3, 2.0]) * math.pi
        s, singular = channels.full_s_matrix_grid(arr, ks)
        assert s.shape == (3, 2, 2)
        assert singular.tolist() == [True, False, True]
        for k, s_k, flagged in zip(ks, s, singular):
            if flagged:
                assert np.all(np.isnan(s_k))
                with pytest.raises(SingularSystem):
                    channels.full_s_matrix(arr, k)
            else:
                np.testing.assert_array_equal(
                    s_k, channels.full_s_matrix(arr, k))

    def test_overflow_is_singular(self):
        arr = SiteArray([scalar_site(g3=1e200, position=0.0),
                         scalar_site(g1=1.0, position=1.0)])
        with pytest.raises(SingularSystem):
            channels.full_s_matrix(arr, 1e300)

    def test_two_channel_overflow_is_singular(self):
        eye, zero = np.eye(2), np.zeros((2, 2))
        arr = SiteArray([(0.0, MatrixCouplings(zero, zero, 1e200 * eye)),
                         (1.0, MatrixCouplings(eye, zero, zero))])
        with pytest.raises(SingularSystem):
            channels.full_s_matrix(arr, 1e300)

    def test_exact_zero_pivot_masks_only_its_site(self):
        # C1 = C2 = C3 = 2^60 in channel 0 of the middle site: the +-1 of
        # its jumps rounds away, so two rows of M_out are equal up to
        # sign at every k, and the site solve meets an exact zero pivot.
        # The sites around it are solved as they are alone.
        rng = np.random.default_rng(8)
        couplings = rng.normal(size=(3, 3, 2, 2))
        couplings = (couplings + couplings.swapaxes(-2, -1)) / 2.0
        couplings[:, 1] = np.diag([2.0 ** 60, 0.5])
        positions = np.array([0.0, 1.0, 2.5])
        ks = np.array([0.5, 1.0, 2.0])
        arr = SiteArray.from_arrays(positions, couplings)
        slogdet = np.linalg.slogdet
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "slogdet",
                          lambda a: calls.append(a.shape) or slogdet(a))
            s, bad = channels._site_s_matrices(arr, ks)
        assert calls == [(3, 3, 4, 4)]
        assert bad.tolist() == [[False, True, False]] * 3
        for t in (0, 2):
            alone, _ = channels._site_s_matrices(SiteArray.from_arrays(
                positions[t:t + 1], couplings[:, t:t + 1]), ks)
            np.testing.assert_allclose(s[:, t], alone[:, 0], rtol=0,
                                       atol=1e-15)
        s, singular = channels.full_s_matrix_grid(arr, ks)
        assert singular.all() and np.isnan(s).all()


class TestOneChannel:
    def test_matches_decoupled_channels_of_the_matrix_cascade(self):
        # Two one-channel arrays at the same positions, each in one
        # channel of a diagonal two-channel array, C_j = diag(g_j of a,
        # g_j of b): the matrix cascade, with its solves per site and per
        # join, is an oracle that the elementwise path shares no step
        # with.  The second case puts a Dirichlet box in one channel.
        rng = np.random.default_rng(41)
        cases = []
        for m in (1, 2, 7, 30):
            positions = np.cumsum(rng.uniform(0.3, 1.2, m))
            g = rng.uniform(-2.0, 2.0, (2, 3, m)) * [[1.0], [0.5], [0.3]]
            cases.append((positions, g))
        box = np.zeros((2, 3, 2))
        box[0] = rng.uniform(-1.0, 1.0, (3, 2))
        box[1, 1] = (2.0, -2.0)
        cases.append((np.array([0.0, 1.0]), box))
        ks = np.array([0.3, 1.1, 2.7, math.pi, 5.0, 2.0 * math.pi])
        for positions, g in cases:
            m = len(positions)
            diagonal = np.zeros((3, m, 2, 2))
            diagonal[..., 0, 0], diagonal[..., 1, 1] = g
            s2, singular2 = channels.full_s_matrix_grid(
                SiteArray.from_arrays(positions, diagonal), ks)
            with pytest.MonkeyPatch.context() as patch:
                for name in ("solve", "svd", "slogdet"):
                    patch.setattr(np.linalg, name, _forbidden)
                ones = [channels.full_s_matrix_grid(SiteArray.from_arrays(
                    positions, g_j[..., None, None]), ks) for g_j in g]
            assert singular2.tolist() == (ones[0][1] | ones[1][1]).tolist()
            for j, (s1, singular1) in enumerate(ones):
                np.testing.assert_allclose(s2[~singular2, j::2, j::2],
                                           s1[~singular2], rtol=0,
                                           atol=1e-12)
                assert np.isnan(s1[singular1]).all()
        # the box traps modes at k = pi and 2 pi in its channel only
        assert not ones[0][1].any()
        assert ones[1][1].tolist() == [False, False, False, True, False,
                                       True]


def _forbidden(*args, **kwargs):
    raise AssertionError("a LAPACK routine this path must not call")


class TestFastPath:
    """The n >= 2 cascade calls slogdet only when a site solve fails and
    the SVD only where the bound sigma_min(I - P) >= 1 - |P|_F fails."""

    def test_well_posed_arrays_skip_slogdet(self):
        rng = np.random.default_rng(51)
        ks = np.array([0.3, 1.1, 2.7, 5.0])
        for n in (2, 4):
            for m in (1, 2, 7, 30):
                arr = complex_hermitian_array(rng, m, n)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(np.linalg, "slogdet", _forbidden)
                    s, singular = channels.full_s_matrix_grid(arr, ks)
                assert not singular.any()
                np.testing.assert_allclose(
                    s @ s.conj().swapaxes(-2, -1),
                    [np.eye(2 * n)] * len(ks), atol=1e-12)

    def test_weak_round_trips_skip_svd(self):
        rng = np.random.default_rng(52)
        ks = np.array([0.3, 1.1, 2.7, 5.0])
        star = channels._star
        largest = []

        def checked_star(a, b):
            n = a.shape[-1] // 2
            loop = a[..., :n, n:] @ b[..., n:, :n]
            largest.append(np.linalg.norm(loop, axis=(-2, -1)).max())
            return star(a, b)

        for n in (2, 4):
            for m in (2, 7, 30):
                positions = np.cumsum(rng.uniform(0.3, 1.2, m))
                couplings = 0.02 * rng.normal(size=(3, m, n, n))
                couplings = couplings + couplings.swapaxes(-2, -1)
                arr = SiteArray.from_arrays(positions, couplings)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(channels, "_star", checked_star)
                    patch.setattr(np.linalg, "svd", _forbidden)
                    s, singular = channels.full_s_matrix_grid(arr, ks)
                assert not singular.any()
                np.testing.assert_allclose(
                    s @ s.conj().swapaxes(-2, -1),
                    [np.eye(2 * n)] * len(ks), atol=1e-12)
        # every join's |r'_a r_b|_F is below 1, where the bound suffices
        assert 0.0 < max(largest) < 1.0


class TestTwoChannels:
    def test_parity_blocks_match_memory_site(self):
        # C1 = g1 sigma_1, C3 = g3 sigma_3: the quantum-memory site
        g1, g3, k = 2.0, 2.0, 1.3
        coup = MatrixCouplings(
            g1 * np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.zeros((2, 2)),
            g3 * np.array([[1.0, 0.0], [0.0, -1.0]]))
        s = channels.full_s_matrix(SiteArray([(0.0, coup)]), k)
        s_even, s_odd = channels.parity_blocks(s)
        np.testing.assert_allclose(s_even, qmemory.s_plus(g1, k),
                                   atol=1e-13)
        np.testing.assert_allclose(s_odd, qmemory.s_minus(g3, k),
                                   atol=1e-13)

    def test_two_channel_flux(self):
        coup = MatrixCouplings(np.array([[1.0, 0.5], [0.5, 2.0]]),
                               np.zeros((2, 2)),
                               np.array([[0.3, 0.0], [0.0, -0.4]]))
        arr = SiteArray([(0.0, coup)])
        amps = np.array([0.6, 0.8])
        sol = channels.solve_scattering(arr,
                                        IncidentWave(1.1, "left", amps))
        assert abs(sol.flux_residual) < 1e-12
        s = channels.full_s_matrix(arr, 1.1)
        np.testing.assert_allclose(s @ s.conj().T, np.eye(4), atol=1e-12)
