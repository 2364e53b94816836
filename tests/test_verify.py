import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fermi1d
from fermi1d import pointcore, verify
from fermi1d.errors import LogDomain, PoleAtSpectralPoint, QuadratureFailure
from fermi1d.pointcore import ResolventConstants, ResolventQuad


def coupling_provider(g):
    def provider(kappa):
        return pointcore.resolvent_from_couplings(g, kappa)

    return provider


def quadpack_overlap(q1, q2, kappa1, kappa2, x, xp, truncation):
    """Reference: the integral of R_{k1}(x, t) R_{k2}(t, x') over
    |t| <= truncation by QUADPACK, split at the kinks, with the Green's
    function written out at scalar points from the quads."""
    from scipy.integrate import quad

    def r(q, kappa, a, b):
        f = (q.f1 if b > 0 else q.f4) if a > 0 else (q.f2 if b > 0 else q.f3)
        return (math.exp(-kappa * abs(a - b))
                - f * math.exp(-kappa * (abs(a) + abs(b)))) / (2.0 * kappa)

    kinks = sorted({-truncation, 0.0, x, xp, truncation})
    return sum(quad(lambda t: r(q1, kappa1, x, t) * r(q2, kappa2, t, xp),
                    lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(kinks, kinks[1:]))


def run_fresh(code):
    """Stdout of `code` run by a fresh interpreter that imports this
    package from the same source tree."""
    src = os.path.dirname(os.path.dirname(fermi1d.__file__))
    return subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True).stdout


SCIPY_MODULES = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


class TestClosedIdentity:
    def test_holds_for_closed_forms(self):
        res = verify.resolvent_residual_closed(
            coupling_provider((1.0, 2.0, 3.0)), 0.5, 2.0)
        assert np.max(res) < 1e-13

    def test_flags_wrong_quads(self):
        provider = verify._corrupted_provider((1.0, 2.0, 3.0))
        res = verify.resolvent_residual_closed(provider, 0.5, 2.0)
        assert np.max(res) > 1e-4

    def test_needs_distinct_points(self):
        with pytest.raises(ValueError):
            verify.resolvent_residual_closed(
                coupling_provider((1.0, 0.0, 0.0)), 1.0, 1.0)

    def test_needs_distinct_points_in_arrays(self):
        with pytest.raises(ValueError, match="distinct"):
            verify.resolvent_residual_closed(
                coupling_provider((1.0, 0.0, 0.0)), np.array([0.5, 1.0]),
                np.array([2.0, 1.0]))

    @pytest.mark.parametrize("shape", [(1,), (6,), (2, 3)])
    def test_one_provider_call_per_side(self, shape):
        calls = []

        def provider(kappa):
            calls.append(np.shape(kappa))
            return pointcore.resolvent_from_couplings((-1.5, 0.7, 2.2), kappa)

        kappa1 = np.linspace(0.3, 1.7, 6)[:math.prod(shape)].reshape(shape)
        kappa2 = 2.5 * kappa1 + 0.2
        res = verify.resolvent_residual_closed(provider, kappa1, kappa2)
        assert calls == [shape] * 2
        assert res.shape == (4,) + shape
        # each pair's residuals are those of a call at that pair of floats
        for idx in np.ndindex(shape):
            assert np.array_equal(res[(slice(None),) + idx],
                                  verify.resolvent_residual_closed(
                                      provider, float(kappa1[idx]),
                                      float(kappa2[idx])))

    def test_suite_check_calls_the_provider_twice_per_triple(self,
                                                             monkeypatch):
        calls = []
        exact = pointcore.resolvent_from_couplings

        def counted(g, kappa):
            calls.append(np.shape(kappa))
            return exact(g, kappa)

        monkeypatch.setattr(pointcore, "resolvent_from_couplings", counted)
        assert verify.default_suite()["resolvent_closed"]().passed
        assert calls == [(3,)] * 8


class TestIntegralIdentity:
    def test_holds_by_quadrature(self):
        res = verify.resolvent_residual_integral((1.0, 2.0, 3.0), 1.0, 2.0)
        assert res < 1e-8

    def test_matches_quadpack(self):
        # Couplings next to a pole (|f| > 10, as in the acceptance
        # sweeps) are skipped.
        rng = np.random.default_rng(909)
        checked = 0
        while checked < 60:
            g = tuple(rng.uniform(-5.0, 5.0, 3))
            kappa1, kappa2 = np.exp(rng.uniform(math.log(0.05),
                                                math.log(50.0), 2))
            x, xp = rng.uniform(-2.0, 2.0, 2)
            try:
                q1 = pointcore.resolvent_from_couplings(g, kappa1)
                q2 = pointcore.resolvent_from_couplings(g, kappa2)
            except PoleAtSpectralPoint:
                continue
            if max(np.max(np.abs(q1.as_array())),
                   np.max(np.abs(q2.as_array()))) > 10.0:
                continue
            truncation = max(40.0, math.log(2e8) / (kappa1 + kappa2))
            got = verify._overlap_integral(g, kappa1, kappa2, x, xp,
                                           truncation, 1e-8)
            ref = quadpack_overlap(q1, q2, kappa1, kappa2, x, xp,
                                   truncation)
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref)), \
                (g, kappa1, kappa2, x, xp, got, ref)
            checked += 1

    def test_flags_shifted_quads(self, monkeypatch):
        exact = pointcore.resolvent_from_couplings

        def shifted(g, kappa):
            q = exact(g, kappa)
            return ResolventQuad(q.f1 + 1e-3, q.f2, q.f3, q.f4)

        monkeypatch.setattr(pointcore, "resolvent_from_couplings", shifted)
        res = verify.resolvent_residual_integral((1.0, 2.0, 3.0), 1.0, 2.0)
        assert res > 1e-5

    def test_coarse_rule_fails_the_error_estimate(self, monkeypatch):
        # a 2-point rule's estimate |I(w) - I(w/2)| is near 1e-2, far
        # above the fixed 1e-8
        monkeypatch.setattr(verify, "_gauss_legendre",
                            lambda: np.polynomial.legendre.leggauss(2))
        with pytest.raises(QuadratureFailure, match="exceeds 1e-08"):
            verify.resolvent_residual_integral((1.0, 2.0, 3.0), 1.0, 2.0)


class TestOdeSystem:
    def test_couplings_family(self):
        res = verify.ode_residual(coupling_provider((1.0, 2.0, 3.0)),
                                  np.linspace(0.5, 5.0, 10))
        assert np.max(res) < 1e-7

    def test_constants_family(self):
        c = ResolventConstants(1.0, 0.0, 2.0, 0.0, 2.0)

        def provider(kappa):
            return pointcore.resolvent_from_constants(c, kappa)

        res = verify.ode_residual(provider, np.linspace(2.0, 6.0, 8))
        assert np.max(res) < 1e-7

    @pytest.mark.parametrize("points", [1, 7, 250])
    def test_one_provider_call_per_stencil_offset(self, points):
        calls = []

        def provider(kappa):
            calls.append(np.shape(kappa))
            return pointcore.resolvent_from_couplings((1.0, 2.0, 3.0), kappa)

        grid = np.linspace(0.5, 5.0, points)
        res = verify.ode_residual(provider, grid)
        assert calls == [(points,)] * 5
        # the grid residual is the worst of the per-point residuals
        assert np.array_equal(res, np.max(
            [verify.ode_residual(provider, [kappa]) for kappa in grid],
            axis=0))


class TestLogReduction:
    def test_holds_on_valid_window(self):
        c = ResolventConstants(1.0, 0.0, 2.0, 0.0, 2.0)
        res = verify.appendix_log_residual(c, np.linspace(0.2, 0.9, 10))
        assert max(res.values()) < 1e-5

    def test_coupling_derived_window(self):
        c = pointcore.constants_from_couplings((1.0, 1.0, 1.0))
        res = verify.appendix_log_residual(c, np.linspace(0.2, 2.0, 10))
        assert max(res.values()) < 1e-5

    def test_out_of_domain_raises(self):
        c = ResolventConstants(1.0, 0.0, 2.0, 0.0, 2.0)
        with pytest.raises(LogDomain):
            verify.appendix_log_residual(c, [2.0])


class TestTransferMatrix:
    def test_single_delta(self):
        t, r = verify.transfer_matrix_oracle([(0.0, 2.0)], 1.0)
        assert t == pytest.approx(1.0 / (1.0 + 1.0j), abs=1e-15)
        assert r == pytest.approx(-1.0j / (1.0 + 1.0j), abs=1e-15)

    def test_flux_conservation(self):
        t, r = verify.transfer_matrix_oracle(
            [(0.0, 1.0), (0.8, -0.5), (2.1, 2.0)], 1.3)
        assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-13)


class TestSuite:
    def test_default_suite_passes(self):
        for report in verify.run_suite():
            assert report.passed, (report.name, report.max_residual)

    def test_cli_import_loads_no_scipy(self):
        # numpy is the package's only runtime dependency; importing the
        # CLI in a fresh process loads no scipy module, and no
        # numpy.polynomial module: the Gauss-Legendre rule is computed on
        # first use.
        polynomial = ("[m for m in sys.modules "
                      "if m.startswith('numpy.polynomial')]")
        assert run_fresh(f"import sys, fermi1d.cli; "
                         f"print({SCIPY_MODULES}, {polynomial})"
                         ) == "[] []\n"

    def test_verify_command_loads_no_scipy(self, tmp_path):
        config = tmp_path / "verify.json"
        config.write_text('{"schema": 1}')
        out = tmp_path / "out.json"
        argv = ["verify", "--config", str(config), "--out", str(out)]
        assert run_fresh(
            "import sys; from fermi1d.cli import main; "
            f"code = main({argv!r}); print(code, {SCIPY_MODULES})"
        ) == "0 []\n"
        assert out.read_text()

    def test_report_names_are_suite_keys(self):
        # the printed name is the one a config's "checks" selects
        for key in verify.default_suite():
            assert verify.run_suite([key])[0].name == key

    def test_corrupted_self_test_fails(self):
        report = verify.default_suite()["corrupted_self_test"]()
        assert not report.passed

    @pytest.mark.parametrize("check, oracle", [
        ("resolvent_closed", "resolvent_residual_closed"),
        ("resolvent_integral", "resolvent_residual_integral"),
        ("ode", "ode_residual"),
        ("log_reduction", "appendix_log_residual"),
        ("transfer_matrix", "transfer_matrix_oracle")])
    def test_nan_residual_after_the_first_fails(self, monkeypatch, check,
                                                oracle):
        # a NaN from the second oracle call, or in the second entry of the
        # log-reduction result, must show in max_residual
        calls = []
        original = getattr(verify, oracle)

        def nan_on_second_call(*args, **kwargs):
            calls.append(None)
            result = original(*args, **kwargs)
            if oracle == "appendix_log_residual":
                return {**result, "side_f2_f4": math.nan}
            if len(calls) != 2:
                return result
            return np.full(np.shape(result), math.nan)

        monkeypatch.setattr(verify, oracle, nan_on_second_call)
        report = verify.default_suite()[check]()
        assert len(calls) >= (1 if oracle == "appendix_log_residual" else 2)
        assert math.isnan(report.max_residual)
        assert not report.passed

    def test_unknown_name_rejected(self):
        # names that are not strings are unknown too, not unhashable
        for names in (["no_such_check"], [{}], [["a"]]):
            with pytest.raises(ValueError, match="unknown checks"):
                verify.run_suite(names)
