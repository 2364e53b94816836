import os
import subprocess
import sys

import numpy as np
import pytest

import fermi1d
from fermi1d import pointcore, verify
from fermi1d.errors import LogDomain
from fermi1d.pointcore import ResolventConstants


def coupling_provider(g):
    def provider(kappa):
        return pointcore.resolvent_from_couplings(g, kappa)

    return provider


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


class TestIntegralIdentity:
    def test_holds_by_quadrature(self):
        res = verify.resolvent_residual_integral((1.0, 2.0, 3.0), 1.0, 2.0)
        assert res < 1e-8


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
        # Only the quadrature oracle imports scipy, on first use;
        # test_default_suite_passes runs that oracle in-process.
        src = os.path.dirname(os.path.dirname(fermi1d.__file__))
        code = ("import sys, fermi1d.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run([sys.executable, "-c", code],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_corrupted_self_test_fails(self):
        report = verify.default_suite()["corrupted_self_test"]()
        assert not report.passed

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suite(["no_such_check"])
