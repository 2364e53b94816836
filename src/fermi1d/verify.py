"""Independent numerical oracles for the closed-form results.

Every closed form shipped by pointcore can be checked against something
it was not derived from: the algebraic resolvent identity, the
first-order ODE system it must satisfy in kappa, the log-variable
second-order reduction, direct quadrature of the defining integral
equation, and (for delta-only arrays) textbook transfer matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import pointcore
from .errors import LogDomain, QuadratureFailure
from .pointcore import ResolventConstants, ResolventQuad, quad_sector

__all__ = [
    "ResidualReport",
    "resolvent_residual_closed",
    "resolvent_residual_integral",
    "ode_residual",
    "appendix_log_residual",
    "transfer_matrix_oracle",
    "default_suite",
    "run_suite",
]

_ODE_STEP = 1e-5        # difference steps, relative to kappa
_LOG_STEP = 1e-4
_QUADRATURE_TOL = 1e-8  # the largest error estimate a quadrature may have


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one oracle run."""

    name: str
    max_residual: float
    grid: str
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _worst(residuals) -> float:
    """The largest absolute residual; 0 for none."""
    return float(np.max(np.abs(residuals), initial=0.0))


def resolvent_residual_closed(provider, kappa1, kappa2) -> np.ndarray:
    """Residuals of the algebraic resolvent identity in all four sign
    sectors at spectral points kappa1 and kappa2, two floats or two arrays
    of one shape: an array of shape (4,) + that shape.

    The provider maps kappa, a float or an array, to a ResolventQuad of
    its shape; it is called once per side.  For a true resolvent family
    the combination below vanishes identically at distinct points.
    """
    if np.any(kappa1 == kappa2):
        raise ValueError("the identity needs two distinct spectral points")
    q1 = provider(kappa1)
    q2 = provider(kappa2)
    dm = kappa1 - kappa2
    dp = kappa1 + kappa2
    # the sign sectors of f1, f2, f3, f4, along the first axis
    sx, sxp = (np.reshape(s, (4,) + (1,) * np.ndim(dm))
               for s in ([1, -1, -1, 1], [1, 1, -1, -1]))
    return np.abs(quad_sector(q1, sx, sxp) / dm
                  + quad_sector(q1, sx, -sxp) / dp
                  - quad_sector(q2, sx, sxp) / dm
                  + quad_sector(q2, -sx, sxp) / dp
                  - (quad_sector(q1, sx, -1) * quad_sector(q2, -1, sxp)
                     + quad_sector(q1, sx, 1) * quad_sector(q2, 1, sxp)) / dp)


@functools.cache
def _gauss_legendre():
    """The 20-point Gauss-Legendre rule on [-1, 1], made on first use."""
    return np.polynomial.legendre.leggauss(20)


def _overlap_integral(g, kappa1: float, kappa2: float, x: float, xp: float,
                      truncation: float, tolerance: float) -> float:
    """Integral of R_{k1}(x, t) R_{k2}(t, x') over the least interval
    holding +-truncation, x and x'.  Between the kinks 0, x, x' the
    integrand is a sum of exponentials; a 20-point Gauss-Legendre rule sums
    it on panels at most w/2 = 10/(k1+k2) wide.  Raises QuadratureFailure if
    the error estimate |I(w) - I(w/2)| exceeds the tolerance."""
    nodes, weights = _gauss_legendre()
    kinks = np.unique([-truncation, 0.0, x, xp, truncation])
    sums = []
    for width in (10.0 / (kappa1 + kappa2), 20.0 / (kappa1 + kappa2)):
        edges = np.unique(np.concatenate([
            np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1)
            for lo, hi in zip(kinks, kinks[1:])]))
        half = np.diff(edges)[:, None] / 2.0
        t = edges[:-1, None] + half * (nodes + 1.0)
        sums.append(float(np.sum(
            half * weights * pointcore.greens_function(g, kappa1, x, t)
            * pointcore.greens_function(g, kappa2, t, xp))))
    err = abs(sums[0] - sums[1])
    if not err <= tolerance:
        raise QuadratureFailure(
            f"quadrature error estimate {err:g} exceeds {tolerance:g}")
    return sums[0]


def resolvent_residual_integral(g, kappa1: float, kappa2: float,
                                pairs=((0.7, 1.3), (-0.4, 0.9), (-1.1, -0.6),
                                       (1.5, -0.8))) -> float:
    """Residual of the defining integral identity, the max over the (x, x')
    pairs, by Gauss-Legendre quadrature truncated at L where the tail bound
    exp(-(k1+k2)L) < 5e-9; raises QuadratureFailure at an error over 1e-8."""
    if kappa1 == kappa2:
        raise ValueError("the identity needs two distinct spectral points")
    truncation = max(40.0,
                     math.log(2.0 / _QUADRATURE_TOL) / (kappa1 + kappa2))
    r = functools.partial(pointcore.greens_function, g)
    residuals = [r(kappa1, x, xp) - r(kappa2, x, xp)
                 + (kappa1 ** 2 - kappa2 ** 2) * _overlap_integral(
                     g, kappa1, kappa2, x, xp, truncation, _QUADRATURE_TOL)
                 for x, xp in pairs]
    return _worst(residuals)


def _derivative(fn, x, rel):
    """Central difference of step h = rel * x with one Richardson step, at
    a point or over an array of points: four calls of fn."""
    h = rel * x
    d1 = (fn(x + h) - fn(x - h)) / (2.0 * h)
    d2 = (fn(x + h / 2.0) - fn(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def ode_residual(provider, kappas) -> np.ndarray:
    """Residuals of the four coupled first-order ODEs in kappa.

    The quads of any resolvent family satisfy

        f1' + (f2 + f4)/(2k) - (f2 f4 + f1^2)/(2k) = 0

    and its three sign-sector companions; derivatives are taken by
    Richardson-extrapolated central differences with step 1e-5 * kappa.
    The provider maps an array of kappa to a ResolventQuad of arrays; it
    is called once per stencil offset, five times in all.  Returns the
    max absolute residual per equation over the grid.
    """
    kappa = np.atleast_1d(np.asarray(kappas, dtype=float))
    f1, f2, f3, f4 = provider(kappa).as_array()
    fp = _derivative(lambda t: provider(t).as_array(), kappa, _ODE_STEP)
    res = np.abs([
        fp[0] + (f2 + f4 - f2 * f4 - f1 ** 2) / (2.0 * kappa),
        fp[1] + (f1 + f3 - f2 * f3 - f1 * f2) / (2.0 * kappa),
        fp[2] + (f2 + f4 - f3 ** 2 - f2 * f4) / (2.0 * kappa),
        fp[3] + (f1 + f3 - f3 * f4 - f1 * f4) / (2.0 * kappa),
    ])
    return np.max(res, axis=1, initial=0.0)


def appendix_log_residual(c: ResolventConstants, kappas) -> dict:
    """Check the log-variable reduction of the ODE system.

    Reconstructs F(kappa) = log((f2 - 1)/c2), verifies the second-order
    equation 2k (k F')' = (k F')^2 - 1 + (c3^2 + c2 c4) e^{2F}, and the
    two side relations (f2-1)/c2 = (f4-1)/c4 and f1 - f3 = 2 c3 e^F, over
    the whole grid at once (difference step 1e-4 * kappa).  Raises
    LogDomain where (f2-1)/c2 is not positive.
    """
    if c.c2 == 0.0:
        raise ValueError("the log variable needs c2 != 0")
    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))

    def big_f(kappa):
        ratio = (pointcore.resolvent_from_constants(c, kappa).f2 - 1.0) / c.c2
        low = ratio <= 0.0
        if np.any(low):
            raise LogDomain(f"(f2 - 1)/c2 = {ratio[low][0]:g} <= 0 at "
                            f"kappa = {kappa[low][0]:g}")
        return np.log(ratio)

    def kfp(kappa):
        return kappa * _derivative(big_f, kappa, _LOG_STEP)

    lhs = 2.0 * kappas * _derivative(kfp, kappas, _LOG_STEP)
    log_ratio = big_f(kappas)
    rhs = (kfp(kappas) ** 2 - 1.0
           + (c.c3 ** 2 + c.c2 * c.c4) * np.exp(2.0 * log_ratio))
    quads = pointcore.resolvent_from_constants(c, kappas)
    side_24 = ((quads.f2 - 1.0) / c.c2 - (quads.f4 - 1.0) / c.c4
               if c.c4 != 0.0 else 0.0)
    return {"second_order": _worst(lhs - rhs), "side_f2_f4": _worst(side_24),
            "side_f1_f3": _worst(quads.f1 - quads.f3
                                 - 2.0 * c.c3 * np.exp(log_ratio))}


def transfer_matrix_oracle(sites, k: float) -> tuple[complex, complex]:
    """Transmission and reflection of delta-only sites by transfer
    matrices.

    Sites are (position, strength) pairs; the standard single-delta 2x2
    transfer matrix in the plane-wave basis is multiplied across the
    array.  Completely independent of the channels solver.
    """
    pointcore.spectral_points(k)
    total = np.eye(2, dtype=complex)
    for pos, strength in sites:
        u = strength / (2j * k)
        m = np.eye(2, dtype=complex) + u * np.array(
            [[1.0, np.exp(-2j * k * pos)],
             [-np.exp(2j * k * pos), -1.0]])
        total = m @ total
    transmission = 1.0 / total[1, 1]
    reflection = -total[1, 0] / total[1, 1]
    return complex(transmission), complex(reflection)


def _corrupted_provider(g):
    """A deliberately wrong provider: f1 shifted by 1e-3.

    Used as a sensitivity self-test -- the oracles must flag it.
    """
    def provider(kappa):
        q = pointcore.resolvent_from_couplings(g, kappa)
        return ResolventQuad(q.f1 + 1e-3, q.f2, q.f3, q.f4)

    return provider


def default_suite() -> dict:
    """Named oracle runs with their tolerances, for the CLI."""

    def closed_form():
        worst = _worst([resolvent_residual_closed(
            functools.partial(pointcore.resolvent_from_couplings, g),
            np.array([0.5, 0.3, 1.7]), np.array([2.0, 1.1, 4.0]))
            for g in [(1.0, 2.0, 3.0), (2.0, 0.0, 0.0), (-1.5, 0.7, 2.2),
                      (0.0, 1.0, 0.0)]])
        return ResidualReport("resolvent_closed", worst,
                              "4 coupling triples x 3 spectral pairs",
                              1e-12)

    def integral():
        worst = _worst([resolvent_residual_integral(g, 1.0, 2.0)
                        for g in [(2.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                  (1.0, 2.0, 3.0)]])
        return ResidualReport("resolvent_integral", worst,
                              "3 coupling triples, 4 (x, x') pairs each",
                              1e-6)

    def ode():
        worst = _worst([ode_residual(
            functools.partial(pointcore.resolvent_from_couplings, g),
            np.linspace(0.4, 8.0, 25))
            for g in [(1.0, 0.0, 0.0), (1.0, 2.0, 3.0), (-1.5, 0.7, 2.2)]])
        return ResidualReport("ode", worst,
                              "3 coupling triples, kappa in [0.4, 8]",
                              1e-6)

    def log_reduction():
        c = ResolventConstants(1.0, 0.0, 2.0, 0.0, 2.0)
        res = appendix_log_residual(c, np.linspace(0.2, 0.9, 15))
        worst = _worst(list(res.values()))
        return ResidualReport("log_reduction", worst,
                              "c=(1,0,2,0,2), kappa in [0.2, 0.9]", 1e-5)

    def transfer():
        from . import channels
        residuals = []
        for positions, strengths, k in [((0.0,), (2.0,), 1.0),
                                        ((0.0, 1.0), (1.0, 1.0), 1.0),
                                        ((0.0, 0.7, 1.9),
                                         (1.0, -0.5, 2.0), 1.3)]:
            t, r = transfer_matrix_oracle(list(zip(positions, strengths)),
                                          k)
            couplings = np.zeros((3, len(strengths), 1, 1))
            couplings[0, :, 0, 0] = strengths
            arr = channels.SiteArray.from_arrays(positions, couplings)
            sol = channels.solve_scattering(
                arr, channels.IncidentWave(k, "left"))
            residuals += [abs(sol.outgoing_right[0] - t),
                          abs(sol.outgoing_left[0] - r)]
        return ResidualReport("transfer_matrix", _worst(residuals),
                              "1-3 delta sites vs channel solver", 1e-12)

    def corrupted_self_test():
        provider = _corrupted_provider((1.0, 2.0, 3.0))
        worst = _worst(resolvent_residual_closed(provider, 0.5, 2.0))
        # this run must FAIL: the perturbation is designed to be seen
        return ResidualReport("corrupted_self_test", worst,
                              "f1 perturbed by 1e-3 (must fail)", 1e-4)

    return {
        "resolvent_closed": closed_form,
        "resolvent_integral": integral,
        "ode": ode,
        "log_reduction": log_reduction,
        "transfer_matrix": transfer,
        "corrupted_self_test": corrupted_self_test,
    }


def run_suite(names=None) -> list[ResidualReport]:
    """Run the named oracle checks (default: all regular ones)."""
    suite = default_suite()
    if names is None:
        names = [n for n in suite if n != "corrupted_self_test"]
    unknown = [n for n in names if not isinstance(n, str) or n not in suite]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    return [suite[name]() for name in names]
