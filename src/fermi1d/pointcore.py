"""Exact algebra of a point interaction on the line.

A point interaction at the origin is parameterized by three real
couplings (g1, g2, g3) multiplying the delta pairing, the mixed
delta/regularized-delta-prime pairing, and the regularized
delta-prime/delta-prime pairing respectively.  For such an interaction
the resolvent (Green's function) of H + kappa^2 has the closed form

    R_kappa(x, x') = (2 kappa)^-1 [ exp(-kappa |x - x'|)
                     - f(kappa; sg x, sg x') exp(-kappa (|x| + |x'|)) ]

with four dimensionless functions f1..f4 indexed by the sign quadrant of
(x, x').  This module computes those functions, the equivalent
integration-constants representation and its kappa -> 1/kappa dual, the
2x2 S-matrix on the scattering axis, bound states, and the distribution
pairings that define the interaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MissingDerivative,
    MissingLimit,
    PoleAtSpectralPoint,
    SignUndefined,
    UndefinedScale,
)

__all__ = [
    "Couplings",
    "ResolventQuad",
    "ResolventConstants",
    "FAMILY_GENERIC",
    "FAMILY_SMALL_SCALE",
    "FAMILY_LARGE_SCALE",
    "resolvent_from_couplings",
    "constants_from_couplings",
    "resolvent_from_constants",
    "greens_function",
    "quad_sector",
    "s_matrix",
    "even_phase",
    "odd_phase",
    "bound_states",
    "pair_delta",
    "pair_delta_prime_p",
    "dual_transform",
    "dual_transform_quad",
]

# Family tags for the constants representation.  The generic family covers
# both discriminant signs; the two limiting families arise when the scale
# constant c0 is driven to zero or infinity with gamma = sqrt(|disc|)/c0
# (respectively gamma = c0 sqrt(|disc|)) held fixed.
FAMILY_GENERIC = "generic"
FAMILY_SMALL_SCALE = "small-scale-limit"
FAMILY_LARGE_SCALE = "large-scale-limit"


@dataclass(frozen=True)
class Couplings:
    """The three real strengths of a point interaction.

    g1 has units 1/length, g2 is dimensionless, g3 has units length.
    (0, 0, 0) is the free Hamiltonian.
    """

    g1: float
    g2: float
    g3: float

    def __post_init__(self):
        for name in ("g1", "g2", "g3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def _as_couplings(g) -> Couplings:
    if isinstance(g, Couplings):
        return g
    g1, g2, g3 = g
    return Couplings(float(g1), float(g2), float(g3))


@dataclass(frozen=True)
class ResolventQuad:
    """The four sign-sector resolvent values at one spectral point.

    f1 belongs to the quadrant x>0, x'>0; f2 to x<0, x'>0; f3 to
    x<0, x'<0; f4 to x>0, x'<0.
    """

    f1: float
    f2: float
    f3: float
    f4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.f1, self.f2, self.f3, self.f4])


def quad_sector(quad: ResolventQuad, sx: int, sxp: int) -> float:
    """Select the quad entry for the (sg x, sg x') quadrant."""
    if sx > 0:
        return quad.f1 if sxp > 0 else quad.f4
    return quad.f2 if sxp > 0 else quad.f3


@dataclass(frozen=True)
class ResolventConstants:
    """Integration-constants representation of a resolvent family.

    For the generic family c0 > 0 sets the length scale and (c1..c4) are
    defined up to a common positive factor; the discriminant
    c3^2 + c2 c4 - c1^2 selects one of two closed forms.  The limiting
    families replace c0 by the rate gamma >= 0 and use degree-one
    rational quads.
    """

    c0: float | None
    c1: float
    c2: float
    c3: float
    c4: float
    family: str = FAMILY_GENERIC
    gamma: float = 0.0

    def __post_init__(self):
        if self.family == FAMILY_GENERIC:
            if self.c0 is None or not self.c0 > 0:
                raise ValueError("generic family requires c0 > 0")
        elif self.family in (FAMILY_SMALL_SCALE, FAMILY_LARGE_SCALE):
            if self.gamma < 0:
                raise ValueError("limiting family requires gamma >= 0")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    def discriminant(self) -> float:
        return self.c3 ** 2 + self.c2 * self.c4 - self.c1 ** 2


def _check_kappa(kappa: float) -> float:
    kappa = float(kappa)
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"spectral point must be a positive real, got {kappa}")
    return kappa


def check_k(k: float) -> None:
    """Reject a scattering wavenumber that is not a positive real."""
    if not (math.isfinite(k) and k > 0):
        raise ValueError("k must be positive")


def denominator(g, kappa: float) -> float:
    """The shared rational denominator D(kappa); its zeros are the
    bound states."""
    g = _as_couplings(g)
    kappa = _check_kappa(kappa)
    return (g.g3 * kappa
            - 0.5 * (4.0 - g.g1 * g.g3 + g.g2 ** 2)
            - g.g1 / kappa)


def _pole_scale(g: Couplings, kappa: float) -> float:
    return 1.0 + abs(g.g3) * kappa + abs(g.g1) / kappa


def resolvent_from_couplings(g, kappa: float,
                             pole_tol: float = 1e-12) -> ResolventQuad:
    """Evaluate f1..f4 for couplings g at resolvent parameter kappa > 0.

    Raises PoleAtSpectralPoint when |D(kappa)| falls below
    pole_tol * (1 + |g3| kappa + |g1|/kappa), signalling a bound state.
    """
    g = _as_couplings(g)
    kappa = _check_kappa(kappa)
    d = denominator(g, kappa)
    if abs(d) < pole_tol * _pole_scale(g, kappa):
        raise PoleAtSpectralPoint(kappa)
    f24 = 1.0 + 0.5 * (4.0 + g.g1 * g.g3 - g.g2 ** 2) / d
    f1 = (-g.g3 * kappa + 2.0 * g.g2 - g.g1 / kappa) / d
    f3 = (-g.g3 * kappa - 2.0 * g.g2 - g.g1 / kappa) / d
    return ResolventQuad(f1, f24, f3, f24)


def constants_from_couplings(g) -> ResolventConstants:
    """Map couplings to a canonical constants representative.

    Both couplings nonzero gives the generic family with
    c0 = sqrt(|g3/g1|).  If exactly one of g1, g3 vanishes the result is
    the matching limiting family with gamma = |g1| or |g3|; if both
    vanish but g2 != 0 the quads are constant (gamma = 0).  The free case
    has no constants representation.
    """
    g = _as_couplings(g)
    base = np.array([
        (4.0 - g.g1 * g.g3 + g.g2 ** 2) / 4.0,
        (4.0 + g.g1 * g.g3 - g.g2 ** 2) / 4.0,
        g.g2,
        (4.0 + g.g1 * g.g3 - g.g2 ** 2) / 4.0,
    ])
    if g.g1 != 0.0 and g.g3 != 0.0:
        c = -math.copysign(1.0, g.g3) * base
        return ResolventConstants(math.sqrt(abs(g.g3 / g.g1)),
                                  *c, family=FAMILY_GENERIC)
    if g.g3 == 0.0 and g.g1 != 0.0:
        c = math.copysign(1.0, g.g1) * base
        return ResolventConstants(None, *c, family=FAMILY_SMALL_SCALE,
                                  gamma=abs(g.g1))
    if g.g1 == 0.0 and g.g3 != 0.0:
        c = -math.copysign(1.0, g.g3) * base
        return ResolventConstants(None, *c, family=FAMILY_LARGE_SCALE,
                                  gamma=abs(g.g3))
    if g.g2 != 0.0:
        return ResolventConstants(None, *base, family=FAMILY_SMALL_SCALE,
                                  gamma=0.0)
    raise UndefinedScale("the free Hamiltonian has no constants "
                         "representation")


def _quads_from_denominator(t: float, num: float, c: ResolventConstants,
                            kappa: float, pole_tol: float,
                            scale: float) -> ResolventQuad:
    if abs(t) < pole_tol * scale:
        raise PoleAtSpectralPoint(kappa)
    return ResolventQuad((-num - 2.0 * c.c3) / t,
                         1.0 - 2.0 * c.c2 / t,
                         (-num + 2.0 * c.c3) / t,
                         1.0 - 2.0 * c.c4 / t)


def resolvent_from_constants(c: ResolventConstants, kappa: float,
                             pole_tol: float = 1e-12) -> ResolventQuad:
    """Evaluate the constants-family quads at kappa > 0.

    The generic family branches on the sign of the discriminant; the
    limiting families are first-degree rational in kappa.  All square
    roots are taken positive.
    """
    kappa = _check_kappa(kappa)
    if c.family == FAMILY_GENERIC:
        disc = c.discriminant()
        u = c.c0 * kappa
        if disc > 0:
            s = math.sqrt(disc)
            t = s * (u - 1.0 / u) + 2.0 * c.c1
            num = s * (u + 1.0 / u)
        elif disc < 0:
            s = math.sqrt(-disc)
            t = s * (u + 1.0 / u) + 2.0 * c.c1
            num = s * (u - 1.0 / u)
        else:
            raise ValueError("generic family with zero discriminant; "
                             "use a limiting family")
        scale = abs(s) * (u + 1.0 / u) + 2.0 * abs(c.c1)
        return _quads_from_denominator(t, num, c, kappa, pole_tol, scale)
    if c.family == FAMILY_SMALL_SCALE:
        t = c.gamma + 2.0 * c.c1 * kappa
        scale = c.gamma + 2.0 * abs(c.c1) * kappa
        if abs(t) < pole_tol * max(scale, 1.0):
            raise PoleAtSpectralPoint(kappa)
        return ResolventQuad((c.gamma - 2.0 * c.c3 * kappa) / t,
                             1.0 - 2.0 * c.c2 * kappa / t,
                             (c.gamma + 2.0 * c.c3 * kappa) / t,
                             1.0 - 2.0 * c.c4 * kappa / t)
    # large-scale limit
    t = c.gamma * kappa + 2.0 * c.c1
    scale = c.gamma * kappa + 2.0 * abs(c.c1)
    if abs(t) < pole_tol * max(scale, 1.0):
        raise PoleAtSpectralPoint(kappa)
    return ResolventQuad((-c.gamma * kappa - 2.0 * c.c3) / t,
                         1.0 - 2.0 * c.c2 / t,
                         (-c.gamma * kappa + 2.0 * c.c3) / t,
                         1.0 - 2.0 * c.c4 / t)


def greens_function(g, kappa: float, x: float, xp: float,
                    pole_tol: float = 1e-12) -> float:
    """Green's function R_kappa(x, x') of the point interaction.

    Both coordinates must be nonzero so their sign sector is defined.
    """
    g = _as_couplings(g)
    kappa = _check_kappa(kappa)
    x = float(x)
    xp = float(xp)
    if x == 0.0 or xp == 0.0:
        raise SignUndefined("coordinates must not sit at the interaction "
                            "point")
    if g.g1 == 0.0 and g.g2 == 0.0 and g.g3 == 0.0:
        f = 0.0
    else:
        quad = resolvent_from_couplings(g, kappa, pole_tol=pole_tol)
        f = quad_sector(quad, 1 if x > 0 else -1, 1 if xp > 0 else -1)
    return (math.exp(-kappa * abs(x - xp))
            - f * math.exp(-kappa * (abs(x) + abs(xp)))) / (2.0 * kappa)


def s_matrix(g, k: float) -> np.ndarray:
    """Unitary 2x2 S-matrix at wavenumber k > 0.

    Basis order (+, -) by propagation direction; entry [out, in], so
    S[0, 0] is the transmission of a wave incident from the left and
    S[1, 0] its reflection.
    """
    g = _as_couplings(g)
    k = _check_kappa(k)
    d = (1j * g.g3 * k + 0.5 * (4.0 - g.g1 * g.g3 + g.g2 ** 2)
         + 1j * g.g1 / k)
    diag = 0.5 * (4.0 + g.g1 * g.g3 - g.g2 ** 2) / d
    spm = (1j * g.g3 * k - 2.0 * g.g2 - 1j * g.g1 / k) / d
    smp = (1j * g.g3 * k + 2.0 * g.g2 - 1j * g.g1 / k) / d
    return np.array([[diag, spm], [smp, diag]])


def even_phase(g1: float, k: float) -> complex:
    """Unimodular even-wave scattering factor (2k - i g1)/(2k + i g1)."""
    k = _check_kappa(k)
    return (2.0 * k - 1j * g1) / (2.0 * k + 1j * g1)


def odd_phase(g3: float, k: float) -> complex:
    """Unimodular odd-wave scattering factor (2 - i g3 k)/(2 + i g3 k)."""
    k = _check_kappa(k)
    return (2.0 - 1j * g3 * k) / (2.0 + 1j * g3 * k)


def bound_states(g) -> list[float]:
    """Positive real roots of kappa * D(kappa), sorted ascending.

    These are the poles of the Green's function, i.e. the bound states.
    """
    g = _as_couplings(g)
    b = -0.5 * (4.0 - g.g1 * g.g3 + g.g2 ** 2)
    if g.g3 == 0.0:
        # linear case: b kappa - g1 = 0
        if g.g1 == 0.0:
            return []
        root = g.g1 / b
        return [root] if root > 0.0 else []
    roots = np.roots([g.g3, b, -g.g1])
    out = [float(r.real) for r in roots
           if abs(r.imag) < 1e-12 * (1.0 + abs(r.real)) and r.real > 0.0]
    return sorted(out)


_RICHARDSON_STEPS = (1e-3, 5e-4, 2.5e-4)


def _extrapolate(g_fn, side: int, shrink: float = 1.0) -> float:
    hs = np.array(_RICHARDSON_STEPS) * side * shrink
    vals = np.array([g_fn(h) for h in hs], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise MissingLimit(f"one-sided limit from side {side:+d} is not "
                           "finite")
    # quadratic extrapolation to h = 0
    coeffs = np.polyfit(np.abs(hs), vals, 2)
    return float(np.polyval(coeffs, 0.0))


def _one_sided_value(g_fn, side: int) -> float:
    """Extrapolate g(0+) or g(0-) from samples at shrinking offsets.

    Two nested step scales must agree, which filters out divergent
    limits (extrapolating 1/h through finite samples never stabilizes).
    """
    coarse = _extrapolate(g_fn, side)
    fine = _extrapolate(g_fn, side, shrink=0.5)
    if abs(coarse - fine) > 1e-5 * (1.0 + max(abs(coarse), abs(fine))):
        raise MissingLimit(f"one-sided limit from side {side:+d} does not "
                           "converge")
    return fine


def _one_sided_derivative(g_fn, side: int) -> float:
    """Extrapolate g'(0+) or g'(0-) from one-sided difference quotients."""
    value = _one_sided_value(g_fn, side)
    hs = np.array(_RICHARDSON_STEPS) * side
    quots = np.array([(g_fn(h) - value) / h for h in hs], dtype=float)
    if not np.all(np.isfinite(quots)):
        raise MissingDerivative(f"one-sided derivative from side {side:+d} "
                                "is not finite")
    coeffs = np.polyfit(np.abs(hs), quots, 2)
    return float(np.polyval(coeffs, 0.0))


def pair_delta(g_fn=None, limits=None) -> float:
    """Pairing of the symmetrized delta with a piecewise-smooth function:
    the mean of the two one-sided limits at 0.

    Either a callable or the explicit pair (g(0+), g(0-)) may be given.
    """
    if limits is None:
        if g_fn is None:
            raise ValueError("need g_fn or explicit limits")
        limits = (_one_sided_value(g_fn, +1), _one_sided_value(g_fn, -1))
    plus, minus = (float(v) for v in limits)
    if not (math.isfinite(plus) and math.isfinite(minus)):
        raise MissingLimit("one-sided limits must be finite")
    return 0.5 * (plus + minus)


def pair_delta_prime_p(g_fn=None, derivatives=None) -> float:
    """Pairing of the regularized delta-prime with a piecewise-smooth
    function: -(g'(0+) + g'(0-))/2.

    The regularization subtracts the jump of g at 0 before the classical
    delta-prime pairing, which leaves minus the mean one-sided
    derivative.  Either a callable or the explicit pair
    (g'(0+), g'(0-)) may be given.
    """
    if derivatives is None:
        if g_fn is None:
            raise ValueError("need g_fn or explicit derivatives")
        derivatives = (_one_sided_derivative(g_fn, +1),
                       _one_sided_derivative(g_fn, -1))
    plus, minus = (float(v) for v in derivatives)
    if not (math.isfinite(plus) and math.isfinite(minus)):
        raise MissingDerivative("one-sided derivatives must be finite")
    return -0.5 * (plus + minus)


def dual_transform_quad(provider):
    """Return the kappa -> 1/kappa dual of a quad-valued function.

    The dual family is f(kappa) -> (-f1(1/kappa), f2(1/kappa),
    -f3(1/kappa), f4(1/kappa)); applying the transform twice is the
    identity.
    """

    def dual(kappa: float) -> ResolventQuad:
        q = provider(1.0 / _check_kappa(kappa))
        return ResolventQuad(-q.f1, q.f2, -q.f3, q.f4)

    return dual


def dual_transform(c: ResolventConstants) -> ResolventConstants:
    """Constants of the dual family (kappa -> 1/kappa with f1, f3
    negated).

    The rule depends on the branch: for the generic family with positive
    discriminant (c1, c2, c4) flip sign; with negative discriminant c3
    flips instead.  The two limiting families exchange, with c3 flipped.
    """
    if c.family == FAMILY_GENERIC:
        if c.discriminant() > 0:
            return ResolventConstants(1.0 / c.c0, -c.c1, -c.c2, c.c3,
                                      -c.c4)
        return ResolventConstants(1.0 / c.c0, c.c1, c.c2, -c.c3, c.c4)
    if c.family == FAMILY_SMALL_SCALE:
        return ResolventConstants(None, c.c1, c.c2, -c.c3, c.c4,
                                  family=FAMILY_LARGE_SCALE, gamma=c.gamma)
    return ResolventConstants(None, c.c1, c.c2, -c.c3, c.c4,
                              family=FAMILY_SMALL_SCALE, gamma=c.gamma)
