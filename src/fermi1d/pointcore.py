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
    "resolvent_grid",
    "constants_from_couplings",
    "resolvent_from_constants",
    "greens_function",
    "quad_sector",
    "s_matrix",
    "s_matrix_grid",
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

_EPS = np.finfo(float).eps
_POLE_TOL = 1e-12       # a pole: |denominator| < _POLE_TOL * its scale


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
    """The four sign-sector resolvent values at a spectral point, or at
    each point of an array of them (then every field is an array).

    f1 belongs to the quadrant x>0, x'>0; f2 to x<0, x'>0; f3 to
    x<0, x'<0; f4 to x>0, x'<0.
    """

    f1: float | np.ndarray
    f2: float | np.ndarray
    f3: float | np.ndarray
    f4: float | np.ndarray

    def as_array(self) -> np.ndarray:
        return np.array([self.f1, self.f2, self.f3, self.f4])


def quad_sector(quad: ResolventQuad, sx, sxp):
    """Select the quad entry for the (sg x, sg x') quadrant: a scalar for
    scalar signs, an array broadcast over arrays of signs or coordinates."""
    return np.where(sx > 0, np.where(sxp > 0, quad.f1, quad.f4),
                    np.where(sxp > 0, quad.f2, quad.f3))[()]


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


def spectral_points(points):
    """The spectral points kappa or k: a float for a scalar, a float array
    for an array.  Raises ValueError unless every point is a positive
    finite real.  A Python float, or a tuple of them, is checked in Python;
    anything else, and every failure, takes the numpy test."""
    if type(points) is float and 0.0 < points < math.inf:
        return points
    array = np.asarray(points, dtype=float)
    if type(points) is tuple and all(type(p) is float and 0.0 < p < math.inf
                                     for p in points):
        return array
    bad = _first(array, ~(np.isfinite(array) & (array > 0.0)))
    if bad is not None:
        raise ValueError(f"spectral point {bad!r} is not a positive real")
    return array if array.ndim else float(array)


def _first(points, mask):
    """The first of the points where mask holds, or None."""
    return float(points[mask].flat[0]) if np.any(mask) else None


# The closed forms below are written once over plain arithmetic and run on
# arrays of spectral points, a float as a 0-d array: each element is
# rounded as the same arithmetic on Python floats rounds it.

def _couplings_quad(g: Couplings, kappa):
    """The shared rational denominator D(kappa), whose zeros are the bound
    states, the scale its pole test is relative to, and the quad over D."""
    d = (g.g3 * kappa
         - 0.5 * (4.0 - g.g1 * g.g3 + g.g2 ** 2)
         - g.g1 / kappa)
    scale = 1.0 + abs(g.g3) * kappa + abs(g.g1) / kappa
    f24 = 1.0 + 0.5 * (4.0 + g.g1 * g.g3 - g.g2 ** 2) / d
    f1 = (-g.g3 * kappa + 2.0 * g.g2 - g.g1 / kappa) / d
    f3 = (-g.g3 * kappa - 2.0 * g.g2 - g.g1 / kappa) / d
    return d, scale, (f1, f24, f3, f24)


def _evaluate(closed_form, params, kappa: np.ndarray):
    """Evaluate closed_form(params, kappa) -> (denominator, scale, quad)
    over an array of spectral points.  Returns the quad, the mask of the
    poles, where |denominator| < 1e-12 * scale, and the mask of the
    points off the poles at which the quad is not finite."""
    with np.errstate(all="ignore"):
        den, scale, quad = closed_form(params, kappa)
        pole = abs(den) < _POLE_TOL * scale
    return quad, pole, ~(np.isfinite(quad).all(axis=0) | pole)


def _resolvent(closed_form, params, kappa):
    """The quad at a float or at an array of spectral points, raising what
    a loop of float calls would raise at its first bad point."""
    kappa = spectral_points(kappa)
    points = np.asarray(kappa)
    quad, pole, overflow = _evaluate(closed_form, params, points)
    bad = np.flatnonzero(pole | overflow)
    if bad.size:
        at = float(points.flat[bad[0]])
        if pole.flat[bad[0]]:
            raise PoleAtSpectralPoint(at)
        raise ValueError(f"resolvent is not finite at kappa = {at!r}")
    return ResolventQuad(*(map(float, quad) if isinstance(kappa, float)
                           else quad))


def resolvent_from_couplings(g, kappa) -> ResolventQuad:
    """Evaluate f1..f4 for couplings g at resolvent parameter kappa > 0, a
    float or an array (then each field is an array of its shape).

    Raises PoleAtSpectralPoint when |D(kappa)| falls below the fixed
    1e-12 * (1 + |g3| kappa + |g1|/kappa), signalling a bound state,
    and ValueError when the quads are not finite (kappa so small or so
    large that a term overflows), at the first such point of an array.
    """
    return _resolvent(_couplings_quad, _as_couplings(g), kappa)


def resolvent_grid(g, kappa) -> tuple[ResolventQuad, np.ndarray]:
    """Evaluate f1..f4 at every point of a kappa array: (quad, pole), a
    quad of arrays of the shape of kappa and the mask of the poles.

    A pole, by the 1e-12 test of `resolvent_from_couplings`, is flagged
    and holds NaN; every other point equals it exactly.  Raises ValueError
    if a point off the poles is not finite.
    """
    points = np.asarray(spectral_points(kappa))
    quad, pole, overflow = _evaluate(_couplings_quad, _as_couplings(g), points)
    bad = _first(points, overflow)
    if bad is not None:
        raise ValueError(f"resolvent is not finite at kappa = {bad!r}")
    return ResolventQuad(*(np.where(pole, np.nan, f) for f in quad)), pole


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


def _constants_quad(c: ResolventConstants, kappa):
    """The denominator t, its pole scale and the quad of a constants
    family.  Each family sets t, the numerator num, the weight w of the
    constants and the scale."""
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
        w = 1.0
        scale = abs(s) * (u + 1.0 / u) + 2.0 * abs(c.c1)
    elif c.family == FAMILY_SMALL_SCALE:
        t = c.gamma + 2.0 * c.c1 * kappa
        num, w = -c.gamma, kappa
        scale = np.maximum(c.gamma + 2.0 * abs(c.c1) * kappa, 1.0)
    else:  # large-scale limit
        t = c.gamma * kappa + 2.0 * c.c1
        num, w = c.gamma * kappa, 1.0
        scale = np.maximum(c.gamma * kappa + 2.0 * abs(c.c1), 1.0)
    return t, scale, ((-num - 2.0 * c.c3 * w) / t,
                      1.0 - 2.0 * c.c2 * w / t,
                      (-num + 2.0 * c.c3 * w) / t,
                      1.0 - 2.0 * c.c4 * w / t)


def resolvent_from_constants(c: ResolventConstants, kappa) -> ResolventQuad:
    """Evaluate the constants-family quads at kappa > 0, a float or an
    array, raising as `resolvent_from_couplings` does (a pole at 1e-12).

    The generic family branches on the sign of the discriminant; the
    limiting families are first-degree rational in kappa.  All square
    roots are taken positive.
    """
    return _resolvent(_constants_quad, c, kappa)


def greens_function(g, kappa: float, x, xp):
    """Green's function R_kappa(x, x') of the point interaction.

    Broadcasts over arrays x and xp from one evaluation of the quads; a
    float for scalar input.  No coordinate may be 0, so that every sign
    sector is defined; poles raise as in `resolvent_from_couplings`.
    """
    quad = resolvent_from_couplings(g, kappa)
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if np.any(x == 0.0) or np.any(xp == 0.0):
        raise SignUndefined("coordinates must not sit at the interaction "
                            "point")
    f = quad_sector(quad, x, xp)
    r = (np.exp(-kappa * abs(x - xp))
         - f * np.exp(-kappa * (abs(x) + abs(xp)))) / (2.0 * kappa)
    return float(r) if r.ndim == 0 else r


# Complex arithmetic on (re, im) pairs, rounded as CPython rounds it: a
# real operand is promoted to (x, 0.0) and division is Smith's algorithm,
# scaled by the larger part of the divisor.  numpy's complex division
# rounds differently in the last bit.

def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cadd(a, b):
    return a[0] + b[0], a[1] + b[1]


def _csub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _cdiv(a, b):
    by_re = abs(b[0]) >= abs(b[1])
    ratio = np.where(by_re, b[1] / b[0], b[0] / b[1])
    den = np.where(by_re, b[0] + b[1] * ratio, b[0] * ratio + b[1])
    return (np.where(by_re, a[0] + a[1] * ratio, a[0] * ratio + a[1]) / den,
            np.where(by_re, a[1] - a[0] * ratio, a[1] * ratio - a[0]) / den)


def _s_entries(g1, g2, g3, k):
    """S++ = S-- = ((4 + g1 g3 - g2^2)/2)/d, S+-, S-+ = (i g3 k -/+ 2 g2 -
    i g1/k)/d, d = i g3 k + (4 - g1 g3 + g2^2)/2 + i g1/k, from (re, im)
    pairs at array couplings and k that broadcast, as shape + (2, 2)
    complex, and where the sum (|S_ij| <= 1) is not finite."""
    ik3 = _cmul(_cmul((0.0, 1.0), (g3, 0.0)), (k, 0.0))
    ik1 = _cdiv(_cmul((0.0, 1.0), (g1, 0.0)), (k, 0.0))
    d = _cadd(_cadd(ik3, (0.5 * (4.0 - g1 * g3 + g2 ** 2), 0.0)), ik1)
    diag = _cdiv((0.5 * (4.0 + g1 * g3 - g2 ** 2), 0.0), d)
    e = (*diag, *_cdiv(_csub(_csub(ik3, (2.0 * g2, 0.0)), ik1), d),
         *_cdiv(_csub(_cadd(ik3, (2.0 * g2, 0.0)), ik1), d), *diag)
    s = np.empty(np.shape(diag[0]) + (8,))
    for j, x in enumerate(e):
        s[..., j] = x
    return s.view(complex).reshape(s.shape[:-1] + (2, 2)), ~np.isfinite(sum(e))


def s_matrix_grid(g, k) -> np.ndarray:
    """`_s_entries` at every point of a k array, shape k.shape + (2, 2), equal
    to Python complex arithmetic.  Raises ValueError if one is not finite."""
    g = _as_couplings(g)
    k = np.asarray(spectral_points(k))
    with np.errstate(all="ignore"):
        s, bad = _s_entries(g.g1, g.g2, g.g3, k)
    bad = k[bad]
    if bad.size:
        raise ValueError(f"S-matrix is not finite at k = {float(bad[0])!r}")
    return s


def s_matrix(g, k: float) -> np.ndarray:
    """Unitary 2x2 S-matrix at wavenumber k > 0.

    Basis order (+, -) by propagation direction; entry [out, in], so
    S[0, 0] is the transmission of a wave incident from the left and
    S[1, 0] its reflection.  The scalar view of `s_matrix_grid`.
    """
    return s_matrix_grid(g, float(k))


def parity_terms(parity: str, k: float, g1: float, g3: float
                 ) -> tuple[float, float]:
    """(a, b) of the factor (a - ib)/(a + ib) by which a parity wave of
    wavenumber k scatters: a = 2k, b = g1 for the even wave, a = 2,
    b = g3 k for the odd one.  k is not checked."""
    return (2.0 * k, g1) if parity == "even" else (2.0, g3 * k)


def parity_factor(a: float, b: float) -> complex:
    """The unimodular parity factor (a - ib)/(a + ib)."""
    return (a - 1j * b) / (a + 1j * b)


def even_phase(g1: float, k: float) -> complex:
    """Unimodular even-wave scattering factor (2k - i g1)/(2k + i g1)."""
    return parity_factor(*parity_terms("even", spectral_points(float(k)),
                                       g1, 0.0))


def odd_phase(g3: float, k: float) -> complex:
    """Unimodular odd-wave scattering factor (2 - i g3 k)/(2 + i g3 k)."""
    return parity_factor(*parity_terms("odd", spectral_points(float(k)),
                                       0.0, g3))


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
    # g3 kappa^2 + b kappa - g1 = 0.  A discriminant within rounding of
    # zero is a double root, reported once.
    disc = b * b + 4.0 * g.g3 * g.g1
    if abs(disc) <= 4.0 * _EPS * (b * b + abs(4.0 * g.g3 * g.g1)):
        roots = [-b / (2.0 * g.g3)]
    elif disc < 0.0:
        return []
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [q / g.g3, -g.g1 / q]
    return sorted(r for r in roots if r > 0.0)


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

    def dual(kappa) -> ResolventQuad:
        q = provider(1.0 / spectral_points(kappa))
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
