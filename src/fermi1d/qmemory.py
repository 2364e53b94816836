"""Scattering-based quantum memory on a two-channel point interaction.

A normalized two-component amplitude (a1, a2) is stored at a site whose
channel couplings are C1 = g1 sigma_1 and C3 = g3 sigma_3.  Even waves
scatter the state by S_plus(k) = exp(-i sigma_1 2 arctan(g1/(2k))) and
odd waves by S_minus(k) = exp(-i sigma_3 2 arctan(g3 k / 2)); when both
couplings are nonzero, finite products of these reach all of SU(2), so
write/read/reset reduce to synthesizing scattering sequences.  Reading
fits the three Pauli expectation values, the Bloch vector, from the
interference patterns of the scattered waves; they fix the state up to a
global phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSampling,
    Inconsistent,
    NotSpecialUnitary,
    PhaseBlind,
    ZeroCoupling,
)
from .pointcore import parity_factor, parity_terms, spectral_points

__all__ = [
    "MemoryState",
    "Plan",
    "Observables",
    "AdmissibilityReport",
    "STANDARD_STATE",
    "s_plus",
    "s_minus",
    "apply_plan",
    "plan_matrix",
    "factorize_su2",
    "interference_pattern",
    "estimator_phase",
    "observe",
    "estimate_from_pattern",
    "reconstruct_state",
    "write",
    "reset",
    "read_protocol",
    "admissibility_check",
]

@dataclass(frozen=True)
class MemoryState:
    """A normalized two-component complex amplitude."""

    a1: complex
    a2: complex

    def __post_init__(self):
        try:
            norm = abs(self.a1) ** 2 + abs(self.a2) ** 2
        except OverflowError:
            norm = math.inf
        if not abs(norm - 1.0) <= 1e-12:    # NaN fails too
            raise ValueError("memory state must be normalized")

    @classmethod
    def from_vec(cls, vec) -> "MemoryState":
        vec = np.asarray(vec, dtype=complex).ravel()
        if vec.size != 2:
            raise ValueError("a memory state has exactly two components")
        return cls(complex(vec[0]), complex(vec[1]))

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.a1, self.a2], dtype=complex)

    def distance_up_to_phase(self, other: "MemoryState") -> float:
        """Minimum 2-norm distance over a global phase."""
        inner = (self.a1.conjugate() * other.a1
                 + self.a2.conjugate() * other.a2)
        phase = inner / abs(inner) if abs(inner) > 0 else 1.0
        return math.hypot(abs(self.a1 * phase - other.a1),
                          abs(self.a2 * phase - other.a2))


# Reference state with both components nonzero and a non-real relative
# phase, so every readout equation stays non-degenerate.
STANDARD_STATE = MemoryState(1.0 / math.sqrt(2.0),
                             cmath.exp(1j * math.pi / 4.0) / math.sqrt(2.0))

_ANGLE_TOL = 1e-12      # a rotation this close to a whole turn needs no wave
_FACTOR_TOL = 1e-9
_N_POSITIONS = 240      # samples per interference pattern
# A read samples at x_j = (0.1 + j/240) pi/k, so its phases e^{2ik x_j}
# and its projection weights (2/240) sin(2k x_j) do not depend on k.
_PHASES = np.exp(2j * np.pi * (np.arange(_N_POSITIONS) / _N_POSITIONS + 0.1))
_SINES = (2.0 / _N_POSITIONS) * _PHASES.imag


@dataclass(frozen=True)
class Plan:
    """A scattering sequence: two tuples of equal length, the parity of
    each wave and its wavenumber k as a Python float, checked once here.
    A single scattering is a one-wave plan.  Acting on a state, the last
    wave scatters first.
    """

    parity: tuple[str, ...]
    k: tuple[float, ...]

    def __post_init__(self):
        if any(p not in ("even", "odd") for p in self.parity):
            raise ValueError("parity must be 'even' or 'odd'")
        if len(self.parity) != len(self.k):
            raise ValueError("a plan needs one wavenumber per wave")
        spectral_points(self.k)

    def __len__(self) -> int:
        return len(self.k)


@dataclass(frozen=True)
class Observables:
    """Interference readout results.

    The Bloch vector (A2, Ay, A1) of the state: A1 = <sigma_3> =
    |a1|^2 - |a2|^2, A2 = <sigma_1> = 2 Re(a1* a2) and Ay = <sigma_2> =
    2 Im(a1* a2).  A3 is the interference with the standard state, which
    the read reports but does not use.
    """

    A1: float
    A2: float
    Ay: float
    A3: float

    def __post_init__(self):
        if self.A1 ** 2 + self.A2 ** 2 + self.Ay ** 2 > 1.0 + 1e-9:
            raise ValueError("A1^2 + A2^2 + Ay^2 exceeds 1 for a unit state")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Purity verdict for an interrogating wave over a set of states."""

    purity: float
    admissible: bool
    density_matrix: np.ndarray


def _pair(plan: Plan, g1: float, g3: float) -> tuple[complex, complex]:
    """The plan's SU(2) product, first wave leftmost, as (alpha, beta) of
    [[alpha, beta], [-beta*, alpha*]]; a wave is Re(e) I + i Im(e) sigma."""
    alpha, beta = 1 + 0j, 0j
    for parity, k in zip(plan.parity, plan.k):
        e = parity_factor(*parity_terms(parity, k, g1, g3))
        a, b = ((complex(e.real), complex(0.0, e.imag)) if parity == "even"
                else (e, 0j))
        alpha, beta = (alpha * a - beta * b.conjugate(),
                       alpha * b + beta * a.conjugate())
    return alpha, beta


def _matrix(alpha: complex, beta: complex) -> np.ndarray:
    return np.array([[alpha, beta], [-beta.conjugate(), alpha.conjugate()]])


def _scatter(alpha: complex, beta: complex, a: MemoryState) -> MemoryState:
    """The state a after the SU(2) element of the pair (alpha, beta)."""
    return MemoryState(alpha * a.a1 + beta * a.a2,
                       alpha.conjugate() * a.a2 - beta.conjugate() * a.a1)


def s_minus(g3: float, k: float) -> np.ndarray:
    """Odd-wave scattering matrix exp(-i sigma_3 2 arctan(g3 k / 2))."""
    return plan_matrix(Plan(("odd",), (float(k),)), 0.0, g3)


def s_plus(g1: float, k: float) -> np.ndarray:
    """Even-wave scattering matrix exp(-i sigma_1 2 arctan(g1/(2k)))."""
    return plan_matrix(Plan(("even",), (float(k),)), g1, 0.0)


def op_angle(wave: Plan, g1: float, g3: float) -> float:
    """The rotation angle 2 atan(b/a) of a one-wave plan, whose matrix is
    exp(-i sigma theta)."""
    (parity,), (k,) = wave.parity, wave.k
    a, b = parity_terms(parity, k, g1, g3)
    return 2.0 * math.atan(b / a)


def plan_matrix(plan: Plan, g1: float, g3: float) -> np.ndarray:
    """Ordered product of the plan's wave matrices, first wave leftmost,
    from the wavenumbers the plan checked."""
    return _matrix(*_pair(plan, g1, g3))


def apply_plan(state: MemoryState, plan: Plan, g1: float, g3: float
               ) -> MemoryState:
    """Scatter the plan's waves off the memory: apply plan_matrix(plan)
    to the state."""
    return _scatter(*_pair(plan, g1, g3), state)


def _axis_plan(rotations: list[tuple[float, str]], g1: float, g3: float
               ) -> Plan:
    """One plan for a product of rotations exp(-i sigma theta), each a
    (theta, parity) pair about the parity's axis, first leftmost.

    A rotation within 1e-12 of a whole turn needs no wave.  A single wave
    reaches angles theta with theta*sign(coupling) in (0, pi); anything
    else splits into two waves of half the (reduced) angle.
    """
    waves = []
    for theta, parity in rotations:
        coupling = g1 if parity == "even" else g3
        t = (theta * math.copysign(1.0, coupling)) % (2.0 * math.pi)
        if t < _ANGLE_TOL or t > 2.0 * math.pi - _ANGLE_TOL:
            continue
        n = 1 if t < math.pi - 1e-9 else 2
        # each angle t/n in (0, pi); invert the arctan relation for k > 0
        tan = math.tan(t / n / 2.0)
        k = ((2.0 / abs(coupling)) * tan if parity == "odd"
             else abs(coupling) / (2.0 * tan))
        waves += [(parity, k)] * n
    return Plan(tuple(p for p, _ in waves), tuple(k for _, k in waves))


def factorize_su2(u: np.ndarray, g1: float, g3: float) -> Plan:
    """Express an SU(2) matrix as a plan of at most six scatterings.

    Uses the Euler decomposition u = exp(-i sigma_3 a) exp(-i sigma_1 b)
    exp(-i sigma_3 c); each rotation maps to one or two waves, and no
    entry of the plan's matrix may miss u by more than 1e-9.
    """
    if g1 == 0.0 or g3 == 0.0:
        raise ZeroCoupling("both couplings must be nonzero to reach a "
                           "generic SU(2) element")
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise NotSpecialUnitary("expected a 2x2 matrix")
    (u00, u01), (u10, u11) = u.tolist()
    # u^dag u - I; its (1, 0) entry is the conjugate of its (0, 1) entry
    gram = (u00.conjugate() * u00 + u10.conjugate() * u10 - 1.0,
            u00.conjugate() * u01 + u10.conjugate() * u11,
            u01.conjugate() * u01 + u11.conjugate() * u11 - 1.0)
    if max(map(abs, gram)) > 1e-10:
        raise NotSpecialUnitary("matrix is not unitary")
    if abs(u00 * u11 - u01 * u10 - 1.0) > 1e-10:
        raise NotSpecialUnitary("matrix determinant is not 1")

    # u = [[cos b e^{-i(a+c)}, -i sin b e^{-i(a-c)}], [...]]
    cb = abs(u00)
    sb = abs(u01)
    b = math.atan2(sb, cb)
    apc = -cmath.phase(u00) if cb > 1e-12 else 0.0
    amc = (-cmath.phase(u01) - math.pi / 2.0) if sb > 1e-12 else 0.0
    a = 0.5 * (apc + amc)
    c = 0.5 * (apc - amc)

    plan = _axis_plan([(a, "odd"), (b, "even"), (c, "odd")], g1, g3)
    alpha, beta = _pair(plan, g1, g3)
    err = max(abs(alpha - u00), abs(beta - u01),
              abs(-beta.conjugate() - u10), abs(alpha.conjugate() - u11))
    if err > _FACTOR_TOL:
        raise NotSpecialUnitary(f"factorization residual {err:g} exceeds "
                                f"{_FACTOR_TOL:g}")
    return plan


def interference_pattern(state: MemoryState, wave: Plan,
                         g1: float, g3: float, xs) -> np.ndarray:
    """Interrogating-wave intensity 2[1 + Re(<a, S a> e^{2ikx})] at
    positions x > 0.

    For an odd wave this is 2[1 + cos(2kx) cos(phi) - A1 sin(2kx)
    sin(phi)] with phi the odd scattering phase.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs) & (xs > 0.0)):
        raise ValueError("sample positions must be positive and finite")
    phases = np.exp(2j * wave.k[0] * xs)
    return _pattern(state, *_pair(wave, g1, g3), phases)[0]


def _pattern(state: MemoryState, alpha: complex, beta: complex, phases
             ) -> tuple[np.ndarray, MemoryState]:
    """The intensity at phases e^{2ikx}, and the state scattered by a pair."""
    scattered = _scatter(alpha, beta, state)
    amp = (state.a1.conjugate() * scattered.a1
           + state.a2.conjugate() * scattered.a2)
    return 2.0 * (1.0 + (amp * phases).real), scattered


def estimator_phase(wave: Plan, g1: float, g3: float) -> float:
    """The phase of this one-wave plan's pattern, as estimate_from_pattern
    and the read take it: A1 comes out for an odd wave, A2 for an even."""
    return -op_angle(wave, g1, g3)


def observe(state: MemoryState, which: str,
            s: MemoryState | None = None) -> float:
    """Direct evaluation of one readout observable."""
    a1, a2 = state.a1, state.a2
    if which == "A1":
        return abs(a1) ** 2 - abs(a2) ** 2
    if which == "A2":
        return 2.0 * (a1.conjugate() * a2).real
    if which == "Ay":
        return 2.0 * (a1.conjugate() * a2).imag
    if which == "A3":
        if s is None:
            raise ValueError("A3 needs the standard state")
        return abs(a1 + s.a1) ** 2 - abs(a2 + s.a2) ** 2
    raise ValueError(f"unknown observable {which!r}")


def estimate_from_pattern(samples, k: float, phi: float) -> float:
    """Least-squares fit of value ~ c0 + cc cos(2kx) + cs sin(2kx) to
    (x, value) samples at any positions; returns -cs / (2 sin phi)."""
    sine = _phase_sine(phi)
    samples = list(samples)
    if len(samples) < 3:
        raise DegenerateSampling("need at least three samples")
    xs, ys = (np.array(column, dtype=float) for column in zip(*samples))
    t = 2.0 * k * xs
    design = np.column_stack([np.ones_like(xs), np.cos(t), np.sin(t)])
    coeffs, _, _, singular_values = np.linalg.lstsq(design, ys, rcond=None)
    if np.count_nonzero(singular_values > 1e-9) < 3:
        raise DegenerateSampling("sample positions do not span the fit "
                                 "basis")
    return float(-coeffs[2] / (2.0 * sine))


def _phase_sine(phi: float) -> float:
    """sin(phi), by which a pattern at phase phi carries the state."""
    if abs(math.sin(phi)) < 1e-9:
        raise PhaseBlind("pattern carries no state information at this phase")
    return math.sin(phi)


def reconstruct_state(obs: Observables) -> MemoryState:
    """The pure state along the Bloch vector (A2, Ay, A1).

    With t and phi the polar angles of the vector, the state is
    (cos(t/2), e^{i phi} sin(t/2)) up to a global phase.  It is built
    from the half-angle form (r + z, x + iy) when z >= 0 and
    (x - iy, r - z) when z < 0, neither of which cancels, then
    normalized; so a1 is real and positive on the upper hemisphere and
    a2 on the lower one.  acos(z) would lose half the digits of t near
    the poles.
    """
    x, y, z = obs.A2, obs.Ay, obs.A1
    r = math.sqrt(x * x + y * y + z * z)
    if r == 0.0:
        raise Inconsistent("a zero Bloch vector fixes no state")
    u, v = (r + z, complex(x, y)) if z >= 0.0 else (complex(x, -y), r - z)
    norm = math.sqrt(abs(u) ** 2 + abs(v) ** 2)
    return MemoryState(u / norm, v / norm)


def _su2_completion(source: MemoryState, target: MemoryState
                    ) -> np.ndarray:
    """The SU(2) element mapping source to target (up to global phase).

    Completes the state-to-state map t s^dag with the orthogonal
    complements, t_perp s_perp^dag, and scales its determinant to 1.
    """
    (s1, s2), (t1, t2) = (source.a1, source.a2), (target.a1, target.a2)
    alpha = t1 * s1.conjugate() + t2.conjugate() * s2
    beta = t1 * s2.conjugate() - t2.conjugate() * s1
    norm = math.hypot(abs(alpha), abs(beta))
    return _matrix(alpha / norm, beta / norm)


def write(s: MemoryState, target: MemoryState,
          g1: float, g3: float) -> Plan:
    """Plan whose matrix maps the standard state to the target, up to a
    global phase."""
    return factorize_su2(_su2_completion(s, target), g1, g3)


def reset(current: MemoryState, s: MemoryState,
          g1: float, g3: float) -> Plan:
    """Plan whose matrix maps the current state back to the standard
    state, up to a global phase."""
    return factorize_su2(_su2_completion(current, s), g1, g3)


def _interrogate(state: MemoryState, wave: Plan, g1: float, g3: float,
                 noise_sigma: float, rng) -> tuple[float, MemoryState]:
    """Measure a quarter-turn wave's pattern at x_j = (0.1 + j/240) pi/k,
    one period, where 1, cos and sin are orthogonal: its projection on the
    fixed sines is the least-squares sine coefficient.  Then scatter the
    same wave again, U^2 = -I, and drop the sign: the state is restored
    exactly.  Returns the estimate and the restored state."""
    sine = _phase_sine(estimator_phase(wave, g1, g3))
    alpha, beta = _pair(wave, g1, g3)
    values, scattered = _pattern(state, alpha, beta, _PHASES)
    if noise_sigma > 0.0:
        values = values + rng.normal(0.0, noise_sigma, size=values.shape)
    return (-float(np.sum(values * _SINES)) / (2.0 * sine),
            _scatter(-alpha, -beta, scattered))


# A quarter turn exp(-i sigma_3 pi/4), made of odd waves: after it,
# <sigma_1>, which an even wave measures, is the state's -<sigma_2>.
_PREROTATION_ANGLE = math.pi / 4.0


def read_protocol(state: MemoryState, s: MemoryState, g1: float, g3: float,
                  noise_sigma: float = 0.0, rng=None
                  ) -> tuple[Observables, MemoryState, MemoryState]:
    """Full read sequence: interrogate, restore, reconstruct.

    An odd wave at k = 2/|g3| and an even wave at k = |g1|/2 (both at a
    quarter-turn phase, the best-conditioned choice) yield A1 = <sigma_3>
    and A2 = <sigma_1>: each pattern's 240 samples over one period are
    projected on one fixed sine table, and the same wave scattered again
    undoes the interrogation, since a quarter turn squares to -I.  A3 is
    the interference with the standard state s.  A quarter turn about
    sigma_3, then a third (even) interrogation, yields Ay = <sigma_2>; the
    turn is undone last.  The Bloch vector must have unit length within
    max(1e-6, 50 noise_sigma), or the read raises Inconsistent; it is
    scaled to unit length and mapped to a state by reconstruct_state.
    Returns (observables, reconstructed state, final memory state); the
    final state equals the input up to global phase.
    """
    if g1 == 0.0 or g3 == 0.0:
        raise ZeroCoupling("the protocol needs both couplings nonzero")
    if noise_sigma > 0.0 and rng is None:
        rng = np.random.default_rng()
    odd = Plan(("odd",), (2.0 / abs(g3),))
    even = Plan(("even",), (abs(g1) / 2.0,))

    a1, cur = _interrogate(state, odd, g1, g3, noise_sigma, rng)
    a2, cur = _interrogate(cur, even, g1, g3, noise_sigma, rng)
    a3 = observe(cur, "A3", s)
    cur = apply_plan(cur, _axis_plan([(_PREROTATION_ANGLE, "odd")], g1, g3),
                     g1, g3)
    minus_ay, cur = _interrogate(cur, even, g1, g3, noise_sigma, rng)
    cur = apply_plan(cur, _axis_plan([(-_PREROTATION_ANGLE, "odd")], g1, g3),
                     g1, g3)

    r = math.sqrt(a1 * a1 + a2 * a2 + minus_ay * minus_ay)
    tol = max(1e-6, 50.0 * noise_sigma)
    if not abs(r - 1.0) <= tol:
        raise Inconsistent(f"fitted Bloch vector has length {r:.9g}, "
                           f"not 1 within {tol:g}")
    obs = Observables(a1 / r, a2 / r, -minus_ay / r, a3)
    return obs, reconstruct_state(obs), cur


def admissibility_check(alpha: complex, beta: complex, k: float,
                        g1: float, g3: float, states
                        ) -> AdmissibilityReport:
    """Purity test of an interrogating wave alpha*even + beta*odd.

    The outgoing even and odd waves are orthogonal modes, so the reduced
    density matrix after scattering state a, a MemoryState or a normalized
    vector, is M = wa (S+ a)(S+ a)^dag + wb (S- a)(S- a)^dag, with
    wa = |alpha|^2 and wb = |beta|^2; its purity is wa^2 + wb^2 +
    2 wa wb |<S+ a, S- a>|^2.  The wave is admissible when every sampled
    state stays pure; the report holds the least pure state's M.
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise ValueError("|alpha|^2 + |beta|^2 must be 1")
    wa, wb = abs(alpha) ** 2, abs(beta) ** 2
    even = _pair(Plan(("even",), (float(k),)), g1, g3)
    odd = _pair(Plan(("odd",), (float(k),)), g1, g3)
    worst = None
    for state in states:
        if not isinstance(state, MemoryState):
            state = MemoryState.from_vec(state)
        ap, am = _scatter(*even, state), _scatter(*odd, state)
        overlap = ap.a1.conjugate() * am.a1 + ap.a2.conjugate() * am.a2
        purity = wa * wa + wb * wb + 2.0 * wa * wb * abs(overlap) ** 2
        if worst is None or purity < worst[0]:
            worst = purity, ap, am
    if worst is None:
        raise ValueError("need at least one sample state")
    purity, ap, am = worst
    return AdmissibilityReport(
        purity=purity, admissible=purity >= 1.0 - 1e-10,
        density_matrix=(wa * np.outer(ap.vec, ap.vec.conj())
                        + wb * np.outer(am.vec, am.vec.conj())))
