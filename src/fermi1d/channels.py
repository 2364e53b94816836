"""Multichannel, multi-site point-interaction scattering.

An array of point interactions at positions x_1 < ... < x_m, each with
n x n hermitian coupling matrices (C1, C2, C3), reduces the coupled
Schroedinger equations to a finite linear system.  Between sites the
solution is a superposition of plane waves per channel,

    psi_s(x) = A_s exp(ikx) + B_s exp(-ikx),   s = 0..m,

and at each site the pairing rules give the matching conditions

    Delta psi  = -C2 psi_bar - C3 psi_bar'
    Delta psi' =  C1 psi_bar + C2 psi_bar'

(the C2 signs fix the same orientation convention as the single-channel
closed forms; the opposite choice is its mirror image).

where psi_bar and psi_bar' are the means of the one-sided values and
(regularized) one-sided derivatives.  This module assembles that system
in band storage, solves it with one banded LU factorisation per
wavenumber, and builds the full 2n x 2n S-matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import zgbcon, zgbtrf, zgbtrs

from .errors import SingularSystem
from .pointcore import check_k

__all__ = [
    "MatrixCouplings",
    "SiteArray",
    "IncidentWave",
    "ScatteringSolution",
    "assemble_system",
    "solve_scattering",
    "full_s_matrix",
    "parity_blocks",
]

_MIN_SEPARATION = 1e-9
_CONDITION_LIMIT = 1e12
_MODES = ("left", "right", "even", "odd")


def _as_hermitian(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    # relative to the matrix scale, so round-off of large couplings passes
    if np.max(np.abs(m - m.conj().T)) > 1e-12 * np.max(np.abs(m)):
        raise ValueError(f"{name} must be hermitian")
    return m


@dataclass(frozen=True)
class MatrixCouplings:
    """Hermitian n x n coupling matrices of one interaction site."""

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c1", _as_hermitian(self.c1, "c1"))
        object.__setattr__(self, "c2", _as_hermitian(self.c2, "c2"))
        object.__setattr__(self, "c3", _as_hermitian(self.c3, "c3"))
        n = self.c1.shape[0]
        if self.c2.shape[0] != n or self.c3.shape[0] != n:
            raise ValueError("coupling matrices must share one dimension")

    @classmethod
    def from_scalars(cls, g1: float, g2: float, g3: float
                     ) -> "MatrixCouplings":
        return cls(np.array([[g1]]), np.array([[g2]]), np.array([[g3]]))

    @property
    def n(self) -> int:
        return self.c1.shape[0]


@dataclass(frozen=True)
class SiteArray:
    """Ordered interaction sites with a common channel count."""

    sites: tuple

    def __init__(self, sites):
        sites = tuple((float(pos), c) for pos, c in sites)
        positions = [pos for pos, _ in sites]
        if not all(map(math.isfinite, positions)):
            raise ValueError("site positions must be finite")
        for left, right in zip(positions, positions[1:]):
            if right - left < _MIN_SEPARATION:
                raise ValueError("site positions must be strictly "
                                 f"increasing with separation >= "
                                 f"{_MIN_SEPARATION}")
        ns = {c.n for _, c in sites}
        if len(ns) > 1:
            raise ValueError("all sites must share the channel count")
        object.__setattr__(self, "sites", sites)

    @property
    def n(self) -> int:
        return self.sites[0][1].n if self.sites else 1

    def __len__(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class IncidentWave:
    """Incident wave: wavenumber, mode, and unit channel amplitudes.

    Modes: 'left' and 'right' are travelling waves entering from one
    side; 'even' and 'odd' are the parity combinations cos(kx) and
    sin(kx) scaled by the channel amplitude vector.
    """

    k: float
    mode: str
    amplitudes: np.ndarray = field(default=None)

    def __post_init__(self):
        check_k(self.k)
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        amps = self.amplitudes
        if amps is None:
            amps = np.array([1.0 + 0.0j])
        amps = np.asarray(amps, dtype=complex).ravel()
        norm = np.linalg.norm(amps)
        if not np.all(np.isfinite(amps)) or abs(norm - 1.0) > 1e-9:
            raise ValueError("channel amplitudes must have unit norm")
        object.__setattr__(self, "amplitudes", amps)

    def endpoint_amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """Incoming plane-wave coefficients (A_0, B_m) for this mode."""
        a = self.amplitudes
        zero = np.zeros_like(a)
        if self.mode == "left":
            return a, zero
        if self.mode == "right":
            return zero, a
        if self.mode == "even":
            return a / 2.0, a / 2.0
        return a / 2.0j, -a / 2.0j  # odd: sin(kx) = (e^{ikx}-e^{-ikx})/2i


@dataclass(frozen=True)
class ScatteringSolution:
    """Segment coefficients and derived per-channel probabilities."""

    k: float
    coefficients_a: tuple  # A_s per segment, each an n-vector
    coefficients_b: tuple
    reflection: np.ndarray  # |outgoing left|^2 per channel
    transmission: np.ndarray  # |outgoing right|^2 per channel
    flux_residual: float

    @property
    def outgoing_left(self) -> np.ndarray:
        return self.coefficients_b[0]

    @property
    def outgoing_right(self) -> np.ndarray:
        return self.coefficients_a[-1]


def assemble_system(sites: SiteArray, k: float) -> np.ndarray:
    """The matching conditions at wavenumber k in LAPACK band storage.

    Unknown layout: [A_0, B_0, A_1, B_1, ..., A_m, B_m], each block an
    n-vector.  The first n rows pin the incoming A_0, then come the 2n
    matching rows of each site in order, which touch only the columns
    [A_t, B_t, A_t+1, B_t+1] of site t, and the last n rows pin the
    incoming B_m.  The matrix is then banded with kl = ku = 3n - 1, and
    entry (i, j) is stored at [kl + ku + i - j, j] of the returned
    (3 kl + 1) x 2n(m + 1) array, as zgbtrf expects; its first kl rows
    are left free for the fill-in of the factorisation.
    """
    n = sites.n
    m = len(sites)
    kl = 3 * n - 1
    diag = 2 * kl  # band row of the main diagonal
    ab = np.zeros((3 * kl + 1, 2 * n * (m + 1)), dtype=complex, order="F")
    ab[diag, :n] = 1.0
    ab[diag, -n:] = 1.0

    eye = np.eye(n)
    pos = np.array([p for p, _ in sites.sites])
    c1, c2, c3 = (np.reshape([getattr(c, name) for _, c in sites.sites],
                             (m, n, n)) for name in ("c1", "c2", "c3"))
    ep = np.exp(1j * k * pos)[:, None, None]
    em = np.exp(-1j * k * pos)[:, None, None]
    ikp = 1j * k * ep
    ikm = -1j * k * em
    halves = []
    for sign in (-1.0, +1.0):  # segment t (left), then t+1 (right)
        # Delta psi + C2 psi_bar + C3 psi_bar' = 0
        val = [sign * ep * eye + 0.5 * ep * c2 + 0.5 * ikp * c3,
               sign * em * eye + 0.5 * em * c2 + 0.5 * ikm * c3]
        # Delta psi' - C1 psi_bar - C2 psi_bar' = 0
        der = [sign * ikp * eye - 0.5 * ep * c1 - 0.5 * ikp * c2,
               sign * ikm * eye - 0.5 * em * c1 - 0.5 * ikm * c2]
        halves.append(np.block([val, der]))
    blocks = np.concatenate(halves, axis=2)  # (m, 2n, 4n)
    # Row n + 2nt + r meets column 2nt + q on band row diag + n + r - q,
    # the same for every site t.
    r = np.arange(2 * n)[:, None]
    q = np.arange(4 * n)
    cols = 2 * n * np.arange(m)[:, None, None] + q
    # added into zeros, not assigned, so no entry is a negative zero
    ab[diag + n + r - q, cols] += blocks
    return ab


def _solve(sites: SiteArray, k: float, pin_rhs: np.ndarray) -> np.ndarray:
    """Segment coefficients for the incoming [A_0; B_m] in pin_rhs, one
    2n-vector or a column per incident wave, from one guarded banded LU
    factorisation."""
    ab = assemble_system(sites, k)
    kl = (ab.shape[0] - 1) // 3  # ab holds 3 kl + 1 band rows
    n = sites.n
    anorm = np.abs(ab).sum(axis=0).max()
    lu, piv, info = zgbtrf(ab, kl, kl, overwrite_ab=True)
    rcond = zgbcon(kl, kl, lu, piv, anorm)[0]
    # info > 0 is an exact zero pivot; rcond is NaN when the couplings
    # overflow the assembly
    if info > 0 or not rcond * _CONDITION_LIMIT >= 1.0:
        raise SingularSystem(f"condition number above {_CONDITION_LIMIT:g} "
                             f"at k = {k}")
    pins = pin_rhs.reshape(2 * n, -1)
    rhs = np.zeros((ab.shape[1], pins.shape[1]), dtype=complex, order="F")
    rhs[:n], rhs[-n:] = pins[:n], pins[n:]
    return zgbtrs(lu, kl, kl, rhs, piv, overwrite_b=True)[0]


def solve_scattering(sites: SiteArray, incident: IncidentWave
                     ) -> ScatteringSolution:
    """Solve the matching system and report outgoing amplitudes.

    Raises SingularSystem when the estimated 1-norm condition number of
    the system exceeds 1e12, which signals k at or near a resonance pole
    of the array.
    """
    n = sites.n
    m = len(sites)
    if incident.amplitudes.size != n:
        raise ValueError("incident amplitude dimension does not match "
                         "the site array channel count")
    a_in, b_in = incident.endpoint_amplitudes()
    sol = _solve(sites, incident.k, np.concatenate([a_in, b_in]))
    segments = sol.reshape(m + 1, 2, n)
    coeff_a, coeff_b = tuple(segments[:, 0]), tuple(segments[:, 1])
    flux_in = float(np.sum(np.abs(a_in) ** 2 + np.abs(b_in) ** 2))
    out_left = coeff_b[0]
    out_right = coeff_a[-1]
    flux_out = float(np.sum(np.abs(out_left) ** 2 + np.abs(out_right) ** 2))
    return ScatteringSolution(
        k=incident.k,
        coefficients_a=coeff_a,
        coefficients_b=coeff_b,
        reflection=np.abs(out_left) ** 2,
        transmission=np.abs(out_right) ** 2,
        flux_residual=flux_out - flux_in,
    )


def full_s_matrix(sites: SiteArray, k: float) -> np.ndarray:
    """The unitary 2n x 2n S-matrix of the array at wavenumber k.

    Basis order (channel 1 +, ..., channel n +, channel 1 -, ...,
    channel n -), where + waves travel rightward.  Entry [out, in].
    The incident columns are the pins A_0 = e_j and B_m = e_j; the
    outgoing waves are A_m and B_0.
    """
    check_k(k)
    n = sites.n
    sol = _solve(sites, k, np.eye(2 * n))
    return np.concatenate([sol[-2 * n:-n], sol[n:2 * n]])


def parity_blocks(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of a left-right-symmetric S-matrix.

    For a single symmetric site the basis change to parity modes block
    diagonalizes S into (T + R, T - R) with T the transmission block and
    R the reflection block.
    """
    n = s.shape[0] // 2
    t = s[:n, :n]
    r = s[n:, :n]
    return t + r, t - r
