"""Multichannel, multi-site point-interaction scattering.

Sites at x_1 < ... < x_m carry n x n hermitian coupling matrices
(C1, C2, C3).  Between sites the solution is a superposition of plane
waves per channel, psi_s(x) = A_s exp(ikx) + B_s exp(-ikx), s = 0..m,
and at each site the pairing rules give the matching conditions

    Delta psi  = -C2 psi_bar - C3 psi_bar'
    Delta psi' =  C1 psi_bar + C2 psi_bar'

where psi_bar and psi_bar' are the means of the one-sided values and
(regularized) one-sided derivatives; the C2 signs fix the orientation
convention of the single-channel closed forms (the opposite choice is
its mirror image).  Each site's matching rows give its S-matrix, and
the array's is their Redheffer star product, joined pairwise in
ceil(log2 m) levels batched over sites and wavenumbers: O(n^3 m) time
per wavenumber, and no interior segment coefficients.  A join inverts
the round-trip matrix I - r'_a r_b of two sub-arrays, dimensionless
and singular exactly when a mode is trapped between them, so the guard
on it depends on no unit or scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularSystem
from .pointcore import spectral_points

__all__ = [
    "MatrixCouplings",
    "SiteArray",
    "IncidentWave",
    "ScatteringSolution",
    "full_s_matrix_grid",
    "solve_scattering",
    "full_s_matrix",
    "parity_blocks",
]

_MIN_SEPARATION = 1e-9
_ROUND_TRIP_LIMIT = 1e-12  # smallest singular value of I - r'_a r_b
_MODES = ("left", "right", "even", "odd")
_COUPLINGS = ("c1", "c2", "c3")


def _as_hermitian(mats, names=_COUPLINGS, per_site=False) -> np.ndarray:
    """The stack mats, shape (p, n, n), as complex hermitian matrices,
    matrix i being coupling names[i % len(names)] of site i // len(names).
    Each is hermitian within 1e-12 of its own largest entry, so round-off
    of large couplings passes and asymmetry of small ones does not.
    Raises ValueError naming the first matrix not square, finite or
    hermitian, and with `per_site` its site."""
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"{names[0]} must be a square matrix")
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        mats = np.where(finite[:, None, None], mats, 0.0)
    asym = np.abs(mats - mats.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    good = finite & (asym <= 1e-12 * np.abs(mats).max(axis=(-2, -1)))
    if not good.all():
        first = int(np.argmin(good))
        where = f"site {first // len(names)}: " if per_site else ""
        raise ValueError(f"{where}{names[first % len(names)]} must be "
                         + ("hermitian" if finite[first] else "finite"))
    return mats


@dataclass(frozen=True)
class MatrixCouplings:
    """Hermitian n x n coupling matrices of one interaction site."""

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray

    def __post_init__(self):
        mats = [np.asarray(c, dtype=complex)
                for c in (self.c1, self.c2, self.c3)]
        if not mats[0].shape == mats[1].shape == mats[2].shape:
            for name, m in zip(_COUPLINGS, mats):
                _as_hermitian(m[None], (name,))
            raise ValueError("coupling matrices must share one dimension")
        stack = _as_hermitian(mats)
        for name, m in zip(_COUPLINGS, stack):
            object.__setattr__(self, name, m)

    @classmethod
    def from_scalars(cls, g1: float, g2: float, g3: float
                     ) -> "MatrixCouplings":
        return cls(np.array([[g1]]), np.array([[g2]]), np.array([[g3]]))

    @property
    def n(self) -> int:
        return self.c1.shape[0]


def _check_positions(positions: np.ndarray) -> None:
    if not np.all(np.isfinite(positions)):
        raise ValueError("site positions must be finite")
    if np.any(np.diff(positions) < _MIN_SEPARATION):
        raise ValueError("site positions must be strictly increasing "
                         f"with separation >= {_MIN_SEPARATION}")


@dataclass(frozen=True, eq=False)
class SiteArray:
    """Ordered interaction sites with a common channel count, held as the
    arrays `positions`, shape (m,), and `couplings`, shape (3, m, n, n),
    whose entry j stacks C_{j+1} over the sites.

    `SiteArray(sites)` takes (position, MatrixCouplings) pairs;
    `SiteArray.from_arrays(positions, couplings)` takes the two arrays.
    Both check the whole array at once, naming a bad site by its index.
    """

    positions: np.ndarray
    couplings: np.ndarray

    def __init__(self, sites):
        sites = [(float(pos), c) for pos, c in sites]
        positions = np.array([pos for pos, _ in sites])
        ns = {c.n for _, c in sites}
        if len(ns) > 1:
            _check_positions(positions)
            raise ValueError("all sites must share the channel count")
        n = ns.pop() if ns else 1
        couplings = np.array([[getattr(c, name) for _, c in sites]
                              for name in _COUPLINGS], dtype=complex)
        self._set(positions, couplings.reshape(3, len(sites), n, n))

    @classmethod
    def from_arrays(cls, positions, couplings) -> "SiteArray":
        """The sites at `positions`, shape (m,), with the couplings
        (C1, C2, C3) stacked as `couplings`, shape (3, m, n, n); both
        are copied."""
        array = cls.__new__(cls)
        array._set(np.array(positions, dtype=float),
                   np.array(couplings, dtype=complex))
        return array

    def _set(self, positions: np.ndarray, couplings: np.ndarray) -> None:
        if (positions.ndim != 1 or couplings.ndim != 4
                or couplings.shape[:2] != (3, positions.size)):
            raise ValueError("couplings must have shape (3, m, n, n) "
                             "for m positions")
        # site by site, as each site's couplings are checked in turn
        _as_hermitian(couplings.swapaxes(0, 1).reshape(
            (3 * positions.size,) + couplings.shape[2:]), per_site=True)
        _check_positions(positions)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "couplings", couplings)

    @property
    def n(self) -> int:
        return self.couplings.shape[-1]

    def __len__(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class IncidentWave:
    """Incident wave: wavenumber, mode, and unit channel amplitudes.

    Modes: 'left' and 'right' are travelling waves entering from one
    side; 'even' and 'odd' are the parity combinations cos(kx) and
    sin(kx) scaled by the channel amplitude vector.  k may be one
    wavenumber or an array of them, one wave of each.
    """

    k: float
    mode: str
    amplitudes: np.ndarray = field(default=None)

    def __post_init__(self):
        spectral_points(self.k)
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

    def pins(self, n: int) -> np.ndarray:
        """The incoming plane-wave coefficients [A_0; B_m] of this mode
        on an n-channel array."""
        a = self.amplitudes
        if a.size != n:
            raise ValueError("incident amplitude dimension does not match "
                             "the site array channel count")
        zero = np.zeros_like(a)
        if self.mode == "left":
            return np.concatenate([a, zero])
        if self.mode == "right":
            return np.concatenate([zero, a])
        if self.mode == "even":
            return np.concatenate([a / 2.0, a / 2.0])
        # odd: sin(kx) = (e^{ikx} - e^{-ikx}) / 2i
        return np.concatenate([a / 2.0j, -a / 2.0j])


@dataclass(frozen=True)
class ScatteringSolution:
    """Outgoing amplitudes and derived per-channel probabilities, at
    one wavenumber or, with a leading axis, at each of an array."""

    k: float
    outgoing_left: np.ndarray  # B_0
    outgoing_right: np.ndarray  # A_m
    reflection: np.ndarray  # |outgoing left|^2 per channel
    transmission: np.ndarray  # |outgoing right|^2 per channel
    flux_residual: float

    @classmethod
    def from_s_matrix(cls, s: np.ndarray, incident: IncidentWave):
        """[A_m; B_0] = s [A_0; B_m], for the S-matrix s at incident.k,
        or for a stack of them, shape k.shape + (2n, 2n)."""
        n = s.shape[-1] // 2
        pins = incident.pins(n)
        out = s @ pins
        prob = np.abs(out) ** 2
        return cls(incident.k, out[..., n:], out[..., :n], prob[..., n:],
                   prob[..., :n],
                   prob.sum(axis=-1) - np.sum(np.abs(pins) ** 2))


def _site_s_matrices(sites: SiteArray, k: np.ndarray):
    """Every site's S-matrix at every k of a 1-d array, (len(k), m, 2n,
    2n), and the mask of the (k, site) pairs it cannot solve.  Site t
    joins segments t and t+1: its rows M_out [A_t+1; B_t] +
    M_in [A_t; B_t+1] = 0 give S_t = -M_out^-1 M_in."""
    n = sites.n
    eye = np.eye(n)
    c1, c2, c3 = sites.couplings
    ep = np.exp(1j * k[:, None] * sites.positions)[..., None, None]
    ikp = 1j * k[:, None, None, None] * ep

    def jump_and_mean(e, de):
        # the column of the plane wave e, of derivative de, in the rows
        # Delta psi + C2 psi_bar + C3 psi_bar' = 0 over Delta psi' -
        # C1 psi_bar - C2 psi_bar' = 0: -jump + mean left of the site
        return (np.concatenate([e * eye, de * eye], axis=-2),
                np.concatenate([e * c2 + de * c3, -e * c1 - de * c2],
                               axis=-2) / 2.0)

    a_jump, a_mean = jump_and_mean(ep, ikp)
    b_jump, b_mean = jump_and_mean(ep.conj(), ikp.conj())
    block = np.concatenate([a_mean + a_jump, b_mean - b_jump,    # M_out
                            a_mean - a_jump, b_mean + b_jump],   # M_in
                           axis=-1)
    m_out, m_in = block[..., :2 * n], block[..., 2 * n:]
    # a non-finite entry, or an exact zero pivot that the solve rejects
    bad = (~np.isfinite(block).all(axis=(-2, -1))
           | (np.linalg.slogdet(m_out)[0] == 0))
    block[bad] = np.eye(2 * n, 4 * n)
    return -np.linalg.solve(m_out, m_in), bad


def _star(a: np.ndarray, b: np.ndarray):
    """Star products of stacked S-matrices [[t, r'], [r, t']] of adjacent
    sub-arrays, a on the left, and the mask of the pairs whose round-trip
    I - r'_a r_b is not finite or has sigma_min below the limit."""
    n = a.shape[-1] // 2
    lo, hi = slice(None, n), slice(n, None)
    ta, rpa, ra, tpa = (a[..., i, j] for i in (lo, hi) for j in (lo, hi))
    tb, rpb, rb, tpb = (b[..., i, j] for i in (lo, hi) for j in (lo, hi))
    loop = rpa @ rb
    bad = ~np.isfinite(loop).all(axis=(-2, -1))
    loop[bad] = 0.0
    trip = np.eye(n) - loop
    # sigma_min(I - P) >= 1 - |P|_F: an SVD only where that bound fails
    near = np.linalg.norm(loop, axis=(-2, -1)) > 1.0 - _ROUND_TRIP_LIMIT
    bad[near] = (np.linalg.svd(trip[near], compute_uv=False)[:, -1]
                 < _ROUND_TRIP_LIMIT)
    trip[bad] = np.eye(n)
    # the waves between a and b: A_mid = w, B_mid = v per [A_left, B_right]
    w = np.linalg.solve(trip, np.concatenate([ta, rpa @ tpb], axis=-1))
    v = rb @ w
    v[..., n:] += tpb
    top = tb @ w  # A_right = t_b A_mid + r'_b B_right
    top[..., n:] += rpb
    bottom = tpa @ v  # B_left = r_a A_left + t'_a B_mid
    bottom[..., :n] += ra
    return np.concatenate([top, bottom], axis=-2), bad


def full_s_matrix_grid(sites: SiteArray, k) -> tuple[np.ndarray, np.ndarray]:
    """S-matrices of the array at every point of a k array: s, shape
    k.shape + (2n, 2n) in the basis of `full_s_matrix`, and the mask of
    the singular k, where a round-trip matrix has smallest singular value
    below 1e-12 (a trapped mode) or a site or joined S-matrix is not
    finite (an overflow).  s is NaN there."""
    k = np.asarray(spectral_points(k))
    flat = k.reshape(-1)
    with np.errstate(all="ignore"):
        s, bad = _site_s_matrices(sites, flat)
        singular = bad.any(axis=1)
        while s.shape[1] > 1:
            pairs = s.shape[1] // 2
            joined, bad = _star(s[:, 0:2 * pairs:2], s[:, 1:2 * pairs:2])
            singular |= bad.any(axis=1)
            s = np.concatenate([joined, s[:, 2 * pairs:]], axis=1)
        s = s[:, 0] if len(sites) else np.eye(2) + 0j * flat[:, None, None]
        singular |= ~np.isfinite(s).all(axis=(-2, -1))
    s[singular] = np.nan
    return s.reshape(k.shape + s.shape[1:]), singular.reshape(k.shape)


def solve_scattering(sites: SiteArray, incident: IncidentWave):
    """Outgoing waves of one incident wave; SingularSystem as below."""
    return ScatteringSolution.from_s_matrix(
        full_s_matrix(sites, incident.k), incident)


def full_s_matrix(sites: SiteArray, k: float) -> np.ndarray:
    """The unitary 2n x 2n S-matrix of the array at wavenumber k.

    Basis order (channel 1 +, ..., channel n +, channel 1 -, ...,
    channel n -), where + waves travel rightward.  Entry [out, in].
    The incident columns are A_0 = e_j and B_m = e_j; the outgoing waves
    are A_m and B_0.  The scalar view of `full_s_matrix_grid`, raising
    SingularSystem where it flags k.
    """
    s, singular = full_s_matrix_grid(sites, k)
    if singular:
        raise SingularSystem(f"trapped mode or overflow at k = {k}")
    return s


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
