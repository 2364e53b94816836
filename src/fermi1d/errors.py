"""Exception types shared across the package."""


class Fermi1dError(Exception):
    """Base class for all domain errors raised by this package."""


class PoleAtSpectralPoint(Fermi1dError):
    """The resolvent denominator vanishes at the requested spectral point.

    This signals a bound state: the Green's function has a pole there.
    """

    def __init__(self, kappa, message=None):
        self.kappa = kappa
        super().__init__(message or f"resolvent pole at kappa = {kappa}")


class SignUndefined(Fermi1dError):
    """A coordinate sits exactly at the interaction point, so its sign
    sector is undefined."""


class UndefinedScale(Fermi1dError):
    """The free Hamiltonian has no constants representation."""


class MissingLimit(Fermi1dError):
    """A one-sided limit required by a distribution pairing is not finite."""


class MissingDerivative(Fermi1dError):
    """A one-sided derivative required by a distribution pairing is not
    finite."""


class NotSpecialUnitary(Fermi1dError):
    """The matrix handed to the factorizer is not in SU(2) within
    tolerance."""


class ZeroCoupling(Fermi1dError):
    """Both coupling axes are needed to reach a generic SU(2) element."""


class SingularSystem(Fermi1dError):
    """The assembled scattering system is singular or near-singular,
    typically because k sits at a resonance pole of the array."""


class DegenerateSampling(Fermi1dError):
    """The readout sample positions do not span the fit basis."""


class PhaseBlind(Fermi1dError):
    """The scattering phase carries no state information (sin phi = 0)."""


class Inconsistent(Fermi1dError):
    """The observables are not those of a pure state within tolerance:
    the fitted Bloch vector is not of unit length."""


class QuadratureFailure(Fermi1dError):
    """Adaptive quadrature could not reach the requested accuracy."""


class LogDomain(Fermi1dError):
    """(f2 - 1)/c2 is non-positive at a grid point, so the log-variable
    reconstruction is undefined there."""


class ConfigError(Fermi1dError):
    """The run configuration is malformed."""
