"""Exception types shared across the package."""


class GalconfError(Exception):
    """Base class for all package errors."""


class BadDimension(GalconfError):
    """Spatial dimension must be 2 or 3."""


class UnsupportedExtension(GalconfError):
    """Central extension requested for an (N, dim) member that galconf does not
    build: one with no central extension, or the (N odd, dim 2) member."""


class UnknownGenerator(GalconfError):
    """An element refers to a generator the algebra does not contain."""


class ShapeMismatch(GalconfError):
    """Array shapes inconsistent with the owning (N, dim)."""


class UnsupportedClosedForm(GalconfError):
    """No printed closed form covers the requested flow; use the generic one."""


class ConvergenceFailure(GalconfError):
    """Matrix exponential tail bound could not reach the target tolerance."""


class AmbiguousClass(GalconfError):
    """Point too close to the light cone to classify at the given tolerance."""


class LabelMismatch(GalconfError):
    """Internal coordinates do not lie on the orbit named by the label."""


class BadStep(GalconfError):
    """Invalid integration step or horizon."""


class TooFewSamples(GalconfError):
    """Trajectory too short for the requested order check."""


class SingularTime(GalconfError):
    """Conformal time map hits its pole."""


class NonOrthogonalRotation(GalconfError):
    """Rotation matrix fails the orthogonality check."""


class UnsupportedHamiltonian(GalconfError):
    """Requested operation is only available for the free Hamiltonian."""


class InvalidConfig(GalconfError):
    """Run configuration failed validation."""


class NonFiniteResult(GalconfError):
    """Finite input whose result overflows to a non-finite value."""


class InvalidState(GalconfError):
    """Phase-space coordinates that are not finite, a mass that is not positive,
    or an algebra coefficient that is not a finite rational number."""
