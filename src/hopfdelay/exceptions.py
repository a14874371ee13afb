"""Exception types shared across the package."""


class HopfDelayError(Exception):
    """Base class for all package-specific errors."""


class SupportViolation(HopfDelayError):
    """A lag or density interval end is negative or NaN."""


class HopfNotFound(HopfDelayError):
    """No characteristic root was found on the imaginary axis."""


class MultiplePairs(HopfDelayError):
    """More than one imaginary-axis pair was found; the criterion assumes a simple pair."""

    def __init__(self, omegas):
        super().__init__(f"multiple imaginary-axis frequencies found: {sorted(omegas)}")
        self.omegas = sorted(omegas)


class NonFiniteCriterion(HopfDelayError):
    """q + kappa*p is not a finite number (an overflow of kappa*p, say)."""


class ContourFailure(HopfDelayError):
    """The winding-number computation along the contour did not settle."""


class CertificateFailed(HopfDelayError):
    """The spectral certificate did not find exactly the Hopf pair in its box."""

    def __init__(self, certificate):
        super().__init__("spectral certificate failed")
        self.certificate = certificate


class DegenerateEigenspace(HopfDelayError):
    """The null space at the critical root is not one-dimensional."""


class NormalizationFailure(HopfDelayError):
    """The eigenbasis pairing is numerically defective and cannot be normalized."""


class DimensionMismatch(HopfDelayError):
    """Matrix or measure dimensions are inconsistent."""


class NotFactored(HopfDelayError):
    """The feedback was supplied as a general measure, not as structure matrix times distribution."""


class NotSymmetric(HopfDelayError):
    """The distribution is not symmetric about its mean."""


class ConfigError(HopfDelayError):
    """Invalid simulation configuration (step size, alignment, history)."""


class TooShort(HopfDelayError):
    """The trajectory is too short to classify."""


class SchemaError(HopfDelayError):
    """A problem file failed validation."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
