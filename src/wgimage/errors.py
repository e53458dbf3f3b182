"""Exception types shared across the package."""


class EmptySpectrum(Exception):
    """Raised when an effective-rank query receives no spectral values."""


class GeometryMismatch(Exception):
    """Raised when field samples and an operator disagree about the array geometry."""


class ConfigError(Exception):
    """Raised on invalid or inconsistent experiment configuration."""


class NoGuidedModes(ConfigError):
    """Raised when the frequency is below the first waveguide cutoff."""


class SingularUnregularized(ConfigError):
    """Raised when plain inversion (reg.kind = none) meets a singular spectrum."""


class TooFewReceivers(ConfigError):
    """Raised when a sensing matrix would have fewer rows than modes: the
    array (array.M) is too small for the configured guide and frequency."""
