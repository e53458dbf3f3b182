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
    """Raised when plain inversion meets a spectrum spanning more than 14
    decades: reg.kind = none, or a regularizer at eps = 0 (reg.eps = 0,
    or the heuristic eps at sigma 0)."""


class TooFewReceivers(ConfigError):
    """Raised when a receiver set has fewer receivers than guided modes, so
    its sensing matrix would have fewer rows than columns. A config is
    refused when it is built, naming array.M (array.points for a points
    set); `sensing_matrix` checks again for library callers."""
