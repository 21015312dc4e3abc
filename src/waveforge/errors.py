"""Exception hierarchy shared by all waveforge modules."""


class WaveforgeError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(WaveforgeError):
    """Malformed expression text. Carries the byte offset of the failure."""

    def __init__(self, position, message):
        super().__init__(f"syntax error at offset {position}: {message}")
        self.position = position
        self.message = message


class UnknownSymbol(ExprSyntaxError):
    """Identifier that is neither a variable nor a known function."""


class DimensionError(WaveforgeError):
    """Variable index exceeds the declared spatial dimension."""


class DomainError(WaveforgeError):
    """Evaluation hit a pole, branch point, or left a function's real domain."""


class InvalidInterval(WaveforgeError):
    pass


class UnsupportedDimension(WaveforgeError):
    pass


class InvalidOrder(WaveforgeError):
    pass


class DegenerateSpeeds(WaveforgeError):
    """Two speeds closer than ``kernels.SPEED_SEPARATION`` of their size,
    given to the simple-pole weights; the solvers merge such speeds."""


class NonPositiveSpeed(WaveforgeError):
    pass


class NegativeDiffusionTime(WaveforgeError):
    pass


class UnresolvedData(WaveforgeError):
    """The data vary faster than the largest quadrature rule resolves."""


class DataCountMismatch(WaveforgeError):
    """Initial-data count does not match the operator order."""


class InvalidBox(WaveforgeError):
    pass


class InsufficientDerivatives(WaveforgeError):
    pass


class GridTooCoarse(WaveforgeError):
    pass


class IntegratorFailure(WaveforgeError):
    pass


class ConfigError(WaveforgeError):
    """Invalid or malformed problem configuration."""
