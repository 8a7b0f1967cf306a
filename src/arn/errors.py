"""Exception types shared across the package."""


class ArnError(Exception):
    """Base class for all package errors."""


class ShapeError(ArnError):
    """Operand shapes do not conform for the requested operation."""


class RankError(ArnError):
    """Tensor rank is wrong for the operation (e.g. non-scalar backward root)."""


class DomainError(ArnError):
    """Input outside the mathematical domain (log of non-positive, tau <= 0)."""


class NumericsError(ArnError):
    """Non-finite values encountered where finite ones are required."""


class VocabError(ArnError):
    """Token id outside the vocabulary range."""


class ConfigError(ArnError):
    """Invalid or inconsistent configuration."""


class SupportError(ArnError):
    """Absolute-continuity violation between distributions."""


class ConvergenceError(NumericsError):
    """Iterative solver hit its cap before reaching tolerance."""


class EmptyInputError(ArnError):
    """An operation that needs data received none."""


class EncodingError(ArnError):
    """Input bytes are not valid UTF-8."""


class TrainingAborted(ArnError):
    """Training stopped by the NaN policy; last good parameters are retained."""
