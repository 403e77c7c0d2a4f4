"""Exception hierarchy shared across the package."""


class ErotError(Exception):
    """Base class for all library errors."""


class NegativeWeight(ErotError):
    pass


class MassMismatch(ErotError):
    pass


class SpaceMismatch(ErotError):
    pass


class OrderOutOfRange(ErotError):
    pass


class EmptySample(ErotError):
    pass


class IndexOutOfRange(ErotError):
    pass


class InvalidFamilyParams(ErotError):
    pass


class MissingCoordinates(ErotError):
    pass


class SeparabilityViolated(ErotError):
    pass


class NonConvergence(ErotError):
    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class MarginalMismatch(ErotError):
    pass


class AsymmetricSetup(ErotError):
    pass


class TooLarge(ErotError):
    pass


class ZeroMassAtom(ErotError):
    pass


class ContractionViolated(ErotError):
    pass


class UnboundedXVariation(ErotError):
    pass


class NotInTangentCone(ErotError):
    pass


class NonUniquePotentials(ErotError):
    pass


class EmptyInput(ErotError):
    pass


class ConfigParse(ErotError, ValueError):
    """A flag, environment variable or sampling-mode spelling that names no
    known setting; also a ValueError, as unknown modes always were."""
