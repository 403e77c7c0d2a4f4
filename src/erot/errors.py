"""Exception hierarchy shared across the package."""


class ErotError(Exception):
    """Base class for all library errors; keyword arguments become attributes."""

    def __init__(self, message, **fields):
        super().__init__(message)
        vars(self).update(fields)


class NegativeWeight(ErotError):
    pass


class MassMismatch(ErotError):
    pass


class SpaceMismatch(ErotError):
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
    pass


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
    """A flag, variable, file entry or mode that names no known setting, or a
    value no setting reads; also a ValueError, as unknown modes always were."""
