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
    def __init__(self, message, relative_error=None, atom=None, weight=None):
        super().__init__(message)
        self.relative_error = relative_error  # the worst relative marginal error
        self.atom = atom  # the label of the atom it is at
        self.weight = weight  # that atom's weight


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
