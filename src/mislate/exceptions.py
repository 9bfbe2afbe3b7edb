"""Exception hierarchy for identification and estimation failures."""


class MislateError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MislateError):
    """Dataset failed validation."""


class EmptyCell(MislateError):
    """A (z, v, t) cell required by the computation has no observations."""


class DegenerateCell(MislateError):
    """A conditional treatment probability sits on the {0, 1} boundary."""


class MonotonicityViolated(MislateError):
    """Misclassification probabilities sum to one or more (s <= 0)."""


class SingularSystem(MislateError):
    """The linear system for the misclassification parameters is singular."""


class NegativeDiscriminant(MislateError):
    """The discriminant for s fell below the noise tolerance."""


class InvalidProbability(MislateError):
    """A recovered probability lies outside [0, 1] beyond tolerance."""


class WeakFirstStage(MislateError):
    """The (true or observed) first-stage contrast is numerically zero."""


class DomainError(MislateError):
    """A moment component was evaluated outside its domain."""


class RankDeficient(MislateError):
    """A design or Jacobian matrix does not have full column rank."""


class NoConvergence(MislateError):
    """The optimizer stopped without meeting its tolerances."""


class StartFailure(MislateError):
    """No feasible starting value could be constructed."""


class ParseError(MislateError):
    """A CSV cell could not be parsed; carries the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class SchemaError(MislateError):
    """The CSV file does not match the declared column schema."""
