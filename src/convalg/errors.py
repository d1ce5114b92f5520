"""Exception types shared across the package."""


class ConvalgError(Exception):
    """Base of every package error; each subclass also keeps a builtin base."""


class ParameterError(ConvalgError, ValueError):
    """A numeric parameter is outside its admissible range."""


class DomainError(ConvalgError, ValueError):
    """An evaluation point lies outside the domain of the object."""


class SizeError(ConvalgError, ValueError):
    """A requested computation exceeds the supported index range."""


class RangeError(ConvalgError, OverflowError):
    """A weight or intermediate value overflows the floating range."""


class AccuracyError(ConvalgError, RuntimeError):
    """An adaptive computation failed to reach the requested accuracy."""


class AdmissibilityError(ConvalgError, ValueError):
    """Experiment parameters violate an admissibility condition."""


class CharacterError(ConvalgError, ValueError):
    """A supplied character is invalid (vanishing or non-multiplicative)."""
