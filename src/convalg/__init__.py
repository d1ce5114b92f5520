"""convalg: a numerical laboratory for weighted convolution algebras.

Weighted lp spaces of two-sided sequences and of finite-group functions,
the analytic circle maps that act on them by composition, and the
experiments that separate bounded, unbounded and isometric cases.
"""

__version__ = "0.1.0"

from . import circlemaps, compops, groupalg, seqalg, weights  # noqa: F401
from .errors import (AccuracyError, AdmissibilityError, CharacterError,  # noqa: F401
                     ConvalgError, DomainError, ParameterError, RangeError,
                     SizeError)
