"""Failures of the mathematics on a well-formed input.

Each module that raises one of these re-exports it under its old name
(``novikov.PrecisionExhausted``, ``rays.NotAcyclic``, ``morse.NotNegative``
and so on), and the command line reports every class in
:data:`DOMAIN_ERRORS` as a domain failure (exit 1) naming the input.  This
module imports nothing, so the command line can name them all without
importing the layers that raise them.
"""


class NegativeValuation(ValueError):
    """Raised when an operation requires valuation >= 0 and it is not."""


class PrecisionExhausted(ArithmeticError):
    """Raised when the stored precision is too coarse to answer a question."""


class NotChainMap(ValueError):
    """The given matrix does not commute with the differentials."""


class NotConiform(ValueError):
    pass


class NotGluable(ValueError):
    pass


class SliceNotAcyclic(ValueError):
    pass


class NotAcyclic(ValueError):
    pass


class NotCoherent(ValueError):
    """A square's faces break the coherence equations of a cube."""


class Inadmissible(ValueError):
    pass


class NotMonotone(ValueError):
    pass


class NotNegative(ValueError):
    pass


class InadmissibleSubset(ValueError):
    pass


class StageCheckFailed(ValueError):
    """A materialized finite stage disagrees with the closed form."""


DOMAIN_ERRORS = (NotAcyclic, NotCoherent, SliceNotAcyclic, Inadmissible,
                 InadmissibleSubset, NotMonotone, NotNegative, NotChainMap,
                 NotConiform, NotGluable, StageCheckFailed,
                 PrecisionExhausted, NegativeValuation)
