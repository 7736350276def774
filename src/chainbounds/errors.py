"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`ChainboundsError`.
The CLI maps the subclasses onto exit codes: model/assumption/domain
problems are exit 1, numerical failures are exit 2.
"""

import operator


class ChainboundsError(Exception):
    """Base class for all errors raised by chainbounds."""


class ModelFormatError(ChainboundsError):
    """A model document failed to parse or violates a structural invariant."""


class AssumptionError(ChainboundsError):
    """The chain's positivity pattern violates an assumption required here.

    Carries the list of violations as ``(assumption, witness, states)``
    triples so callers can render diagnostics.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class DomainError(ChainboundsError):
    """An argument lies outside the mathematically valid range."""


class ConvergenceError(ChainboundsError):
    """An iterative solver exhausted its budget or missed its tolerance."""


class CrossCheckError(ChainboundsError):
    """Two independent routes to the same quantity disagree."""


def _count(value, least: int, message: str) -> int:
    """``value`` as an int, if it is an integer (a Python or numpy one, by
    ``operator.index``: no float or string) of at least ``least``; else
    DomainError(message.format(value))."""
    try:
        value = operator.index(value)
    except TypeError:
        pass
    else:
        if value >= least:
            return value
    raise DomainError(message.format(value))
