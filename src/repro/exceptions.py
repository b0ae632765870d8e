"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` from misuse of the Python
API, ``KeyboardInterrupt``, ...) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class GraphConstructionError(ReproError):
    """Raised when an uncertain graph cannot be built from the given input.

    Typical causes: a probability outside ``[0, 1]``, a self-loop, a
    duplicate edge, or an endpoint that is not a known vertex.
    """


class InvalidProbabilityError(GraphConstructionError):
    """Raised when an edge probability is not a finite number in ``[0, 1]``."""


class GraphFormatError(ReproError):
    """Raised when an on-disk graph file cannot be parsed."""


class EstimationError(ReproError):
    """Raised when a Monte-Carlo estimator cannot produce an estimate.

    For example, requesting two-terminal reliability for a vertex that does
    not exist, or asking for an exact computation on a graph that is too
    large to enumerate.
    """


class ObfuscationError(ReproError):
    """Raised when an anonymization run cannot be performed at all.

    Note that *failing to find* a ``(k, epsilon)``-obfuscation at a given
    noise level is a normal outcome reported through return values, not an
    exception; this error signals invalid parameters or an impossible
    configuration (e.g. ``k`` larger than the number of vertices).
    """


class ConfigurationError(ReproError):
    """Raised when an algorithm configuration is internally inconsistent."""


class ResilienceError(ReproError):
    """Raised when a sigma-search checkpoint journal cannot be used.

    The journal (:class:`repro.core.resilience.SigmaSearchJournal`)
    could not be read or written, holds a malformed record, or belongs
    to a different graph / config / entropy, so replaying it could not
    be bit-identical.  The CLI maps it to exit code 3.
    """


class ServerError(ReproError):
    """Raised by the anonymization service and its client.

    Covers protocol-level failures: the server is unreachable, a request
    names an unknown operation or job, the bounded job queue is full, or
    a submitted subcommand is not servable.  Maps to the CLI's library
    exit code (2), like any other bad-input error.
    """

