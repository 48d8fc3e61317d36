"""The exceptions that ``cli.main`` maps to exit codes.

Exit 2, the invocation is wrong: ``UsageError``, ``ParseError`` and
``ManifoldError``.  Exit 1, the mathematics refuses a valid request:
``DomainError``, ``HypothesisFailure`` and ``FeasibilityError`` (and
``KeyError`` or ``NotImplementedError`` for a missing table entry).

The classes live here, importing nothing, so that ``cli`` can name them
without loading the layers that raise them.  Each layer re-exports its
own: ``groups.ParseError``, ``manifolds.ManifoldError``,
``classify.HypothesisFailure`` and ``resolutions.FeasibilityError``.
"""

from __future__ import annotations

__all__ = ["ParseError", "ManifoldError", "HypothesisFailure",
           "FeasibilityError", "DomainError", "UsageError"]


class ParseError(ValueError):
    """Malformed group specification."""


class ManifoldError(ValueError):
    """Invalid manifold expression or incompatible structure request."""


class HypothesisFailure(ValueError):
    """The group fails the reduction hypothesis; carries the report
    (a ``hypothesis.HypothesisReport``)."""

    def __init__(self, report):
        super().__init__(f"classification unavailable: {report.conclusion}")
        self.report = report


class FeasibilityError(RuntimeError):
    """A computation exceeds the configured feasibility bound."""


class DomainError(RuntimeError):
    """Valid request whose mathematical preconditions fail (exit 1)."""


class UsageError(ValueError):
    """Bad arguments on the command line (exit 2)."""
