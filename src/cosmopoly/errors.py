"""Exception types and the shared search budget."""

from __future__ import annotations


class CosmopolyError(Exception):
    """Base class for all library errors."""


class GraphError(CosmopolyError):
    """Invalid multigraph input (bad endpoint, isolated vertex, unreadable file)."""


class GraphFileError(CosmopolyError):
    """Unparseable graph file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DisconnectedGraph(CosmopolyError):
    """Operation requires a connected graph."""


class BudgetExceeded(CosmopolyError):
    """A search passed its node cap before finishing."""


class WrongCardinality(CosmopolyError):
    """Point set has the wrong number of points for the requested computation."""


class StructureViolation(CosmopolyError):
    """A cell breaks the stroke rule, which every cell of a good order's
    placing triangulation obeys; signals an implementation bug."""


class TheoremViolation(CosmopolyError):
    """A proven identity failed; signals an implementation bug, not new math."""


class BadTermOrder(CosmopolyError):
    """A term order failed the goodness check required by the triangulation."""


class NoMethodAvailable(CosmopolyError):
    """No h*-method is applicable within the configured caps."""


class Budget:
    """Mutable node counter shared by the search phases of one invocation.

    ``cap=None`` means unlimited.
    """

    def __init__(self, cap: int | None):
        self.cap = cap
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.cap is not None and self.used > self.cap:
            raise BudgetExceeded(
                f"search budget of {self.cap} nodes exhausted; "
                "raise --budget-nodes or pick a cheaper method"
            )


def as_budget(budget: Budget | int | None) -> Budget:
    if isinstance(budget, Budget):
        return budget
    return Budget(budget)
