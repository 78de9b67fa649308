"""Exception hierarchy shared across the package."""


class MultiresError(Exception):
    """Base class for all package errors."""


class GraphParseError(MultiresError):
    """Malformed edge-list or graph6 input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphValidationError(MultiresError):
    """Input violates a structural requirement (loop edge, bad parameter)."""


class DisconnectedGraphError(MultiresError):
    """The graph is not connected; carries a witness pair of unreachable vertices."""

    def __init__(self, u, v):
        super().__init__(f"graph is disconnected: no path between vertices {u} and {v}")
        self.u = u
        self.v = v


class CapExceededError(MultiresError):
    """Exact computation was requested above the configured vertex cap."""

    def __init__(self, what, n, cap):
        super().__init__(f"exact {what} cap exceeded: n={n} > cap={cap}")
        self.what = what
        self.n = n
        self.cap = cap


class BudgetExhaustedError(MultiresError):
    """Subset budget ran out before a conclusive answer; never a wrong answer."""

    def __init__(self, budget):
        super().__init__(
            f"inconclusive: subset budget exhausted ({budget} of {budget} allowed)"
        )
        self.budget = budget


class NoLeaflessSubgraphError(MultiresError):
    """Raised by two_core when the graph is a tree."""

    def __init__(self):
        super().__init__("no leafless subgraph: graph is a tree")


class NoClosedFormError(MultiresError):
    """No theorem in scope gives a closed form for this (family, variant) pair."""
