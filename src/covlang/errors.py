"""Shared exception types."""


class CovlangError(Exception):
    """Base class for all library errors."""


class NotEnabled(CovlangError):
    """A transition was fired without enough tokens on some pre-place."""

    def __init__(self, transition, place, deficit, index=None):
        self.transition = transition
        self.place = place
        self.deficit = deficit
        self.index = index
        where = f" at step {index}" if index is not None else ""
        super().__init__(
            f"transition {transition!r} not enabled{where}: "
            f"place {place!r} is short {deficit} token(s)"
        )


class AlphabetMismatch(CovlangError):
    pass


class LetterCollision(CovlangError):
    pass


class NotBpp(CovlangError):
    """Operation requires a net in which no transition consumes more than one token."""


class BudgetExceeded(CovlangError):
    """A state-space exploration hit its node or step budget."""

    def __init__(self, kind, budget):
        self.kind = kind
        self.budget = budget
        super().__init__(f"{kind} budget of {budget} exceeded")


class InfeasibleParams(CovlangError):
    """Requested family parameters would produce an astronomically large object."""


class UnboundVariable(CovlangError):
    pass


class SolverUnavailable(CovlangError):
    """The bounded solver's integer program could not answer a query."""


class ParseError(CovlangError):
    def __init__(self, line_no, expected, got=None):
        self.line_no = line_no
        self.expected = expected
        self.got = got
        detail = f", got {got!r}" if got is not None else ""
        super().__init__(f"line {line_no}: expected {expected}{detail}")

