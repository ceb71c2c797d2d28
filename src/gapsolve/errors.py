"""Exception types shared across the toolkit; a base class fixes the CLI exit code."""


class GapsolveError(Exception):
    """Base class for all toolkit errors; those of no family below exit 5."""


class ParseError(GapsolveError):
    """An instance file or GAP spec breaks the format (exit 1).  Not a ValueError,
    which `parse_gap_spec` would re-wrap with a second prefix."""


class InvalidInstance(GapsolveError, ValueError):
    """An instance breaks a rule: kind, n, edges, terminals, sequence (exit 1)."""


class KNotDivisibleBy3(InvalidInstance):
    """Edge-weighted k-clique solver only handles k divisible by 3."""


class NotCovered(InvalidInstance):
    """A weight is not representable in the given GAP."""

    def __init__(self, weight):
        self.weight = weight
        super().__init__(f"weight {weight} is not covered by the GAP")


class BudgetExceeded(GapsolveError):
    """An enumeration or table would exceed its configured budget (exit 2)."""


class NoCoverFound(BudgetExceeded):
    """The cover search failed; an explicit GAP must be supplied."""


class BoundExceeded(BudgetExceeded):
    """Encoded values or a solver's tables exceed a solver's fixed bound."""


class TooLarge(BudgetExceeded):
    """Instance exceeds a brute-force oracle's size limit."""


class TooManyDigits(BudgetExceeded):
    """A number to be written passes Python's int -> str digit limit."""


class InfeasibleInstance(GapsolveError):
    """The instance admits no feasible solution (exit 3)."""


class Disconnected(InfeasibleInstance):
    """Steiner terminals span multiple connected components."""


class InvariantViolated(GapsolveError):
    """An internal consistency check failed; the result cannot be trusted."""


class OutOfRange(InvariantViolated):
    """An encoded value lies outside the encodable range."""


class OutOfBounds(GapsolveError):
    """A coordinate lies outside [0, its (enlarged) dimension bound]."""

    def __init__(self, dim):
        self.dim = dim
        super().__init__(f"coordinate {dim} lies outside [0, its enlarged bound]")
