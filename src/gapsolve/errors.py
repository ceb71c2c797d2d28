"""Exception types shared across the toolkit."""


class GapsolveError(Exception):
    """Base class for all toolkit errors."""


class BudgetExceeded(GapsolveError):
    """An enumeration or table would exceed its configured budget."""


class NotCovered(GapsolveError):
    """A weight is not representable in the given GAP."""

    def __init__(self, weight):
        self.weight = weight
        super().__init__(f"weight {weight} is not covered by the GAP")


class NoCoverFound(GapsolveError):
    """The cover search failed; an explicit GAP must be supplied."""


class OutOfBounds(GapsolveError):
    """A coordinate lies outside [0, its (enlarged) dimension bound]."""

    def __init__(self, dim):
        self.dim = dim
        super().__init__(f"coordinate {dim} lies outside [0, its enlarged bound]")


class InfeasibleInstance(GapsolveError):
    """The instance admits no feasible solution."""


class KNotDivisibleBy3(GapsolveError):
    """Edge-weighted k-clique solver only handles k divisible by 3."""


class Disconnected(GapsolveError):
    """Steiner terminals span multiple connected components."""


class TooLarge(GapsolveError):
    """Instance exceeds a brute-force oracle's size limit."""


class BoundExceeded(GapsolveError):
    """Encoded value bound too large for the dense convolution."""


class InvariantViolated(GapsolveError):
    """An internal consistency check failed; the result cannot be trusted."""


class OutOfRange(InvariantViolated):
    """An encoded value lies outside the encodable range."""


class InvalidInstance(GapsolveError, ValueError):
    """A problem instance breaks a rule: its kind, n, edges, terminals or sequence."""


class ParseError(GapsolveError):
    """Instance file does not conform to the expected format."""
