"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """A field, graph, or patch was evaluated outside its domain."""


class NonConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class GraphConditionError(RuntimeError, ValueError):
    """A precondition of graph inversion fails: the radial Lipschitz bound,
    a first-order zero at the origin, or the umbilic critical point of
    positive curvature that normalization needs."""


class ConvexityError(RuntimeError):
    """A support body is not convex where convexity is required."""


class RegularityError(RuntimeError):
    """A parametric patch degenerates (vanishing normal or folded offset)."""
