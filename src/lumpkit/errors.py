"""Exception types shared across the package."""


class LumpkitError(Exception):
    """Base class for all lumpkit errors."""


class NotIrreducible(LumpkitError):
    """The chain has more than one closed communicating class."""


class SolverFailure(LumpkitError):
    """A linear solve did not produce a usable result."""


class RateBoundViolated(LumpkitError):
    """Uniformization rate r is not strictly above the maximal exit rate."""


class ConditionViolated(LumpkitError):
    """The backward aggregation condition fails beyond tolerance."""

    def __init__(self, residual, tol):
        super().__init__(f"condition residual {residual:.3e} exceeds tolerance {tol:.3e}")
        self.residual = residual
        self.tol = tol


class NotNested(LumpkitError):
    """A fine partition block straddles two coarse blocks."""


class UnsupportedPattern(LumpkitError):
    """A rule's pattern has two nodes of one type; ``RuleModel`` refuses it."""


class NotConnected(LumpkitError):
    """Canonical keys are defined for connected components only."""


class SiteConflict(LumpkitError):
    """A rule side binds one site twice; ``RuleModel`` refuses it."""


class StateCapExceeded(LumpkitError):
    """Reachable state space exceeds the configured cap."""


class InvalidCounts(LumpkitError):
    """Abstraction-value counts are inconsistent with the model parameters."""


class InvalidArgs(LumpkitError):
    """Arguments outside the admissible range of a counting function."""


class ModelSyntaxError(LumpkitError):
    """Rule DSL parse error, carrying source position."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} at line {line}")
        self.line = line


class UndeclaredSite(ModelSyntaxError):
    """A rule mentions a site missing from its node declaration."""


class UnbalancedBond(ModelSyntaxError):
    """A bond label does not occur exactly twice within one rule side."""


class RepeatedNodeTypeInRule(ModelSyntaxError):
    """A rule side mentions the same node type more than once."""
