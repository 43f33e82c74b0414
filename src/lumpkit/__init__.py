"""Measure-weighted Markov chain aggregation for rule-based reaction networks."""

from .aggregation import (
    AggregatedChain,
    MeasureFamily,
    Partition,
    aggregate,
    check_cond3,
    check_condition,
    convergence_diagnostics,
    lift,
    nested,
    respects,
    restrict,
    uniform_measures,
)
from .markov import (
    ChainStructure,
    Distribution,
    RateMatrix,
    StateSpace,
    StochasticMatrix,
    classify,
    stationary,
    transient,
    uniformize,
)
from .rules import (
    ExploredChain,
    RewriteRule,
    RuleModel,
    build_partition,
    explore,
)
from .sitegraph import (
    ReactionMixture,
    SiteGraph,
    canonical_key,
    make_mixture,
    species_census,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
