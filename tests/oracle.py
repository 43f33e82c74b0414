"""The tests' oracle: the site-graph rule semantics that ``lumpkit.rules``
compiles. A rule is applied one embedding at a time, on whole site-graphs,
and a mixture is keyed from its edges by a writer of its own.

The library has one rule engine, ``explore`` with its compiled rules, one
component walk, ``sitegraph.components``, and one species partition,
``sitegraph.species_census``. The functions here restate all three from the
definitions, the last by polymer shape, so that tests can compare them.

The theorem checks hold for every correct aggregation: they test the
library's ``aggregate`` and ``classify``, dense and unguarded, on small
chains only. The sorts at the end are the int64 lexsorts and ``np.unique``
groupings that the library's row-major codes and narrowed sort keys
replaced."""

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from lumpkit.aggregation import (
    DEFAULT_CONDITION_TOL,
    AggregatedChain,
    MeasureFamily,
    Partition,
    aggregate,
)
from lumpkit.errors import LumpkitError, SiteConflict, UnsupportedPattern
from lumpkit.markov import Distribution, RateMatrix, StochasticMatrix, classify, uniformize
from lumpkit.rules import RewriteRule, RuleModel
from lumpkit.sitegraph import (
    ReactionMixture,
    SiteGraph,
    components,
    instance_name,
    make_edge,
    node_type,
)


class RenamingIncomplete(LumpkitError):
    """A node renaming does not cover all nodes of the graph."""


class NotPolymerComponent(LumpkitError):
    """A connected component does not match any polymer chain/ring shape."""


class InvalidEmbedding(LumpkitError):
    """A rule's left side does not embed where ``apply`` is given it: an
    edge is missing or a site tested free is bound."""


def connected_components(g: SiteGraph):
    """Components under site-graph reachability, in order of their smallest
    node.

    A path may pass through a node only by entering and leaving on distinct
    sites; for components this coincides with plain edge reachability, since
    any two edges at a node necessarily use distinct sites (each site binds
    at most one edge within a component's mixture, and even without that, a
    path of length one connects the endpoints directly).
    """
    bonds = g.bonds()
    return [SiteGraph(frozenset(nodes), {v: g.interface[v] for v in nodes},
                      frozenset(make_edge(v, s, *end) for v in nodes for s, end in bonds[v]))
            for nodes in components(bonds)]


def is_subgraph(h: SiteGraph, g: SiteGraph) -> bool:
    """Containment of nodes, per-node interfaces, and edges."""
    if not h.nodes <= g.nodes:
        return False
    if any(not h.interface[v] <= g.interface[v] for v in h.nodes):
        return False
    return h.edges <= g.edges


def rename(g: SiteGraph, eta: dict) -> SiteGraph:
    """Transport a site-graph through an injective node renaming."""
    missing = g.nodes - set(eta)
    if missing:
        raise RenamingIncomplete(f"no image for nodes {sorted(missing)}")
    if len({eta[v] for v in g.nodes}) != len(g.nodes):
        raise ValueError("renaming must be injective")
    nodes = frozenset(eta[v] for v in g.nodes)
    interface = {eta[v]: g.interface[v] for v in g.nodes}
    edges = frozenset(frozenset((eta[v], s) for v, s in edge) for edge in g.edges)
    return SiteGraph(nodes, interface, edges)


def find_embeddings(pattern: SiteGraph, mix: ReactionMixture):
    """All embeddings of a one-node-per-type pattern into a mixture.

    An embedding maps each pattern node to an instance of its type so that
    every pattern edge is present in the mixture and every pattern site not
    bound within the pattern is free in the mixture (a site mentioned by a
    rule without a bond is a tested-free site). Results are ordered by
    instance index, following the sorted pattern node order.
    """
    pattern_nodes = sorted(pattern.nodes)
    types = [node_type(v) for v in pattern_nodes]
    if len(set(types)) != len(types):
        raise UnsupportedPattern("pattern mentions two nodes of the same type")
    candidates = []
    for t in types:
        count = mix.counts.get(t, 0)
        candidates.append([instance_name(t, j) for j in range(1, count + 1)])
    bound_in_pattern = pattern.bound_endpoints()
    mix_bound = mix.graph.bound_endpoints()
    embeddings = []
    for images in itertools.product(*candidates):
        eta = dict(zip(pattern_nodes, images))
        ok = True
        for edge in pattern.edges:
            image = frozenset((eta[v], s) for v, s in edge)
            if image not in mix.graph.edges:
                ok = False
                break
        if ok:
            for v in pattern_nodes:
                for s in pattern.interface[v]:
                    if (v, s) not in bound_in_pattern and (eta[v], s) in mix_bound:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            embeddings.append(eta)
    return embeddings


def apply(rule: RewriteRule, mix: ReactionMixture, eta: dict) -> ReactionMixture:
    """Apply a rule through an embedding: toggle the differing edges."""
    left_image = rename(rule.left, eta)
    if not is_subgraph(left_image, mix.graph):
        raise InvalidEmbedding("renamed left side is not contained in the mixture")
    bound = mix.graph.bound_endpoints()
    left_bound = left_image.bound_endpoints()
    for v in left_image.nodes:
        for s in left_image.interface[v]:
            if (v, s) not in left_bound and (v, s) in bound:
                raise InvalidEmbedding(f"site ({v}, {s}) is tested free but bound")
    right_image = rename(rule.right, eta)
    removed = left_image.edges - right_image.edges
    added = right_image.edges - left_image.edges
    edges = set(mix.graph.edges) - removed
    occupied = {ep for edge in edges for ep in edge}
    for edge in added:
        for endpoint in edge:
            if endpoint in occupied:
                raise SiteConflict(f"site {endpoint} already bound")
            occupied.add(endpoint)
        edges.add(edge)
    graph = SiteGraph(mix.graph.nodes, mix.graph.interface, frozenset(edges))
    return ReactionMixture(graph, mix.counts)


def mixture_key(mix: ReactionMixture) -> str:
    """The state key of a mixture: its edges as ``v.s-w.t`` with the smaller
    endpoint first, sorted and joined by ``;``, or ``-`` for no edge."""
    parts = sorted("-".join(f"{v}.{s}" for v, s in sorted(edge)) for edge in mix.graph.edges)
    return ";".join(parts) or "-"


def is_reversible(model: RuleModel) -> bool:
    """Every rule has a reverse rule (sides swapped)."""
    sides = {(rule.left, rule.right) for rule in model.rules}
    return all((rule.right, rule.left) in sides for rule in model.rules)


@dataclass(frozen=True)
class ComponentClass:
    """Shape of a polymer component.

    Chain kinds are named by their free end sites: ChainAB has free b and a
    (all internal bonds r-l), ChainBA has free l and r, ChainAA/ChainBB end
    in two nodes of the same type, and Ring has no free sites. length_index
    follows the sequential-choice counting convention: it is the number of
    majority-type nodes, so an isolated A is ChainAA with index 1.
    """

    kind: str  # ChainAB | ChainBA | ChainAA | ChainBB | Ring
    length_index: int


def polymer_classify(component: SiteGraph) -> ComponentClass:
    """The polymer shape of a connected component, each node with its own
    interface: a node's free sites are those of its interface with no bond.
    The shape fixes the component's species, so it is an oracle of the
    species census on the polymer case study."""
    nodes, bonds = component.nodes, component.bonds()
    n_a = sum(1 for v in nodes if node_type(v) == "A")
    n_b = sum(1 for v in nodes if node_type(v) == "B")
    if n_a + n_b != len(nodes) or n_a + n_b == 0:
        raise NotPolymerComponent("component has non-polymer node types")
    free_sites = sorted(s for v in nodes
                        for s in component.interface[v].difference(t for t, _ in bonds[v]))
    if not free_sites:
        # each bond appears once at each end
        if n_a != n_b or sum(len(bonds[v]) for v in nodes) != 4 * n_a:
            raise NotPolymerComponent("ring shape mismatch")
        return ComponentClass("Ring", n_a)
    if len(free_sites) != 2:
        raise NotPolymerComponent(f"component has {len(free_sites)} free sites")
    if free_sites == ["a", "b"]:
        kind, index = "ChainAB", n_a
    elif free_sites == ["l", "r"]:
        kind, index = "ChainBA", n_a
    elif free_sites == ["b", "r"]:
        kind, index = "ChainAA", n_a
    elif free_sites == ["a", "l"]:
        kind, index = "ChainBB", n_b
    else:
        raise NotPolymerComponent(f"free sites {free_sites} match no chain kind")
    return ComponentClass(kind, index)


def polymer_shapes(mix: ReactionMixture) -> tuple:
    """Sorted multiset of (kind, length index) over the components of a
    mixture, as polymer_classify reads them."""
    shapes = Counter(polymer_classify(c) for c in connected_components(mix.graph))
    return tuple(sorted(((c.kind, c.length_index), k) for c, k in shapes.items()))


# --- theorem checks ---------------------------------------------------------------


class TheoremViolated(LumpkitError):
    """A structural preservation guarantee failed; indicates an implementation bug."""


def verify_commutation(Q: RateMatrix, part: Partition, alphas: MeasureFamily,
                       r: float, tol: float = DEFAULT_CONDITION_TOL) -> float:
    """Residual between aggregating the uniformized chain and uniformizing
    the aggregated generator; zero in exact arithmetic."""
    m = uniformize(Q, r)
    agg_m = aggregate(m, part, alphas, tol).matrix.dense()
    agg_q = aggregate(Q, part, alphas, tol).matrix.dense()
    other = np.eye(len(part)) + agg_q / r
    return float(np.max(np.abs(agg_m - other)))


def power_identity_residual(P: StochasticMatrix, part: Partition,
                            alphas: MeasureFamily, n: int,
                            tol: float = DEFAULT_CONDITION_TOL) -> float:
    """Residual of the n-step identity: the aggregated matrix power equals
    the condition value computed from the full n-step matrix."""
    if n < 1:
        raise ValueError("n must be positive")
    agg_n = np.linalg.matrix_power(aggregate(P, part, alphas, tol).matrix.dense(), n)
    p_n = np.linalg.matrix_power(P.dense(), n)
    w, b = alphas.weights(part), part.block_of
    v = np.zeros((len(part), P.dim))
    v[b, np.arange(P.dim)] = w  # V[i, s'] = alpha_i(s')
    return float(np.max(np.abs(agg_n[:, b] - (v @ p_n) / w)))


@dataclass(frozen=True)
class PreservationReport:
    original_irreducible: bool
    aggregated_irreducible: bool
    aperiodic_states_checked: int


def structural_preservation(K, agg: AggregatedChain) -> PreservationReport:
    """Assert that irreducibility and aperiodicity survive aggregation; a
    violation falsifies the implementation, not the model."""
    full = classify(K)
    block = classify(agg.matrix)
    if full.irreducible and not block.irreducible:
        raise TheoremViolated("aggregation of an irreducible chain is reducible")
    block_period = np.empty(len(agg.partition), dtype=np.int64)
    for bcls, bperiod in zip(block.communicating_classes, block.periods):
        block_period[list(bcls)] = bperiod
    aperiodic = [s for cls, period in zip(full.communicating_classes, full.periods)
                 if period == 1 for s in cls]
    for bi in np.unique(agg.partition.block_of[aperiodic]):
        if block_period[bi] != 1:
            raise TheoremViolated(f"block {bi} of an aperiodic state has period {block_period[bi]}")
    return PreservationReport(full.irreducible, block.irreducible, len(aperiodic))


def evolve_discrete(P: StochasticMatrix, pi0: Distribution, n: int) -> Distribution:
    """pi0 P^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    v = pi0.weights
    for _ in range(n):
        v = P.vecmat(v)
    return Distribution(v / v.sum())


def cesaro(P: StochasticMatrix, pi0: Distribution, n: int) -> Distribution:
    """Running average (1/n) sum_{k=1..n} pi0 P^k."""
    if n < 1:
        raise ValueError("n must be positive")
    v = pi0.weights
    acc = np.zeros(len(v))
    for _ in range(n):
        v = P.vecmat(v)
        acc += v
    return Distribution(acc / acc.sum())


# --- the sorts before key narrowing -------------------------------------------------
#
# The library sorts a matrix's entries by one int64 row-major code, and the
# aggregation's cells by narrowed keys (``markov.narrowed``), and groups
# sorted runs; these are the int64 lexsorts and ``np.unique`` groupings it
# replaced, kept to pin that the results are exactly equal.

def coordinate_arrays(dim, row, col, data):
    """``SquareMatrix``'s arrays the int64 way: entries sorted by an int64
    ``np.lexsort`` on (row, col), duplicates summed by ``np.add.reduceat``
    (pairwise), exact zeros dropped."""
    row, col = np.asarray(row, dtype=np.int64), np.asarray(col, dtype=np.int64)
    data = np.asarray(data, dtype=float)
    order = np.lexsort((col, row))
    row, col, data = row[order], col[order], data[order]
    if row.size:
        starts = np.flatnonzero(np.r_[True, (row[1:] != row[:-1]) | (col[1:] != col[:-1])])
        row, col, data = row[starts], col[starts], np.add.reduceat(data, starts)
        nonzero = data != 0.0
        row, col, data = row[nonzero], col[nonzero], data[nonzero]
    return row, col, data


def unique_spread(group, target, value, block_of, m):
    """max - min of value per (group, target block), a missing state
    counting as 0, grouped by ``np.unique`` and reduced by ``ufunc.at``."""
    keys, where = np.unique(group * m + block_of[target], return_inverse=True)
    hi = np.full(keys.size, -np.inf)
    lo = np.full(keys.size, np.inf)
    np.maximum.at(hi, where, value)
    np.minimum.at(lo, where, value)
    lacking = np.bincount(where, minlength=keys.size) < np.bincount(block_of, minlength=m)[keys % m]
    hi[lacking] = np.maximum(hi[lacking], 0.0)
    lo[lacking] = np.minimum(lo[lacking], 0.0)
    return hi - lo


def unique_cells(K, part: Partition, alphas: MeasureFamily):
    """The backward condition's (source block, target state) cells, found
    by ``np.unique``: each cell's source block, target state and flow
    sum_{s' in A_i} alpha_i(s') K(s', s), summed in entry order; and the
    weights alpha_i(s) of the states."""
    n, b = K.dim, part.block_of
    w = np.empty(n)
    for alpha in alphas.alphas:
        w[list(alpha)] = list(alpha.values())
    cells, where = np.unique(b[K.row] * n + K.col, return_inverse=True)
    flow = np.bincount(where, weights=w[K.row] * K.data)
    return cells // n, cells % n, flow, w


def unique_residual(K, part: Partition, alphas: MeasureFamily) -> float:
    """The backward condition's residual over the cells of ``unique_cells``."""
    src, col, flow, w = unique_cells(K, part, alphas)
    return float(unique_spread(src, col, flow / w[col], part.block_of,
                               len(part)).max(initial=0.0))


def unique_cond3(K, part: Partition) -> bool:
    """``check_cond3`` on int64 sort keys and ``unique_spread``."""
    m, b = len(part), part.block_of
    src = b[K.row]
    order = np.lexsort((K.data, K.col, src))
    src, col, val = src[order], K.col[order], K.data[order]
    index = np.arange(val.size)
    first = np.r_[True, (src[1:] != src[:-1]) | (col[1:] != col[:-1])][:val.size]
    group = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], val.size]
    positive = val > 0
    rank = np.where(positive, ends[group] - 1 - index, index - starts[group])
    slot = (src * 2 + positive) * (rank.max(initial=0) + 1) + rank
    return bool(np.all(unique_spread(slot, col, val, b, m) <= DEFAULT_CONDITION_TOL))
