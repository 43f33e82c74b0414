"""Rule-based models: rule application, reachability, and the mixture CTMC.

A rewrite rule keeps its node set and interfaces fixed and only toggles
edges. The generator over reaction mixtures assigns each (rule, embedding)
application its rule constant; when several applications hit the same target
mixture the rates add (race of exponential clocks), which keeps the total
exit rate equal to sum of rate * embedding count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .aggregation import Partition
from .errors import InvalidEmbedding, SiteConflict, StateCapExceeded
from .markov import RateMatrix, StateSpace
from .sitegraph import (
    ReactionMixture,
    SiteGraph,
    find_embeddings,
    is_subgraph,
    make_mixture,
    rename,
)

DEFAULT_MAX_STATES = 200000


@dataclass(frozen=True)
class RewriteRule:
    left: SiteGraph
    right: SiteGraph
    rate: float
    name: str = ""

    def __post_init__(self):
        if self.left.nodes != self.right.nodes:
            raise ValueError("rule sides must share the node set")
        if self.left.interface != self.right.interface:
            raise ValueError("rule sides must share the interfaces")
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")


@dataclass(frozen=True)
class RuleModel:
    """A rule set with its derived signature and an initial mixture."""

    rules: tuple
    initial: ReactionMixture
    interface: dict = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.interface is None:
            derived = {}
            for rule in self.rules:
                for v in rule.left.nodes:
                    derived.setdefault(v, set()).update(rule.left.interface[v])
            for name, sites in self.initial.graph.interface.items():
                t = name.split("#", 1)[0]
                derived.setdefault(t, set()).update(sites)
            object.__setattr__(self, "interface",
                               {v: frozenset(s) for v, s in derived.items()})
        edge_types = self.edge_types
        for edge in self.initial.graph.edges:
            etype = frozenset((v.split("#", 1)[0], s) for v, s in edge)
            if etype not in edge_types:
                raise ValueError("initial mixture uses an edge type absent from the rules")

    @property
    def node_types(self):
        return frozenset(self.interface)

    @property
    def edge_types(self):
        types = set()
        for rule in self.rules:
            for side in (rule.left, rule.right):
                for edge in side.edges:
                    types.add(frozenset(edge))
        return frozenset(types)


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
    """Concrete (instance-level) serialization of a mixture; states of the
    explored chain are compared by this key, not up to renaming."""
    parts = []
    for edge in mix.graph.edges:
        (v1, s1), (v2, s2) = sorted(edge)
        parts.append(f"{v1}.{s1}-{v2}.{s2}")
    return ";".join(sorted(parts)) if parts else "-"


def mixture_from_key(key: str, interface_by_type: dict, counts: dict) -> ReactionMixture:
    """Rebuild a mixture from its serialized key and a model signature."""
    edges = []
    if key != "-":
        for part in key.split(";"):
            end1, end2 = part.split("-")
            v1, s1 = end1.rsplit(".", 1)
            v2, s2 = end2.rsplit(".", 1)
            edges.append(frozenset(((v1, s1), (v2, s2))))
    return make_mixture(interface_by_type, counts, edges)


@dataclass(frozen=True)
class ExploredChain:
    space: StateSpace
    matrix: RateMatrix
    mixtures: tuple
    edge_labels: dict = field(compare=False)  # (i, j) -> sorted tuple of rule names


def explore(model: RuleModel, max_states: int = DEFAULT_MAX_STATES) -> ExploredChain:
    """Breadth-first closure of the initial mixture under all rule
    applications, with deterministic (sorted-frontier) state indexing."""
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    initial_key = mixture_key(model.initial)
    keys = [initial_key]
    mixtures = {initial_key: model.initial}
    transitions = {}
    labels = {}
    frontier = [initial_key]
    while frontier:
        discovered = set()
        for key in frontier:
            mix = mixtures[key]
            out = transitions.setdefault(key, {})
            for rule in model.rules:
                for eta in find_embeddings(rule.left, mix):
                    target = apply(rule, mix, eta)
                    tkey = mixture_key(target)
                    if tkey != key:
                        out[tkey] = out.get(tkey, 0.0) + rule.rate
                        labels.setdefault((key, tkey), set()).add(rule.name)
                    if tkey not in mixtures:
                        mixtures[tkey] = target
                        discovered.add(tkey)
        frontier = sorted(discovered)
        keys.extend(frontier)
        if len(keys) > max_states:
            raise StateCapExceeded(
                f"reachable set exceeds max_states = {max_states}")
    space = StateSpace(tuple(keys))
    triplets = []
    for key, out in transitions.items():
        i = space.index[key]
        total = 0.0
        for tkey, rate in sorted(out.items()):
            if rate > 0.0:
                triplets.append((i, space.index[tkey], rate))
                total += rate
        if total > 0.0:
            triplets.append((i, i, -total))
    matrix = RateMatrix.from_triplets(len(keys), triplets)
    edge_labels = {(space.index[a], space.index[b]): tuple(sorted(names))
                   for (a, b), names in labels.items()}
    return ExploredChain(space, matrix, tuple(mixtures[k] for k in keys), edge_labels)


def is_reversible(model: RuleModel) -> bool:
    """Every rule has a reverse rule (sides swapped)."""
    sides = {(rule.left, rule.right) for rule in model.rules}
    return all((rule.right, rule.left) in sides for rule in model.rules)


def build_partition(chain: ExploredChain, phi) -> Partition:
    """Blocks are the fibers of an abstraction map over mixtures, ordered by
    sorted abstraction value."""
    fibers = {}
    for i, mix in enumerate(chain.mixtures):
        fibers.setdefault(phi(mix), []).append(i)
    return Partition(tuple(tuple(fibers[v]) for v in sorted(fibers)))


def export_dot(chain: ExploredChain) -> str:
    """DOT digraph of the explored chain with rule names as edge labels."""
    lines = ["digraph chain {"]
    for i, key in enumerate(chain.space.states):
        lines.append(f'  n{i} [label="{key}"];')
    for i, j, v in chain.matrix.triplets():
        if i != j:
            names = ",".join(chain.edge_labels.get((i, j), ()))
            lines.append(f'  n{i} -> n{j} [label="{names} ({v:g})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def max_states_from_env(default: int = DEFAULT_MAX_STATES) -> int:
    value = os.environ.get("LUMPKIT_MAX_STATES")
    return int(value) if value else default
