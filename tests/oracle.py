"""The tests' oracle: the site-graph rule semantics that ``lumpkit.rules``
compiles. A rule is applied one embedding at a time, on whole site-graphs,
and a mixture is keyed from its edges by a writer of its own.

The library has one rule engine, ``explore`` with its compiled rules, and
one component walk, ``sitegraph.components``. The functions here restate
both from the definitions, so that tests can compare the two."""

import itertools

from lumpkit.casestudies import ComponentClass, _classify
from lumpkit.errors import InvalidEmbedding, LumpkitError, SiteConflict, UnsupportedPattern
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


def polymer_classify(component: SiteGraph) -> ComponentClass:
    """The polymer shape of a connected component, each node with its own
    interface."""
    return _classify(component.bonds(), component.nodes, component.interface.__getitem__)
