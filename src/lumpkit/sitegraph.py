"""Site-graphs, reaction mixtures, the component walk, and canonical keys.

Nodes carry named sites; an edge connects a site of one node to a site of a
different node. Rule patterns use bare type names as nodes ("A"), while
mixtures use typed instances ("A#1"). In mixtures every site is bound at
most once, which makes "free site" well defined.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import NotConnected


def make_edge(node1, site1, node2, site2):
    return frozenset(((node1, site1), (node2, site2)))


def node_type(name: str) -> str:
    """Type of a node name; instances are written "Type#index"."""
    return name.split("#", 1)[0]


def instance_name(type_name: str, index: int) -> str:
    return f"{type_name}#{index}"


@dataclass(frozen=True)
class SiteGraph:
    """Nodes with site interfaces and site-to-site edges."""

    nodes: frozenset
    interface: Mapping  # node -> frozenset of site names, read-only
    edges: frozenset  # frozenset of frozenset({(node, site), (node', site')})

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "interface", MappingProxyType(
            {v: frozenset(s) for v, s in self.interface.items()}))
        object.__setattr__(self, "edges", frozenset(frozenset(e) for e in self.edges))
        if set(self.interface) != set(self.nodes):
            raise ValueError("interface must be defined exactly on the node set")
        _check_edges(self.edges, self.interface, once=False)

    def __hash__(self):
        return hash((self.nodes, frozenset(self.interface.items()), self.edges))

    def bound_endpoints(self):
        return {endpoint for edge in self.edges for endpoint in edge}

    def bonds(self) -> dict:
        """Each node's bonds in site order: node -> ((site, (partner,
        partner_site)), ...). A site in two edges appears twice."""
        out = {v: [] for v in self.nodes}
        for (v1, s1), (v2, s2) in self.edges:
            out[v1].append((s1, (v2, s2)))
            out[v2].append((s2, (v1, s1)))
        return {v: tuple(sorted(sites)) for v, sites in out.items()}


@dataclass(frozen=True)
class ReactionMixture:
    """A site-graph over typed node instances with per-type counts."""

    graph: SiteGraph
    counts: Mapping = field(compare=False)  # type -> instance count, read-only

    def __post_init__(self):
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))
        expected = {instance_name(t, j)
                    for t, n in self.counts.items() for j in range(1, n + 1)}
        if expected != set(self.graph.nodes):
            raise ValueError("node instances do not match the counts")
        _check_edges(self.graph.edges, self.graph.interface, once=True)


def _check_edges(edges, interface, once):
    """Each edge joins two endpoints on distinct nodes, each a site of the
    interface; with once, no endpoint lies in two edges."""
    for edge in edges:
        if len(edge) != 2:
            raise ValueError("an edge joins two distinct (node, site) endpoints")
        (v1, _), (v2, _) = edge
        if v1 == v2:
            raise ValueError("edge endpoints must lie on distinct nodes")
        for v, s in edge:
            if v not in interface or s not in interface[v]:
                raise ValueError(f"edge endpoint ({v}, {s}) outside the interface")
    if once and len(set().union(*edges)) != 2 * len(edges):
        uses = Counter(endpoint for edge in edges for endpoint in edge)
        twice = next(endpoint for endpoint, n in uses.items() if n > 1)
        raise ValueError(f"site {twice} bound twice")


def make_mixture(interface_by_type, counts, edges=()) -> ReactionMixture:
    """Mixture with counts[t] instances of each type t, all sharing the
    model-wide interface."""
    nodes = []
    interface = {}
    for t, n in counts.items():
        for j in range(1, n + 1):
            name = instance_name(t, j)
            nodes.append(name)
            interface[name] = frozenset(interface_by_type[t])
    graph = SiteGraph(frozenset(nodes), interface, frozenset(edges))
    return ReactionMixture(graph, counts)


def reach(bonds, root) -> list:
    """The nodes reachable from root along the bond map, in breadth-first
    order, taking each node's bonds in site order."""
    order, seen = [root], {root}
    for v in order:  # the list grows while it is read
        for _, (w, _) in bonds[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def components(bonds):
    """Node lists of the components of a bond map, each in reach order from
    its smallest node, in order of that node: the one component walk."""
    done = set()
    for start in sorted(bonds):
        if start not in done:
            nodes = reach(bonds, start)
            done.update(nodes)
            yield nodes


def canonical_key(component: SiteGraph) -> str:
    """Canonical encoding of a connected component, invariant under
    type-preserving renaming of instances.

    Each site binds at most once, so a breadth-first traversal that takes
    every node's sites in sorted order labels the whole component once its
    root is fixed. The key is the smallest serialization over the roots of
    the first type, which any isomorphism maps onto itself: O(n^2) for n
    nodes. A site bound twice raises ``ValueError``.
    """
    _check_edges(component.edges, component.interface, once=True)
    bonds = component.bonds()
    if bonds and len(reach(bonds, next(iter(bonds)))) != len(bonds):
        raise NotConnected("canonical keys require a connected component")
    return _component_key(bonds, component.nodes)


def _component_key(bonds, nodes) -> str:
    """canonical_key of the connected component with these nodes, read from
    a bond map that holds them."""
    counts = Counter(map(node_type, nodes))
    header = ",".join(f"{t}:{n}" for t, n in sorted(counts.items()))
    first = min(counts, default=None)
    body = min((_rooted_body(bonds, root) for root in nodes if node_type(root) == first),
               default="")
    return header + ("|" + body if body else "")


def _rooted_body(bonds, root) -> str:
    """Sorted edge list under the labels of a breadth-first traversal from
    root: each newly reached node becomes the next instance of its type."""
    seen = Counter()
    label = {}  # in reach order
    for v in reach(bonds, root):
        t = node_type(v)
        seen[t] += 1
        label[v] = instance_name(t, seen[t])
    parts = []
    for v in label:
        for s, (w, t) in bonds[v]:
            if (label[v], s) < (label[w], t):
                parts.append(f"{label[v]}.{s}-{label[w]}.{t}")
    return ";".join(sorted(parts))


def species_census(bonds) -> Counter:
    """Multiset of canonical keys of the connected components of a bond map."""
    return Counter(_concrete_key(tuple((v, bonds[v]) for v in sorted(nodes)))
                   for nodes in components(bonds))


@functools.lru_cache(maxsize=1 << 14)
def _concrete_key(component) -> str:
    """_component_key of one concrete component, given as its nodes in
    sorted order, each with its bonds: a chain's states repeat few of them
    (108 at scaffold (4,4,4), 4,880 at polymer n=4), and keying is the
    cost."""
    bonds = dict(component)
    return _component_key(bonds, bonds)
