"""Rule-based models: the one rule engine, reachability, and the mixture CTMC.

A rewrite rule keeps its node set and interfaces fixed and only toggles
edges. ``_applications``, the one breadth-first search, compiles each rule
once and applies it through every embedding of its left side into a
slot-encoded state. The generator over reaction mixtures assigns each
(rule, embedding) application its rule constant; when several applications
hit the same target mixture the rates add (race of exponential clocks),
which keeps the total exit rate equal to sum of rate * embedding count.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .aggregation import Partition
from .errors import InvalidEmbedding, SiteConflict, StateCapExceeded, UnsupportedPattern
from .markov import RateMatrix, StateSpace
from .sitegraph import ReactionMixture, SiteGraph, instance_name, node_type

DEFAULT_MAX_STATES = 200000


def check_rate(rate):
    """Rule and case-study rates must be finite and nonnegative (NaN passes ``< 0``)."""
    if not (np.isfinite(rate) and rate >= 0):
        raise ValueError("rate must be finite and nonnegative")


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
        check_rate(self.rate)


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
    def edge_types(self):
        types = set()
        for rule in self.rules:
            for side in (rule.left, rule.right):
                for edge in side.edges:
                    types.add(frozenset(edge))
        return frozenset(types)


@functools.lru_cache(maxsize=1 << 16)
def _edge_from_part(part: str) -> frozenset:
    """The edge of one ``v1.s1-v2.s2`` part of a mixture key; the parts of a
    model's keys are few."""
    try:
        end1, end2 = part.split("-")
        (v1, s1), (v2, s2) = end1.rsplit(".", 1), end2.rsplit(".", 1)
    except ValueError:
        raise ValueError(f"malformed bond {part!r} in a state key") from None
    if v1 == v2:
        raise ValueError(f"bond {part!r} joins a node to itself")
    return frozenset(((v1, s1), (v2, s2)))


def mixture_from_key(key: str, counts: dict) -> dict:
    """The bond map of the mixture a state key encodes, as
    ``SiteGraph.bonds()`` gives it: every instance of counts -> its bonds in
    site order. A key that names an instance outside counts or binds a site
    twice raises ``ValueError``."""
    bonds = {v: [] for v in _instances(tuple(counts.items()))}
    edges = () if key == "-" else map(_edge_from_part, key.split(";"))
    try:
        for (v1, s1), (v2, s2) in edges:
            bonds[v1].append((s1, (v2, s2)))
            bonds[v2].append((s2, (v1, s1)))
    except KeyError as exc:
        raise ValueError(f"state {key!r} names {exc.args[0]}, an instance outside "
                         f"the counts") from None
    for sites in bonds.values():
        if len(sites) > 1:
            sites.sort()
            if len({s for s, _ in sites}) < len(sites):
                raise ValueError(f"state {key!r} binds a site twice")
    return bonds


@functools.lru_cache(maxsize=16)
def _instances(counts) -> tuple:
    """The instance names of the (type, count) pairs: formatting them for
    every key would take a third of a decode."""
    return tuple(instance_name(t, j) for t, n in counts for j in range(1, n + 1))


@dataclass(frozen=True)
class ExploredChain:
    space: StateSpace
    matrix: RateMatrix
    counts: dict  # type -> instances; a state key decodes through mixture_from_key


# --- slot-encoded exploration -------------------------------------------------
#
# A state is a tuple with one entry per (instance, site) slot of the initial
# mixture, holding the partner slot or -1. Since every site binds at most
# once, an embedding of a connected pattern component is fixed by the
# instance its first node maps to: the other nodes are reached by following
# bonds. Each rule is compiled once into per-component match plans and the
# bonds it removes and adds, as positions in the vector of slots an
# embedding covers.


@dataclass(frozen=True)
class _Component:
    """Match plan of one connected pattern component. ``tables[k]`` maps an
    instance to the slots of node k's pattern sites (None where the instance
    lacks the site); an embedding's slot vector concatenates them in node
    order. ``follow`` holds (position, node, (type, site)): the partner of
    the slot at that position must be of that kind, and fixes the node's
    instance."""

    roots: tuple  # candidate instances of the first node, by index
    tables: tuple
    follow: tuple
    bonds: tuple  # (position, position) pairs that must be bound together
    free: tuple  # positions tested free
    slot_instance: list  # slot -> instance
    slot_kind: list  # slot -> (type, site)

    def matches(self, state):
        """(slot vector, lacks a tested site) per embedding, by root index."""
        out = []
        first, tables = self.tables[0], self.tables
        slot_instance, slot_kind = self.slot_instance, self.slot_kind
        for root in self.roots:
            vec = first[root]
            for pos, k, kind in self.follow:
                x = vec[pos]
                y = -1 if x is None else state[x]
                if y < 0 or slot_kind[y] != kind:
                    break
                vec = vec + tables[k][slot_instance[y]]
            else:
                lacking = False
                for p in self.free:
                    if vec[p] is None:
                        lacking = True
                    elif state[vec[p]] >= 0:
                        break
                else:
                    if not self.bonds or all(
                            vec[p] is not None and vec[q] is not None
                            and state[vec[p]] == vec[q] for p, q in self.bonds):
                        out.append((vec, lacking))
        return out


@dataclass(frozen=True)
class _CompiledRule:
    name: str
    supported: bool  # pattern nodes have distinct types
    conflict: tuple  # a pattern site the right side binds twice, or ()
    components: tuple
    removed: tuple  # (position, position) per bond the rule breaks
    added: tuple  # (position, position) per bond the rule makes

    def targets(self, state):
        """Successor states, one per embedding, in the order of the instances
        of the sorted pattern nodes, each by index."""
        if not self.supported:
            raise UnsupportedPattern("pattern mentions two nodes of the same type")
        out = []
        for combo in itertools.product(*(c.matches(state) for c in self.components)):
            vec = ()
            for part, lacking in combo:
                if lacking:
                    raise InvalidEmbedding("renamed left side is not contained in the mixture")
                vec += part
            if self.conflict:
                raise SiteConflict(f"rule {self.name!r} binds {self.conflict} twice")
            new = list(state)
            for p, q in self.removed:
                new[vec[p]] = new[vec[q]] = -1
            for p, q in self.added:
                new[vec[p]], new[vec[q]] = vec[q], vec[p]
            out.append(tuple(new))
        return out


def _compile(rule: RewriteRule, layout) -> _CompiledRule:
    instances, slots, slot_instance, slot_kind = layout
    left, right = rule.left, rule.right
    nodes = sorted(left.nodes)
    bonds = left.bonds()
    bound = left.bound_endpoints()
    position = {}  # (node, site) -> position in an embedding's slot vector
    placed = set()
    components = []
    for root in nodes:
        if root in placed:
            continue
        order, follow, tree = [root], [], set()
        for v in order:  # breadth-first along the pattern's bonds
            for s, (w, t) in bonds[v]:
                if w not in order:
                    follow.append(((v, s), len(order), (node_type(w), t)))
                    tree.add(frozenset(((v, s), (w, t))))
                    order.append(w)
        placed.update(order)
        start = len(position)
        for v in order:
            for s in sorted(left.interface[v]):
                position[(v, s)] = len(position)

        def local(end, start=start):
            return position[end] - start

        components.append(_Component(
            roots=instances.get(node_type(root), ()),
            tables=tuple({inst: tuple(slots[inst].get(s) for s in sorted(left.interface[v]))
                          for inst in instances.get(node_type(v), ())} for v in order),
            follow=tuple((local(end), k, kind) for end, k, kind in follow),
            bonds=tuple(tuple(local(end) for end in sorted(edge)) for edge in left.edges
                        if edge not in tree and next(iter(edge))[0] in order),
            free=tuple(local((v, s)) for v in order for s in sorted(left.interface[v])
                       if (v, s) not in bound),
            slot_instance=slot_instance,
            slot_kind=slot_kind))

    def pairs(edges):
        return tuple(tuple(position[end] for end in sorted(edge)) for edge in edges)

    added = right.edges - left.edges
    taken = [end for edge in right.edges for end in edge]
    twice = [end for edge in added for end in sorted(edge) if taken.count(end) > 1]
    return _CompiledRule(
        name=rule.name,
        supported=len({node_type(v) for v in nodes}) == len(nodes),
        conflict=min(twice, default=()),
        components=tuple(components),
        removed=pairs(left.edges - right.edges),
        added=pairs(added))


def _layout(initial: ReactionMixture):
    """Slots of the initial mixture: instances in counts order, then by index,
    each with its sites sorted. Returns type -> instances, instance ->
    {site: slot}, slot -> instance and slot -> (type, site)."""
    instances, slots, slot_instance, slot_kind = {}, {}, [], []
    for t, n in initial.counts.items():
        instances[t] = tuple(instance_name(t, j) for j in range(1, n + 1))
        for v in instances[t]:
            slots[v] = {}
            for s in sorted(initial.graph.interface[v]):
                slots[v][s] = len(slot_instance)
                slot_instance.append(v)
                slot_kind.append((t, s))
    return instances, slots, slot_instance, slot_kind


def _applications(model: RuleModel, max_states: int):
    """Breadth-first closure of the initial mixture under all rule
    applications, with deterministic (sorted-frontier) state indexing. Returns
    the state keys in index order and three arrays: the source, target and
    rule index of every application that changes the mixture, by source,
    then rule, then ``targets`` order. Raises StateCapExceeded as soon as
    more than max_states states are found."""
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    layout = _layout(model.initial)
    _, slots, slot_instance, slot_kind = layout
    compiled = [_compile(rule, layout) for rule in model.rules]
    parts = {}

    def key_of(state):
        """The key of the mixture a state encodes."""
        out = []
        for x, y in enumerate(state):
            if y > x:
                part = parts.get((x, y))
                if part is None:
                    (v, s), (w, t) = sorted(((slot_instance[x], slot_kind[x][1]),
                                             (slot_instance[y], slot_kind[y][1])))
                    part = parts[(x, y)] = f"{v}.{s}-{w}.{t}"
                out.append(part)
        return ";".join(sorted(out)) if out else "-"

    start = [-1] * len(slot_instance)
    for (v1, s1), (v2, s2) in model.initial.graph.edges:
        a, b = slots[v1][s1], slots[v2][s2]
        start[a], start[b] = b, a
    start = tuple(start)
    # states are numbered in discovery order here and renumbered at the end
    states, keys, number = [start], [key_of(start)], {start: 0}
    sources, targets, applied = [], [], []  # one entry per application
    order, frontier = [0], [0]
    while frontier:
        discovered = []
        for src in frontier:
            state = states[src]
            for r, rule in enumerate(compiled):
                for target in rule.targets(state):
                    dst = number.get(target)
                    if dst is None:
                        dst = number[target] = len(states)
                        states.append(target)
                        keys.append(key_of(target))
                        discovered.append(dst)
                        if len(states) > max_states:
                            raise StateCapExceeded(
                                f"reachable set exceeds max_states = {max_states}")
                    if dst != src:
                        sources.append(src)
                        targets.append(dst)
                        applied.append(r)
        frontier = sorted(discovered, key=keys.__getitem__)
        order.extend(frontier)
    del states, number
    index = np.empty(len(order), dtype=np.intp)
    index[order] = np.arange(len(order))  # discovery number -> state index
    return (tuple(keys[src] for src in order), index[sources], index[targets],
            np.array(applied, dtype=np.intp))


def explore(model: RuleModel, max_states: int = DEFAULT_MAX_STATES) -> ExploredChain:
    """The mixture CTMC; StateCapExceeded past max_states states. Each application
    that ``_applications`` finds is one generator entry at its rule's rate;
    ``RateMatrix`` adds up the entries that share a target, and each diagonal
    is minus the sum of its row's entries, in that order (its sort is stable)."""
    keys, rows, cols, applied = _applications(model, max_states)
    rates = np.array([rule.rate for rule in model.rules], dtype=float)[applied]
    diagonal = np.arange(len(keys))
    matrix = RateMatrix(len(keys), np.r_[rows, diagonal], np.r_[cols, diagonal],
                        np.r_[rates, -np.bincount(rows, weights=rates, minlength=len(keys))])
    return ExploredChain(StateSpace(keys), matrix, dict(model.initial.counts))


def edge_labels(model: RuleModel, chain: ExploredChain) -> dict:
    """(i, j) -> sorted names of the rules, zero-rate ones included, that take
    state i to state j != i, in order of first application. Raises
    ValueError unless chain is ``explore(model)``'s."""
    try:
        keys, rows, cols, applied = _applications(model, len(chain.space))
    except StateCapExceeded:
        keys = None
    if keys != chain.space.states:
        raise ValueError("the chain is not the one that explore makes of the model")
    labels = {}
    for edge, r in zip(zip(rows.tolist(), cols.tolist()), applied.tolist()):
        name, seen = model.rules[r].name, labels.get(edge, ())
        if name not in seen:
            labels[edge] = tuple(sorted(seen + (name,)))
    return labels


def build_partition(chain: ExploredChain, phi) -> Partition:
    """Blocks are the fibers of an abstraction map over the bond maps that
    the state keys decode to, ordered by sorted abstraction value."""
    fibers = {}
    for i, key in enumerate(chain.space.states):
        fibers.setdefault(phi(mixture_from_key(key, chain.counts)), []).append(i)
    return Partition(tuple(tuple(fibers[v]) for v in sorted(fibers)))


def export_dot(model: RuleModel, chain: ExploredChain) -> str:
    """DOT digraph of the model's explored chain with rule names as edge
    labels; transitions of rate zero draw no edge."""
    labels = edge_labels(model, chain)
    lines = ["digraph chain {"]
    for i, key in enumerate(chain.space.states):
        lines.append(f'  n{i} [label="{key}"];')
    for i, j, v in chain.matrix.triplets():
        if i != j:
            names = ",".join(labels.get((i, j), ()))
            lines.append(f'  n{i} -> n{j} [label="{names} ({v:g})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def max_states_from_env() -> int:
    value = os.environ.get("LUMPKIT_MAX_STATES")
    if not value:
        return DEFAULT_MAX_STATES
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"LUMPKIT_MAX_STATES must be an integer, not {value!r}") from None
