"""Rule-based models: the one rule engine, reachability, and the mixture CTMC.

A rewrite rule keeps its node set and interfaces fixed and only toggles
edges. ``_applications``, the one breadth-first search, compiles each rule
once into index arrays and applies it through every embedding of its left
side. A state is one row of an integer array, its partner slot per
(instance, site) slot; the frontier is expanded at most _ROWS target rows
at a time, and the visited states are kept as one sorted array of exact int64
row codes. The generator over reaction mixtures assigns each
(rule, embedding) application its rule constant; when several applications
hit the same target mixture the rates add (race of exponential clocks),
which keeps the total exit rate equal to sum of rate * embedding count.
"""

from __future__ import annotations

import itertools
import math
import os
from operator import itemgetter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .aggregation import Partition
from .errors import SiteConflict, StateCapExceeded, UnsupportedPattern
from .markov import RateMatrix, StateSpace, narrowed, run_starts
from .sitegraph import ReactionMixture, SiteGraph, _concrete_key, instance_name, node_type

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
    """A rule set, an initial mixture and the model's signature, interface:
    type -> its sites. Each initial instance carries its type's sites, else
    ``ValueError`` names the instance. Each rule is refused, naming it, unless
    its nodes are of declared types (``ValueError``) and of distinct types
    (``UnsupportedPattern``), it tests only declared sites (``ValueError``),
    and each side binds each site at most once (``SiteConflict``)."""

    rules: tuple
    initial: ReactionMixture
    interface: dict = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "interface",
                           {t: frozenset(s) for t, s in self.interface.items()})
        for v, sites in sorted(self.initial.graph.interface.items()):
            declared = self.interface.get(node_type(v))
            if sites != declared:
                raise ValueError(f"initial instance {v} has sites {sorted(sites)}, but its "
                                 f"type declares {sorted(declared or ())}")
        for rule in self.rules:  # its sides share their nodes and interfaces
            for v, sites in sorted(rule.left.interface.items()):
                declared = self.interface.get(node_type(v))
                undeclared = sites - (declared or frozenset())
                if undeclared:
                    raise ValueError(f"rule {rule.name!r} tests site {min(undeclared)!r} of "
                                     f"{v}, which its type does not declare")
                if declared is None:
                    raise ValueError(f"rule {rule.name!r} has node {v}, whose type the "
                                     f"model does not declare")
            types = sorted(node_type(v) for v in rule.left.nodes)
            for t, u in zip(types, types[1:]):
                if t == u:
                    raise UnsupportedPattern(f"rule {rule.name!r} has two nodes of type {t!r}")
            for side in (rule.left, rule.right):
                ends = sorted(end for edge in side.edges for end in edge)
                for end, other in zip(ends, ends[1:]):
                    if end == other:
                        raise SiteConflict(f"rule {rule.name!r} binds {end} twice")
        edge_types = self.edge_types
        for edge in self.initial.graph.edges:
            if frozenset((node_type(v), s) for v, s in edge) not in edge_types:
                raise ValueError("initial mixture uses an edge type absent from the rules")

    @property
    def edge_types(self):
        """The bond types that the rules' sides hold: each a frozenset of its
        two (node type, site) ends."""
        return frozenset(frozenset((node_type(v), s) for v, s in edge) for rule in self.rules
                         for side in (rule.left, rule.right) for edge in side.edges)


def _part_ends(part: str) -> tuple:
    """The two ends of one ``v1.s1-v2.s2`` part of a mixture key, each as
    its node and its bond as the node's bond map lists it."""
    try:
        end1, end2 = part.split("-")
        (v1, s1), (v2, s2) = end1.rsplit(".", 1), end2.rsplit(".", 1)
    except ValueError:
        raise ValueError(f"malformed bond {part!r}") from None
    if v1 == v2:
        raise ValueError(f"bond {part!r}, which joins a node to itself")
    return (v1, (s1, (v2, s2))), (v2, (s2, (v1, s1)))


def mixture_from_key(key: str, counts: dict, interface: dict) -> dict:
    """The bond map of the mixture a state key encodes, as
    ``SiteGraph.bonds()`` gives it: every instance of counts -> a tuple of
    its bonds in site order. The instances and their declared sites are
    ``_layout(counts, interface)``'s, the slots of explore's rows. A key
    that names an instance outside counts, binds a site twice or binds a
    site that its type does not declare in interface (type -> sites) raises
    ``ValueError``, naming the key (each end: its instance, then its site).
    The one validating parser of keys; ``_key_rows`` runs one state of a
    chain through it."""
    slots = _layout(counts, interface)[1]
    bonds = {v: [] for v in slots}
    for part in () if key == "-" else key.split(";"):
        try:
            ends = (v1, bond1), (v2, bond2) = _part_ends(part)
        except ValueError as exc:  # it names the part
            raise ValueError(f"state {key!r} holds {exc}") from None
        for v, (s, _) in ends:
            if v not in slots:
                raise ValueError(f"state {key!r} names {v}, an instance outside the counts")
            if s not in slots[v]:
                raise ValueError(f"state {key!r} binds site {s!r} of {v}, which "
                                 f"the model does not declare")
        bonds[v1].append(bond1)
        bonds[v2].append(bond2)
    for v, sites in bonds.items():
        if len(sites) > 1:
            sites.sort()
            if len({s for s, _ in sites}) < len(sites):
                raise ValueError(f"state {key!r} binds a site twice")
        bonds[v] = tuple(sites)
    return bonds


@dataclass(frozen=True)
class ExploredChain:
    """The states, their generator, the instance counts per type, the
    model's interface and the slot rows, one per state, that
    ``build_partition`` reads, in ``_layout``'s slots (ends). A chain from
    ``explore`` holds the search's rows. Given no rows, a chain decodes its
    state keys into rows once (``_key_rows``): a key is refused as
    ``mixture_from_key`` refuses it, and so are two keys of one mixture.
    The rows' partner patterns per instance (``_row_patterns``), which every
    ``build_partition`` reads, are found on the first call and kept, read-only,
    for the chain's lifetime: one intp per (instance, state) and one bond
    tuple per distinct pattern."""

    space: StateSpace
    matrix: RateMatrix
    counts: dict  # type -> instances
    interface: dict  # type -> its sites
    rows: np.ndarray = field(default=None, compare=False, repr=False)  # read-only, by index
    ends: tuple = field(init=False, compare=False, repr=False)  # slot -> (instance, site)

    def __post_init__(self):
        object.__setattr__(self, "ends", tuple(_layout(self.counts, self.interface)[2]))
        if self.rows is None:
            object.__setattr__(self, "rows",
                               _key_rows(self.space.states, self.counts, self.interface))
        elif self.rows.shape != (len(self.space), max(len(self.ends), 1)):
            raise ValueError("slot rows need one row per state and one column per end")

    @cached_property
    def _patterns(self):
        return _row_patterns(self)


# --- slot-encoded exploration -------------------------------------------------
#
# A state is a row of an integer array with one column per (instance, site)
# slot of the initial mixture, holding the partner slot or -1. Since every
# site binds at most once, an embedding of a connected pattern component is
# fixed by the instance its first node maps to: the other nodes are reached
# by following bonds. Each rule is compiled once into per-component match
# plans of index arrays, evaluated for a block of states at once, and the
# bonds it removes and adds, as positions in an embedding's slot vector.

_CHUNK = 2048  # states keyed or mapped at once; bounds those passes' temporaries
_ROWS = 2 ** 17  # target rows one chunk of the frontier may make; bounds the search


def _layout(counts, interface):
    """The one slot layout of rows: instances of counts in counts order, then
    by index, each with its type's sites in interface, sorted. Returns type
    -> instances, instance -> {site: slot} and slot -> (instance, site)."""
    instances, slots, ends = {}, {}, []
    for t, n in counts.items():
        instances[t] = tuple(instance_name(t, j) for j in range(1, n + 1))
        for v in instances[t]:
            slots[v] = {}
            for s in sorted(interface.get(t, ())):
                slots[v][s] = len(ends)
                ends.append((v, s))
    return instances, slots, ends


def _rows_dtype(slots: int):
    """The integer type of slot rows: it holds every slot and -1."""
    return np.min_scalar_type(-max(slots, 1))


def _row_code(pairs, width):
    """The function from slot rows (width slots, bonds only of the pairs
    given) to one exact int64 code each. Slot x's digit is its partner's rank
    among the slots y > x it may bond, or the top one if it is free or bound
    to an earlier slot. Slot 0 is most significant, so codes order one-byte
    rows as their bytes do. Past 2^63 the code is the rows' void view."""
    later = {}  # slot -> the later slots it may bond
    for x, y in sorted({tuple(sorted(pair)) for pair in pairs}):
        later.setdefault(x, []).append(y)
    if math.prod(len(ys) + 1 for ys in later.values()) >= 2 ** 63:
        return lambda rows: rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()
    at = np.arange(width + 1)  # a partner slot, or width for -1
    tables = [np.where(np.isin(at, ys), np.searchsorted(ys, at), len(ys)) for ys in later.values()]

    def code(rows):
        out = np.zeros(len(rows), dtype=np.int64)
        for table, partner in zip(tables, rows[:, list(later)].T.astype(np.intp)):
            out = out * (table[-1] + 1) + table[partner]  # the radix is the top digit + 1
        return out

    return code


def _distinct(code):
    """``np.unique(code, return_index=True, return_inverse=True)`` by one unstable argsort."""
    order = np.argsort(code)
    starts = run_starts(code[order])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return code[order[starts]], np.minimum.reduceat(order, np.flatnonzero(starts)), inverse


def _key_rows(keys, counts, interface):
    """The read-only slot rows of the states with these keys, in
    ``_layout``'s order. Each distinct bond part is placed once, as its two
    slots, or not at all. A state is refused unless it fills twice as many
    slots as it has parts; the first refused state, in state order, goes
    through ``mixture_from_key`` to raise its message, and with none the
    first state does, as a check: its row must hold the bonds the parser
    reads. Then the first state whose row equals an earlier state's is
    refused, naming both keys: they encode one mixture."""
    _, slots, ends = _layout(counts, interface)
    sizes = np.array([0 if key == "-" else key.count(";") + 1 for key in keys], dtype=np.intp)
    parts = ";".join(key for key in keys if key != "-").split(";") if sizes.any() else []
    number = {part: j for j, part in enumerate(dict.fromkeys(parts))}
    pair = np.full((len(number), 2), -1, dtype=np.intp)
    for j, part in enumerate(number):
        try:  # not placed: malformed, a self-bond, or an instance or site undeclared
            (v1, (s1, _)), (v2, (s2, _)) = _part_ends(part)
            pair[j] = slots[v1][s1], slots[v2][s2]
        except (KeyError, ValueError):
            pass
    placed = pair[np.fromiter(map(number.__getitem__, parts), dtype=np.intp, count=len(parts))]
    on = placed[:, 0] >= 0
    at, (a, b) = np.repeat(np.arange(len(keys)), sizes)[on], placed[on].T
    rows = np.full((len(keys), max(len(ends), 1)), -1, dtype=_rows_dtype(len(ends)))
    rows[at, a], rows[at, b] = b, a
    refused = np.flatnonzero(np.count_nonzero(rows >= 0, axis=1) != 2 * sizes)
    i = refused[0] if len(refused) else 0
    bonds = mixture_from_key(keys[i], counts, interface) if len(keys) else {}
    if any(rows[i, slots[v][s]] != slots[w][t] for v in bonds for s, (w, t) in bonds[v]):
        raise AssertionError(f"state {keys[i]!r} decoded into a row of other bonds")
    _, first, inverse = _distinct(_row_code(pair[pair[:, 0] >= 0].tolist(), rows.shape[1])(rows))
    again = np.flatnonzero(first[inverse] != np.arange(len(keys)))  # a row seen before
    if len(again):
        j = again[0]
        raise ValueError(f"state {keys[j]!r} encodes the mixture of state "
                         f"{keys[first[inverse[j]]]!r}")
    rows.flags.writeable = False
    return rows


def _slot_table(site_slots, sites):
    """One row per {site: slot} map of site_slots: the slots of sites, -1
    where the map lacks one."""
    return np.array([[m.get(s, -1) for s in sites] for m in site_slots],
                    dtype=np.intp).reshape(len(site_slots), len(sites))


@dataclass(frozen=True)
class _Component:
    """Match plan of one connected pattern component. ``first`` holds the
    slots of the first node's pattern sites for each candidate instance; an
    embedding's slot vector appends those of each further node. ``follow``
    holds (position, valid, table): the partner slot of the slot at that
    position must be valid, and its table row holds the slots of the next
    node, the partner's instance, or -1 where the step is not valid."""

    first: np.ndarray  # one row per candidate instance of the first node, by index
    follow: tuple
    bonds: tuple  # (position, position) pairs that must be bound together
    free: tuple  # positions tested free

    def match(self, states):
        """Whether each (state, root) pair is an embedding, and its slot
        vector as one array per position, each of shape (states, roots)."""
        rows = np.arange(len(states))[:, None]
        shape = (len(states), len(self.first))
        vec = [np.broadcast_to(col, shape) for col in self.first.T]
        ok = np.ones(shape, dtype=bool)
        for pos, valid, table in self.follow:
            y = states[rows, vec[pos]]  # -1, no partner, is never valid
            ok &= valid[y]
            vec.extend(np.moveaxis(table[y], -1, 0))
        for p in self.free:
            ok &= states[rows, vec[p]] < 0
        for p, q in self.bonds:
            ok &= states[rows, vec[p]] == vec[q]
        return ok, vec


@dataclass(frozen=True)
class _CompiledRule:
    components: tuple
    removed: tuple  # (position, position) per bond the rule breaks
    added: tuple  # (position, position) per bond the rule makes

    def apply(self, states):
        """The source row and the target state of each embedding in the
        states, by state, then by the roots of the components, in the order
        of the instances of the sorted pattern nodes, each by index."""
        k = len(self.components)
        ok, vec = np.ones((len(states),) + (1,) * k, dtype=bool), []
        for c, component in enumerate(self.components):
            embeds, part = component.match(states)
            shape = (len(states),) + (1,) * c + (len(component.first),) + (1,) * (k - c - 1)
            ok = ok & embeds.reshape(shape)
            vec += [v.reshape(shape) for v in part]
        vec = [np.broadcast_to(v, ok.shape) for v in vec]
        hit = np.nonzero(ok)
        new, i = states[hit[0]], np.arange(len(hit[0]))
        for p, q in self.removed:
            new[i, vec[p][hit]] = new[i, vec[q][hit]] = -1
        for p, q in self.added:
            new[i, vec[p][hit]], new[i, vec[q][hit]] = vec[q][hit], vec[p][hit]
        return hit[0], new


def _compile(rule: RewriteRule, layout) -> _CompiledRule:
    instances, slots, ends = layout
    # a follow step reads the partner slot's row, and -1 (no partner) the last
    kind_of = [(node_type(v), s) for v, s in ends] + [None]
    slots_of = [slots[v] for v, _ in ends] + [{}]
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
                    follow.append(((v, s), w, (node_type(w), t)))
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
            first=_slot_table([slots[v] for v in instances.get(node_type(root), ())],
                              sorted(left.interface[root])),
            follow=tuple((local(end), np.array([k == kind for k in kind_of]),
                          _slot_table(slots_of, sorted(left.interface[w])))
                         for end, w, kind in follow),
            bonds=tuple(tuple(local(end) for end in sorted(edge)) for edge in left.edges
                        if edge not in tree and next(iter(edge))[0] in order),
            free=tuple(local((v, s)) for v in order for s in sorted(left.interface[v])
                       if (v, s) not in bound)))

    def pairs(edges):
        return tuple(tuple(position[end] for end in sorted(edge)) for edge in edges)

    return _CompiledRule(components=tuple(components), removed=pairs(left.edges - right.edges),
                         added=pairs(right.edges - left.edges))


def _bond_pairs(model: RuleModel, ends):
    """The slot pairs (x, y), x < y, on two instances, whose kinds a rule
    bonds: the only bonds of explore's rows, as ``RuleModel`` checks."""
    kinds, bondable = [(node_type(v), s) for v, s in ends], model.edge_types
    return [(x, y) for x, y in itertools.combinations(range(len(ends)), 2)
            if ends[x][0] != ends[y][0] and frozenset((kinds[x], kinds[y])) in bondable]


def _key_writer(pairs, ends):
    """The function from state rows to their keys, and to integer columns
    that order the keys as strings. A key is the parts ``v.s-w.t`` of its
    bonds, smaller end first, sorted and joined by ``;``, or ``-``. Each slot
    pair of ``_bond_pairs`` has its part's rank among all such parts
    precomputed, and a key's parts are found by rank. Only the slots of
    those pairs, the active ones, are read.

    As a string, a key is its tokens: ``part;`` for every part but the last,
    the bare last part, or ``-``. A token that is a proper prefix of another
    ends its key, so two keys compare as their token sequences do, token by
    token in string order (``B#1.a`` before ``B#10.a``, a site ``a`` before
    ``a1``). Column j holds the rank of token j among all 2P + 1 tokens,
    from 1, with 0 past the key's end. The keys are the columns' tokens:
    those of each chunk of rows are joined once, with a separator after
    every row, and split once."""

    def part(pair):
        return "-".join(f"{v}.{s}" for v, s in sorted(ends[x] for x in pair))

    pairs = sorted(pairs, key=part)
    active = np.array(sorted({x for pair in pairs for x in pair}), dtype=np.intp)
    rank = np.full((len(ends), len(ends)), len(pairs), dtype=np.min_scalar_type(len(pairs)))
    for r, (x, y) in enumerate(pairs):
        rank[x, y] = r
    bare = [part(pair) for pair in pairs]
    ordered = sorted([*bare, *(p + ";" for p in bare), "-"])
    tokens = {t: k for k, t in enumerate(ordered, 1)}
    dtype = np.min_scalar_type(len(tokens) + 1)
    inner = np.array([tokens[p + ";"] for p in bare] + [0], dtype=dtype)  # by part rank
    last = np.array([tokens[p] for p in bare] + [tokens["-"]], dtype=dtype)
    width = len(active) // 2  # the most parts a key has
    # each token by rank, "" past a key's end, and a separator that no token holds
    held = set("".join(ordered))
    sep = next(c for c in map(chr, itertools.count()) if c not in held)
    text = np.array(["", *ordered, sep], dtype=object)

    def keys(rows):  # _CHUNK rows at a time, which bounds the temporaries
        if not width:  # no slot can bond
            return ["-"] * len(rows), np.zeros((len(rows), 0), dtype=dtype)
        out, columns = [], []
        for lo in range(0, len(rows), _CHUNK):
            partner = rows[lo:lo + _CHUNK, active]
            ranks = np.where(partner > active, rank[active, partner], len(pairs))
            ranks.sort(axis=1)
            ranks = ranks[:, :width]
            column = np.empty((len(ranks), width + 1), dtype=dtype)
            column[:, :width] = inner[ranks]
            column[:, width] = len(text) - 1
            end = np.maximum(np.count_nonzero(ranks < len(pairs), axis=1) - 1, 0)
            at = np.arange(len(ranks))
            column[at, end] = last[ranks[at, end]]
            out += "".join(text[column].ravel().tolist()).split(sep)[:-1]
            columns.append(column[:, :width])
        return out, np.concatenate(columns)

    return keys


def _expand(compiled, states):
    """Every application of the rules to a block of states, rule by rule,
    each rule's in its ``apply`` order (by state, then embedding): the
    source row, rule index and target state of each."""
    rows, applied, new = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [states[:0]]
    for r, rule in enumerate(compiled):
        src, dst = rule.apply(states)
        rows.append(src)
        applied.append(np.full(len(src), r, dtype=np.intp))
        new.append(dst)
    return map(np.concatenate, (rows, applied, new))


def _applications(model: RuleModel, max_states: int):
    """Breadth-first closure of the initial mixture under all rule
    applications. States are numbered as found, then keyed in one pass and
    indexed by (level, key). Returns the state keys and the read-only array
    of state rows, both in index order, and the int32 source, target and
    rule index of every application that changes the mixture, in search
    order: each source's by rule, then embedding. A chunk of the frontier
    makes at most _ROWS targets: a state makes at most one per rule and
    choice of component roots. Raises StateCapExceeded past max_states."""
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    layout = _layout(model.initial.counts, model.interface)
    compiled = [_compile(rule, layout) for rule in model.rules]
    most = sum(math.prod(len(c.first) for c in rule.components) for rule in compiled)
    step = max(1, _ROWS // max(most, 1))  # frontier states per chunk
    _, slots, ends = layout
    n = len(ends)
    start = np.full((1, max(n, 1)), -1, dtype=_rows_dtype(n))
    for (v1, s1), (v2, s2) in model.initial.graph.edges:
        a, b = slots[v1][s1], slots[v2][s2]
        start[0, a], start[0, b] = b, a
    pairs = _bond_pairs(model, ends)
    code = _row_code(pairs, start.shape[1])
    seen, seen_number = code(start), np.zeros(1, dtype=np.intp)
    frontier, levels = start, [start]  # the last level, and each, in the order found
    found = []  # sources, targets and rules per chunk, as rows of one array
    while len(frontier):
        base, discovered = len(seen) - len(frontier), []  # the frontier's first number
        for lo in range(0, len(frontier), step):
            rows, applied, new = _expand(compiled, frontier[lo:lo + step])
            unique, first, inverse = _distinct(code(new))
            at = np.searchsorted(seen, unique)
            known = at < len(seen)
            known[known] = seen[at[known]] == unique[known]
            fresh = np.flatnonzero(~known)
            if len(seen) + len(fresh) > max_states:
                raise StateCapExceeded(f"reachable set exceeds max_states = {max_states}")
            number = np.empty(len(unique), dtype=np.intp)
            number[known] = seen_number[at[known]]
            number[fresh] = np.arange(len(seen), len(seen) + len(fresh))
            discovered.append(new[first[fresh]])
            seen = np.insert(seen, at[~known], unique[~known])
            seen_number = np.insert(seen_number, at[~known], number[~known])
            sources, targets = base + lo + rows, number[inverse]
            changed = sources != targets
            found.append(np.stack((sources[changed], targets[changed], applied[changed]))
                         .astype(np.int32))  # half the size while the search runs
        frontier = np.concatenate(discovered)
        levels.append(frontier)
    del seen, seen_number
    states = np.concatenate(levels)
    keys, columns = _key_writer(pairs, ends)(states)
    keys = np.array(keys, dtype=object)
    level = np.repeat(np.arange(len(levels)), list(map(len, levels)))
    order = np.lexsort((*columns.T[::-1], narrowed(level, len(levels))))  # by level, then key
    index = np.empty(len(order), dtype=np.int32)
    index[order] = np.arange(len(order))  # number found -> state index
    states = states[order]
    states.flags.writeable = False
    found = np.concatenate(found, axis=1)
    found[:2] = index[found[:2]]
    return tuple(keys[order]), states, *found


def _chain(model: RuleModel, keys, states, rows, cols, applied) -> ExploredChain:
    """The chain of ``_applications``' results: each application is one
    generator entry at its rule's rate, then an int32 diagonal entry per row,
    minus the row's sum; ``RateMatrix`` adds up the entries that share a
    target in that order (its sort is stable)."""
    rates = np.array([rule.rate for rule in model.rules], dtype=float)[applied]
    diagonal = np.arange(len(keys), dtype=np.int32)
    matrix = RateMatrix(len(keys), np.r_[rows, diagonal], np.r_[cols, diagonal],
                        np.r_[rates, -np.bincount(rows, weights=rates, minlength=len(keys))])
    return ExploredChain(StateSpace(keys), matrix, dict(model.initial.counts),
                         model.interface, states)


def _labels(model: RuleModel, rows, cols, applied) -> dict:
    order = np.lexsort((applied, rows))  # by source, then rule; stable, so then embedding
    labels = {}
    for edge, r in zip(zip(rows[order].tolist(), cols[order].tolist()), applied[order].tolist()):
        name, seen = model.rules[r].name, labels.get(edge, ())
        if name not in seen:
            labels[edge] = tuple(sorted(seen + (name,)))
    return labels


def explore(model: RuleModel, max_states: int = DEFAULT_MAX_STATES) -> ExploredChain:
    """The mixture CTMC; StateCapExceeded past max_states states."""
    return _chain(model, *_applications(model, max_states))


def explore_labelled(model: RuleModel, max_states: int = DEFAULT_MAX_STATES):
    """``explore``'s chain and its rule labels, from one search: (i, j) ->
    sorted names of the rules, zero-rate ones included, that take state i to
    state j != i, in order of first application."""
    found = _applications(model, max_states)
    return _chain(model, *found), _labels(model, *found[2:])


def reads_local_views(phi):
    """Declare that the abstraction map phi reads a bond map only through
    its local-view census: the multiset over instances of ``(type, ((site,
    (partner_type, partner_site)), ...))``, each instance's bonds in site
    order. ``build_partition`` then calls phi once per census instead of
    once per state. Returns phi itself, unwrapped."""
    phi._census = (phi, _local_view_ids)  # owned by phi: a wrapper that copies it is not declared
    return phi


def reads_species(phi):
    """Declare that the abstraction map phi reads a bond map only through
    its species census: the multiset of the canonical keys of its connected
    components. ``build_partition`` then calls phi once per census instead
    of once per state. Returns phi itself, unwrapped."""
    phi._census = (phi, _species_ids)  # as in reads_local_views
    return phi


def _row_patterns(chain: ExploredChain):
    """Each instance's distinct partner patterns over the chain's slot rows,
    found with ``np.unique`` over one narrowed integer code per row. Returns
    the instance names and, per instance, its patterns' bonds as one tuple
    each (an object array) and each row's pattern, all read-only."""
    _, slots, ends = _layout(chain.counts, chain.interface)
    names = tuple(slots)
    radix = len(ends) + 1  # a partner slot plus one; 0 is no partner
    rows = chain.rows
    patterns, which = [], []  # per instance: its patterns' bonds, each row's pattern
    for v in names:
        columns = list(slots[v].values())  # its slots, in site order
        code = _mixed_radix(len(rows), ((rows[:, x], radix) for x in columns))
        code = narrowed(code, min(radix ** len(columns), 2 ** 63))  # below n if renumbered
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        bonds = np.empty(len(first), dtype=object)
        for j, partners in enumerate(rows[first][:, columns].tolist()):
            bonds[j] = tuple((s, ends[y]) for s, y in zip(slots[v], partners) if y >= 0)
        for arr in (bonds, inverse):
            arr.flags.writeable = False
        patterns.append(bonds)
        which.append(inverse)
    return names, tuple(patterns), tuple(which)


def _mixed_radix(n, digits):
    """One int64 code per row of n for the (digit array, radix) pairs, each
    digit in [-1, radix - 1): equal codes, equal digits. Codes are
    renumbered before they could overflow."""
    code, size = np.zeros(n, dtype=np.int64), 1  # codes lie below size
    for digit, radix in digits:
        if size > np.iinfo(np.int64).max // radix:
            code, size = np.unique(code, return_inverse=True)[1], n
        code, size = code * radix + digit + 1, size * radix  # int64 before the + 1
    return code


def _bond_maps(names, patterns, which, states):
    """The bond map of each state of the states array, in its order, from
    ``_row_patterns``' results, as ``mixture_from_key`` decodes its key.
    Each pattern's bonds are one tuple, shared by every state that has it;
    the maps are made _CHUNK states at a time."""
    if not names:  # zipping no instance's patterns would give no state at all
        return ({} for _ in states)

    def chunk(lo):
        at = states[lo:lo + _CHUNK]
        shares = zip(*(bonds[inverse[at]].tolist() for bonds, inverse in zip(patterns, which)))
        return map(dict, map(zip, itertools.repeat(names), shares))

    return itertools.chain.from_iterable(map(chunk, range(0, len(states), _CHUNK)))


def _local_view_ids(chain, names, patterns, which):
    """Per (instance, state), the id of the instance's local view."""
    views, ids = {}, []  # local view -> its id; per instance, its patterns' ids
    for v, bonds in zip(names, patterns):
        t = node_type(v)
        ids.append([views.setdefault((t, tuple((s, (node_type(w), u)) for s, (w, u) in pattern)),
                                     len(views)) for pattern in bonds])
    census = np.zeros((len(names), len(chain.rows)),
                      dtype=np.min_scalar_type(max(len(views) - 1, 0)))
    for row, view, inverse in zip(census, ids, which):
        row[:] = np.array(view)[inverse]
    return census


def _species_ids(chain, names, patterns, which):
    """Per (instance, state), the id of the species of the component that
    the instance is the first of, from 1, or 0 where it is not the first.
    Each instance is labelled with the first instance of its component by
    min-label propagation over the slot columns, until nothing changes. Per
    first instance, the concrete components are told apart by one code per
    state from their members' patterns, and each distinct one is keyed once
    with ``sitegraph._concrete_key``."""
    n, m = len(chain.rows), len(names)
    index = {v: i for i, v in enumerate(names)}
    owner = np.array([index[v] for v, _ in chain.ends] + [m], dtype=np.intp)  # -1 reads m
    label = np.repeat(np.arange(m + 1, dtype=np.min_scalar_type(m))[:, None], n, axis=1)
    states = np.arange(n)
    changed = True
    while changed:
        changed = False
        for x, (v, _) in enumerate(chain.ends):
            mine, theirs = label[index[v]], label[owner[chain.rows[:, x]], states]
            lower = theirs < mine
            if lower.any():
                mine[lower] = theirs[lower]
                changed = True
    species, census = {}, np.zeros((m, n), dtype=np.int32)  # canonical key -> its id
    for r in range(m):
        at = np.flatnonzero(label[r] == r)
        if not len(at):
            continue
        member = label[r:m, at] == r
        ever = np.flatnonzero(member.any(axis=1)).tolist()  # in some component of r
        code = _mixed_radix(len(at), ((np.where(member[i], which[r + i][at], -1),
                                       len(patterns[r + i]) + 1) for i in ever))
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        held = sorted(((names[r + i], patterns[r + i][which[r + i][at[first]]].tolist(),
                        member[i, first].tolist()) for i in ever), key=itemgetter(0))
        ids = []
        for j in range(len(first)):  # each distinct concrete component, nodes by name
            key = _concrete_key(tuple((v, pattern[j]) for v, pattern, held_by in held
                                      if held_by[j]))
            ids.append(species.setdefault(key, len(species) + 1))
        census[r, at] = np.array(ids, dtype=np.int32)[inverse]
    return census.astype(np.min_scalar_type(len(species)))


def _census(phi):
    """The census ids that phi is declared to read, or None."""
    owner, census_ids = getattr(phi, "_census", (None, None))
    return census_ids if owner is phi else None


def _census_groups(census):
    """The states grouped by census: census holds one id per (position,
    state), and a state's ids, sorted, are its census, in the width of its
    positions whatever the number of ids. Equal censuses are grouped by one
    stable lexsort. Returns each state's group, the groups numbered in order
    of their first states, and those states."""
    if not len(census):  # no instance, so no position: one census
        census = np.zeros((1, census.shape[1]), dtype=np.uint8)
    census.sort(axis=0)
    order = np.lexsort(census)
    starts = run_starts(*census[:, order])
    leaders = order[starts]  # the first state of each group: the lexsort is stable
    by_state = np.argsort(leaders)
    number = np.empty(len(leaders), dtype=np.intp)
    number[by_state] = np.arange(len(leaders))
    group = np.empty(len(order), dtype=np.intp)
    group[order] = number[np.cumsum(starts) - 1]
    return group, leaders[by_state]


def build_partition(chain: ExploredChain, phi) -> Partition:
    """Blocks are the fibers of an abstraction map over the states' bond
    maps, read from the chain's slot rows, ordered by sorted abstraction
    value, each in state order.

    The states are grouped: by census for a map declared by
    ``reads_local_views`` or ``reads_species``, one group per state for any
    other map. phi is called once per group, in state order, on the bond
    map of the group's first state, and each state takes its group's
    value. Each value labels its states with the first state that has it
    (``dict.setdefault``); the distinct values are ranked by sorting them,
    and the blocks gathered by one stable sort of the states by rank."""
    n = len(chain.space)
    names, patterns, which = chain._patterns
    census_ids = _census(phi)
    if census_ids is None:
        group = leaders = np.arange(n)
    else:
        group, leaders = _census_groups(census_ids(chain, names, patterns, which))
    first = {}  # phi value -> the first state that has it, the label of its states
    label = np.fromiter(map(first.setdefault, map(phi, _bond_maps(names, patterns, which, leaders)),
                            leaders.tolist()), dtype=np.intp, count=len(leaders))[group]
    values, labels = list(first), np.fromiter(first.values(), dtype=np.intp, count=len(first))
    rank = np.zeros(n, dtype=np.intp)  # label -> the rank of its value
    rank[labels[sorted(range(len(values)), key=values.__getitem__)]] = np.arange(len(values))
    block_of = rank[label]
    order = np.argsort(narrowed(block_of, len(values)), kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(block_of))[:-1])
    return Partition(tuple(tuple(block.tolist()) for block in blocks))


def export_dot(chain: ExploredChain, labels: dict):
    """The lines of a DOT digraph of an explored chain, each ending in a
    newline, with its ``explore_labelled`` labels as edge labels;
    transitions of rate zero draw no edge."""
    yield "digraph chain {\n"
    for i, key in enumerate(chain.space.states):
        yield f'  n{i} [label="{key}"];\n'
    for i, j, v in chain.matrix.triplets():
        if i != j:
            names = ",".join(labels.get((i, j), ()))
            yield f'  n{i} -> n{j} [label="{names} ({v:g})"];\n'
    yield "}\n"


def max_states_from_env() -> int:
    value = os.environ.get("LUMPKIT_MAX_STATES")
    if not value:
        return DEFAULT_MAX_STATES
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"LUMPKIT_MAX_STATES must be an integer, not {value!r}") from None
