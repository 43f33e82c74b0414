"""Differential test: the slot-encoded ``rules.explore`` and the labels of
``rules.explore_labelled`` against the breadth-first search they replaced,
written here from the oracle's ``find_embeddings``, ``apply`` and
``mixture_key``."""

import math

import numpy as np
import oracle
import pytest
from conftest import (LOCAL_VIEW_MAPS, bond_maps, dense_stationary, fibers, local_view_census,
                      ordered, reachability, row_bond_maps)
from hypothesis import given, settings
from hypothesis import strategies as st

from lumpkit import casestudies, cli, dsl, markov, rules
from lumpkit.aggregation import check_condition, uniform_measures
from lumpkit.errors import NotIrreducible, StateCapExceeded
from lumpkit.markov import RateMatrix, StateSpace
from lumpkit.sitegraph import SiteGraph, instance_name, make_mixture

MAX_STATES = 200
# sums of these depend on the order they are added in
NON_DYADIC_RATES = (0.1, 0.7, 1.3, 1 / 3)


def reference_explore(model, max_states):
    """Keys, matrix, edge labels and mixtures, by applying every rule
    through every embedding and keying each target."""
    initial_key = oracle.mixture_key(model.initial)
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
                for eta in oracle.find_embeddings(rule.left, mix):
                    target = oracle.apply(rule, mix, eta)
                    tkey = oracle.mixture_key(target)
                    if tkey != key:
                        out[tkey] = out.get(tkey, 0.0) + rule.rate
                        labels.setdefault((key, tkey), set()).add(rule.name)
                    if tkey not in mixtures:
                        mixtures[tkey] = target
                        discovered.add(tkey)
        frontier = sorted(discovered)
        keys.extend(frontier)
        if len(keys) > max_states:
            raise StateCapExceeded("reachable set exceeds max_states")
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
    edge_labels = {(space.index[a], space.index[b]): tuple(sorted(names))
                   for (a, b), names in labels.items()}
    row, col, rate = np.array(triplets, dtype=float).reshape(-1, 3).T
    return (space.states, RateMatrix(len(keys), row, col, rate), edge_labels,
            [mixtures[k] for k in keys])


def matching(draw, pairs, max_edges):
    """1 to max_edges of the candidate endpoint pairs, each endpoint used at
    most once (fewer when the drawn pairs overlap)."""
    if not pairs:
        return set()
    picks = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=max_edges))
    used, edges = set(), set()
    for pair in picks:
        if not pair & used:
            used |= pair
            edges.add(pair)
    return edges


def node_pairs(endpoints):
    return [frozenset((a, b)) for a in endpoints for b in endpoints if a[0] < b[0]]


@st.composite
def rule_sides(draw, interface):
    """(nodes' interfaces, left edges, right edges) of one rule: a bind, an
    unbind, a swap of one bond end, a no-op or two random matchings (which
    give two-bond and disconnected patterns)."""
    nodes = sorted(draw(st.sets(st.sampled_from(sorted(interface)), min_size=2, max_size=3)))
    sites = {v: frozenset(draw(st.sets(st.sampled_from(sorted(interface[v])), min_size=1)))
             for v in nodes}
    endpoints = [(v, s) for v in nodes for s in sorted(sites[v])]
    kind = draw(st.sampled_from(("bind", "unbind", "swap", "noop", "random")))
    edges = matching(draw, node_pairs(endpoints), 3)
    if kind == "bind":
        return sites, set(), edges
    if kind == "unbind":
        return sites, edges, set()
    if kind == "noop":
        return sites, edges, edges
    if kind == "swap" and edges:
        bond = sorted(next(iter(edges)))
        (v, s), kept = bond[draw(st.integers(0, 1))], bond[0]
        kept = bond[1] if kept == (v, s) else kept
        others = [end for end in endpoints if end[0] != kept[0] and end not in bond]
        if others:
            moved = draw(st.sampled_from(others))
            if all(moved not in edge for edge in edges):
                return sites, {frozenset(bond)}, {frozenset((kept, moved))}
    return sites, edges, matching(draw, node_pairs(endpoints), 3)


@st.composite
def models(draw, rates=(0.0, 0.5, 1.0, 2.5), bonded=True):
    types = ("A", "B", "C")[:draw(st.integers(2, 3))]
    interface = {t: frozenset(draw(st.sets(st.sampled_from(("x", "y")), min_size=1)))
                 for t in types}
    counts = {t: draw(st.integers(1, 3 if len(types) == 2 else 2)) for t in types}
    rule_list = []
    for _ in range(draw(st.integers(1, 4))):
        sites, left, right = draw(rule_sides(interface))
        rule_list.append(rules.RewriteRule(
            SiteGraph(frozenset(sites), sites, frozenset(left)),
            SiteGraph(frozenset(sites), sites, frozenset(right)),
            draw(st.sampled_from(rates)),
            draw(st.sampled_from(("a", "b", "c")))))
    edge_types = {frozenset(edge) for rule in rule_list
                  for side in (rule.left, rule.right) for edge in side.edges}
    slots = [(instance_name(t, j), s) for t in types for j in range(1, counts[t] + 1)
             for s in sorted(interface[t])]
    bondable = [pair for pair in node_pairs(slots)
                if frozenset((v.split("#")[0], s) for v, s in pair) in edge_types]
    bonds = matching(draw, bondable, 4) if bonded and draw(st.booleans()) else set()
    return rules.RuleModel(tuple(rule_list), make_mixture(interface, counts, bonds), interface)


@st.composite
def reversible_models(draw):
    """A drawn model with each rule joined by its reverse, at rates that make
    the chain reversible: each edge type has a drawn energy, and a rule that
    changes the energy by e runs at a drawn rate times exp(-e / 2), its
    reverse at that rate times exp(e / 2), so that pi(s) is proportional to
    exp(-energy(s)) (Kelly 1979, ch. 1)."""
    model = draw(models())
    energies = {}

    def energy(edges):
        return sum(energies.setdefault(edge, draw(st.floats(-2.0, 2.0))) for edge in edges)

    both_ways = []
    for rule in model.rules:
        rate = draw(st.sampled_from((0.5, 1.0, 2.5)))
        change = energy(rule.right.edges) - energy(rule.left.edges)
        both_ways += [
            rules.RewriteRule(rule.left, rule.right, rate * math.exp(-change / 2), rule.name),
            rules.RewriteRule(rule.right, rule.left, rate * math.exp(change / 2), rule.name)]
    return rules.RuleModel(tuple(both_ways), model.initial, model.interface)


def outcome(fn):
    try:
        return fn(), None
    except StateCapExceeded as exc:
        return None, type(exc)


class TestExploreMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(models())
    def test_same_chain(self, model):
        want, want_error = outcome(lambda: reference_explore(model, MAX_STATES))
        chain, error = outcome(lambda: rules.explore(model, MAX_STATES))
        assert error == want_error
        if want is None:
            return
        states, matrix, edge_labels, mixtures = want
        assert chain.space.states == states
        assert chain.matrix == matrix
        labels = rules.explore_labelled(model, MAX_STATES)[1]
        assert list(labels.items()) == list(edge_labels.items())
        assert chain.counts == dict(model.initial.counts)
        assert bond_maps(chain) == [mix.graph.bonds() for mix in mixtures]

    @settings(max_examples=200, deadline=None)
    @given(models(NON_DYADIC_RATES))
    def test_same_chain_on_non_dyadic_rates(self, model):
        # a sum of three or more of these rates depends on its order: the
        # reference adds left to right, RateMatrix adds the first entry to
        # the pairwise sum of the rest, and explore's diagonals add up per
        # application, the reference's per target
        want, want_error = outcome(lambda: reference_explore(model, MAX_STATES))
        chain, error = outcome(lambda: rules.explore(model, MAX_STATES))
        assert error == want_error
        if want is None:
            return
        states, matrix, edge_labels, mixtures = want
        got = chain.matrix
        assert chain.space.states == states
        assert np.array_equal(got.row, matrix.row) and np.array_equal(got.col, matrix.col)
        assert np.abs(got.data - matrix.data).max(initial=0.0) <= 1e-12
        labels = rules.explore_labelled(model, MAX_STATES)[1]
        assert list(labels.items()) == list(edge_labels.items())
        assert chain.counts == dict(model.initial.counts)
        assert bond_maps(chain) == [mix.graph.bonds() for mix in mixtures]


class TestRowBondMapsMatchTheKeys:
    """``build_partition`` reads bond maps from slot rows: an explored
    chain's from the search's rows, any other's from its keys decoded into
    rows. The rows, and the bond maps, agree with the keys'."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(models(), models(bonded=False)))
    def test_same_bond_maps(self, model):
        chain, _ = outcome(lambda: rules.explore(model, MAX_STATES))
        if chain is None:
            return
        assert ordered(row_bond_maps(chain)) == ordered(bond_maps(chain))
        keyed = rules.ExploredChain(chain.space, chain.matrix, chain.counts, model.interface)
        assert keyed.ends == chain.ends and keyed.rows.dtype == chain.rows.dtype
        assert np.array_equal(keyed.rows, chain.rows)

    @pytest.mark.parametrize("model", [
        casestudies.scaffold_model(casestudies.ScaffoldParams(3, 3, 3)),
        casestudies.polymer_model(casestudies.PolymerParams(3))], ids=["scaffold-333", "polymer-3"])
    def test_same_partition_for_every_map(self, model):
        chain = rules.explore(model)
        keyed = rules.ExploredChain(chain.space, chain.matrix, chain.counts, model.interface)
        for phi in cli._PHI_FUNCS.values():
            assert rules.build_partition(chain, phi) == rules.build_partition(keyed, phi)

    def test_codes_renumbered_before_they_overflow(self):
        # eleven sites on 60 slots: an instance's partner pattern read as one
        # number in base 61 would pass the int64 range
        sites = {"A": frozenset(f"s{i:02}" for i in range(11)),
                 "B": frozenset(f"t{i:02}" for i in range(11))}

        def rule(name, a, b, bind):
            iface = {"A": frozenset({a}), "B": frozenset({b})}
            free = SiteGraph(frozenset(iface), iface, frozenset())
            bound = SiteGraph(frozenset(iface), iface, frozenset({frozenset((("A", a), ("B", b)))}))
            return rules.RewriteRule(*((free, bound) if bind else (bound, free)), 1.0, name)

        model = rules.RuleModel(
            tuple(rule(f"{kind}{i}", a, b, kind == "bind") for i, (a, b) in
                  enumerate((("s00", "t10"), ("s10", "t00"))) for kind in ("bind", "unbind")),
            make_mixture(sites, {"A": 3, "B": 3}), sites)
        chain = rules.explore(model)
        assert len(chain.ends) == 66 and len(chain.space) == 34 ** 2
        assert ordered(row_bond_maps(chain)) == ordered(bond_maps(chain))


def joined_keys(chain):
    """Each state's key from its slot row, written here: the parts
    ``v.s-w.t`` of its bonds, smaller end first, sorted as strings and
    joined by ``;``, or ``-`` for a state with no bond."""
    keys = []
    for row in chain.rows.tolist():
        parts = ("-".join(f"{v}.{s}" for v, s in sorted((chain.ends[x], chain.ends[y])))
                 for x, y in enumerate(row) if y > x)
        keys.append(";".join(sorted(parts)) or "-")
    return keys


class TestKeysAreTheSortedPartsJoined:
    """``rules._key_writer`` joins the token strings of a chunk of rows once
    and splits them once; each key must be the one a join of its own sorted
    parts gives, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(models(), models(bonded=False)))
    def test_drawn_models(self, model):
        chain, _ = outcome(lambda: rules.explore(model, MAX_STATES))
        if chain is not None:
            assert list(chain.space.states) == joined_keys(chain)

    def test_no_bondable_pair(self):
        # the one rule bonds nothing, so no slot pair can ever bond
        model = dsl.parse_model("node A { sites: x }\nnode B { sites: y }\n"
                                "rule r: A(x), B(y) -> A(x), B(y) @ 1\ninit: A*2, B*3\n")
        assert rules.explore(model).space.states == ("-",)
        ends = rules._layout({"A": 2, "B": 3}, model.interface)[2]
        keys, columns = rules._key_writer([], ends)(np.full((5, len(ends)), -1, dtype=np.int8))
        assert keys == ["-"] * 5 and columns.shape == (5, 0)

    def test_instances_past_nine_and_sites_that_prefix_each_other(self):
        # B#1 against B#10 and a site a against a1, over several chunks
        model = dsl.parse_model("node A { sites: b }\nnode B { sites: a, a1 }\n"
                                "rule bind: A(b), B(a) -> A(b!1), B(a!1) @ 1\n"
                                "rule bind1: A(b), B(a1) -> A(b!1), B(a1!1) @ 1\n"
                                "init: A*3, B*10\n")
        chain = rules.explore(model)
        keys = chain.space.states
        assert len(keys) > 2 * rules._CHUNK
        assert list(keys) == joined_keys(chain)
        assert any("A#1.b-B#1.a;" in k for k in keys) and any("B#10.a1" in k for k in keys)

    def test_names_that_hold_control_characters(self):
        # the separator after each row is a character that no part holds
        iface = {"A": frozenset({"x\x00"}), "B": frozenset({"\n", "\x01"})}

        def bind(b):
            sides = {"A": frozenset({"x\x00"}), "B": frozenset({b})}
            bond = frozenset({frozenset((("A", "x\x00"), ("B", b)))})
            return rules.RewriteRule(SiteGraph(frozenset(sides), sides, frozenset()),
                                     SiteGraph(frozenset(sides), sides, bond), 1.0, "bind")

        model = rules.RuleModel((bind("\n"), bind("\x01")),
                                make_mixture(iface, {"A": 2, "B": 2}), iface)
        chain = rules.explore(model)
        assert list(chain.space.states) == joined_keys(chain)
        assert "A#1.x\x00-B#1.\n" in chain.space.states


class TestLocalViewCensusMatchesPerStateGrouping:
    """A map declared by ``rules.reads_local_views`` is called once per
    local-view census of an explored chain; its blocks are those of one
    call per state, and the finest such map gives one block per census."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(models(), models(bonded=False)))
    def test_same_blocks(self, model):
        chain, _ = outcome(lambda: rules.explore(model, MAX_STATES))
        if chain is None:
            return
        maps = bond_maps(chain)
        for name, phi in LOCAL_VIEW_MAPS.items():
            assert rules.build_partition(chain, phi).blocks == fibers(maps, phi), name
        census = rules.reads_local_views(lambda bonds: local_view_census(bonds))
        assert rules.build_partition(chain, census).blocks == fibers(maps, local_view_census)


class TestSpeciesCensusMatchesPerStateGrouping:
    """The species map, declared by ``rules.reads_species``, is called once
    per species census; its blocks are those of one call per state."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(models(), models(bonded=False)))
    def test_same_blocks(self, model):
        chain, _ = outcome(lambda: rules.explore(model, MAX_STATES))
        if chain is None:
            return
        species = cli._PHI_FUNCS["species"]
        want = fibers(bond_maps(chain), species)
        assert rules.build_partition(chain, species).blocks == want
        keyed = rules.ExploredChain(chain.space, chain.matrix, chain.counts, model.interface)
        assert rules.build_partition(keyed, species).blocks == want


class TestSpeciesCensusFromAnEdgelessStart:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(models(bonded=False), models(NON_DYADIC_RATES, bonded=False)))
    def test_condition_holds(self, model):
        # renaming the instances of a type commutes with the rules and fixes an
        # edgeless start, so the reachable mixtures are closed under it; the
        # census blocks are its orbits, which lump under uniform measures
        chain, _ = outcome(lambda: rules.explore(model, MAX_STATES))
        if chain is None:
            return
        part = rules.build_partition(chain, cli._PHI_FUNCS["species"])
        result = check_condition(chain.matrix, part, uniform_measures(part))
        assert result["holds"], result["residual"]


class TestStationaryMatchesADenseSolve:
    """``markov.stationary`` against a dense least-squares solve on explored
    chains: reversible ones, solved by detailed balance, and chains of
    one-way rules or zero rates, which the sparse LU solves or refuses."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(models(), reversible_models()))
    def test_same_distribution_or_refused(self, model):
        chain, _ = outcome(lambda: rules.explore(model, MAX_STATES))
        if chain is None:
            return
        reach = reachability(chain.matrix.dense() > 0)
        closed = (reach <= reach.T).all(axis=1)  # every state it reaches reaches it back
        if len(np.unique(reach[closed], axis=0)) > 1:
            with pytest.raises(NotIrreducible):
                markov.stationary(chain.matrix)
        else:
            got = markov.stationary(chain.matrix).weights
            assert np.abs(got - dense_stationary(chain.matrix)).max() <= 1e-10


def np_unique(values):
    return np.unique(values, return_index=True, return_inverse=True)


class TestRowCodes:
    """Explore keys its visited states by ``rules._row_code``, one exact
    int64 per slot row, and tells a chunk's targets apart by
    ``rules._distinct``, which stands for ``np.unique``."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(st.integers(-3, 3), max_size=60),
                     st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=60),
                     st.integers(0, 40).map(lambda n: [7] * n)))
    def test_distinct_is_np_unique(self, values):
        code = np.array(values, dtype=np.int64)
        for got, want in zip(rules._distinct(code), np_unique(code)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_distinct_is_np_unique_on_void_rows(self, n, width, seed):
        rows = np.random.default_rng(seed).integers(-1, 2, size=(n, width), dtype=np.int8)
        code = rows.view(np.dtype((np.void, width))).ravel()
        for got, want in zip(rules._distinct(code), np_unique(code)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("model", [
        casestudies.scaffold_model(casestudies.ScaffoldParams(3, 3, 3)),
        casestudies.polymer_model(casestudies.PolymerParams(3))], ids=["scaffold-333", "polymer-3"])
    def test_codes_are_distinct_and_in_byte_order(self, model):
        chain = rules.explore(model)
        code = rules._row_code(rules._bond_pairs(model, chain.ends), chain.rows.shape[1])
        codes = code(chain.rows)
        assert codes.dtype == np.int64 and len(np.unique(codes)) == len(chain.space)
        assert chain.rows.dtype == np.int8
        void = chain.rows.view(np.dtype((np.void, chain.rows.shape[1]))).ravel()
        assert np.array_equal(np.argsort(codes, kind="stable"), np.argsort(void, kind="stable"))

    def test_wide_rows_fall_back_to_the_void_view(self):
        # 16 A(b) and 16 B(a): each A.b may bond 16 later slots, and 17^16 >= 2^63
        iface = {"A": frozenset({"b"}), "B": frozenset({"a"})}
        edge = frozenset((("A", "b"), ("B", "a")))
        unbind = rules.RewriteRule(SiteGraph(frozenset(iface), iface, frozenset({edge})),
                                   SiteGraph(frozenset(iface), iface, frozenset()), 1.0, "unbind")
        bonds = [frozenset(((instance_name("A", j), "b"), (instance_name("B", j), "a")))
                 for j in (1, 2, 3)]
        model = rules.RuleModel((unbind,), make_mixture(iface, {"A": 16, "B": 16}, bonds), iface)
        chain = rules.explore(model)
        code = rules._row_code(rules._bond_pairs(model, chain.ends), chain.rows.shape[1])
        assert 17 ** 16 >= 2 ** 63 and code(chain.rows).dtype.kind == "V"
        states, matrix, _, mixtures = reference_explore(model, MAX_STATES)
        assert len(states) == 8 and chain.space.states == states and chain.matrix == matrix
        assert bond_maps(chain) == [mix.graph.bonds() for mix in mixtures]
