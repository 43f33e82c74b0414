import functools
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import oracle
import pytest
from conftest import (LOCAL_VIEW_MAPS, bond_maps, fibers, key_mixture, local_view_census,
                      ordered, row_bond_maps)
from hypothesis import given, settings
from hypothesis import strategies as st

import lumpkit
from lumpkit import aggregation, casestudies, cli, dsl, errors, markov, rules, sitegraph
from lumpkit.errors import SiteConflict, StateCapExceeded, UnsupportedPattern
from lumpkit.sitegraph import ReactionMixture, SiteGraph, make_mixture

SCAFFOLD = casestudies.SCAFFOLD_INTERFACE
POLYMER = casestudies.POLYMER_INTERFACE


def edge(v1, s1, v2, s2):
    return frozenset(((v1, s1), (v2, s2)))


def side(sites, *edges):
    return SiteGraph(frozenset(sites), sites, frozenset(edges))


def scaffold_model(na=1, nb=1, nc=1, rates=(1.0, 1.0, 1.0, 1.0)):
    return casestudies.scaffold_model(
        casestudies.ScaffoldParams(na, nb, nc, *rates))


def expand_by(monkeypatch, model, sources):
    """Set the search's row budget, ``rules._ROWS``, so that it expands the
    model's frontier ``sources`` states at a time: a state makes at most one
    target per rule and choice of a root for each component. Returns the
    list that the size of each chunk the search expands is added to."""
    layout = rules._layout(model.initial.counts, model.interface)
    most = sum(math.prod(len(c.first) for c in rules._compile(rule, layout).components)
               for rule in model.rules)
    monkeypatch.setattr(rules, "_ROWS", sources * most)
    sizes, expand = [], rules._expand

    def counted(compiled, states):
        sizes.append(len(states))
        return expand(compiled, states)

    monkeypatch.setattr(rules, "_expand", counted)
    return sizes


@st.composite
def decode_inputs(draw):
    """A polymer or scaffold signature, edges over its instances and the
    fault they hold, or None: a random matching of the sites of distinct
    nodes, and half of the time one more edge that is invalid in one of six
    ways."""
    iface = draw(st.sampled_from([POLYMER, SCAFFOLD]))
    counts = {t: draw(st.integers(1, 3)) for t in sorted(iface)}
    sites = [(f"{t}#{j}", s) for t in sorted(iface) for j in range(1, counts[t] + 1)
             for s in sorted(iface[t])]
    order = draw(st.permutations(sites))
    pairs = [order[k:k + 2] for k in range(0, 2 * draw(st.integers(0, len(sites) // 2)), 2)]
    edges = [frozenset(pair) for pair in pairs if pair[0][0] != pair[1][0]]
    v, s = draw(st.sampled_from(sites))
    other = draw(st.sampled_from([end for end in sites if end[0] != v]))
    fault = draw(st.sampled_from([None, "twice", "site", "instance", "type", "one node",
                                  "one endpoint"]) if draw(st.booleans()) else st.none())
    if fault == "twice":
        if not edges:
            return iface, counts, edges, None
        bound, partner = draw(st.sampled_from(sorted(sorted(e) for e in edges)))
        other = draw(st.sampled_from([end for end in sites
                                      if end[0] != bound[0] and end != partner]))
        edges.append(frozenset((bound, other)))
    elif fault == "site":
        edges.append(edge(v, "q", *other))
    elif fault == "instance":
        t = sitegraph.node_type(v)
        edges.append(edge(f"{t}#{counts[t] + 1}", s, *other))
    elif fault == "type":
        edges.append(edge("D#1", "b", *other))
    elif fault == "one node":
        t = draw(st.sampled_from([t for t in sorted(iface) if len(iface[t]) > 1]))
        edges.append(edge(f"{t}#1", min(iface[t]), f"{t}#1", max(iface[t])))
    elif fault == "one endpoint":
        edges.append(frozenset({(v, s)}))
    return iface, counts, draw(st.permutations(edges)), fault


@st.composite
def key_lists(draw):
    """A polymer or scaffold signature, instance counts and 1 to 9 distinct
    state keys. Each key is a random matching of sites, its parts and their
    ends in any order; in half of the lists some keys hold one more part that
    may be refused: a bond on a bound site or within an instance, a repeated
    part, an instance or site not declared, or a malformed, empty or ``-``
    part. In half of the lists one more key rewrites an earlier one that has
    parts, each reversed and in any order: a second key of one mixture."""
    iface = draw(st.sampled_from([POLYMER, SCAFFOLD]))
    counts = {t: draw(st.integers(1, 3)) for t in sorted(iface)}
    sites = [f"{t}#{j}.{s}" for t in sorted(iface) for j in range(1, counts[t] + 1)
             for s in sorted(iface[t])]
    faulty, keys = draw(st.booleans()), []
    for _ in range(draw(st.integers(1, 8))):
        order = draw(st.permutations(sites))[:2 * draw(st.integers(0, len(sites) // 2))]
        parts = [f"{a}-{b}" for a, b in zip(order[::2], order[1::2])
                 if a.split(".")[0] != b.split(".")[0]]
        if faulty and draw(st.booleans()):
            end, other = draw(st.sampled_from(sites)), draw(st.sampled_from(sites))
            v, s = end.split(".")
            t = sitegraph.node_type(v)
            bad = draw(st.sampled_from([
                f"{end}-{other}", f"{other}-{order[0] if order else end}",
                draw(st.sampled_from(parts or ["-"])),
                f"{t}#{counts[t] + 1}.{s}-{other}", f"D#1.{s}-{other}", f"{other}-{v}.q",
                f"{v}.{s}-{v}.{max(iface[t])}", end, f"{v}{s}-{other}", f"{end}-{other}-{end}",
                "", "-"]))
            parts.insert(draw(st.integers(0, len(parts))), bad)
        keys.append(";".join(parts) if parts else "-")
    bonded = [key for key in keys if key != "-"]
    if bonded and draw(st.booleans()):
        parts = draw(st.permutations(draw(st.sampled_from(bonded)).split(";")))
        keys.append(";".join("-".join(part.split("-")[::-1]) for part in parts))
    return iface, counts, tuple(dict.fromkeys(keys))


class TestRewriteRule:
    def test_sides_must_share_nodes(self):
        left = SiteGraph(frozenset({"A"}), {"A": frozenset({"b"})}, frozenset())
        right = SiteGraph(frozenset({"B"}), {"B": frozenset({"a"})}, frozenset())
        with pytest.raises(ValueError):
            rules.RewriteRule(left, right, 1.0)

    def test_rate_nonnegative(self):
        g = SiteGraph(frozenset({"A"}), {"A": frozenset({"b"})}, frozenset())
        for rate in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rate must be finite and nonnegative"):
                rules.RewriteRule(g, g, rate)

    def test_initial_mixture_edge_types_checked(self):
        model = scaffold_model()
        bad_initial = make_mixture(
            {"A": frozenset({"b"}), "C": frozenset({"b"})}, {"A": 1, "C": 1},
            [edge("A#1", "b", "C#1", "b")])
        with pytest.raises(ValueError, match="edge type absent from the rules"):
            rules.RuleModel(model.rules, bad_initial, model.interface)


class TestRuleModelSignature:
    """Every initial instance carries its type's declared sites, and every
    rule tests only declared sites."""

    AB = {"A": frozenset({"b", "x"}), "B": frozenset({"a"})}

    @staticmethod
    def bind(sites):
        return rules.RewriteRule(side(sites), side(sites, edge("A", "b", "B", "a")), 1.0, "bind")

    @pytest.mark.parametrize("instance, sites, message", [
        ("A#2", {"b"}, r"A#2 has sites \['b'\], but its type declares \['b', 'x'\]"),
        ("A#2", {"b", "x", "y"}, r"A#2 has sites \['b', 'x', 'y'\], but its type declares "
                                 r"\['b', 'x'\]"),
        ("D#1", {"q"}, r"D#1 has sites \['q'\], but its type declares \[\]"),
    ], ids=["lacking", "extra", "undeclared-type"])
    def test_initial_instance_with_other_sites_refused(self, instance, sites, message):
        interface = {"A#1": self.AB["A"], "B#1": self.AB["B"], instance: frozenset(sites)}
        counts = Counter(sitegraph.node_type(v) for v in interface)
        initial = ReactionMixture(side(interface), counts)
        with pytest.raises(ValueError, match=f"^initial instance {message}$"):
            rules.RuleModel((self.bind(self.AB),), initial, self.AB)

    @pytest.mark.parametrize("sites, message", [
        ({"A": frozenset({"b", "z"}), "B": frozenset({"a"})}, "site 'z' of A"),
        ({"A": frozenset({"b"}), "B": frozenset({"a"}), "D": frozenset({"q"})}, "site 'q' of D"),
    ], ids=["site", "type"])
    def test_rule_testing_an_undeclared_site_refused(self, sites, message):
        initial = make_mixture(self.AB, {"A": 1, "B": 1})
        with pytest.raises(ValueError, match=f"^rule 'bind' tests {message}, which its type "
                                             f"does not declare$"):
            rules.RuleModel((self.bind(sites),), initial, self.AB)

    RULES = {
        "bind": rules.RewriteRule(side(AB), side(AB, edge("A", "b", "B", "a")), 1.0, "bind"),
        "dimer": rules.RewriteRule(side({"A": {"b"}, "A#2": {"b"}}),
                                   side({"A": {"b"}, "A#2": {"b"}}, edge("A", "b", "A#2", "b")),
                                   1.0, "dimer"),
        # binds B.a twice, once to A.b and once to A.x
        "steal": rules.RewriteRule(side(AB, edge("A", "b", "B", "a")),
                                   side(AB, edge("A", "b", "B", "a"), edge("A", "x", "B", "a")),
                                   1.0, "steal"),
        "grab": rules.RewriteRule(side(AB, edge("A", "b", "B", "a"), edge("A", "x", "B", "a")),
                                  side(AB, edge("A", "b", "B", "a")), 1.0, "grab"),
        "bind_z": rules.RewriteRule(side({**AB, "Z": set()}),
                                    side({**AB, "Z": set()}, edge("A", "b", "B", "a")), 1.0,
                                    "bind_z"),
    }

    @pytest.mark.parametrize("names, error, message", [
        (("bind", "dimer"), UnsupportedPattern, "rule 'dimer' has two nodes of type 'A'"),
        (("bind", "steal"), SiteConflict, r"rule 'steal' binds \('B', 'a'\) twice"),
        (("steal",), SiteConflict, r"rule 'steal' binds \('B', 'a'\) twice"),
        (("bind", "grab"), SiteConflict, r"rule 'grab' binds \('B', 'a'\) twice"),
        (("bind_z",), ValueError, "rule 'bind_z' has node Z, whose type the model does not "
                                  "declare"),
    ], ids=["two-nodes-of-one-type", "right-side-binds-twice", "never-matches-its-start",
            "left-side-binds-twice", "site-less-node-of-an-undeclared-type"])
    def test_ill_formed_rule_refused_when_the_model_is_built(self, names, error, message):
        # refused whether or not the rule would fire: from the edgeless start,
        # steal alone never does
        initial = make_mixture(self.AB, {"A": 1, "B": 1})
        with pytest.raises(error, match=f"^{message}$"):
            rules.RuleModel(tuple(self.RULES[name] for name in names), initial, self.AB)

    def test_pattern_node_names_do_not_make_edge_types(self):
        # rules written over A#1 and B#1 bond type A.b-B.a, so a start that
        # holds that bond is admitted and explores to the edgeless start's states
        sites = {"A#1": frozenset({"b"}), "B#1": frozenset({"a"})}
        bond = edge("A#1", "b", "B#1", "a")
        pair = (rules.RewriteRule(side(sites), side(sites, bond), 1.0, "bind"),
                rules.RewriteRule(side(sites, bond), side(sites), 1.0, "unbind"))
        interface = {"A": frozenset({"b"}), "B": frozenset({"a"})}
        models = [rules.RuleModel(pair, make_mixture(interface, {"A": 2, "B": 2}, start), interface)
                  for start in ([], [bond])]
        assert models[1].edge_types == {frozenset({("A", "b"), ("B", "a")})}
        edgeless, bonded = (rules.explore(model).space.states for model in models)
        assert len(edgeless) == 7
        assert sorted(bonded) == sorted(edgeless)

    def test_interface_values_normalized(self):
        model = rules.RuleModel((), make_mixture(self.AB, {"A": 1}), {"A": ["x", "b"], "B": {"a"}})
        assert model.interface == self.AB


class TestApply:
    def test_bind_adds_edge(self):
        model = scaffold_model(1, 3, 1)
        r1 = model.rules[0]
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 3, "C": 1},
                           [edge("B#3", "c", "C#1", "b")])
        result = oracle.apply(r1, mix, {"A": "A#1", "B": "B#1"})
        assert edge("A#1", "b", "B#1", "a") in result.graph.edges
        assert edge("B#3", "c", "C#1", "b") in result.graph.edges

    def test_bind_then_unbind_round_trip(self):
        model = scaffold_model()
        r1, _, r3, _ = model.rules
        eta = {"A": "A#1", "B": "B#1"}
        bound = oracle.apply(r1, model.initial, eta)
        back = oracle.apply(r3, bound, eta)
        assert back.graph == model.initial.graph

    def test_noop_rule(self):
        g = SiteGraph(frozenset({"A"}), {"A": frozenset({"b"})}, frozenset())
        noop = rules.RewriteRule(g, g, 1.0, "noop")
        model = scaffold_model()
        result = oracle.apply(noop, model.initial, {"A": "A#1"})
        assert result.graph == model.initial.graph

    def test_invalid_embedding_rejected(self):
        model = scaffold_model()
        r1 = model.rules[0]
        bound = oracle.apply(r1, model.initial, {"A": "A#1", "B": "B#1"})
        # the left side tests A.b and B.a free, both bound now
        with pytest.raises(oracle.InvalidEmbedding):
            oracle.apply(r1, bound, {"A": "A#1", "B": "B#1"})


class TestExplore:
    def test_scaffold_111_states(self):
        chain = rules.explore(scaffold_model(rates=(1.0, 2.0, 3.0, 4.0)))
        assert len(chain.space) == 4
        # no bonds; AB; BC; AB+BC
        sizes = sorted(sum(map(len, bonds.values())) // 2 for bonds in bond_maps(chain))
        assert sizes == [0, 1, 1, 2]

    def test_no_rules_single_state(self):
        initial = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1})
        model = rules.RuleModel((), initial, dict(SCAFFOLD))
        chain = rules.explore(model)
        assert len(chain.space) == 1
        assert not chain.matrix.triplets()

    def test_three_parallel_bc_binds(self):
        c2 = 0.75
        model = scaffold_model(1, 3, 1, rates=(1.0, c2, 1.0, 1.0))
        chain, labels = rules.explore_labelled(model)
        start = make_mixture(SCAFFOLD, {"A": 1, "B": 3, "C": 1},
                             [edge("A#1", "b", "B#1", "a")])
        i = chain.space.index[oracle.mixture_key(start)]
        r2_rates = [v for (a, b), names in labels.items()
                    if a == i and "r2" in names
                    for (row, col, v) in chain.matrix.triplets()
                    if row == a and col == b]
        assert len(r2_rates) == 3
        assert all(abs(v - c2) < 1e-15 for v in r2_rates)

    def test_row_sums_match_embedding_counts(self):
        model = scaffold_model(1, 3, 1, rates=(1.0, 2.0, 0.5, 0.25))
        chain = rules.explore(model)
        dense = chain.matrix.dense()
        for i, key in enumerate(chain.space.states):
            mix = key_mixture(key, SCAFFOLD, chain.counts)
            expected = sum(
                rule.rate * len(oracle.find_embeddings(rule.left, mix))
                for rule in model.rules)
            off_diag = dense[i].sum() - dense[i, i]
            assert abs(off_diag - expected) < 1e-12

    def test_conservation_of_counts(self):
        chain = rules.explore(scaffold_model(1, 3, 1))
        assert chain.counts == {"A": 1, "B": 3, "C": 1}
        for bonds in bond_maps(chain):
            assert list(bonds) == ["A#1", "B#1", "B#2", "B#3", "C#1"]

    def test_reversible_positive_rates_irreducible(self):
        chain = rules.explore(scaffold_model(2, 2, 2, rates=(1.0, 2.0, 3.0, 4.0)))
        assert markov.classify(chain.matrix).irreducible

    def test_state_cap(self):
        with pytest.raises(StateCapExceeded):
            rules.explore(scaffold_model(2, 2, 2), max_states=10)

    @pytest.mark.parametrize("chunk", [None, 1, 2])
    @pytest.mark.parametrize("size, states", [((1, 1, 1), 4), ((2, 2, 2), 49)])
    def test_state_cap_boundary(self, size, states, chunk, monkeypatch):
        model = scaffold_model(*size)
        if chunk:  # the frontier one or two states at a time, else in one chunk
            sizes = expand_by(monkeypatch, model, chunk)
        assert len(rules.explore(model, max_states=states).space) == states
        with pytest.raises(StateCapExceeded):
            rules.explore(model, max_states=states - 1)
        if chunk:
            assert max(sizes) == chunk

    def test_zero_rate_target_stays_with_its_label(self):
        model = scaffold_model(rates=(0.0, 1.0, 1.0, 1.0))
        chain, labels = rules.explore_labelled(model)
        assert len(chain.space) == 4
        assert len(labels) == 8
        assert len(chain.matrix.triplets()) == 10
        bc = oracle.mixture_key(make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1},
                                            [edge("B#1", "c", "C#1", "b")]))
        ab_bc = oracle.mixture_key(make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1},
                                               [edge("A#1", "b", "B#1", "a"),
                                                edge("B#1", "c", "C#1", "b")]))
        i, j = chain.space.index[bc], chain.space.index[ab_bc]
        assert labels[(i, j)] == ("r1",)
        assert (i, j) not in {(r, c) for r, c, _ in chain.matrix.triplets()}

    def test_two_nodes_of_one_type(self):
        sites = {"A": frozenset({"b"}), "A#2": frozenset({"b"})}
        left = SiteGraph(frozenset(sites), sites, frozenset())
        right = SiteGraph(frozenset(sites), sites, frozenset({edge("A", "b", "A#2", "b")}))
        initial = make_mixture({"A": {"b"}}, {"A": 2})
        with pytest.raises(UnsupportedPattern, match="rule 'dimer'"):
            rules.RuleModel((rules.RewriteRule(left, right, 1.0, "dimer"),), initial,
                            {"A": frozenset({"b"})})

    def test_right_side_binds_an_occupied_site(self):
        sites = {"A": frozenset({"b"}), "B": frozenset({"a"}), "C": frozenset({"b"})}
        bond = edge("A", "b", "B", "a")
        left = SiteGraph(frozenset(sites), sites, frozenset({bond}))
        right = SiteGraph(frozenset(sites), sites,
                          frozenset({bond, edge("A", "b", "C", "b")}))
        initial = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1},
                               [edge("A#1", "b", "B#1", "a")])
        with pytest.raises(SiteConflict, match=r"^rule 'steal' binds \('A', 'b'\) twice$"):
            rules.RuleModel((rules.RewriteRule(left, right, 1.0, "steal"),), initial, SCAFFOLD)

    def test_no_site_graph_per_transition(self, monkeypatch):
        model = scaffold_model(2, 2, 2)

        def forbidden(*args, **kwargs):
            raise AssertionError("explore built a per-transition object")

        for module in (rules, sitegraph, oracle):
            for name in ("apply", "find_embeddings", "rename", "make_mixture"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(SiteGraph, "__post_init__", forbidden)
        monkeypatch.setattr(ReactionMixture, "__post_init__", forbidden)
        chain = rules.explore(model)
        assert len(chain.space) == 49
        assert len(rules.explore_labelled(model)[1]) == 224

    def test_deterministic_ordering(self):
        a = rules.explore(scaffold_model(1, 3, 1))
        b = rules.explore(scaffold_model(1, 3, 1))
        assert a.space.states == b.space.states
        assert a.matrix == b.matrix

    def test_renaming_invariance(self):
        model = scaffold_model(1, 3, 1, rates=(1.0, 2.0, 0.5, 0.25))
        chain = rules.explore(model)
        eta = {"A#1": "A#1", "B#1": "B#2", "B#2": "B#3", "B#3": "B#1",
               "C#1": "C#1"}
        renamed = ReactionMixture(oracle.rename(model.initial.graph, eta),
                                  model.initial.counts)
        model2 = rules.RuleModel(model.rules, renamed, model.interface)
        chain2 = rules.explore(model2)
        assert len(chain.space) == len(chain2.space)
        def sorted_rows(matrix):
            rows = [[] for _ in range(matrix.dim)]
            for i, _, v in matrix.triplets():
                rows[i].append(v)
            return sorted(tuple(sorted(row)) for row in rows)

        assert sorted_rows(chain.matrix) == sorted_rows(chain2.matrix)


@pytest.mark.parametrize("model", [scaffold_model(2, 2, 2, rates=(1.0, 2.0, 0.5, 0.25)),
                                   casestudies.polymer_model(casestudies.PolymerParams(2))])
def test_chunked_frontier_gives_the_same_applications(model, monkeypatch):
    # the applications come in search order, which the chunk size moves;
    # a stable sort by (source, rule) keeps each pair's embedding order
    def by_source(found):
        keys, states, rows, cols, applied = found
        order = np.lexsort((applied, rows))
        return keys, states, rows[order], cols[order], applied[order]

    assert isinstance(rules._ROWS, int) and rules._ROWS > 1
    want = by_source(rules._applications(model, 1000))
    for chunk in (1, 3):
        with monkeypatch.context() as patched:
            sizes = expand_by(patched, model, chunk)
            got = by_source(rules._applications(model, 1000))
        assert max(sizes) == chunk
        assert got[0] == want[0]
        assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))


@pytest.mark.parametrize("model", [scaffold_model(2, 2, 2, rates=(1.0, 2.0, 0.5, 0.25)),
                                   casestudies.polymer_model(casestudies.PolymerParams(2))])
def test_chunked_frontier_gives_the_same_chain(model, monkeypatch):
    def labelled():
        chain, labels = rules.explore_labelled(model)
        return (chain.space.states, chain.rows, chain.matrix.row, chain.matrix.col,
                chain.matrix.data, list(labels.items()))

    want = labelled()
    for chunk in (1, 3):
        with monkeypatch.context() as patched:
            sizes = expand_by(patched, model, chunk)
            got = labelled()
        assert max(sizes) == chunk
        assert got[0] == want[0] and got[-1] == want[-1]
        assert all(np.array_equal(a, b) for a, b in zip(got[1:-1], want[1:-1]))


def test_keys_are_written_once(monkeypatch):
    """The search numbers states as it finds them and keys them in one pass
    after it; a refused search writes no key."""
    calls, writer = [], rules._key_writer

    def counted(model, ends):
        keys = writer(model, ends)

        def count(rows):
            calls.append(len(rows))
            return keys(rows)

        return count

    monkeypatch.setattr(rules, "_key_writer", counted)
    model = scaffold_model(2, 2, 2)
    sizes = expand_by(monkeypatch, model, 3)  # many chunks
    assert len(rules.explore(model).space) == 49
    assert max(sizes) == 3
    assert calls == [49]
    calls.clear()
    with pytest.raises(StateCapExceeded):
        rules.explore(model, max_states=48)
    assert calls == []


def test_each_level_is_in_the_string_order_of_its_keys():
    """Explore orders a level by integer token ranks, not by the key
    strings; the order must still be the strings'. With ten B instances,
    parts on B#1 and B#10 meet; a start with one bond puts keys of one and
    of three bonds in one level; and the sites a and a1 make one part a
    proper prefix of another, so a key may be a proper prefix of a key
    whose first part is not its own."""
    model = dsl.parse_model("node A { sites: b }\nnode B { sites: a, a1 }\n"
                            "rule bind: A(b), B(a) -> A(b!1), B(a!1) @ 1\n"
                            "rule bind1: A(b), B(a1) -> A(b!1), B(a1!1) @ 1\n"
                            "rule unbind: A(b!1), B(a!1) -> A(b), B(a) @ 1\n"
                            "rule unbind1: A(b!1), B(a1!1) -> A(b), B(a1) @ 1\n"
                            "init: A*3, B*10\n")
    start = make_mixture(model.interface, {"A": 3, "B": 10}, [edge("A#2", "b", "B#10", "a")])
    chain = rules.explore(rules.RuleModel(model.rules, start, model.interface))
    keys, K = chain.space.states, chain.matrix
    assert len(keys) == 1 + 3 * 20 + 3 * 20 * 19 + 20 * 19 * 18
    level, d = np.full(len(keys), -1), 0  # breadth-first levels from the start, state 0
    level[0] = 0
    while (level == d).any():
        reached = K.col[level[K.row] == d]
        level[reached[level[reached] < 0]] = d + 1
        d += 1
    assert (level >= 0).all() and (np.diff(level) >= 0).all()
    after = Counter()  # what follows a key in a longer key of its level
    for d in range(level.max() + 1):
        found = [keys[s] for s in np.flatnonzero(level == d)]
        assert found == sorted(found)
        after.update(b[len(a)] for a, b in zip(found, found[1:]) if b.startswith(a))
    assert after[";"] and after["1"]


def test_largest_case_study_chain_under_the_cap(scaffold_445):
    """Scaffold (4,4,5), 104,709 states, the largest case-study chain that
    the tests explore, at exactly its size as the cap and one below."""
    assert len(scaffold_445.space) == 104_709
    assert len(scaffold_445.matrix.data) == 1_260_077
    with pytest.raises(StateCapExceeded, match=r"^reachable set exceeds max_states = 104708$"):
        rules.explore(scaffold_model(4, 4, 5, rates=(1.3, 0.7, 1.1, 0.9)), max_states=104_708)


@pytest.mark.parametrize("model", [scaffold_model(2, 3, 4),
                                   casestudies.polymer_model(casestudies.PolymerParams(3))])
@pytest.mark.parametrize("budget", [1, 40, 500, 2 ** 17])
def test_a_chunk_makes_at_most_the_row_budget(model, budget, monkeypatch):
    """The search expands as many frontier states at once as keep the
    targets of a chunk within ``rules._ROWS``, and one state when a single
    state may make more."""
    monkeypatch.setattr(rules, "_ROWS", budget)
    made, expand = [], rules._expand

    def counted(compiled, states):
        rows, applied, new = expand(compiled, states)
        made.append((len(states), len(new)))
        return rows, applied, new

    monkeypatch.setattr(rules, "_expand", counted)
    assert len(rules.explore(model).space) == sum(n for n, _ in made)
    assert all(targets <= budget or states == 1 for states, targets in made)


def test_state_cap_refused_before_memory_runs_out():
    """Polymer n=40, whose reachable set is far past the default cap of
    200,000 states, is refused at the cap in a process limited to 2 GiB of
    address space: a chunk of the frontier makes at most ``rules._ROWS``
    target rows before the cap is checked, not 2,048 states' worth."""
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))\n"
            "from lumpkit import casestudies, rules\n"
            "from lumpkit.errors import StateCapExceeded\n"
            "try:\n"
            "    rules.explore(casestudies.polymer_model(casestudies.PolymerParams(40)))\n"
            "except StateCapExceeded as exc:\n"
            "    print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert (out.returncode, out.stdout) == (0, "reachable set exceeds max_states = 200000\n"), \
        out.stderr


def test_explore_peak_per_nonzero_at_scaffold_445():
    """Building the generator, not the search, sets explore's peak: the
    search's int32 applications go to the matrix as they are, and the
    matrix keeps 16 bytes per nonzero. In a fresh process, the peak resident
    size grows by at most 125 bytes per nonzero across ``explore`` at
    scaffold (4,4,5), 1,260,077 nonzeros (about 105 on Linux x86_64 with
    numpy 2.4; int64 indices with a two-key lexsort took about 148). The
    peak is the kernel's VmHWM, which starts afresh at exec: a child's
    ru_maxrss starts at its parent's peak, which the test run's own
    process would set."""
    code = ("from lumpkit import casestudies, rules\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM'))\n"
            "model = casestudies.scaffold_model("
            "casestudies.ScaffoldParams(4, 4, 5, 1.3, 0.7, 1.1, 0.9))\n"
            "before = peak()\n"
            "nnz = rules.explore(model, 104_709).matrix.data.size\n"
            "print(nnz, (peak() - before) * 1024 / nnz)\n")  # VmHWM is in KiB
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    nnz, per_nonzero = out.stdout.split()
    assert int(nnz) == 1_260_077
    assert float(per_nonzero) <= 125


def test_single_rule_application_is_not_public():
    """The library has one rule engine, explore's compiled rules; the
    site-graph semantics it compiles live in the tests' oracle."""
    moved = ("apply", "find_embeddings", "rename", "is_subgraph", "mixture_key",
             "is_reversible", "connected_components", "polymer_classify", "RenamingIncomplete",
             "ComponentClass", "NotPolymerComponent", "InvalidEmbedding")
    # the polymer shape classifier: the species census is the one species partition
    deleted = ("polymer_phi1", "_polymer_class", "_classify")
    for module in (lumpkit, rules, sitegraph, casestudies, errors):
        assert [name for name in moved + deleted if hasattr(module, name)] == [], module.__name__
    assert not set(moved + deleted) & set(lumpkit.__all__)
    assert all(hasattr(oracle, name) for name in moved)


def test_one_source_of_rule_labels():
    """Rule labels come from explore_labelled's search only: no function
    reruns the search to rebuild them for a chain."""
    assert not hasattr(rules, "edge_labels")
    assert not hasattr(lumpkit, "edge_labels")


class TestReversibility:
    def test_scaffold_reversible(self):
        assert oracle.is_reversible(scaffold_model())

    def test_bind_only_not_reversible(self):
        model = scaffold_model()
        partial = rules.RuleModel(model.rules[:1], model.initial, model.interface)
        assert not oracle.is_reversible(partial)

    def test_empty_rule_set_vacuously_reversible(self):
        initial = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1})
        assert oracle.is_reversible(rules.RuleModel((), initial, dict(SCAFFOLD)))


class TestBuildPartition:
    def test_identity_phi_gives_singletons(self):
        chain = rules.explore(scaffold_model(1, 3, 1))
        part = rules.build_partition(chain, repr)
        assert sorted(part.blocks) == list(
            aggregation.Partition.singletons(len(chain.space)).blocks)

    def test_constant_phi_single_block(self):
        chain = rules.explore(scaffold_model(1, 3, 1))
        part = rules.build_partition(chain, lambda mix: 0)
        assert len(part) == 1

    def test_scaffold_phi2_block_sizes(self):
        chain = rules.explore(scaffold_model(1, 3, 1))
        part = rules.build_partition(chain, casestudies.scaffold_phi2)
        assert sorted(len(b) for b in part.blocks) == [1, 3, 3, 9]

    def test_no_mixture_or_site_graph_for_any_phi(self, monkeypatch):
        explored = {"scaffold": rules.explore(scaffold_model(2, 2, 2)),
                    "polymer": rules.explore(casestudies.polymer_model(casestudies.PolymerParams(2)))}
        interfaces = {"scaffold": SCAFFOLD, "polymer": POLYMER}
        # each chain read from its slot rows, and from its keys decoded into rows
        chains = [(study, chain) for study, c in explored.items() for chain in
                  (c, rules.ExploredChain(c.space, c.matrix, c.counts, interfaces[study]))]
        cases = [(name, phi, chain) for name, phi in cli._PHI_FUNCS.items()
                 for study, chain in chains
                 if name == "species" or name.startswith(study)]
        expected = [rules.build_partition(chain, phi) for _, phi, chain in cases]

        def forbidden(*args, **kwargs):
            raise AssertionError("a per-state mixture or site-graph was built")

        monkeypatch.setattr(SiteGraph, "__post_init__", forbidden)
        monkeypatch.setattr(ReactionMixture, "__post_init__", forbidden)
        assert [rules.build_partition(chain, phi) for _, phi, chain in cases] == expected
        assert sorted(name for name, _, _ in cases) == sorted(
            2 * list(cli._PHI_FUNCS) + 2 * ["species"])

    def test_explored_chain_decodes_no_key(self, monkeypatch):
        chain, species = rules.explore(scaffold_model(2, 2, 2)), cli._PHI_FUNCS["species"]
        keyed = rules.ExploredChain(chain.space, chain.matrix, chain.counts, SCAFFOLD)
        expected = rules.build_partition(keyed, species)

        def forbidden(*args, **kwargs):
            raise AssertionError("a state key was decoded")

        monkeypatch.setattr(rules, "mixture_from_key", forbidden)
        assert rules.build_partition(chain, species) == expected

    def test_slot_rows_are_read_only(self):
        chain = rules.explore(scaffold_model(1, 2, 1))
        assert chain.rows.shape == (len(chain.space), len(chain.ends)) == (9, 6)
        assert chain.ends == (("A#1", "b"), ("B#1", "a"), ("B#1", "c"), ("B#2", "a"),
                              ("B#2", "c"), ("C#1", "b"))
        with pytest.raises(ValueError):
            chain.rows[0, 0] = 1

    def test_key_path_refuses_a_site_the_interface_lacks(self):
        chain = rules.explore(scaffold_model(1, 1, 1))
        narrow = {"A": frozenset({"b"}), "B": frozenset({"a"}), "C": frozenset({"b"})}
        # a chain decodes its keys when it is built
        with pytest.raises(ValueError, match=r"state 'B#1.c-C#1.b' binds site 'c' of B#1, "
                                             r"which the model does not declare"):
            rules.ExploredChain(chain.space, chain.matrix, chain.counts, narrow)
        # the explored chain's rows keep its model's slots
        assert len(rules.build_partition(chain, casestudies.scaffold_phi2)) == 4


@functools.cache
def scaffold_333():
    """The scaffold (3,3,3) chain, 1,156 states, explored once."""
    return rules.explore(scaffold_model(3, 3, 3))


@st.composite
def phi_values(draw):
    """One abstraction value per state of scaffold (3,3,3): ints, tuples or
    strings, from a pool of 1 to 400 (past 256 blocks), so most repeat."""
    kind = draw(st.sampled_from([st.integers(-5, 500),
                                 st.tuples(st.integers(0, 9), st.integers(0, 40)),
                                 st.text("abc", max_size=8)]))
    pool = draw(st.lists(kind, min_size=1, max_size=400, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [pool[i] for i in rng.integers(0, len(pool), len(scaffold_333().space))]


class TestBuildPartitionByValue:
    @settings(max_examples=40, deadline=None)
    @given(phi_values())
    def test_fibers_sorted_by_value(self, values):
        chain = scaffold_333()
        keyed = rules.ExploredChain(chain.space, chain.matrix, chain.counts, SCAFFOLD)
        fibers = {}
        for i, value in enumerate(values):
            fibers.setdefault(value, []).append(i)
        expected = tuple(tuple(fibers[v]) for v in sorted(fibers))
        for c in (chain, keyed):
            calls = iter(values)
            part = rules.build_partition(c, lambda bonds: next(calls))
            assert part.blocks == expected
            assert next(calls, None) is None  # one call per state


@functools.cache
def polymer_3():
    """The polymer n=3 chain, explored once."""
    return rules.explore(casestudies.polymer_model(casestudies.PolymerParams(3)))


CENSUS_CHAINS = {
    "scaffold-234": lambda: rules.explore(scaffold_model(2, 3, 4)),
    "scaffold-333": scaffold_333,
    "polymer-3": polymer_3,
    "polymer-4": lambda: rules.explore(casestudies.polymer_model(casestudies.PolymerParams(4))),
}


def no_bond_map(*args, **kwargs):
    raise AssertionError("a per-state bond map was built")


def record_bond_maps(monkeypatch):
    """A list that gets the states of each call to ``rules._bond_maps``."""
    built, bond_maps_of = [], rules._bond_maps

    def recording(names, patterns, which, states):
        built.append(states.tolist())
        return bond_maps_of(names, patterns, which, states)

    monkeypatch.setattr(rules, "_bond_maps", recording)
    return built


class TestLocalViewCensus:
    """A map declared by ``reads_local_views`` is called once per local-view
    census of an explored chain; the blocks are those of one call per state."""

    def test_declared_maps(self):
        declared = {name for name in dir(casestudies)
                    if rules._census(getattr(casestudies, name)) is rules._local_view_ids}
        assert declared == set(LOCAL_VIEW_MAPS)
        assert rules._census(cli._PHI_FUNCS["species"]) is rules._species_ids

    def test_declaring_keeps_the_map_and_marks_no_wrapper(self):
        def phi(bonds):
            return 0

        assert rules.reads_local_views(phi) is phi and rules._census(phi) is rules._local_view_ids
        assert rules._census(functools.wraps(phi)(lambda bonds: phi(bonds))) is None

    def test_declaring_species_keeps_the_map_and_marks_no_wrapper(self):
        def phi(bonds):
            return 0

        assert rules.reads_species(phi) is phi and rules._census(phi) is rules._species_ids
        assert rules._census(functools.wraps(phi)(lambda bonds: phi(bonds))) is None

    @pytest.mark.parametrize("name", CENSUS_CHAINS)
    def test_same_blocks_as_a_per_state_grouping(self, name):
        chain = CENSUS_CHAINS[name]()
        maps = bond_maps(chain)
        for phi in LOCAL_VIEW_MAPS.values():
            want = fibers(maps, phi)
            assert rules.build_partition(chain, phi).blocks == want
            # an undeclared copy takes the per-state path
            assert rules.build_partition(chain, lambda bonds, phi=phi: phi(bonds)).blocks == want
        # the finest declared map: one block per census
        census = rules.reads_local_views(lambda bonds: local_view_census(bonds))
        assert rules.build_partition(chain, census).blocks == fibers(maps, local_view_census)

    @pytest.mark.parametrize("name, phi, groups", [
        ("scaffold-333", casestudies.scaffold_phi1, 20),
        ("polymer-3", casestudies.polymer_phi2, 28)])
    def test_one_call_per_census(self, name, phi, groups, monkeypatch):
        chain = CENSUS_CHAINS[name]()
        maps = bond_maps(chain)
        want = fibers(maps, phi)
        first = {}  # census -> its first state
        for i, bonds in enumerate(maps):
            first.setdefault(local_view_census(bonds), i)
        calls = []

        @rules.reads_local_views
        def counting(bonds):
            calls.append(bonds)
            return phi(bonds)

        built = record_bond_maps(monkeypatch)
        monkeypatch.setattr(rules, "mixture_from_key", no_bond_map)
        assert rules.build_partition(chain, counting).blocks == want
        assert len(calls) == len(first) == groups
        # the builder makes the bond maps of each census's first state, no other
        assert built == [sorted(first.values())] and groups < len(chain.space)
        # each census's first state, in state order, its bond map as the keys give it
        assert ordered(calls) == ordered(maps[i] for i in sorted(first.values()))
        monkeypatch.undo()
        calls.clear()
        traced = rules.build_partition(chain, lambda bonds: counting(bonds))
        assert traced.blocks == want and len(calls) == len(chain.space)

    def test_chain_without_instances(self):
        iface = {"A": frozenset({"x"}), "B": frozenset({"x"})}
        bound = frozenset({edge("A", "x", "B", "x")})
        bind = rules.RewriteRule(SiteGraph(frozenset(iface), iface, frozenset()),
                                 SiteGraph(frozenset(iface), iface, bound), 1.0, "bind")
        chain = rules.explore(rules.RuleModel((bind,), make_mixture({}, {}), iface))
        assert chain.space.states == ("-",) and chain.ends == ()
        for phi in (len, rules.reads_local_views(lambda bonds: len(bonds))):
            assert rules.build_partition(chain, phi).blocks == ((0,),)


class TestSpeciesCensus:
    """A map declared by ``reads_species`` is called once per species census
    of a chain; the blocks are those of one call per state."""

    @pytest.mark.parametrize("name", CENSUS_CHAINS)
    def test_same_blocks_as_a_per_state_grouping(self, name):
        chain = CENSUS_CHAINS[name]()
        maps = bond_maps(chain)
        species = cli._PHI_FUNCS["species"]
        assert rules.build_partition(chain, species).blocks == fibers(maps, species)
        # a coarser declared map: the components' multiplicities
        def sizes(bonds):
            return tuple(sorted(sitegraph.species_census(bonds).values()))

        assert rules.build_partition(chain, rules.reads_species(sizes)).blocks == \
            fibers(maps, sizes)

    @pytest.mark.parametrize("name, groups", [("scaffold-333", 20), ("polymer-3", 46)])
    def test_one_call_per_census(self, name, groups, monkeypatch):
        chain = CENSUS_CHAINS[name]()
        maps = bond_maps(chain)
        species = cli._PHI_FUNCS["species"]
        first = {}  # census -> its first state
        for i, bonds in enumerate(maps):
            first.setdefault(species(bonds), i)
        calls = []

        @rules.reads_species
        def counting(bonds):
            calls.append(bonds)
            return species(bonds)

        built = record_bond_maps(monkeypatch)
        monkeypatch.setattr(rules, "mixture_from_key", no_bond_map)
        assert rules.build_partition(chain, counting).blocks == fibers(maps, species)
        assert len(calls) == len(first) == groups
        assert built == [sorted(first.values())] and groups < len(chain.space)
        assert ordered(calls) == ordered(maps[i] for i in sorted(first.values()))

    def test_component_codes_renumbered_before_they_overflow(self):
        # 40 B instances in two patterns each: a code over every instance's
        # pattern in base 3 would pass the int64 range
        keys = ("-",) + tuple(f"A#1.b-B#{j}.a" for j in range(1, 41)) + tuple(
            f"A#1.b-B#{j}.a;B#{j}.c-C#1.b" for j in range(1, 41))
        chain = key_chain(keys, {"A": 1, "B": 40, "C": 1}, SCAFFOLD)
        species = cli._PHI_FUNCS["species"]
        maps = [rules.mixture_from_key(key, chain.counts, SCAFFOLD) for key in keys]
        assert rules.build_partition(chain, species).blocks == fibers(maps, species)
        assert len(rules.build_partition(chain, species)) == 3

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda pairs: st.lists(st.lists(
        st.tuples(st.integers(-1, 3), st.integers(-1, 200)), min_size=pairs, max_size=pairs),
        min_size=1, max_size=8)), st.integers(1, 40))
    def test_mixed_radix_codes_tell_digits_apart(self, rows, width):
        # rows of (small digit, large digit) pairs, repeated width times,
        # and so past the int64 range as one number
        digits = np.array([[d for pair in row for d in pair] * width for row in rows])
        radices = [5, 202] * (len(rows[0]) * width)
        code = rules._mixed_radix(len(digits), zip(digits.T, radices))
        distinct = {tuple(r) for r in digits.tolist()}
        assert len(set(code.tolist())) == len(distinct)


class TestBondMaps:
    """``rules._bond_maps``, the one builder of bond maps from slot rows,
    given any sorted states."""

    def test_states_apart_over_several_chunks(self):
        chain = CENSUS_CHAINS["polymer-4"]()
        states = np.arange(0, len(chain.space), 3)  # every third state
        assert len(states) == 14561 > 2 * rules._CHUNK
        maps = rules._bond_maps(*rules._row_patterns(chain), states)
        assert ordered(maps) == ordered(
            rules.mixture_from_key(chain.space.states[i], chain.counts, chain.interface)
            for i in states.tolist())


def key_chain(keys, counts, interface):
    """A chain over the states with these keys and an all-zero generator."""
    n = len(keys)
    matrix = markov.RateMatrix(n, np.arange(n), np.arange(n), np.zeros(n))
    return rules.ExploredChain(markov.StateSpace(tuple(keys)), matrix, counts, interface)


class TestKeyRows:
    """A chain given no rows decodes its keys into ``explore``'s slot rows
    once, and refuses a key as ``mixture_from_key`` does."""

    @pytest.mark.parametrize("model", [
        scaffold_model(3, 3, 3), scaffold_model(4, 4, 4),
        casestudies.polymer_model(casestudies.PolymerParams(3)),
        casestudies.polymer_model(casestudies.PolymerParams(4))],
        ids=["scaffold-333", "scaffold-444", "polymer-3", "polymer-4"])
    def test_rows_and_ends_equal_explores(self, model):
        chain = rules.explore(model)
        keyed = rules.ExploredChain(chain.space, chain.matrix, chain.counts, model.interface)
        assert keyed.ends == chain.ends
        assert keyed.rows.dtype == chain.rows.dtype
        assert np.array_equal(keyed.rows, chain.rows)
        assert not keyed.rows.flags.writeable

    def test_every_instance_has_its_types_sites(self):
        # no state binds B's site c or C#1: each still has its slot
        keys = ("-", "A#1.b-B#1.a", "A#1.b-B#2.a")
        assert key_chain(keys, {"A": 1, "B": 2, "C": 1}, SCAFFOLD).ends == (
            ("A#1", "b"), ("B#1", "a"), ("B#1", "c"), ("B#2", "a"), ("B#2", "c"), ("C#1", "b"))

    def test_only_the_first_state_is_parsed(self, monkeypatch):
        chain, parsed, parse = polymer_3(), [], rules.mixture_from_key
        monkeypatch.setattr(rules, "mixture_from_key",
                            lambda *args: parsed.append(args[0]) or parse(*args))
        keyed = rules.ExploredChain(chain.space, chain.matrix, chain.counts, POLYMER)
        assert parsed == [chain.space.states[0]] and np.array_equal(keyed.rows, chain.rows)

    def test_first_row_checked_against_the_parser(self, monkeypatch):
        # a parser that reads a bond into the edgeless first state
        chain, parse = polymer_3(), rules.mixture_from_key
        assert chain.space.states[0] == "-"
        monkeypatch.setattr(rules, "mixture_from_key",
                            lambda key, *args: parse(key.replace("-", "A#1.b-B#1.a"), *args))
        with pytest.raises(AssertionError, match="^state '-' decoded into a row of other bonds$"):
            rules.ExploredChain(chain.space, chain.matrix, chain.counts, POLYMER)

    def test_rows_with_the_wrong_column_count_refused(self):
        # the ends come from the counts and the interface: rows laid out
        # for other ones would be read against the wrong slots
        chain = polymer_3()
        assert chain.ends == rules.ExploredChain(chain.space, chain.matrix, chain.counts,
                                                 POLYMER, chain.rows).ends
        wider = np.hstack([chain.rows, chain.rows[:, :1]])
        for rows in (chain.rows[:, :-1], chain.rows[:, :0], wider):
            with pytest.raises(ValueError, match="one column per end"):
                rules.ExploredChain(chain.space, chain.matrix, chain.counts, POLYMER, rows)
        with pytest.raises(ValueError, match="one column per end"):
            rules.ExploredChain(chain.space, chain.matrix, chain.counts, SCAFFOLD, chain.rows)
        with pytest.raises(ValueError, match="one row per state"):
            rules.ExploredChain(chain.space, chain.matrix, chain.counts, POLYMER, chain.rows[1:])

    @pytest.mark.parametrize("keys, first", [
        (("-", "A#1.b-B#1.a", "A#1.b-B#2.a", "A#1.b-B#1.a;A#1.b-B#2.a", "A#1.b-B#3.a"), 3),
        (("-", "A#1.b-B#1.a", "A#1.b-B#2.a", "A#1.b-B#3.a", "A#1.b-B#1.a;A#1.b-B#2.a"), 3),
    ], ids=["twice-first", "instance-first"])
    def test_site_bound_twice_and_a_bad_part_in_state_order(self, keys, first):
        with pytest.raises(ValueError, match=f"^state {re.escape(repr(keys[first]))} "):
            key_chain(keys, {"A": 1, "B": 2, "C": 1}, SCAFFOLD)

    @settings(max_examples=300, deadline=None)
    @given(key_lists())
    def test_refused_as_the_parser_refuses_else_its_bonds(self, inputs):
        iface, counts, keys = inputs
        try:
            maps = [rules.mixture_from_key(key, counts, iface) for key in keys]
        except ValueError as exc:  # the first refused key's message
            with pytest.raises(ValueError) as refused:
                key_chain(keys, counts, iface)
            assert str(refused.value) == str(exc)
            return
        twice = next((j for j, bonds in enumerate(maps) if bonds in maps[:j]), None)
        if twice is not None:  # a later key of an earlier key's mixture, its parts reordered
            with pytest.raises(ValueError) as refused:
                key_chain(keys, counts, iface)
            assert str(refused.value) == (f"state {keys[twice]!r} encodes the mixture of "
                                          f"state {keys[maps.index(maps[twice])]!r}")
            return
        # the rows, built here from the parser's bond maps, one row at a time
        ends = tuple((f"{t}#{j}", s) for t, n in counts.items() for j in range(1, n + 1)
                     for s in sorted(iface[t]))
        slot = {end: k for k, end in enumerate(ends)}
        rows = [[-1] * len(ends) for _ in keys]
        for row, bonds in zip(rows, maps):
            for v, sites in bonds.items():
                for s, partner in sites:
                    row[slot[v, s]] = slot[partner]
        chain = key_chain(keys, counts, iface)
        assert chain.ends == ends and chain.rows.tolist() == rows


class TestSerialization:
    def test_mixture_key_round_trip(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 3, "C": 1},
                           [edge("A#1", "b", "B#2", "a"),
                            edge("B#2", "c", "C#1", "b")])
        key = oracle.mixture_key(mix)
        assert rules.mixture_from_key(key, mix.counts, SCAFFOLD) == mix.graph.bonds()

    @pytest.mark.parametrize("model", [scaffold_model(1, 1, 1), scaffold_model(2, 3, 2),
                                       casestudies.polymer_model(casestudies.PolymerParams(2))],
                             ids=["scaffold-111", "scaffold-232", "polymer-2"])
    def test_decoded_mixtures_equal_make_mixture(self, model):
        chain = rules.explore(model)
        for key, bonds in zip(chain.space.states, bond_maps(chain)):
            built = key_mixture(key, model.interface, model.initial.counts)
            assert oracle.mixture_key(built) == key
            assert bonds == built.graph.bonds()
            assert list(bonds) == list(rules._layout(model.initial.counts, model.interface)[1])

    def test_decoding_follows_the_signature(self):
        key = "A#1.b-B#2.a"
        small = rules.mixture_from_key(key, {"A": 1, "B": 2, "C": 1}, SCAFFOLD)
        large = rules.mixture_from_key(key, {"A": 1, "B": 3, "C": 1}, SCAFFOLD)
        assert "B#3" in large and "B#3" not in small
        assert large["B#3"] == () and small["A#1"] == large["A#1"] == (("b", ("B#2", "a")),)
        with pytest.raises(ValueError, match="B#3"):
            rules.mixture_from_key("A#1.b-B#3.a", {"A": 1, "B": 2, "C": 1}, SCAFFOLD)

    def test_decoding_checks_the_interface(self):
        counts = {"A": 1, "B": 1}
        interface = {"A": frozenset({"b"}), "B": frozenset({"a"})}
        assert rules.mixture_from_key("A#1.b-B#1.a", counts, interface) == \
            {"A#1": (("b", ("B#1", "a")),), "B#1": (("a", ("A#1", "b")),)}
        with pytest.raises(ValueError, match=r"state 'A#1.z-B#1.a' binds site 'z' of A#1, "
                                             r"which the model does not declare"):
            rules.mixture_from_key("A#1.z-B#1.a", counts, interface)

    def test_edgeless_key(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1})
        assert oracle.mixture_key(mix) == "-"

    def test_edgeless_key_decodes_to_every_instance_unbound(self):
        bonds = rules.mixture_from_key("-", {"A": 2, "B": 1, "C": 1}, SCAFFOLD)
        assert bonds == {"A#1": (), "A#2": (), "B#1": (), "C#1": ()}
        assert list(bonds) == ["A#1", "A#2", "B#1", "C#1"]
        assert rules.mixture_from_key("-", {}, {}) == {}

    @pytest.mark.parametrize("key, message", [
        ("A#1.b-B#1.a;A#1.b-B#2.a", "binds a site twice"),
        ("A#1.b-B#1.a;A#2.b-B#1.a", "binds a site twice"),
        ("B#1.a-B#1.c", "joins a node to itself"),
        ("A#1.b-A#1.b", "joins a node to itself"),
        ("A#1.b", "malformed bond"),
        ("A#1b-B#1.a", "malformed bond"),
        ("A#1.b-B#1.a-C#1.b", "malformed bond"),
        ("A#1.b-D#1.a", "D#1"),
    ])
    def test_malformed_key_rejected(self, key, message):
        with pytest.raises(ValueError, match=message):
            rules.mixture_from_key(key, {"A": 2, "B": 2, "C": 1}, SCAFFOLD)

    @settings(max_examples=300, deadline=None)
    @given(decode_inputs())
    def test_decoder_differential_against_make_mixture(self, inputs):
        iface, counts, edges, fault = inputs
        parts = [f"{v1}.{s1}-{v2}.{s2}" for (v1, s1), (v2, s2) in
                 (sorted(e) if len(e) == 2 else 2 * sorted(e) for e in edges)]
        key = ";".join(sorted(parts)) if parts else "-"
        try:
            reference = make_mixture(iface, counts, edges).graph.bonds()
        except ValueError:
            assert fault is not None
            with pytest.raises(ValueError):
                rules.mixture_from_key(key, counts, iface)
        else:
            assert fault is None
            assert rules.mixture_from_key(key, counts, iface) == reference

    def test_export_dot(self):
        model = scaffold_model()
        chain, labels = rules.explore_labelled(model)
        dot = "".join(rules.export_dot(chain, labels))
        i, j = chain.space.index["-"], chain.space.index["A#1.b-B#1.a"]
        assert dot.startswith("digraph")
        assert f'  n{i} -> n{j} [label="r1 (1)"];\n' in dot

    def test_export_dot_draws_no_zero_rate_edge(self):
        model = scaffold_model(rates=(0.0, 1.0, 1.0, 1.0))
        chain, labels = rules.explore_labelled(model)
        dot = "".join(rules.export_dot(chain, labels))
        i, j = chain.space.index["-"], chain.space.index["A#1.b-B#1.a"]
        assert f"n{i} -> n{j} " not in dot
        assert 'label="r1' not in dot
        assert dot.count(" -> ") == 6

    def test_max_states_env(self, monkeypatch):
        monkeypatch.delenv("LUMPKIT_MAX_STATES", raising=False)
        assert rules.max_states_from_env() == rules.DEFAULT_MAX_STATES
        monkeypatch.setenv("LUMPKIT_MAX_STATES", "123")
        assert rules.max_states_from_env() == 123
        monkeypatch.setenv("LUMPKIT_MAX_STATES", "abc")
        with pytest.raises(ValueError, match="LUMPKIT_MAX_STATES"):
            rules.max_states_from_env()
