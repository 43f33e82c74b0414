import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    RenamingIncomplete,
    connected_components,
    find_embeddings,
    is_subgraph,
    rename,
)

from lumpkit import casestudies, rules, sitegraph
from lumpkit.errors import NotConnected, UnsupportedPattern
from lumpkit.sitegraph import (
    ReactionMixture,
    SiteGraph,
    canonical_key,
    make_edge,
    make_mixture,
    species_census,
)

SCAFFOLD = {"A": frozenset({"b"}), "B": frozenset({"a", "c"}),
            "C": frozenset({"b"})}
POLYMER = {"A": frozenset({"b", "r"}), "B": frozenset({"a", "l"})}


# any two sites of distinct nodes may bond: branched components whose
# shape is not fixed by their type and bond counts
BRANCHED = {"A": frozenset({"x", "y", "z"}), "B": frozenset({"x", "y"})}
INTERFACES = {"polymer": POLYMER, "scaffold": SCAFFOLD, "branched": BRANCHED}
BONDS = {"polymer": (("A", "b", "B", "a"), ("A", "r", "B", "l")),
         "scaffold": (("A", "b", "B", "a"), ("B", "c", "C", "b")),
         "branched": tuple((t1, s1, t2, s2) for t1 in "AB" for s1 in sorted(BRANCHED[t1])
                           for t2 in "AB" for s2 in sorted(BRANCHED[t2]))}


def edge(v1, s1, v2, s2):
    return frozenset(((v1, s1), (v2, s2)))


def polymer_strand(n, ring):
    """A#i.b-B#i.a for every i and A#i.r-B#(i+1).l between them; a ring
    also joins A#n.r to B#1.l."""
    nodes = [f"A#{i}" for i in range(1, n + 1)] + [f"B#{i}" for i in range(1, n + 1)]
    edges = [edge(f"A#{i}", "b", f"B#{i}", "a") for i in range(1, n + 1)]
    edges += [edge(f"A#{i}", "r", f"B#{i + 1}", "l") for i in range(1, n)]
    if ring:
        edges.append(edge(f"A#{n}", "r", "B#1", "l"))
    return SiteGraph(frozenset(nodes), {v: POLYMER[v[0]] for v in nodes},
                     frozenset(edges))


@st.composite
def renamings(draw, g):
    """A type-preserving instance renaming of g onto indices 1..8."""
    eta = {}
    for t in sorted({sitegraph.node_type(v) for v in g.nodes}):
        names = sorted(v for v in g.nodes if sitegraph.node_type(v) == t)
        indices = draw(st.permutations(range(1, 9)))
        eta.update({v: f"{t}#{k}" for v, k in zip(names, indices)})
    return eta


@st.composite
def rewirings(draw, g):
    """g with the partners of two of its edges swapped, which keeps every
    node's bound sites; None unless the result is a connected site-graph."""
    if len(g.edges) < 2:
        return None
    e1, e2 = draw(st.permutations(sorted(sorted(e) for e in g.edges)))[:2]
    (p1, q1), (p2, q2) = e1, (e2 if draw(st.booleans()) else e2[::-1])
    if p1[0] == q2[0] or p2[0] == q1[0]:
        return None
    edges = (g.edges - {frozenset(e1), frozenset(e2)}) | {frozenset((p1, q2)), frozenset((p2, q1))}
    rewired = SiteGraph(g.nodes, g.interface, edges)
    return rewired if len(connected_components(rewired)) == 1 else None


def bondable(kind, v, s, w, u):
    t1, t2 = sitegraph.node_type(v), sitegraph.node_type(w)
    return v != w and ((t1, s, t2, u) in BONDS[kind] or (t2, u, t1, s) in BONDS[kind])


@st.composite
def components(draw):
    """A connected component with at most 4 instances per type: a polymer
    chain or ring, or a random spanning tree over polymer, scaffold or
    branched instances plus a few bonds that close cycles; renamed at
    random half of the time."""
    kind = draw(st.sampled_from(sorted(INTERFACES)))
    if kind == "polymer" and draw(st.booleans()):
        g = polymer_strand(draw(st.integers(1, 4)), ring=draw(st.booleans()))
    else:
        iface = INTERFACES[kind]
        nodes = [f"{t}#{j}" for t in sorted(iface) for j in range(1, draw(st.integers(0, 4)) + 1)]
        if not nodes:
            nodes = ["B#1"]
        order = draw(st.permutations(nodes))
        free = {(v, s) for v in nodes for s in iface[v[0]]}
        reached, edges = [order[0]], []

        def bond(v, s, w, u):
            free.difference_update({(v, s), (w, u)})
            edges.append(edge(v, s, w, u))

        for w in order[1:]:
            options = sorted((v, s, w, u) for v, s in free for u in iface[w[0]]
                             if v in reached and (w, u) in free and bondable(kind, v, s, w, u))
            if options:  # otherwise w stays outside the component
                bond(*draw(st.sampled_from(options)))
                reached.append(w)
        closing = sorted((v, s, w, u) for v, s in free for w, u in free
                         if v in reached and w in reached and bondable(kind, v, s, w, u))
        for v, s, w, u in (draw(st.lists(st.sampled_from(closing), max_size=4))
                           if closing else []):
            if (v, s) in free and (w, u) in free:
                bond(v, s, w, u)
        g = SiteGraph(frozenset(reached), {v: iface[v[0]] for v in reached},
                      frozenset(edges))
    if draw(st.booleans()):
        g = rename(g, draw(renamings(g)))
    return g


def brute_force_isomorphic(g1: SiteGraph, g2: SiteGraph) -> bool:
    """Exhaustive search for a type-preserving node bijection carrying edges
    onto edges; independent oracle for canonical_key."""
    by_type1 = {}
    by_type2 = {}
    for v in g1.nodes:
        by_type1.setdefault(sitegraph.node_type(v), []).append(v)
    for v in g2.nodes:
        by_type2.setdefault(sitegraph.node_type(v), []).append(v)
    if sorted(by_type1) != sorted(by_type2):
        return False
    if any(len(by_type1[t]) != len(by_type2[t]) for t in by_type1):
        return False
    types = sorted(by_type1)
    pools = [itertools.permutations(by_type2[t]) for t in types]
    for combo in itertools.product(*pools):
        eta = {}
        for t, perm in zip(types, combo):
            eta.update(dict(zip(sorted(by_type1[t]), perm)))
        mapped = frozenset(
            frozenset((eta[v], s) for v, s in e) for e in g1.edges)
        if mapped == g2.edges:
            return True
    return False


class TestSiteGraph:
    def test_edge_site_must_be_declared(self):
        with pytest.raises(ValueError):
            SiteGraph(frozenset({"A", "B"}),
                      {"A": frozenset({"b"}), "B": frozenset({"a"})},
                      frozenset({edge("A", "x", "B", "a")}))

    def test_edge_endpoints_must_be_distinct_nodes(self):
        with pytest.raises(ValueError):
            SiteGraph(frozenset({"A"}), {"A": frozenset({"b", "r"})},
                      frozenset({edge("A", "b", "A", "r")}))

    def test_mixture_site_bound_at_most_once(self):
        with pytest.raises(ValueError):
            make_mixture(SCAFFOLD, {"A": 2, "B": 1, "C": 1},
                         [edge("A#1", "b", "B#1", "a"),
                          edge("A#2", "b", "B#1", "a")])

    def test_mixture_instances_match_counts(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 3, "C": 1})
        assert mix.graph.nodes == frozenset(
            {"A#1", "B#1", "B#2", "B#3", "C#1"})

    def test_interface_must_match_the_nodes(self):
        with pytest.raises(ValueError, match="exactly on the node set"):
            SiteGraph(frozenset({"A"}), {"B": frozenset({"a"})}, frozenset())

    def test_mixture_refuses_instances_other_than_the_counts(self):
        graph = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1}).graph
        with pytest.raises(ValueError, match="do not match the counts"):
            ReactionMixture(graph, {"A": 2, "B": 1, "C": 1})


class TestComponents:
    def test_edgeless_graph(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1})
        comps = connected_components(mix.graph)
        assert sorted(len(c.nodes) for c in comps) == [1, 1, 1]

    def test_bond_groups_nodes(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1},
                           [edge("A#1", "b", "B#1", "a")])
        comps = {frozenset(c.nodes) for c in connected_components(mix.graph)}
        assert frozenset({"A#1", "B#1"}) in comps
        assert frozenset({"C#1"}) in comps

    def test_path_through_two_sites_of_b(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1},
                           [edge("A#1", "b", "B#1", "a"),
                            edge("B#1", "c", "C#1", "b")])
        comps = connected_components(mix.graph)
        assert len(comps) == 1 and len(comps[0].nodes) == 3

    def test_polymer_ring(self):
        mix = make_mixture(POLYMER, {"A": 1, "B": 1},
                           [edge("A#1", "b", "B#1", "a"),
                            edge("A#1", "r", "B#1", "l")])
        comps = connected_components(mix.graph)
        assert len(comps) == 1
        assert len(comps[0].edges) == 2

    def test_site_in_two_pattern_edges(self):
        # a bare SiteGraph, unlike a mixture, lets one site take two edges
        g = SiteGraph(frozenset({"A", "B", "C"}),
                      {"A": frozenset({"b"}), "B": frozenset({"a"}), "C": frozenset({"b"})},
                      frozenset({edge("A", "b", "B", "a"), edge("A", "b", "C", "b")}))
        comps = connected_components(g)
        assert len(comps) == 1
        assert comps[0].nodes == g.nodes and comps[0].edges == g.edges


class TestSubgraphRename:
    def test_reflexive(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1})
        assert is_subgraph(mix.graph, mix.graph)

    def test_empty_into_anything(self):
        empty = SiteGraph(frozenset(), {}, frozenset())
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1})
        assert is_subgraph(empty, mix.graph)

    def test_missing_edge_fails(self):
        bonded = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1},
                              [edge("A#1", "b", "B#1", "a")])
        free = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1})
        assert not is_subgraph(bonded.graph, free.graph)

    def test_rename_identity_and_inverse(self):
        g = make_mixture(POLYMER, {"A": 1, "B": 1},
                         [edge("A#1", "b", "B#1", "a")]).graph
        ident = {v: v for v in g.nodes}
        assert rename(g, ident) == g
        eta = {"A#1": "A#9", "B#1": "B#7"}
        back = {"A#9": "A#1", "B#7": "B#1"}
        assert rename(rename(g, eta), back) == g

    def test_rename_composition(self):
        g = make_mixture(POLYMER, {"A": 1, "B": 1}).graph
        eta1 = {"A#1": "A#2", "B#1": "B#2"}
        eta2 = {"A#2": "A#3", "B#2": "B#3"}
        composed = {v: eta2[eta1[v]] for v in g.nodes}
        assert rename(rename(g, eta1), eta2) == rename(g, composed)

    def test_rename_requires_full_domain(self):
        g = make_mixture(POLYMER, {"A": 1, "B": 1}).graph
        with pytest.raises(RenamingIncomplete):
            rename(g, {"A#1": "A#2"})


class TestEmbeddings:
    def pattern_bc(self):
        # B with free c next to C with free b
        return SiteGraph(frozenset({"B", "C"}),
                         {"B": frozenset({"c"}), "C": frozenset({"b"})},
                         frozenset())

    def test_three_embeddings_example(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 3, "C": 1},
                           [edge("A#1", "b", "B#3", "a")])
        etas = find_embeddings(self.pattern_bc(), mix)
        assert [e["B"] for e in etas] == ["B#1", "B#2", "B#3"]
        assert all(e["C"] == "C#1" for e in etas)

    def test_empty_pattern_single_embedding(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1})
        empty = SiteGraph(frozenset(), {}, frozenset())
        assert find_embeddings(empty, mix) == [{}]

    def test_free_site_requirement(self):
        # every B's c site bound: no embedding of the free-c pattern remains
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1},
                           [edge("B#1", "c", "C#1", "b")])
        assert find_embeddings(self.pattern_bc(), mix) == []

    def test_duplicate_type_rejected(self):
        bad = SiteGraph(frozenset({"A#1", "A#2"}),
                        {"A#1": frozenset({"b"}), "A#2": frozenset({"b"})},
                        frozenset())
        mix = make_mixture(SCAFFOLD, {"A": 2, "B": 1, "C": 1})
        with pytest.raises(UnsupportedPattern):
            find_embeddings(bad, mix)

    def test_count_invariant_under_renaming(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 3, "C": 1},
                           [edge("A#1", "b", "B#3", "a")])
        eta = {"A#1": "A#1", "B#1": "B#2", "B#2": "B#3", "B#3": "B#1",
               "C#1": "C#1"}
        renamed = ReactionMixture(rename(mix.graph, eta), mix.counts)
        pattern = self.pattern_bc()
        assert len(find_embeddings(pattern, mix)) == len(
            find_embeddings(pattern, renamed))


class TestCanonicalKey:
    def single(self, name, iface):
        return SiteGraph(frozenset({name}), {name: iface}, frozenset())

    def dimer(self, a, b):
        return SiteGraph(frozenset({a, b}),
                         {a: frozenset({"b"}), b: frozenset({"a", "c"})},
                         frozenset({edge(a, "b", b, "a")}))

    def test_free_nodes_same_type(self):
        g1 = self.single("A#1", frozenset({"b"}))
        g2 = self.single("A#2", frozenset({"b"}))
        assert canonical_key(g1) == canonical_key(g2)

    def test_dimer_instance_invariance(self):
        assert canonical_key(self.dimer("A#1", "B#2")) == canonical_key(
            self.dimer("A#2", "B#1"))

    def test_distinct_types_distinct_keys(self):
        ab = self.dimer("A#1", "B#1")
        bc = SiteGraph(frozenset({"B#1", "C#1"}),
                       {"B#1": frozenset({"a", "c"}), "C#1": frozenset({"b"})},
                       frozenset({edge("B#1", "c", "C#1", "b")}))
        assert canonical_key(ab) != canonical_key(bc)

    def test_disconnected_rejected(self):
        g = make_mixture(SCAFFOLD, {"A": 1, "B": 1, "C": 1}).graph
        with pytest.raises(NotConnected):
            canonical_key(g)

    def test_agrees_with_isomorphism_oracle(self):
        # all 2-node polymer components on instance pools {A#1..A#2, B#1..B#2}
        graphs = []
        for ai in (1, 2):
            for bi in (1, 2):
                a, b = f"A#{ai}", f"B#{bi}"
                for bonds in ([("b", "a")], [("r", "l")],
                              [("b", "a"), ("r", "l")]):
                    graphs.append(SiteGraph(
                        frozenset({a, b}),
                        {a: POLYMER["A"], b: POLYMER["B"]},
                        frozenset(edge(a, sa, b, sb) for sa, sb in bonds)))
        for g1 in graphs:
            for g2 in graphs:
                same_key = canonical_key(g1) == canonical_key(g2)
                assert same_key == brute_force_isomorphic(g1, g2)

    @settings(max_examples=300, deadline=None)
    @given(components(), components(), st.data())
    def test_differential_against_isomorphism_oracle(self, g1, g2, data):
        assert (canonical_key(g1) == canonical_key(g2)) == brute_force_isomorphic(g1, g2)
        renamed = rename(g1, data.draw(renamings(g1)))
        assert canonical_key(renamed) == canonical_key(g1)
        rewired = data.draw(rewirings(g1))
        if rewired is not None:
            same_key = canonical_key(rewired) == canonical_key(g1)
            assert same_key == brute_force_isomorphic(rewired, g1)

    @pytest.mark.parametrize("n", [7, 10])
    def test_large_ring_renamed_and_against_chain(self, n):
        ring = polymer_strand(n, ring=True)
        shift = {f"{t}#{i}": f"{t}#{(i * 3 + (t == 'B')) % n + 1}"
                 for t in "AB" for i in range(1, n + 1)}
        assert canonical_key(rename(ring, shift)) == canonical_key(ring)
        assert canonical_key(polymer_strand(n, ring=False)) != canonical_key(ring)

    def test_site_bound_twice_rejected(self):
        g = SiteGraph(frozenset({"A#1", "B#1", "B#2"}),
                      {"A#1": POLYMER["A"], "B#1": POLYMER["B"], "B#2": POLYMER["B"]},
                      frozenset({edge("A#1", "b", "B#1", "a"),
                                 edge("A#1", "b", "B#2", "a")}))
        with pytest.raises(ValueError, match="bound twice"):
            canonical_key(g)


class TestSpeciesCensus:
    def test_edgeless_counts_by_type(self):
        mix = make_mixture(SCAFFOLD, {"A": 2, "B": 3, "C": 1})
        census = species_census(mix.graph.bonds())
        assert sorted(census.values()) == [1, 2, 3]

    def test_scaffold_mixture(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 3, "C": 1},
                           [edge("A#1", "b", "B#3", "a")])
        census = species_census(mix.graph.bonds())
        assert sorted(census.values()) == [1, 1, 2]

    def test_invariant_under_renaming(self):
        mix = make_mixture(SCAFFOLD, {"A": 1, "B": 3, "C": 1},
                           [edge("A#1", "b", "B#3", "a")])
        eta = {"A#1": "A#1", "B#1": "B#3", "B#2": "B#1", "B#3": "B#2",
               "C#1": "C#1"}
        renamed = ReactionMixture(rename(mix.graph, eta), mix.counts)
        assert species_census(mix.graph.bonds()) == species_census(renamed.graph.bonds())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(components(), min_size=2, max_size=3), st.data())
    def test_census_keys_each_component(self, parts, data):
        # each part onto its own instances, interleaved at random with the
        # other parts' instances of the same type
        counts = Counter(sitegraph.node_type(v) for g in parts for v in g.nodes)
        free = {t: list(data.draw(st.permutations(range(1, n + 1)))) for t, n in counts.items()}
        renamed = [rename(g, {v: f"{sitegraph.node_type(v)}#{free[sitegraph.node_type(v)].pop()}"
                              for v in sorted(g.nodes)}) for g in parts]
        graph = SiteGraph(frozenset().union(*(g.nodes for g in renamed)),
                          {v: g.interface[v] for g in renamed for v in g.nodes},
                          frozenset().union(*(g.edges for g in renamed)))
        mix = ReactionMixture(graph, counts)
        comps = connected_components(mix.graph)
        assert species_census(mix.graph.bonds()) == Counter(canonical_key(c) for c in comps)
        assert sum(len(c.nodes) for c in comps) == len(mix.graph.nodes)
        assert frozenset().union(*(c.nodes for c in comps)) == mix.graph.nodes
        assert sum(len(c.edges) for c in comps) == len(mix.graph.edges)
        assert frozenset().union(*(c.edges for c in comps)) == mix.graph.edges
        assert {c.nodes for c in comps} == {g.nodes for g in renamed}

    def test_memo_cold_and_warm_agree_within_maxsize(self):
        chain = rules.explore(casestudies.polymer_model(casestudies.PolymerParams(3)))
        maps = [rules.mixture_from_key(key, chain.counts, chain.interface)
                for key in chain.space.states]
        memo = sitegraph._concrete_key
        memo.cache_clear()
        cold = [species_census(bonds) for bonds in maps]
        after_cold = memo.cache_info()
        warm = [species_census(bonds) for bonds in maps]
        after_warm = memo.cache_info()
        assert warm == cold
        assert after_warm.misses == after_cold.misses  # the warm pass keys nothing anew
        assert 0 < after_warm.currsize <= after_warm.maxsize
        # each cold census against components keyed one by one, with no memo
        for bonds, census in zip(maps, cold):
            assert census == Counter(sitegraph._component_key(bonds, nodes)
                                     for nodes in sitegraph.components(bonds))

