import itertools
from collections import Counter
from math import factorial

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import LOCAL_VIEW_MAPS, bond_maps, key_mixture, local_view_census, row_bond_maps

from lumpkit import casestudies, cli, dsl, rules, sitegraph
from lumpkit.errors import InvalidArgs, InvalidCounts
from lumpkit.sitegraph import SiteGraph, make_mixture, species_census

POLYMER = casestudies.POLYMER_INTERFACE


def edge(v1, s1, v2, s2):
    return frozenset(((v1, s1), (v2, s2)))


def scaffold_chain(na, nb, nc):
    return rules.explore(casestudies.scaffold_model(
        casestudies.ScaffoldParams(na, nb, nc)))


def polymer_chain(n):
    return rules.explore(casestudies.polymer_model(casestudies.PolymerParams(n)))


def chain_shapes(chain):
    """The oracle's shape census of each state of a polymer chain, read off
    the mixture that the state's key names."""
    return [oracle.polymer_shapes(key_mixture(key, POLYMER, chain.counts))
            for key in chain.space.states]


def fiber_sizes(chain, phi):
    sizes = {}
    for bonds in bond_maps(chain):
        v = phi(bonds)
        sizes[v] = sizes.get(v, 0) + 1
    return sizes


def phi1_size_oracle(phi1_value, n):
    """Sequential-choice count of mixtures with the given component census:
    pick the components one at a time from the remaining node pools, divide
    by count! per repeated class."""
    m_a = m_b = n
    total = 1
    for (kind, idx), count in phi1_value:
        for _ in range(count):
            if kind in ("ChainAB", "ChainBA"):
                total *= casestudies.polymer_count_f(1, m_a, m_b, idx)
                use_a, use_b = idx, idx
            elif kind == "ChainAA":
                total *= casestudies.polymer_count_f(2, m_a, m_b, idx)
                use_a, use_b = idx, idx - 1
            elif kind == "ChainBB":
                total *= casestudies.polymer_count_f(2, m_b, m_a, idx)
                use_a, use_b = idx - 1, idx
            else:  # Ring
                total *= casestudies.polymer_count_f(3, m_a, m_b, idx)
                use_a, use_b = idx, idx
            m_a -= use_a
            m_b -= use_b
        total //= factorial(count)
    return total


class TestModelText:
    """Each case study is its model text, parsed: printing it gives the text
    back, with every rate as exactly the float it was given."""

    SCAFFOLD = ("node A { sites: b }\nnode B { sites: a, c }\nnode C { sites: b }\n\n"
                "rule r1: A(b), B(a) -> A(b!1), B(a!1) @ 1.5\n"
                "rule r2: B(c), C(b) -> B(c!1), C(b!1) @ 5e-324\n"
                "rule r3: A(b!1), B(a!1) -> A(b), B(a) @ 1.7e+308\n"
                "rule r4: B(c!1), C(b!1) -> B(c), C(b) @ 0.1\n\n"
                "init: A*2, B*3, C*4\n")
    POLYMER = ("node A { sites: b, r }\nnode B { sites: a, l }\n\n"
               "rule bind_ba: A(b), B(a) -> A(b!1), B(a!1) @ 0.0\n"
               "rule unbind_ba: A(b!1), B(a!1) -> A(b), B(a) @ 1e-300\n"
               "rule bind_rl: A(r), B(l) -> A(r!1), B(l!1) @ 1.0\n"
               "rule unbind_rl: A(r!1), B(l!1) -> A(r), B(l) @ 0.7\n\n"
               "init: A*3, B*3\n")

    @pytest.mark.parametrize("number", [float, np.float64])
    def test_printed_text(self, number):
        # numpy prints np.float64(1.5), which the parser refuses
        scaffold = casestudies.scaffold_model(casestudies.ScaffoldParams(
            2, 3, 4, *map(number, (1.5, 5e-324, 1.7e308, 0.1))))
        polymer = casestudies.polymer_model(casestudies.PolymerParams(
            3, *map(number, (0.0, 1e-300, 1, 0.7))))
        assert dsl.print_model(scaffold) == self.SCAFFOLD
        assert dsl.print_model(polymer) == self.POLYMER
        assert [rule.rate for rule in scaffold.rules] == [1.5, 5e-324, 1.7e308, 0.1]
        assert [rule.rate for rule in polymer.rules] == [0.0, 1e-300, 1.0, 0.7]

    def test_interfaces_and_counts(self):
        scaffold = casestudies.scaffold_model(casestudies.ScaffoldParams(2, 3, 4))
        polymer = casestudies.polymer_model(casestudies.PolymerParams(3))
        assert scaffold.interface == casestudies.SCAFFOLD_INTERFACE
        assert polymer.interface == casestudies.POLYMER_INTERFACE
        assert list(scaffold.initial.counts.items()) == [("A", 2), ("B", 3), ("C", 4)]
        assert list(polymer.initial.counts.items()) == [("A", 3), ("B", 3)]

    def test_no_hand_built_rules(self):
        for name in ("_pair_rule", "RewriteRule", "SiteGraph", "make_edge", "make_mixture"):
            assert not hasattr(casestudies, name), name


class TestScaffoldModel:
    def test_reversible(self):
        assert oracle.is_reversible(casestudies.scaffold_model(
            casestudies.ScaffoldParams(1, 1, 1, 2.0, 3.0, 4.0, 5.0)))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            casestudies.ScaffoldParams(0, 1, 1)
        for rate in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                casestudies.ScaffoldParams(1, 1, 1, c1=rate)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                casestudies.ScaffoldParams(1, 1, 1, c4=rate)

    def test_state_counts_against_exploration(self):
        for n in (1, 2):
            chain = rules.explore(casestudies.scaffold_model(
                casestudies.ScaffoldParams(n, n, n)))
            phi1_blocks = len(fiber_sizes(chain, casestudies.scaffold_phi1))
            phi2_blocks = len(fiber_sizes(chain, casestudies.scaffold_phi2))
            assert (phi1_blocks, phi2_blocks) == casestudies.scaffold_state_counts(n)

    def test_state_count_formulas(self):
        assert casestudies.scaffold_state_counts(0) == (1, 1)
        assert casestudies.scaffold_state_counts(1) == (4, 4)
        assert casestudies.scaffold_state_counts(2) == (10, 9)


class TestScaffoldPhis:
    def test_phi_values_on_handmade_mixtures(self):
        iface = casestudies.SCAFFOLD_INTERFACE
        both = make_mixture(iface, {"A": 1, "B": 3, "C": 1},
                            [edge("A#1", "b", "B#1", "a"),
                             edge("B#1", "c", "C#1", "b")])
        assert casestudies.scaffold_phi1(both.graph.bonds()) == (0, 0, 1)
        assert casestudies.scaffold_phi2(both.graph.bonds()) == (1, 1)
        split = make_mixture(iface, {"A": 1, "B": 3, "C": 1},
                             [edge("A#1", "b", "B#1", "a"),
                              edge("B#2", "c", "C#1", "b")])
        assert casestudies.scaffold_phi1(split.graph.bonds()) == (1, 1, 0)
        assert casestudies.scaffold_phi2(split.graph.bonds()) == (1, 1)

    def test_phi1_fibers_match_species_census(self):
        # scaffold_phi1 reads B's two sites, the polymer oracle each
        # component's shape: neither keys a component
        cases = [(chain, [casestudies.scaffold_phi1(bonds) for bonds in bond_maps(chain)])
                 for chain in (scaffold_chain(*counts)
                               for counts in ((1, 1, 1), (1, 3, 1), (2, 2, 2)))]
        cases += [(chain, chain_shapes(chain)) for chain in map(polymer_chain, (2, 3))]
        for chain, phi1_values in cases:
            by_phi1 = {}
            by_census = {}
            for i, (value, bonds) in enumerate(zip(phi1_values, bond_maps(chain))):
                by_phi1.setdefault(value, set()).add(i)
                key = tuple(sorted(species_census(bonds).items()))
                by_census.setdefault(key, set()).add(i)
            assert set(map(frozenset, by_phi1.values())) == set(
                map(frozenset, by_census.values()))


def scaffold_phis_by_node(mix):
    """scaffold_phi1 and scaffold_phi2 read, as they first were, off each B
    node's two sites in the mixture's bound endpoints."""
    bound = mix.graph.bound_endpoints()
    flags = [((v, "a") in bound, (v, "c") in bound)
             for v in sorted(mix.graph.nodes) if sitegraph.node_type(v) == "B"]
    phi1 = (sum(a and not c for a, c in flags), sum(c and not a for a, c in flags),
            sum(a and c for a, c in flags))
    phi2 = (sum(a for a, _ in flags), sum(c for _, c in flags))
    return phi1, phi2


class TestScaffoldPhisAgainstPerNodeReading:
    @pytest.mark.parametrize("counts", [(2, 3, 2), (3, 3, 3)])
    def test_every_explored_mixture(self, counts):
        chain = scaffold_chain(*counts)
        for key, bonds in zip(chain.space.states, bond_maps(chain)):
            mix = key_mixture(key, casestudies.SCAFFOLD_INTERFACE, chain.counts)
            assert (casestudies.scaffold_phi1(bonds),
                    casestudies.scaffold_phi2(bonds)) == scaffold_phis_by_node(mix)

    @pytest.mark.parametrize("edges", [
        [],
        [edge("A#1", "b", "B#2", "a")],
        [edge("B#3", "c", "C#2", "b")],
        [edge("A#1", "b", "B#1", "a"), edge("A#2", "b", "B#2", "a")],
        [edge("B#1", "c", "C#1", "b"), edge("B#3", "c", "C#2", "b")],
        [edge("A#1", "b", "B#1", "a"), edge("B#1", "c", "C#1", "b"),
         edge("A#2", "b", "B#3", "a")],
        # bonds that the scaffold rules never make
        [edge("A#1", "b", "C#1", "b")],
        [edge("A#1", "b", "B#2", "c"), edge("B#1", "a", "C#2", "b")],
    ])
    def test_bonds_on_one_side_of_b(self, edges):
        mix = make_mixture(casestudies.SCAFFOLD_INTERFACE, {"A": 2, "B": 3, "C": 2}, edges)
        bonds = mix.graph.bonds()
        assert (casestudies.scaffold_phi1(bonds),
                casestudies.scaffold_phi2(bonds)) == scaffold_phis_by_node(mix)


def set_scaffold_phis(bonds):
    """scaffold_phi1 and scaffold_phi2 as sets of B instances bound on a
    and on c, each bond's node typed by node_type."""
    bound = {"a": set(), "c": set()}
    for v, sites in bonds.items():
        for s, _ in sites:
            if s in bound and sitegraph.node_type(v) == "B":
                bound[s].add(v)
    on_a, on_c = bound["a"], bound["c"]
    both = len(on_a & on_c)
    return (len(on_a) - both, len(on_c) - both, both), (len(on_a), len(on_c))


def ends_polymer_phi2(bonds):
    """polymer_phi2 from the list of every bond end's (site, partner site)."""
    ends = [(s, t) for sites in bonds.values() for s, (_, t) in sites]
    m_rl = sum(1 for end in ends if end in (("r", "l"), ("l", "r"))) // 2
    return (m_rl, len(ends) // 2 - m_rl)


NAMES = ["A#1", "A#2", "B#1", "B#2", "B#3", "C#1", "B", "A", "Bx#1", "B#x#y", "D#1", "b#1"]
SITES = ["a", "b", "c", "l", "r", "z", "A", "aa"]


@st.composite
def foreign_bond_maps(draw):
    """Bond maps in site order over case-study, bare, foreign and look-alike
    instances and sites; a site may appear twice and a bond at one end only."""
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=8))
    end = st.tuples(st.sampled_from(SITES), st.tuples(st.sampled_from(NAMES),
                                                       st.sampled_from(SITES)))
    return {v: tuple(sorted(draw(st.lists(end, max_size=4)))) for v in names}


class TestMapsAgainstTheirFirstFormulas:
    @settings(max_examples=300, deadline=None)
    @given(foreign_bond_maps())
    def test_on_arbitrary_bond_maps(self, bonds):
        assert (casestudies.scaffold_phi1(bonds),
                casestudies.scaffold_phi2(bonds)) == set_scaffold_phis(bonds)
        assert casestudies.polymer_phi2(bonds) == ends_polymer_phi2(bonds)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_on_every_explored_state(self, n):
        for chain in (scaffold_chain(n, n, n), polymer_chain(n)):
            for bonds in row_bond_maps(chain):
                assert (casestudies.scaffold_phi1(bonds),
                        casestudies.scaffold_phi2(bonds)) == set_scaffold_phis(bonds)
                assert casestudies.polymer_phi2(bonds) == ends_polymer_phi2(bonds)


# instance names by type, with bare and look-alike names: "B" and "B#x#y"
# are of type B, "BX#1" of type BX
TYPED_NAMES = {"A": ("A#1", "A#2", "A"), "B": ("B#1", "B#2", "B#3", "B", "B#x#y"),
               "BX": ("BX#1", "BX#2"), "C": ("C#1", "C#2"), "D": ("D#1", "D#2")}


@st.composite
def typed_bond_maps(draw):
    """Bond maps in site order over the names of TYPED_NAMES and foreign
    sites; a site may appear twice and a bond at one end only."""
    pool = [v for names in TYPED_NAMES.values() for v in names]
    names = draw(st.lists(st.sampled_from(pool), unique=True, max_size=8))
    end = st.tuples(st.sampled_from(SITES), st.tuples(st.sampled_from(pool),
                                                       st.sampled_from(SITES)))
    return {v: tuple(sorted(draw(st.lists(end, max_size=4)))) for v in names}


def in_site_order(bonds):
    return {v: tuple(sorted(sites)) for v, sites in bonds.items()}


@st.composite
def renamed(draw, bonds):
    """bonds with its instances renamed by a permutation of each type's names."""
    rename = {}
    for names in TYPED_NAMES.values():
        rename.update(zip(names, draw(st.permutations(names))))
    return in_site_order({rename[v]: tuple((s, (rename[w], t)) for s, (w, t) in sites)
                          for v, sites in bonds.items()})


@st.composite
def swapped(draw):
    """A drawn bond map with two bonds of one kind (type.site-type.site)
    added, u.s-x.t and v.s-y.t, and the same map with them as u.s-y.t and
    v.s-x.t; the bonds are listed at both ends or at the first only."""
    bonds = draw(typed_bond_maps())
    kind = st.sampled_from(sorted(TYPED_NAMES))
    pair = kind.flatmap(lambda t: st.lists(st.sampled_from(TYPED_NAMES[t]), min_size=2,
                                           max_size=2, unique=True))
    (u, v), (x, y) = draw(pair), draw(pair)
    s, t = draw(st.sampled_from(SITES)), draw(st.sampled_from(SITES))
    both = draw(st.booleans())

    def with_bonds(*added):
        new = {w: list(sites) for w, sites in bonds.items()}
        for (a, p), (b, q) in added:
            new.setdefault(a, []).append((p, (b, q)))
            if both:
                new.setdefault(b, []).append((q, (a, p)))
        return in_site_order(new)

    return (with_bonds(((u, s), (x, t)), ((v, s), (y, t))),
            with_bonds(((u, s), (y, t)), ((v, s), (x, t))))


class TestDeclaredMapsReadOnlyLocalViews:
    """The promise of ``rules.reads_local_views``: each declared map keeps
    its value wherever the local-view census does."""

    @staticmethod
    def same_values(bonds, other):
        assert local_view_census(other) == local_view_census(bonds)
        for name, phi in LOCAL_VIEW_MAPS.items():
            assert phi(other) == phi(bonds), name

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_under_renaming(self, data):
        bonds = data.draw(typed_bond_maps())
        self.same_values(bonds, data.draw(renamed(bonds)))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_under_swapped_partners(self, data):
        bonds, other = data.draw(swapped())
        self.same_values(bonds, other)
        self.same_values(bonds, data.draw(renamed(other)))


def reference_species(mix):
    return tuple(sorted(Counter(sitegraph.canonical_key(c)
                                for c in oracle.connected_components(mix.graph)).items()))


class TestPhisAgainstMixtureReference:
    """Each phi of cli._PHI_FUNCS on the bond map decoded from every state
    key, against the same phi computed the reference way on the mixture
    make_mixture builds from the key's edges: connected_components with
    canonical_key or polymer_classify, and the mixture's edges."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_polymer(self, n):
        phi = cli._PHI_FUNCS
        chain = polymer_chain(n)
        for key, bonds, shapes in zip(chain.space.states, bond_maps(chain),
                                      chain_shapes(chain)):
            mix = key_mixture(key, POLYMER, chain.counts)
            edges = mix.graph.edges
            m_rl = sum(1 for e in edges if {s for _, s in e} == {"r", "l"})
            species = reference_species(mix)
            # one species per component shape, with the same multiplicities
            assert sorted(k for _, k in species) == sorted(k for _, k in shapes)
            assert phi["polymer-phi1"](bonds) == species
            assert phi["polymer-phi2"](bonds) == (m_rl, len(edges) - m_rl)
            assert phi["polymer-phi3"](bonds) == len(edges)
            assert phi["species"](bonds) == reference_species(mix)

    @pytest.mark.parametrize("counts", itertools.product((1, 2, 3), repeat=3),
                             ids=lambda c: "".join(map(str, c)))
    def test_scaffold(self, counts):
        phi = cli._PHI_FUNCS
        chain = scaffold_chain(*counts)
        for key, bonds in zip(chain.space.states, bond_maps(chain)):
            mix = key_mixture(key, casestudies.SCAFFOLD_INTERFACE, chain.counts)
            assert (phi["scaffold-phi1"](bonds),
                    phi["scaffold-phi2"](bonds)) == scaffold_phis_by_node(mix)
            assert phi["species"](bonds) == reference_species(mix)


class TestScaffoldClassSizes:
    def test_known_small_case_sizes(self):
        p = casestudies.ScaffoldParams(1, 3, 1)
        assert casestudies.scaffold_class_size_phi1((1, 0, 0), p) == 3
        assert casestudies.scaffold_class_size_phi1((1, 1, 0), p) == 6
        assert casestudies.scaffold_class_size_phi1((0, 0, 1), p) == 3
        assert casestudies.scaffold_class_size_phi2((1, 0), p) == 3
        assert casestudies.scaffold_class_size_phi2((1, 1), p) == 9

    def test_infeasible_counts_rejected(self):
        p = casestudies.ScaffoldParams(1, 3, 1)
        with pytest.raises(InvalidCounts):
            casestudies.scaffold_class_size_phi1((2, 0, 0), p)
        with pytest.raises(InvalidCounts):
            casestudies.scaffold_class_size_phi2((2, 0), p)

    @pytest.mark.parametrize("counts", [(1, 3, 1), (2, 2, 2)])
    def test_sizes_match_enumeration(self, counts):
        p = casestudies.ScaffoldParams(*counts)
        chain = scaffold_chain(*counts)
        for v, size in fiber_sizes(chain, casestudies.scaffold_phi1).items():
            assert casestudies.scaffold_class_size_phi1(v, p) == size
        for v, size in fiber_sizes(chain, casestudies.scaffold_phi2).items():
            assert casestudies.scaffold_class_size_phi2(v, p) == size

    def test_totals_agree(self):
        p = casestudies.ScaffoldParams(2, 2, 2)
        chain = scaffold_chain(2, 2, 2)
        phi1_total = sum(fiber_sizes(chain, casestudies.scaffold_phi1).values())
        phi2_total = sum(fiber_sizes(chain, casestudies.scaffold_phi2).values())
        assert phi1_total == phi2_total == len(chain.space)

    def test_nesting_sum_identity(self):
        # phi2 = (m_AB + m_ABC, m_BC + m_ABC) composed with phi1
        p = casestudies.ScaffoldParams(1, 3, 1)
        chain = scaffold_chain(1, 3, 1)
        phi2_sizes = fiber_sizes(chain, casestudies.scaffold_phi2)
        for (i, j), size in phi2_sizes.items():
            total = 0
            for v in fiber_sizes(chain, casestudies.scaffold_phi1):
                m_ab, m_bc, m_abc = v
                if (m_ab + m_abc, m_bc + m_abc) == (i, j):
                    total += casestudies.scaffold_class_size_phi1(v, p)
            assert total == casestudies.scaffold_class_size_phi2((i, j), p) == size


class TestPolymerModel:
    def test_reversible(self):
        assert oracle.is_reversible(casestudies.polymer_model(
            casestudies.PolymerParams(2, 1.0, 2.0, 3.0, 4.0)))

    def test_n1_four_states(self):
        chain = polymer_chain(1)
        assert len(chain.space) == 4
        edge_counts = sorted(sum(map(len, b.values())) // 2 for b in bond_maps(chain))
        assert edge_counts == [0, 1, 1, 2]

    def test_n2_state_count(self):
        assert len(polymer_chain(2).space) == 49

    def test_param_validation(self):
        with pytest.raises(ValueError):
            casestudies.PolymerParams(0)
        for rate in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                casestudies.PolymerParams(1, bind_ba=rate)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                casestudies.PolymerParams(1, unbind_rl=rate)


class TestPolymerClassify:
    def test_single_free_a(self):
        g = SiteGraph(frozenset({"A#1"}), {"A#1": POLYMER["A"]}, frozenset())
        cls = oracle.polymer_classify(g)
        assert cls.kind == "ChainAA" and cls.length_index == 1

    def test_dimer_is_chain_ba(self):
        g = SiteGraph(frozenset({"A#1", "B#1"}),
                      {"A#1": POLYMER["A"], "B#1": POLYMER["B"]},
                      frozenset({edge("A#1", "b", "B#1", "a")}))
        cls = oracle.polymer_classify(g)
        assert cls.kind == "ChainBA" and cls.length_index == 1

    def test_double_bond_is_ring(self):
        g = SiteGraph(frozenset({"A#1", "B#1"}),
                      {"A#1": POLYMER["A"], "B#1": POLYMER["B"]},
                      frozenset({edge("A#1", "b", "B#1", "a"),
                                 edge("A#1", "r", "B#1", "l")}))
        cls = oracle.polymer_classify(g)
        assert cls.kind == "Ring" and cls.length_index == 1

    def test_foreign_node_type_rejected(self):
        g = SiteGraph(frozenset({"X#1"}), {"X#1": frozenset({"s"})}, frozenset())
        with pytest.raises(oracle.NotPolymerComponent):
            oracle.polymer_classify(g)

    @staticmethod
    def polymer_graph(nodes, edges, interface=POLYMER):
        return SiteGraph(frozenset(nodes), {v: interface[sitegraph.node_type(v)] for v in nodes},
                         frozenset(edges))

    def test_rl_dimer_is_chain_ab(self):
        g = self.polymer_graph({"A#1", "B#1"}, {edge("A#1", "r", "B#1", "l")})
        assert oracle.polymer_classify(g) == oracle.ComponentClass("ChainAB", 1)

    def test_chain_bb_counts_b_nodes(self):
        g = self.polymer_graph({"A#1", "B#1", "B#2"}, {edge("A#1", "b", "B#1", "a"),
                                                       edge("A#1", "r", "B#2", "l")})
        assert oracle.polymer_classify(g) == oracle.ComponentClass("ChainBB", 2)

    def test_ring_of_two(self):
        g = self.polymer_graph({"A#1", "A#2", "B#1", "B#2"}, {
            edge("A#1", "b", "B#1", "a"), edge("B#1", "l", "A#2", "r"),
            edge("A#2", "b", "B#2", "a"), edge("B#2", "l", "A#1", "r")})
        assert oracle.polymer_classify(g) == oracle.ComponentClass("Ring", 2)

    @pytest.mark.parametrize("nodes, edges, interface, message", [
        # two free monomers in one graph, with all their sites, then with one each
        ({"A#1", "B#1"}, set(), POLYMER, "component has 4 free sites"),
        ({"A#1", "B#1"}, set(), {"A": {"r"}, "B": {"a"}},
         "free sites ['a', 'r'] match no chain kind"),
        # no free site, but one A and no B
        ({"A#1"}, set(), {"A": set()}, "ring shape mismatch"),
        # no free site and one A per B, but one bond where a ring has two
        ({"A#1", "B#1"}, {edge("A#1", "b", "B#1", "a")}, {"A": {"b"}, "B": {"a"}},
         "ring shape mismatch"),
    ])
    def test_not_polymer_component(self, nodes, edges, interface, message):
        g = self.polymer_graph(nodes, edges, interface)
        with pytest.raises(oracle.NotPolymerComponent) as exc:
            oracle.polymer_classify(g)
        assert str(exc.value) == message


class TestPolymerPhis:
    def test_phi1_ring_and_two_chains(self):
        mix = make_mixture(POLYMER, {"A": 5, "B": 5}, [
            # ring of two
            edge("A#1", "b", "B#1", "a"), edge("B#1", "l", "A#2", "r"),
            edge("A#2", "b", "B#2", "a"), edge("B#2", "l", "A#1", "r"),
            # B#3-A#3-B#4
            edge("A#3", "b", "B#3", "a"), edge("A#3", "r", "B#4", "l"),
            # A#4-B#5-A#5
            edge("A#4", "b", "B#5", "a"), edge("B#5", "l", "A#5", "r")])
        assert oracle.polymer_shapes(mix) == (
            (("ChainAA", 2), 1), (("ChainBB", 2), 1), (("Ring", 2), 1))
        # the census tells the three shapes apart, the two chains of three included
        census = cli._PHI_FUNCS["polymer-phi1"](mix.graph.bonds())
        assert census == reference_species(mix)
        assert [k for _, k in census] == [1, 1, 1]

    def test_trivial_values(self):
        free = make_mixture(POLYMER, {"A": 2, "B": 2}).graph.bonds()
        assert casestudies.polymer_phi2(free) == (0, 0)
        assert casestudies.polymer_phi3(free) == 0
        single = make_mixture(POLYMER, {"A": 2, "B": 2},
                              [edge("A#1", "b", "B#1", "a")]).graph.bonds()
        assert casestudies.polymer_phi2(single) == (0, 1)
        assert casestudies.polymer_phi3(single) == 1
        ring = make_mixture(POLYMER, {"A": 2, "B": 2},
                            [edge("A#1", "b", "B#1", "a"),
                             edge("A#1", "r", "B#1", "l")]).graph.bonds()
        assert casestudies.polymer_phi2(ring) == (1, 1)
        assert casestudies.polymer_phi3(ring) == 2

    @pytest.mark.parametrize("n", [1, 2])
    def test_block_counts(self, n):
        chain = polymer_chain(n)
        phi2_blocks = len(fiber_sizes(chain, casestudies.polymer_phi2))
        phi3_blocks = len(fiber_sizes(chain, casestudies.polymer_phi3))
        assert (phi2_blocks, phi3_blocks) == casestudies.polymer_state_counts(n)

    def test_species_census_lower_bound(self):
        chain = polymer_chain(2)
        census_blocks = {
            tuple(sorted(species_census(bonds).items())) for bonds in bond_maps(chain)}
        assert len(census_blocks) >= 3 * casestudies.partition_number(2)


class TestPolymerCounts:
    def test_f_values(self):
        assert casestudies.polymer_count_f(1, 1, 1, 1) == 1
        assert casestudies.polymer_count_f(1, 2, 2, 1) == 4
        assert casestudies.polymer_count_f(3, 1, 1, 1) == 1
        assert casestudies.polymer_count_f(2, 2, 2, 1) == 2

    def test_f_arg_validation(self):
        with pytest.raises(InvalidArgs):
            casestudies.polymer_count_f(2, 2, 2, 0)
        with pytest.raises(InvalidArgs):
            casestudies.polymer_count_f(3, 2, 2, 0)
        with pytest.raises(InvalidArgs):
            casestudies.polymer_count_f(4, 1, 1, 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_phi1_fiber_sizes_from_f_functions(self, n):
        # each polymer-phi1 fiber holds one shape census, and all of its mixtures
        chain = polymer_chain(n)
        fibers = {}
        for bonds, shapes in zip(bond_maps(chain), chain_shapes(chain)):
            fibers.setdefault(cli._PHI_FUNCS["polymer-phi1"](bonds), []).append(shapes)
        for shapes in fibers.values():
            assert len(set(shapes)) == 1
            assert phi1_size_oracle(shapes[0], n) == len(shapes)

    @pytest.mark.parametrize("n", [1, 2])
    def test_phi2_phi3_sizes_match_enumeration(self, n):
        chain = polymer_chain(n)
        for (m_rl, m_ba), size in fiber_sizes(chain, casestudies.polymer_phi2).items():
            assert casestudies.polymer_class_size_phi2(m_rl, m_ba, n) == size
        for m, size in fiber_sizes(chain, casestudies.polymer_phi3).items():
            assert casestudies.polymer_class_size_phi3(m, n) == size

    def test_class_size_examples(self):
        assert casestudies.polymer_class_size_phi2(0, 0, 3) == 1
        assert casestudies.polymer_class_size_phi3(1, 1) == 2

    def test_phi3_sum_identity(self):
        for n in (1, 2, 3):
            total3 = sum(casestudies.polymer_class_size_phi3(m, n)
                         for m in range(2 * n + 1))
            total2 = sum(casestudies.polymer_class_size_phi2(i, j, n)
                         for i in range(n + 1) for j in range(n + 1))
            assert total3 == total2

    def test_state_count_formulas(self):
        assert casestudies.polymer_state_counts(0) == (1, 1)
        assert casestudies.polymer_state_counts(2) == (9, 5)

    def test_partition_numbers(self):
        values = [casestudies.partition_number(n) for n in range(7)]
        assert values == [1, 1, 2, 3, 5, 7, 11]

    @pytest.mark.parametrize("count", [
        lambda: casestudies.scaffold_state_counts(-1),
        lambda: casestudies.polymer_state_counts(-1),
        lambda: casestudies.partition_number(-1),
        lambda: casestudies.polymer_count_f(1, -1, 1, 0),
        lambda: casestudies.polymer_class_size_phi2(3, 0, 2),
        lambda: casestudies.polymer_class_size_phi3(5, 2),
    ], ids=["scaffold-states", "polymer-states", "partition-number", "f-negative",
            "phi2-size", "phi3-size"])
    def test_arguments_out_of_range_rejected(self, count):
        with pytest.raises(InvalidArgs):
            count()
