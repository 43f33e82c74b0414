import pytest

from lumpkit import casestudies, dsl, rules
from lumpkit.errors import (
    ModelSyntaxError,
    RepeatedNodeTypeInRule,
    UnbalancedBond,
    UndeclaredSite,
)
from lumpkit.sitegraph import make_mixture

SCAFFOLD_TEXT = """\
# two independent binding sites on B
node A { sites: b }
node B { sites: a, c }
node C { sites: b }

rule r1: A(b), B(a) -> A(b!1), B(a!1) @ 2.0
rule r2: B(c), C(b) -> B(c!1), C(b!1) @ 3.0
rule r3: A(b!1), B(a!1) -> A(b), B(a) @ 0.5
rule r4: B(c!1), C(b!1) -> B(c), C(b) @ 0.25

init: A*1, B*3, C*1
"""


class TestParsing:
    def test_scaffold_fixture(self):
        model = dsl.parse_model(SCAFFOLD_TEXT)
        assert len(model.rules) == 4
        assert [r.name for r in model.rules] == ["r1", "r2", "r3", "r4"]
        assert model.initial.counts == {"A": 1, "B": 3, "C": 1}
        assert not model.initial.graph.edges

    def test_matches_builder(self):
        parsed = dsl.parse_model(SCAFFOLD_TEXT)
        built = casestudies.scaffold_model(
            casestudies.ScaffoldParams(1, 3, 1, 2.0, 3.0, 0.5, 0.25))
        assert parsed.rules == built.rules
        assert parsed.initial.graph == built.initial.graph

    def test_explored_chains_identical(self):
        parsed = dsl.parse_model(SCAFFOLD_TEXT)
        built = casestudies.scaffold_model(
            casestudies.ScaffoldParams(1, 3, 1, 2.0, 3.0, 0.5, 0.25))
        a = rules.explore(parsed)
        b = rules.explore(built)
        assert a.space.states == b.space.states
        assert a.matrix == b.matrix

    def test_comments_and_blanks_ignored(self):
        text = "# top\n\nnode A { sites: b }  # trailing\n\ninit: A*2\n"
        model = dsl.parse_model(text)
        assert model.initial.counts == {"A": 2}

    def test_fractional_rate(self):
        text = "node A { sites: b }\nnode B { sites: a }\n" \
               "rule r: A(b), B(a) -> A(b!1), B(a!1) @ 1/3\ninit: A*1, B*1\n"
        model = dsl.parse_model(text)
        assert model.rules[0].rate == 1 / 3


class TestErrors:
    def check(self, text, exc, lineno=None):
        with pytest.raises(exc) as err:
            dsl.parse_model(text)
        if lineno is not None:
            assert err.value.line == lineno

    def test_malformed_node(self):
        self.check("node A sites: b\ninit: A*1\n", ModelSyntaxError, 1)

    def test_undeclared_type(self):
        self.check("node A { sites: b }\n"
                   "rule r: X(s) -> X(s) @ 1\ninit: A*1\n", UndeclaredSite, 2)

    def test_undeclared_site(self):
        self.check("node A { sites: b }\n"
                   "rule r: A(z) -> A(z) @ 1\ninit: A*1\n", UndeclaredSite, 2)

    def test_repeated_type_in_rule(self):
        self.check("node A { sites: b }\n"
                   "rule r: A(b), A(b) -> A(b), A(b) @ 1\ninit: A*2\n",
                   RepeatedNodeTypeInRule, 2)

    def test_unbalanced_bond(self):
        self.check("node A { sites: b }\nnode B { sites: a }\n"
                   "rule r: A(b!1), B(a) -> A(b), B(a) @ 1\ninit: A*1, B*1\n",
                   UnbalancedBond, 3)

    def test_bad_rate(self):
        self.check("node A { sites: b }\nnode B { sites: a }\n"
                   "rule r: A(b), B(a) -> A(b!1), B(a!1) @ fast\n"
                   "init: A*1, B*1\n", ModelSyntaxError, 3)

    def test_sides_must_match(self):
        self.check("node A { sites: b }\nnode B { sites: a }\n"
                   "rule r: A(b) -> A(b!1), B(a!1) @ 1\ninit: A*1, B*1\n",
                   ModelSyntaxError, 3)

    @pytest.mark.parametrize("rate", ["-1", "1e400"])
    def test_rate_refused_at_its_line(self, rate):
        # 1e400 is past the float range
        self.check("node A { sites: b }\nnode B { sites: a }\n"
                   f"rule r: A(b), B(a) -> A(b!1), B(a!1) @ {rate}\ninit: A*1, B*1\n",
                   ModelSyntaxError, 3)

    def test_missing_init(self):
        self.check("node A { sites: b }\n", ModelSyntaxError)

    def test_duplicate_init(self):
        self.check("node A { sites: b }\ninit: A*1\ninit: A*2\n",
                   ModelSyntaxError, 3)

    def test_init_type_counted_twice(self):
        # the last count would win silently
        self.check("node A { sites: b }\nnode B { sites: a }\ninit: A*1, B*1, A*2\n",
                   ModelSyntaxError, 3)

    def test_site_declared_twice(self):
        # as a pattern naming a site twice is refused, not read once
        self.check("node A { sites: b, b }\ninit: A*1\n", ModelSyntaxError, 1)
        self.check("node A { sites: b, c, b }\ninit: A*1\n", ModelSyntaxError, 1)

    def test_rule_declared_twice(self):
        # two rules of one name would share their edge labels
        text = ("node A { sites: b }\nnode B { sites: a }\n"
                "rule r: A(b), B(a) -> A(b!1), B(a!1) @ 1\n"
                "rule r: A(b!1), B(a!1) -> A(b), B(a) @ 1\ninit: A*1, B*1\n")
        self.check(text, ModelSyntaxError, 4)
        with pytest.raises(ModelSyntaxError, match="rule 'r' declared twice"):
            dsl.parse_model(text)

    def test_unknown_line(self):
        self.check("frobnicate\n", ModelSyntaxError, 1)


class TestPrinting:
    def test_round_trip_scaffold(self):
        model = dsl.parse_model(SCAFFOLD_TEXT)
        text = dsl.print_model(model)
        again = dsl.parse_model(text)
        assert again.rules == model.rules
        assert again.initial.graph == model.initial.graph
        assert again.interface == model.interface

    def test_round_trip_polymer(self):
        model = casestudies.polymer_model(
            casestudies.PolymerParams(2, 1.0, 2.0, 0.5, 0.125))
        again = dsl.parse_model(dsl.print_model(model))
        assert again.rules == model.rules
        assert again.initial.graph == model.initial.graph

    def test_print_is_stable(self):
        model = dsl.parse_model(SCAFFOLD_TEXT)
        once = dsl.print_model(model)
        twice = dsl.print_model(dsl.parse_model(once))
        assert once == twice

    def test_bonded_initial_mixture_refused(self):
        # an init line lists counts only
        iface = casestudies.SCAFFOLD_INTERFACE
        initial = make_mixture(iface, {"A": 1, "B": 1, "C": 1},
                               [frozenset((("A#1", "b"), ("B#1", "a")))])
        model = rules.RuleModel(dsl.parse_model(SCAFFOLD_TEXT).rules, initial, dict(iface))
        with pytest.raises(ValueError, match="edgeless initial mixtures"):
            dsl.print_model(model)
