import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lumpkit import cli, dsl, rules, sitegraph

SCAFFOLD_111 = """\
node A { sites: b }
node B { sites: a, c }
node C { sites: b }
rule r1: A(b), B(a) -> A(b!1), B(a!1) @ 1.0
rule r2: B(c), C(b) -> B(c!1), C(b!1) @ 1.0
rule r3: A(b!1), B(a!1) -> A(b), B(a) @ 1.0
rule r4: B(c!1), C(b!1) -> B(c), C(b) @ 1.0
init: A*1, B*1, C*1
"""

NO_RULES = "node A { sites: b }\ninit: A*3\n"

AB_BINDING = """\
node A { sites: b }
node B { sites: a }
rule bind: A(b), B(a) -> A(b!1), B(a!1) @ 1.0
rule unbind: A(b!1), B(a!1) -> A(b), B(a) @ 1.0
init: A*2, B*2
"""

POLYMER_11 = """\
node A { sites: b, r }
node B { sites: a, l }
rule bind_ba: A(b), B(a) -> A(b!1), B(a!1) @ 1.0
rule unbind_ba: A(b!1), B(a!1) -> A(b), B(a) @ 1.0
init: A*1, B*1
"""


@pytest.fixture
def scaffold_files(tmp_path):
    model = tmp_path / "scaffold.model"
    model.write_text(SCAFFOLD_111)
    chain = tmp_path / "chain.json"
    assert cli.main(["explore", str(model), "--out", str(chain)]) == 0
    return model, chain


def scaffold_131(tmp_path):
    model = tmp_path / "s131.model"
    assert cli.main(["casestudy", "scaffold", "--na", "1", "--nb", "3",
                     "--nc", "1", "--out", str(model)]) == 0
    chain = tmp_path / "s131.json"
    assert cli.main(["explore", str(model), "--out", str(chain)]) == 0
    return model, chain


def replaced_in_keys(old, new):
    return lambda keys: [key.replace(old, new) for key in keys]


def last_two_keys(*keys):
    return lambda states: states[:-2] + list(keys)


class TestExplore:
    def test_four_states(self, scaffold_files):
        _, chain = scaffold_files
        data = json.loads(chain.read_text())
        assert len(data["states"]) == 4
        assert data["kind"] == "rate"

    def test_single_state_without_rules(self, tmp_path):
        model = tmp_path / "empty.model"
        model.write_text(NO_RULES)
        out = tmp_path / "chain.json"
        assert cli.main(["explore", str(model), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["states"]) == 1

    def test_deterministic_output(self, tmp_path):
        model = tmp_path / "scaffold.model"
        model.write_text(SCAFFOLD_111)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        cli.main(["explore", str(model), "--out", str(out1)])
        cli.main(["explore", str(model), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_cap_exit_code(self, tmp_path, capsys):
        model = tmp_path / "scaffold.model"
        model.write_text(SCAFFOLD_111)
        out = tmp_path / "chain.json"
        code = cli.main(["explore", str(model), "--out", str(out),
                         "--max-states", "2"])
        assert code == 2
        assert "max_states" in capsys.readouterr().err

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 976. MiB"), "error: Unable to allocate 976. MiB\n"),
        (MemoryError(), "error: out of memory\n")])
    def test_out_of_memory_is_the_cap_exit_code(self, tmp_path, capsys, monkeypatch,
                                                 error, message):
        # one line, not a traceback, and the exit code of the state cap
        def short(*args):
            raise error

        model = tmp_path / "scaffold.model"
        model.write_text(SCAFFOLD_111)
        monkeypatch.setattr(rules, "_applications", short)
        assert cli.main(["explore", str(model), "--out", str(tmp_path / "chain.json")]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "chain.json").exists()

    def test_cap_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LUMPKIT_MAX_STATES", "2")
        model = tmp_path / "scaffold.model"
        model.write_text(SCAFFOLD_111)
        out = tmp_path / "chain.json"
        assert cli.main(["explore", str(model), "--out", str(out)]) == 2

    def test_bad_cap_from_env(self, scaffold_files, tmp_path, monkeypatch, capsys):
        model, chain = scaffold_files
        monkeypatch.setenv("LUMPKIT_MAX_STATES", "abc")
        out = tmp_path / "again.json"
        assert cli.main(["explore", str(model), "--out", str(out)]) == 1
        assert "error: LUMPKIT_MAX_STATES" in capsys.readouterr().err
        assert cli.main(["explore", str(model), "--out", str(out),
                         "--max-states", "4"]) == 0
        assert cli.main(["stationary", str(chain), "--out", str(tmp_path / "mu.csv")]) == 0

    def test_parse_error_exit_code(self, tmp_path, capsys):
        model = tmp_path / "broken.model"
        model.write_text("definitely not a model\n")
        assert cli.main(["explore", str(model), "--out",
                         str(tmp_path / "x.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["explore", str(tmp_path / "missing.model"),
                         "--out", str(tmp_path / "x.json")]) == 1

    def test_chain_file_holds_states_kind_and_triplets(self, scaffold_files):
        # --phi reads the instance counts from --model, so the file carries none
        _, chain = scaffold_files
        assert sorted(json.loads(chain.read_text())) == ["kind", "states", "triplets"]

    def test_dot_export(self, scaffold_files, tmp_path):
        model, _ = scaffold_files
        chain = tmp_path / "c2.json"
        dot = tmp_path / "c2.dot"
        assert cli.main(["explore", str(model), "--out", str(chain),
                         "--dot", str(dot)]) == 0
        states = json.loads(chain.read_text())["states"]
        i, j = states.index("-"), states.index("A#1.b-B#1.a")
        text = dot.read_text()
        assert text.startswith("digraph")
        assert f'  n{i} -> n{j} [label="r1 (1)"];\n' in text

    def test_dot_export_searches_once(self, tmp_path, monkeypatch):
        # the chain and its DOT labels come from one breadth-first search
        model = tmp_path / "p.model"
        assert cli.main(["casestudy", "polymer", "--n", "2", "--out", str(model)]) == 0
        search, calls = rules._applications, []
        monkeypatch.setattr(rules, "_applications",
                            lambda *args: calls.append(args) or search(*args))
        dot = tmp_path / "p.dot"
        assert cli.main(["explore", str(model), "--out", str(tmp_path / "p.json"),
                         "--dot", str(dot)]) == 0
        assert len(calls) == 1
        parsed = dsl.parse_model(model.read_text())
        assert dot.read_text() == "".join(rules.export_dot(*rules.explore_labelled(parsed)))


class TestCheck:
    def test_phi2_holds(self, scaffold_files, capsys):
        model, chain = scaffold_files
        code = cli.main(["check", str(chain), "--phi", "scaffold-phi2",
                         "--model", str(model)])
        assert code == 0
        assert "holds: True" in capsys.readouterr().out

    def test_singleton_partition_holds(self, scaffold_files, tmp_path, capsys):
        _, chain = scaffold_files
        states = json.loads(chain.read_text())["states"]
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"blocks": [[s] for s in states]}))
        code = cli.main(["check", str(chain), "--partition", str(part)])
        assert code == 0
        assert "0.000e+00" in capsys.readouterr().out

    def test_polymer_phi3_violated(self, tmp_path, capsys):
        model = tmp_path / "poly.model"
        assert cli.main(["casestudy", "polymer", "--n", "2", "--rates",
                         "1,1,2,1", "--out", str(model)]) == 0
        chain = tmp_path / "poly.json"
        assert cli.main(["explore", str(model), "--out", str(chain)]) == 0
        code = cli.main(["check", str(chain), "--phi", "polymer-phi3",
                         "--model", str(model)])
        assert code == 3

    def test_phi_without_model_is_input_error(self, scaffold_files):
        _, chain = scaffold_files
        assert cli.main(["check", str(chain), "--phi", "scaffold-phi2"]) == 1

    @pytest.mark.parametrize("text, phi", [
        (SCAFFOLD_111, "polymer-phi1"),
        (SCAFFOLD_111, "polymer-phi3"),
        (AB_BINDING, "polymer-phi1"),
        (AB_BINDING, "scaffold-phi2"),
        (POLYMER_11, "scaffold-phi1"),
    ])
    def test_case_study_phi_refuses_a_foreign_model(self, tmp_path, capsys, text, phi):
        # a bond map carries no interface, so the model's is checked instead
        model = tmp_path / "foreign.model"
        model.write_text(text)
        chain = tmp_path / "foreign.json"
        assert cli.main(["explore", str(model), "--out", str(chain)]) == 0
        capsys.readouterr()
        for command in (["check"], ["aggregate", "--out", str(tmp_path / "agg.json")]):
            argv = [command[0], str(chain), "--phi", phi, "--model", str(model), *command[1:]]
            assert cli.main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"error: --phi {phi} ")
        assert not (tmp_path / "agg.json").exists()
        # each start is edgeless, where the species census is lumpable
        assert cli.main(["check", str(chain), "--phi", "species", "--model", str(model)]) == 0

    @pytest.mark.parametrize("phi", ["polymer-phi2", "species"])
    def test_chain_binding_an_undeclared_site_refused(self, tmp_path, capsys, phi):
        # the keys bind A's site z, which the model does not declare: no
        # verdict on the condition is given for a chain of another model
        model = tmp_path / "p2.model"
        assert cli.main(["casestudy", "polymer", "--n", "2", "--out", str(model)]) == 0
        chain = tmp_path / "p2.json"
        assert cli.main(["explore", str(model), "--out", str(chain)]) == 0
        data = json.loads(chain.read_text())
        data["states"] = [key.replace(".r-", ".z-") for key in data["states"]]
        chain.write_text(json.dumps(data))
        first = next(key for key in data["states"] if ".z-" in key)
        instance = next(part for part in first.split(";") if ".z-" in part).split(".")[0]
        capsys.readouterr()
        assert cli.main(["check", str(chain), "--phi", phi, "--model", str(model)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {chain}: state {first!r} binds site 'z' of "
                                f"{instance}, which the model does not declare\n")

    @pytest.mark.parametrize("command", ["check", "aggregate"])
    def test_partition_and_phi_refused_together(self, tmp_path, capsys, command):
        # given both, the partition file was read and --phi ignored
        model = tmp_path / "p2.model"
        assert cli.main(["casestudy", "polymer", "--n", "2", "--out", str(model)]) == 0
        chain, part = tmp_path / "p2.json", tmp_path / "part.json"
        assert cli.main(["explore", str(model), "--out", str(chain)]) == 0
        assert cli.main(["aggregate", str(chain), "--phi", "polymer-phi2", "--model", str(model),
                         "--out", str(tmp_path / "agg.json"), "--partition-out", str(part)]) == 0
        capsys.readouterr()
        out = tmp_path / "again.json"
        argv = [command, str(chain), "--partition", str(part), "--phi", "species",
                "--model", str(model)] + (["--out", str(out)] if command == "aggregate" else [])
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --phi: not allowed with argument --partition" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "aggregate"])
    def test_model_without_phi_refused(self, scaffold_files, tmp_path, capsys, command):
        # the model was ignored, even when there was no such file
        _, chain = scaffold_files
        states = json.loads(chain.read_text())["states"]
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"blocks": [[s] for s in states]}))
        out = tmp_path / "agg.json"
        argv = [command, str(chain), "--partition", str(part),
                "--model", str(tmp_path / "missing.model")]
        assert cli.main(argv + (["--out", str(out)] if command == "aggregate" else [])) == 1
        assert capsys.readouterr().err == "error: --model is read only with --phi\n"
        assert not out.exists()

    @staticmethod
    def edit_keys(tmp_path, edit):
        """The polymer n=2 model and its chain file with the keys edited;
        returns them and the first edited key."""
        model = tmp_path / "p2.model"
        assert cli.main(["casestudy", "polymer", "--n", "2", "--out", str(model)]) == 0
        chain = tmp_path / "p2.json"
        assert cli.main(["explore", str(model), "--out", str(chain)]) == 0
        data = json.loads(chain.read_text())
        keys = edit(list(data["states"]))
        first = next(new for old, new in zip(data["states"], keys) if new != old)
        data["states"] = keys
        chain.write_text(json.dumps(data))
        return model, chain, first

    @pytest.mark.parametrize("edit, message", [
        (replaced_in_keys("B#2", "B#3"), "names B#3, an instance outside the counts"),
        (replaced_in_keys("B#1.a", "D#1.a"), "names D#1, an instance outside the counts"),
        (replaced_in_keys(".r-", ".z-"),
         "binds site 'z' of {instance}, which the model does not declare"),
        (last_two_keys("A#1.b-B#1.a;A#1.b-B#2.a", "A#1.b-B#1.a;A#2.b-B#1.a"),
         "binds a site twice"),
        (last_two_keys("A#1.b-B#1.a;A#1.b-B#1.a", "A#1.b-B#2.a;A#1.b-B#2.a"),
         "binds a site twice"),
        (replaced_in_keys("A#1.b-B#1.a", "A#1.b-B#1a"), "holds malformed bond 'A#1.b-B#1a'"),
        (last_two_keys("A#1.b-B#1.a;-", "A#1.b-B#2.a;-"), "holds malformed bond '-'"),
        (last_two_keys("", "A#1.b-B#1.a;"), "holds malformed bond ''"),
        (replaced_in_keys("A#1.b-B#1.a", "A#1.b-A#1.a"),
         "holds bond 'A#1.b-A#1.a', which joins a node to itself"),
        # the last state, its part reversed, is state 1's mixture once more
        (lambda keys: keys[:-1] + ["B#1.a-A#1.b"], "encodes the mixture of state 'A#1.b-B#1.a'"),
    ], ids=["instance", "type", "site", "bound-twice", "one-part-twice", "malformed", "dash-part",
            "empty-part", "self-bond", "one-mixture-twice"])
    def test_refused_chain_names_its_first_refused_state(self, tmp_path, capsys, edit, message):
        model, chain, first = self.edit_keys(tmp_path, edit)
        instance = first.split(".")[0]
        capsys.readouterr()
        for phi in ("species", "polymer-phi2"):
            assert cli.main(["check", str(chain), "--phi", phi, "--model", str(model)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {chain}: state {first!r} "
                                    f"{message.format(instance=instance)}\n")

    def test_species_census_decodes_each_part_once(self, tmp_path, capsys, monkeypatch):
        model = tmp_path / "p3.model"
        assert cli.main(["casestudy", "polymer", "--n", "3", "--out", str(model)]) == 0
        chain = tmp_path / "p3.json"
        assert cli.main(["explore", str(model), "--out", str(chain)]) == 0
        keys = json.loads(chain.read_text())["states"]
        decoded, censuses = [], []
        decode, census = rules.mixture_from_key, sitegraph.species_census
        monkeypatch.setattr(rules, "mixture_from_key",
                            lambda *args: decoded.append(args[0]) or decode(*args))
        monkeypatch.setattr(sitegraph, "species_census",
                            lambda bonds: censuses.append(bonds) or census(bonds))
        assert cli.main(["check", str(chain), "--phi", "species", "--model", str(model)]) == 0
        assert decoded == [keys[0]]  # the first state, parsed to check its row
        assert len(censuses) == 46  # once per species census, not once per state

    @pytest.mark.parametrize("n", [2, 3])
    def test_polymer_phi1_is_the_species_census(self, tmp_path, capsys, n):
        model = tmp_path / "poly.model"
        assert cli.main(["casestudy", "polymer", "--n", str(n), "--out", str(model)]) == 0
        chain = tmp_path / "poly.json"
        assert cli.main(["explore", str(model), "--out", str(chain)]) == 0
        capsys.readouterr()
        agg, part, alphas = (tmp_path / name for name in ("agg.json", "part.json", "alphas.json"))
        outputs = []
        for phi in ("polymer-phi1", "species"):
            given = [str(chain), "--phi", phi, "--model", str(model)]
            assert cli.main(["check", *given]) == 0
            assert cli.main(["aggregate", *given, "--out", str(agg), "--partition-out", str(part),
                             "--measures-out", str(alphas)]) == 0
            outputs.append((capsys.readouterr().out, [f.read_bytes() for f in (agg, part, alphas)]))
            for f in (agg, part, alphas):
                f.unlink()
        assert outputs[0] == outputs[1]


class TestLargeBlock:
    def test_one_block_of_a_36217_state_ring(self, tmp_path, capsys):
        # a uniform measure on 36,217 states sums to 1 + 1.0e-12 left to right
        n = 36217
        states = [f"s{i}" for i in range(n)]
        chain, part = tmp_path / "ring.json", tmp_path / "one.json"
        chain.write_text(json.dumps({"states": states, "kind": "rate", "triplets": [
            t for i in range(n) for t in ([i, (i + 1) % n, 1.0], [i, i, -1.0])]}))
        part.write_text(json.dumps({"blocks": [states]}))
        assert cli.main(["check", str(chain), "--partition", str(part)]) == 0
        assert "residual: 0.000e+00" in capsys.readouterr().out
        out = tmp_path / "agg.json"
        assert cli.main(["aggregate", str(chain), "--partition", str(part),
                         "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["states"]) == 1


class TestAggregateAndDistributions:
    def test_aggregate_then_stationary(self, tmp_path, capsys):
        model, chain = scaffold_131(tmp_path)
        agg = tmp_path / "agg.json"
        part = tmp_path / "part.json"
        assert cli.main(["aggregate", str(chain), "--phi", "scaffold-phi2",
                         "--model", str(model), "--out", str(agg),
                         "--partition-out", str(part)]) == 0
        mu = tmp_path / "mu.csv"
        assert cli.main(["stationary", str(agg), "--out", str(mu)]) == 0
        weights = [float(line.split(",")[1])
                   for line in mu.read_text().strip().splitlines()]
        assert abs(sum(weights) - 1.0) < 1e-12

    def test_aggregate_violation_exit_code(self, tmp_path):
        model = tmp_path / "poly.model"
        cli.main(["casestudy", "polymer", "--n", "2", "--out", str(model)])
        chain = tmp_path / "poly.json"
        cli.main(["explore", str(model), "--out", str(chain)])
        assert cli.main(["aggregate", str(chain), "--phi", "polymer-phi3",
                         "--model", str(model),
                         "--out", str(tmp_path / "agg.json")]) == 3

    def test_deaggregate_point_mass_on_nine_state_block(self, tmp_path):
        model, chain = scaffold_131(tmp_path)
        agg = tmp_path / "agg.json"
        part = tmp_path / "part.json"
        cli.main(["aggregate", str(chain), "--phi", "scaffold-phi2",
                  "--model", str(model), "--out", str(agg),
                  "--partition-out", str(part)])
        blocks = json.loads(part.read_text())["blocks"]
        nine = next(i for i, b in enumerate(blocks) if len(b) == 9)
        blockdist = tmp_path / "blocks.csv"
        blockdist.write_text("".join(
            f"block{i},{1.0 if i == nine else 0.0}\n"
            for i in range(len(blocks))))
        out = tmp_path / "lifted.csv"
        assert cli.main(["deaggregate", str(blockdist), "--chain", str(chain),
                         "--partition", str(part), "--out", str(out)]) == 0
        weights = sorted(float(line.split(",")[1])
                         for line in out.read_text().strip().splitlines())
        assert weights[-9:] == [pytest.approx(1 / 9)] * 9
        assert all(w == 0.0 for w in weights[:-9])

    def test_transient_t0_respectful_echoes_lift(self, tmp_path):
        model, chain = scaffold_131(tmp_path)
        agg = tmp_path / "agg.json"
        part = tmp_path / "part.json"
        cli.main(["aggregate", str(chain), "--phi", "scaffold-phi2",
                  "--model", str(model), "--out", str(agg),
                  "--partition-out", str(part)])
        blocks = json.loads(part.read_text())["blocks"]
        blockdist = tmp_path / "blocks.csv"
        blockdist.write_text("".join(
            f"block{i},{1.0 if i == 0 else 0.0}\n" for i in range(len(blocks))))
        out = tmp_path / "dist"
        assert cli.main(["transient", str(chain), "--init",
                         f"respectful:{blockdist}", "--partition", str(part),
                         "--t", "0", "--out", str(out)]) == 0
        produced = (tmp_path / "dist_t0.csv").read_text().strip().splitlines()
        by_state = {line.split(",")[0]: float(line.split(",")[1])
                    for line in produced}
        for key in blocks[0]:
            assert by_state[key] == pytest.approx(1.0 / len(blocks[0]))

    def test_transient_uniform_init(self, scaffold_files, tmp_path):
        _, chain = scaffold_files
        out = tmp_path / "dist"
        assert cli.main(["transient", str(chain), "--init", "uniform",
                         "--t", "0.5,2", "--out", str(out)]) == 0
        assert (tmp_path / "dist_t0.5.csv").exists()
        assert (tmp_path / "dist_t2.csv").exists()


class TestCasestudyCommand:
    def test_scaffold_model_parses_back(self, tmp_path):
        model = tmp_path / "m.model"
        assert cli.main(["casestudy", "scaffold", "--na", "2", "--nb", "2",
                         "--nc", "2", "--rates", "1,2,3,4",
                         "--out", str(model)]) == 0
        text = model.read_text()
        assert "rule r1" in text and "init: A*2, B*2, C*2" in text

    def test_bad_rates_rejected(self, tmp_path, capsys):
        assert cli.main(["casestudy", "polymer", "--n", "1", "--rates", "1,2",
                         "--out", str(tmp_path / "m.model")]) == 1
        assert ("argument --rates: invalid value '1,2': expected four comma-separated rates"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("rates", ["nan,1,1,1", "1,inf,1,1"])
    def test_nonfinite_rate_rejected(self, tmp_path, capsys, rates):
        # the model file would carry the rate and fail only when read back
        model = tmp_path / "m.model"
        assert cli.main(["casestudy", "polymer", "--n", "1", "--rates", rates,
                         "--out", str(model)]) == 1
        assert capsys.readouterr().err.startswith("error: rate must be finite")
        assert not model.exists()


class TestBadInput:
    @pytest.mark.parametrize("argv, message", [
        (["transient", "c.json", "--init", "uniform", "--t", "abc", "--out", "p"],
         "argument --t: invalid"),
        (["explore", "m.model", "--out", "c.json", "--max-states", "x"],
         "argument --max-states: invalid int value: 'x'"),
        (["check", "c.json", "--phi", "nosuch"], "argument --phi: invalid choice: 'nosuch'"),
        (["explore", "m.model"], "the following arguments are required: --out"),
        (["explore"], "the following arguments are required: model, --out"),
        (["check", "c.json", "--partition", "p.json", "--phi", "species"],
         "argument --phi: not allowed with argument --partition"),
        (["transient", "c.json", "--init", "uniform", "--t", "1,,2", "--out", "p"],
         "argument --t: invalid value '1,,2': expected comma-separated times"),
        (["transient", "c.json", "--init", "uniform", "--t", "", "--out", "p"],
         "argument --t: invalid value '': expected comma-separated times"),
        (["casestudy", "polymer", "--n", "2", "--rates", "a,b,c,d", "--out", "m.model"],
         "argument --rates: invalid value 'a,b,c,d': expected four comma-separated rates"),
    ])
    def test_malformed_argument_is_an_input_error(self, capsys, argv, message):
        # argparse alone would exit 2, the code reserved for the state cap
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: lumpkit") and message in err

    @pytest.mark.parametrize("argv, message", [
        (["check", "{chain}"], "supply --partition FILE or --phi NAME"),
        (["transient", "{chain}", "--init", "respectful:{tmp}/blocks.csv", "--t", "1",
          "--out", "{tmp}/p"], "respectful: init requires --partition"),
        (["transient", "{chain}", "--init", "uniform", "--t", "1", "--tol", "0",
          "--out", "{tmp}/p"], "tol must lie in (0, 1)"),
        (["explore", "{model}", "--out", "{tmp}/c.json", "--max-states", "0"],
         "max_states must be at least 1"),
        (["transient", "{chain}", "--init", "uniform", "--t", "1", "--partition",
          "{tmp}/nosuch.json", "--out", "{tmp}/p"],
         "--partition and --measures are read only with --init respectful:FILE"),
        (["transient", "{chain}", "--init", "uniform", "--t", "1", "--measures",
          "{tmp}/nosuch.json", "--out", "{tmp}/p"],
         "--partition and --measures are read only with --init respectful:FILE"),
    ], ids=["no-partition", "respectful-without-partition", "transient-tol-0", "max-states-0",
            "transient-partition-unread", "transient-measures-unread"])
    def test_option_error_is_an_input_error(self, scaffold_files, tmp_path, capsys, argv,
                                            message):
        model, chain = scaffold_files
        argv = [arg.format(model=model, chain=chain, tmp=tmp_path) for arg in argv]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.json", "scaffold.model"]

    def test_transient_of_a_stochastic_chain_names_the_file(self, tmp_path, capsys):
        chain = tmp_path / "dtmc.json"
        chain.write_text(json.dumps({"states": ["a", "b"], "kind": "stochastic",
                                     "triplets": [[0, 1, 1.0], [1, 0, 1.0]]}))
        assert cli.main(["transient", str(chain), "--init", "uniform", "--t", "1",
                         "--out", str(tmp_path / "p")]) == 1
        assert capsys.readouterr().err == (
            f"error: {chain}: transient requires a rate-matrix chain\n")

    def test_help_exits_0(self, capsys):
        assert cli.main(["explore", "--help"]) == 0
        assert "--max-states" in capsys.readouterr().out

    @pytest.mark.parametrize("row", [5, -1])
    def test_triplet_row_outside_the_chain(self, tmp_path, capsys, row):
        # row -1 would index the last row from the end; both must be refused
        chain = tmp_path / "bad.json"
        chain.write_text(json.dumps({"states": ["a", "b"], "kind": "rate", "triplets": [
            [0, 1, 1.0], [0, 0, -1.0], [row, 0, 2.0], [row, 1, -2.0]]}))
        code = cli.main(["stationary", str(chain), "--out", str(tmp_path / "mu.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "mu.csv").exists()

    @pytest.mark.parametrize("rows", ["{0},nan\n{1},1.0\n", "{0},inf\n", "{0}\n",
                                      "{0},0.5\n{0},0.5\n{1},0.5\n", "{0},0.5\n"])
    def test_bad_distribution_file(self, scaffold_files, tmp_path, capsys, rows):
        _, chain = scaffold_files
        states = json.loads(chain.read_text())["states"]
        init = tmp_path / "init.csv"
        init.write_text(rows.format(*states))
        code = cli.main(["transient", str(chain), "--init", str(init),
                         "--t", "1", "--out", str(tmp_path / "dist")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(init) in err and "np." not in err

    def test_distribution_sum_is_a_plain_float(self, scaffold_files, tmp_path, capsys):
        _, chain = scaffold_files
        init = tmp_path / "init.csv"
        init.write_text(json.loads(chain.read_text())["states"][0] + ",0.5\n")
        cli.main(["transient", str(chain), "--init", str(init), "--t", "1",
                  "--out", str(tmp_path / "dist")])
        assert capsys.readouterr().err == f"error: {init}: weights sum to 0.5, expected 1\n"

    @pytest.mark.parametrize("reader, content", [
        ("chain", lambda states: [1, 2]),
        ("chain", lambda states: {"states": [[s] for s in states], "kind": "rate",
                                  "triplets": []}),
        ("chain", lambda states: {"states": states, "triplets": []}),
        ("chain", lambda states: {"states": states, "kind": "foo", "triplets": []}),
        ("chain", lambda states: {"states": states[:1] * 2, "kind": "rate", "triplets": []}),
        ("chain", lambda states: {"states": states, "kind": "rate", "triplets": [[0, 0, {}]]}),
        ("chain", lambda states: {"states": states, "kind": "rate", "triplets": 5}),
        ("chain", lambda states: {"states": states, "kind": "rate", "triplets": [[0, 1]]}),
        ("chain", lambda states: {"states": [], "kind": "rate", "triplets": []}),
        ("partition", lambda states: [1]),
        ("partition", lambda states: {}),
        ("partition", lambda states: {"blocks": "".join(states)}),  # read as "a", "b"
        ("partition", lambda states: {"blocks": [states, states[:1]]}),
        ("partition", lambda states: {"blocks": [states, []]}),
        ("measures", lambda states: []),
        ("measures", lambda states: {"alphas": [{s: "x"} for s in states]}),
        ("measures", lambda states: {"alphas": [{s: True} for s in states]}),
        ("measures", lambda states: {"alphas": [{s: float("nan")} for s in states]}),
        ("measures", lambda states: {"alphas": [{s: 0.4} for s in states]}),
        ("measures", lambda states: {"alphas": [{s: -1.0} for s in states]}),
        ("measures", lambda states: {"alphas": [{} for s in states]}),
        ("measures", lambda states: {"alphas": [{s: 0.5 for s in states}]}),
    ], ids=["not-object", "list-key", "no-kind", "kind-foo", "state-twice", "object-value",
            "number-triplets", "short-triplet", "no-states", "not-object", "no-blocks",
            "string-blocks", "state-twice", "empty-block", "not-object", "string-weight",
            "bool-weight", "nan-weight", "sum-0.4", "negative-weight", "empty-measure",
            "too-few-measures"])
    def test_malformed_json_file_names_the_file(self, tmp_path, capsys, reader, content):
        states = ["a", "b"]
        chain = tmp_path / "ab.json"
        chain.write_text(json.dumps({"states": states, "kind": "rate", "triplets": [
            [0, 1, 1.0], [0, 0, -1.0], [1, 0, 1.0], [1, 1, -1.0]]}))
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"blocks": [[s] for s in states]}))
        bad = tmp_path / f"bad-{reader}.json"
        bad.write_text(json.dumps(content(states)))
        argv = {"chain": ["stationary", str(bad), "--out", str(tmp_path / "mu.csv")],
                "partition": ["check", str(chain), "--partition", str(bad)],
                "measures": ["check", str(chain), "--partition", str(part),
                             "--measures", str(bad)]}[reader]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("row", ["{0},1,2", "{0},abc", "{0},1,"])
    def test_malformed_distribution_row_names_file_and_row(self, scaffold_files, tmp_path,
                                                          capsys, row):
        _, chain = scaffold_files
        states = json.loads(chain.read_text())["states"]
        init = tmp_path / "rowbad.csv"
        init.write_text(f"{states[1]},0.5\n\n" + row.format(states[0]) + "\n")
        code = cli.main(["transient", str(chain), "--init", str(init),
                         "--t", "1", "--out", str(tmp_path / "dist")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row 3 of ") and str(init) in err

    def test_deaggregate_partition_missing_a_state(self, scaffold_files, tmp_path, capsys):
        # lifting through it would write a distribution without the last state
        _, chain = scaffold_files
        states = json.loads(chain.read_text())["states"]
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"blocks": [states[:2], states[2:3]]}))
        blockdist = tmp_path / "blocks.csv"
        blockdist.write_text("block0,0.5\nblock1,0.5\n")
        out = tmp_path / "lifted.csv"
        code = cli.main(["deaggregate", str(blockdist), "--chain", str(chain),
                         "--partition", str(part), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1 of 4 states uncovered" in err
        assert not out.exists()

    @pytest.mark.parametrize("reader,key", [("distribution", "nosuch"), ("partition", "nosuch"),
                                            ("partition", ["nosuch"]), ("measures", "nosuch")])
    def test_unknown_state_names_file_and_key(self, scaffold_files, tmp_path, capsys,
                                              reader, key):
        _, chain = scaffold_files
        states = json.loads(chain.read_text())["states"]
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"blocks": [[s] for s in states]}))
        bad = tmp_path / f"bad-{reader}"
        if reader == "distribution":
            bad.write_text(f"{key},1\n")
            argv = ["transient", str(chain), "--init", str(bad), "--t", "1",
                    "--out", str(tmp_path / "dist.csv")]
        elif reader == "partition":
            bad.write_text(json.dumps({"blocks": [[s] for s in states[1:]] + [[key]]}))
            argv = ["check", str(chain), "--partition", str(bad)]
        else:
            alphas = [{s: 1.0} for s in states[1:]] + [{key: 1.0}]
            bad.write_text(json.dumps({"alphas": alphas}))
            argv = ["check", str(chain), "--partition", str(part), "--measures", str(bad)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and repr(key) in err


class TestUnreadableFiles:
    @pytest.fixture
    def ab_files(self, tmp_path):
        """A two-state chain and its singleton partition."""
        chain = tmp_path / "ab.json"
        chain.write_text(json.dumps({"states": ["a", "b"], "kind": "rate", "triplets": [
            [0, 1, 1.0], [0, 0, -1.0], [1, 0, 1.0], [1, 1, -1.0]]}))
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"blocks": [["a"], ["b"]]}))
        return chain, part

    @pytest.mark.parametrize("reader, content", [
        ("chain", b"not json"),
        ("chain", b"\xff"),
        ("partition", b"not json"),
        ("measures", b"{\"alphas\": [{\"a\xff\": 1}]}"),
        ("distribution", b"a,1\n\xff,0\n"),
        ("model", b"node A { sites: b }\n\xff\n"),
    ], ids=["chain-not-json", "chain-not-utf8", "partition-not-json", "measures-not-utf8",
            "distribution-not-utf8", "model-not-utf8"])
    def test_undecodable_file_names_the_file(self, ab_files, tmp_path, capsys, reader, content):
        chain, part = ab_files
        bad = tmp_path / f"bad.{reader}"
        bad.write_bytes(content)
        argv = {"chain": ["stationary", str(bad), "--out", str(tmp_path / "mu.csv")],
                "partition": ["check", str(chain), "--partition", str(bad)],
                "measures": ["check", str(chain), "--partition", str(part),
                             "--measures", str(bad)],
                "distribution": ["transient", str(chain), "--init", str(bad), "--t", "1",
                                 "--out", str(tmp_path / "p")],
                "model": ["explore", str(bad), "--out", str(tmp_path / "c.json")]}[reader]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("rule, message", [
        ("A(x), B(a) -> A(x), B(a) @ 1", "site 'x' is not declared for node type 'A'"),
        ("A(b), B(a) -> A(b!1), B(a!1) @ -1", "rate must be finite and nonnegative"),
        ("A(b), B(a) -> A(b!1), B(a!1) @ 1e400", "rate must be finite and nonnegative"),
        ("A b, B(a) -> A(b!1), B(a!1) @ 1", "malformed agent 'A b'"),
        ("A(b!x), B(a) -> A(b), B(a) @ 1", "malformed site 'b!x'"),
        ("A(b, b), B(a) -> A(b, b), B(a) @ 1", "site 'b' mentioned twice"),
        ("A(b), B(a) -> A(), B(a) @ 1", "rule sides must share the interfaces"),
        ("A(b), B(a) -> A(b!1), B(a!1)", "malformed rule"),
    ], ids=["undeclared-site", "negative-rate", "rate-past-float-range", "malformed-agent",
            "malformed-site", "site-twice", "interfaces-differ", "no-rate"])
    def test_model_error_names_file_and_line(self, tmp_path, capsys, rule, message):
        model = tmp_path / "x.model"
        model.write_text(f"node A {{ sites: b }}\nnode B {{ sites: a }}\nrule r: {rule}\n"
                         "init: A*1, B*1\n")
        assert cli.main(["explore", str(model), "--out", str(tmp_path / "c.json")]) == 1
        assert capsys.readouterr().err == f"error: {model}: {message} at line 3\n"

    @pytest.mark.parametrize("lines, message", [
        (["node A { sites: b }", "node A { sites: c }", "init: A*1"],
         "node type 'A' declared twice at line 2"),
        (["node A { sites: b }", "init A*1"], "malformed init line at line 2"),
        (["node A { sites: b }", "init: A*x"], "malformed init entry 'A*x' at line 2"),
        (["node A { sites: b }", "init: B*1"], "node type 'B' is not declared at line 2"),
        (["node A { sites: b }", "node B { sites: a }", "init: A*1, B*1, A*2"],
         "node type 'A' counted twice in init at line 3"),
        (["node A { sites: b, b }", "init: A*1"], "site 'b' declared twice for 'A' at line 1"),
        (["node A { sites: b }", "node B { sites: a }",
          "rule r: A(b), B(a) -> A(b!1), B(a!1) @ 1", "rule r: A(b!1), B(a!1) -> A(b), B(a) @ 1",
          "init: A*1, B*1"], "rule 'r' declared twice at line 4"),
    ], ids=["node-twice", "malformed-init", "malformed-init-entry", "init-undeclared-type",
            "init-type-twice", "site-declared-twice", "rule-twice"])
    def test_declaration_error_names_file_and_line(self, tmp_path, capsys, lines, message):
        model = tmp_path / "x.model"
        model.write_text("\n".join(lines) + "\n")
        assert cli.main(["explore", str(model), "--out", str(tmp_path / "c.json")]) == 1
        assert capsys.readouterr().err == f"error: {model}: {message}\n"

    @pytest.mark.parametrize("blocks", [[["a", "b"], ["b"]], [["a", "a", "b"]]],
                             ids=["two-blocks", "one-block"])
    def test_partition_listing_a_state_twice_names_file_and_key(self, ab_files, tmp_path,
                                                                capsys, blocks):
        chain, _ = ab_files
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps({"blocks": blocks}))
        assert cli.main(["check", str(chain), "--partition", str(dup)]) == 1
        repeated = "b" if len(blocks) == 2 else "a"
        assert capsys.readouterr().err == f"error: state {repeated!r} listed twice in {dup}\n"

    def test_chain_listing_a_state_twice_names_file_and_key(self, tmp_path, capsys):
        chain = tmp_path / "dupstates.json"
        chain.write_text(json.dumps({"states": ["a", "b", "a"], "kind": "rate", "triplets": [
            [0, 1, 1.0], [0, 0, -1.0], [1, 0, 1.0], [1, 1, -1.0]]}))
        assert cli.main(["stationary", str(chain), "--out", str(tmp_path / "mu.csv")]) == 1
        assert capsys.readouterr().err == f"error: {chain}: state 'a' listed twice\n"

    def test_measures_listing_a_state_twice_name_file_and_key(self, ab_files, tmp_path, capsys):
        # each measure sums to 1, and measure 1 is not over block 1
        chain, part = ab_files
        measures = tmp_path / "m.json"
        measures.write_text(json.dumps({"alphas": [{"a": 1.0}, {"a": 1.0}]}))
        argv = ["check", str(chain), "--partition", str(part), "--measures", str(measures)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: state 'a' listed twice in {measures}\n"

    @pytest.mark.parametrize("reader, text, key", [
        ("chain", '{"states": ["a", "b"], "kind": "rate", "kind": "stochastic", '
                  '"triplets": [[0, 1, 1.0], [0, 0, -1.0], [1, 0, 1.0], [1, 1, -1.0]]}', "kind"),
        ("partition", '{"blocks": [["a", "b"]], "blocks": [["a"], ["b"]]}', "blocks"),
        ("measures", '{"alphas": [{"a": 0.3, "a": 1.0}, {"b": 1.0}]}', "a"),
    ], ids=["chain", "partition", "measures"])
    def test_json_key_listed_twice_names_file_and_key(self, ab_files, tmp_path, capsys,
                                                     reader, text, key):
        # not refused, the last value would win and the check exit 0
        chain, part = ab_files
        dup = tmp_path / "dup.json"
        dup.write_text(text)
        files = {"chain": chain, "partition": part, reader: dup}
        argv = ["check", str(files["chain"]), "--partition", str(files["partition"])]
        assert cli.main(argv + (["--measures", str(dup)] if reader == "measures" else [])) == 1
        assert capsys.readouterr().err == f"error: {dup}: key {key!r} listed twice in one object\n"

    @pytest.mark.parametrize("triplets, message", [
        ([[0, 1, 1.0, 0], [0, 0, -1.0]], "triplets must be [row, col, value] entries"),
        ([[0, 1, 1.0], [0, 0]], "triplets must be [row, col, value] entries"),
        ([[0, 0.5, 1.0], [0, 0, -1.0]], "triplet row and column indices must be integers"),
    ], ids=["four-entries", "two-entries", "non-integer-index"])
    def test_malformed_triplet_names_the_file(self, tmp_path, capsys, triplets, message):
        chain = tmp_path / "bad.json"
        chain.write_text(json.dumps({"states": ["a", "b"], "kind": "rate",
                                     "triplets": triplets}))
        assert cli.main(["stationary", str(chain), "--out", str(tmp_path / "mu.csv")]) == 1
        assert capsys.readouterr().err == f"error: {chain}: {message}\n"

    def test_number_past_the_float_range_names_the_file(self, tmp_path, capsys):
        chain = tmp_path / "big.json"
        chain.write_text('{"states": ["a"], "kind": "rate", "triplets": [[0, 0, 1%s]]}'
                         % ("0" * 400))
        assert cli.main(["stationary", str(chain), "--out", str(tmp_path / "mu.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {chain}: ")

    @pytest.mark.parametrize("command", ["check", "deaggregate", "transient"])
    def test_measures_not_matching_the_partition_name_the_file(self, ab_files, tmp_path,
                                                               capsys, command):
        chain, part = ab_files
        measures = tmp_path / "swapped.json"
        measures.write_text(json.dumps({"alphas": [{"b": 1.0}, {"a": 1.0}]}))
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("block0,0.5\nblock1,0.5\n")
        given = ["--partition", str(part), "--measures", str(measures)]
        argv = {"check": ["check", str(chain)],
                "deaggregate": ["deaggregate", str(blocks), "--chain", str(chain),
                                "--out", str(tmp_path / "mu.csv")],
                "transient": ["transient", str(chain), "--init", f"respectful:{blocks}",
                              "--t", "1", "--out", str(tmp_path / "p")]}[command]
        assert cli.main(argv + given) == 1
        assert capsys.readouterr().err == (
            f"error: {measures}: measure 0 support does not match block 0\n")


class TestOverwriteRefused:
    """An output that names the same file as another output or as an input
    is refused before any file is read or written (1)."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        """Polymer n=2 files in the working directory: its model and chain,
        a partition and measures, a block and a state distribution."""
        monkeypatch.chdir(tmp_path)
        for argv in (["casestudy", "polymer", "--n", "2", "--out", "p.model"],
                     ["explore", "p.model", "--out", "p.json"],
                     ["aggregate", "p.json", "--phi", "species", "--model", "p.model",
                      "--out", "agg.json", "--partition-out", "part.json",
                      "--measures-out", "alphas.json"],
                     ["stationary", "agg.json", "--out", "b_t1.csv"],
                     ["stationary", "p.json", "--out", "mu_t1.csv"]):
            assert cli.main(argv) == 0
        return tmp_path

    @pytest.mark.parametrize("argv, message", [
        ("explore p.model --out same.json --dot same.json", "--out and --dot both name same.json"),
        ("explore p.model --out p.model", "model and --out both name p.model"),
        ("aggregate p.json --phi species --model p.model --out o2.json --partition-out p.json",
         "chain and --partition-out both name p.json"),
        ("aggregate p.json --partition part.json --out o2.json --measures-out ./o2.json",
         "--out and --measures-out both name ./o2.json"),
        ("stationary p.json --out ./p.json", "chain and --out both name ./p.json"),
        ("deaggregate b_t1.csv --chain p.json --partition part.json --measures alphas.json "
         "--out alphas.json", "--measures and --out both name alphas.json"),
        ("transient p.json --init mu_t1.csv --t 1 --out mu", "--init and --out both name mu_t1.csv"),
        ("transient p.json --init respectful:b_t1.csv --partition part.json --t 1 --out b",
         "--init and --out both name b_t1.csv"),
    ], ids=["two-outputs", "explore-model", "aggregate-chain", "aggregate-outputs",
            "stationary-chain", "deaggregate-measures", "transient-init", "transient-respectful"])
    def test_refused_before_any_file_is_written(self, files, capsys, argv, message):
        before = {path.name: path.read_bytes() for path in files.iterdir()}
        capsys.readouterr()
        assert cli.main(argv.split()) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        # no output created, every input's bytes unchanged
        assert {path.name: path.read_bytes() for path in files.iterdir()} == before


class TestBadNumbers:
    @pytest.fixture
    def polymer_files(self, tmp_path):
        model = tmp_path / "poly.model"
        assert cli.main(["casestudy", "polymer", "--n", "2", "--out", str(model)]) == 0
        chain = tmp_path / "poly.json"
        assert cli.main(["explore", str(model), "--out", str(chain)]) == 0
        return model, chain

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol(self, polymer_files, tmp_path, capsys, tol):
        # without --tol, polymer-phi3 violates the condition (exit 3)
        model, chain = polymer_files
        out = tmp_path / "agg.json"
        for argv in (["aggregate", str(chain), "--out", str(out)], ["check", str(chain)]):
            code = cli.main(argv + ["--phi", "polymer-phi3", "--model", str(model),
                                    "--tol", tol])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "tol must be finite and nonnegative" in err
        assert not out.exists()

    def test_refused_lumped_chain_names_the_chain_file(self, tmp_path, capsys):
        # at these rates the lumped generator's row 13 sums to 4.5e-12, past
        # the absolute row-sum bound of 1e-12
        model, chain = tmp_path / "s.model", tmp_path / "s.json"
        assert cli.main(["casestudy", "scaffold", "--na", "3", "--nb", "3", "--nc", "3",
                         "--rates", "1300,700,1100,900", "--out", str(model)]) == 0
        assert cli.main(["explore", str(model), "--out", str(chain)]) == 0
        capsys.readouterr()
        code = cli.main(["aggregate", str(chain), "--phi", "scaffold-phi1", "--model",
                         str(model), "--out", str(tmp_path / "a.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {chain}: row 13 sums to ")
        assert not (tmp_path / "a.json").exists()
        # a bad option is not the chain's fault
        code = cli.main(["aggregate", str(chain), "--phi", "scaffold-phi1", "--model",
                         str(model), "--out", str(tmp_path / "a.json"), "--tol", "nan"])
        assert code == 1
        assert capsys.readouterr().err == "error: tol must be finite and nonnegative, not nan\n"

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time(self, scaffold_files, tmp_path, capsys, t):
        _, chain = scaffold_files
        code = cli.main(["transient", str(chain), "--init", "uniform",
                         "--t", t, "--out", str(tmp_path / "dist")])
        assert code == 1
        assert capsys.readouterr().err == "error: t must be finite and nonnegative\n"

    def test_subnormal_exit_rate(self, tmp_path):
        # 1.05 times 5e-324 rounds back to 5e-324, which is no uniformization rate
        chain = tmp_path / "tiny.json"
        chain.write_text(json.dumps({"states": ["a", "b"], "kind": "rate", "triplets": [
            [0, 1, 5e-324], [0, 0, -5e-324]]}))
        assert cli.main(["transient", str(chain), "--init", "uniform", "--t", "1",
                         "--out", str(tmp_path / "p")]) == 0
        assert (tmp_path / "p_t1.csv").read_text() == "a,0.5\nb,0.5\n"

    def test_rates_near_the_float_range_refused(self, tmp_path, capsys):
        chain = tmp_path / "huge.json"
        chain.write_text(json.dumps({"states": ["a", "b"], "kind": "rate", "triplets": [
            [0, 1, 1.7e308], [0, 0, -1.7e308], [1, 0, 1.7e308], [1, 1, -1.7e308]]}))
        assert cli.main(["transient", str(chain), "--init", "uniform", "--t", "1",
                         "--out", str(tmp_path / "p")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {chain}: r*t = ") and "cap of 1000000" in err
        assert "Traceback" not in err and not list(tmp_path.glob("p_t*.csv"))

    def test_zero_generator_refused_naming_its_file(self, tmp_path, capsys):
        # every state is a closed class of its own: no unique stationary distribution
        chain = tmp_path / "zero.json"
        chain.write_text(json.dumps({"states": ["a", "b"], "kind": "rate", "triplets": []}))
        assert cli.main(["stationary", str(chain), "--out", str(tmp_path / "z.csv")]) == 1
        assert capsys.readouterr() == (
            "", f"error: {chain}: chain has more than one closed communicating class\n")
        assert not (tmp_path / "z.csv").exists()

    @pytest.mark.parametrize("times, first, second", [("1,1.0000001", "1.0", "1.0000001"),
                                                      ("1,1", "1.0", "1.0")])
    def test_times_with_one_file_name_refused(self, tmp_path, capsys, times, first, second):
        # the files are named by {t:g}: the second time would overwrite the first
        chain = tmp_path / "ab.json"
        chain.write_text(json.dumps({"states": ["a", "b"], "kind": "rate", "triplets": [
            [0, 1, 1.0], [0, 0, -1.0], [1, 0, 1.0], [1, 1, -1.0]]}))
        out = tmp_path / "q"
        code = cli.main(["transient", str(chain), "--init", "uniform", "--t", times,
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: --t {first} and {second} both write {out}_t1.csv\n")
        assert not list(tmp_path.glob("q_t*.csv"))

    @pytest.mark.parametrize("times, message", [
        ("1,nan", "error: t must be finite and nonnegative\n"),
        ("1,1e7", "Poisson terms, more than the cap"),  # r*t past POISSON_TERM_CAP
    ])
    def test_bad_later_time_writes_nothing(self, polymer_files, tmp_path, capsys,
                                           times, message):
        _, chain = polymer_files
        code = cli.main(["transient", str(chain), "--init", "uniform",
                         "--t", times, "--out", str(tmp_path / "part")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("part_t*.csv"))


class TestImportCost:
    def test_importing_the_cli_loads_neither_scipy_nor_networkx(self):
        # scipy is imported lazily by classify, stationary, the condition's cells
        # and the operator behind vecmat; an eager import would add its load
        # time to every lumpkit command
        code = ("import sys, lumpkit, lumpkit.cli; "
                "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"
