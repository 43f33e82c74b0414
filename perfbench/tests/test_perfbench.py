"""Quick self-test of the benchmark: every workload's code path at tiny
sizes, the trace accounting, the defect classification and the metric lists.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

from lumpkit import aggregation, casestudies, rules  # noqa: E402

TINY = {"scaffold-n3-full": (1, 2, 1), "scaffold-n4-lump": (1, 2, 1), "polymer-n3-cli": (2,)}


def tiny_pass(name, tmp_path, seed=0, traced=False):
    w = workloads.WORKLOADS[name]
    size = TINY[name]
    inputs = workloads.Inputs.from_seed(seed)
    tracer = Tracer(enabled=traced)
    tracer.pass_id = "setup"
    model = workloads.setup(w, size, inputs, tmp_path, tracer)
    tracer.pass_id = "traced"
    return workloads.run_pass(w, size, model, inputs, tracer, tmp_path), tracer


def unexpected(p):
    return [(name, text) for name, problems in p.failures
            for text, defect in problems if defect is None]


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("seed", [0, 3])
def test_tiny_pass_checks_every_operation(name, seed, tmp_path):
    p, _ = tiny_pass(name, tmp_path, seed)
    assert unexpected(p) == []
    expected_ops = {"scaffold-n3-full": 23, "scaffold-n4-lump": 17, "polymer-n3-cli": 11}
    assert p.attempted == expected_ops[name]
    assert 0 < p.pipeline_s <= p.wall_s


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_layers_account_for_the_pass(name, tmp_path):
    p, tracer = tiny_pass(name, tmp_path, traced=True)
    total, calls, layer_self, wall, uncovered = summarize(tracer.spans, "traced")
    assert sum(layer_self.values()) + uncovered == pytest.approx(wall, abs=1e-9)
    assert set(layer_self) <= set(run.LAYERS)
    assert wall == pytest.approx(p.wall_s, rel=0.05)
    if name == "polymer-n3-cli":
        by_index = tracer.spans
        explore = [s for s in by_index if s[0] == "rules.explore"]
        assert len(explore) == 1 and by_index[explore[0][3]][0] == "cli.explore"
        assert calls["sitegraph.species_census"] > 0
        subcommands = [k for k in total if k.startswith("cli.") and k != "cli.casestudy"]
        assert sum(total[k] for k in subcommands) <= wall
        assert calls["rules.mixture_from_key"] > 0
    else:
        assert calls["casestudies.phi"] == 2 * p.counts["rules.explore.states"]


def test_cli_modules_are_restored_after_a_traced_pass(tmp_path):
    original = rules.explore
    tiny_pass("polymer-n3-cli", tmp_path, traced=True)
    assert rules.explore is original


def test_reference_cond3_matches_the_library_on_exact_rates():
    # with unit rates every sum is exact, so rounding cannot matter
    for params, phis in (
        (casestudies.ScaffoldParams(2, 2, 2),
         (casestudies.scaffold_phi1, casestudies.scaffold_phi2)),
        (casestudies.PolymerParams(2, 1.0, 1.0, 1.0 + 1e-6, 1.0),
         (casestudies.polymer_phi2, casestudies.polymer_phi3)),
    ):
        build = (casestudies.scaffold_model if isinstance(params, casestudies.ScaffoldParams)
                 else casestudies.polymer_model)
        chain = rules.explore(build(params))
        triplets = ref.triplet_arrays(chain.matrix.triplets())
        for phi in phis:
            part = rules.build_partition(chain, phi)
            assert ref.cond3(*triplets, part.blocks, len(chain.space)) == \
                aggregation.check_cond3(chain.matrix, part)


def test_known_defects_are_classified():
    p = workloads.Pass(Tracer(enabled=False))
    nan = np.array([np.nan, np.nan])
    assert workloads.transient_check(p, "lumped", nan, nan, 2000.0) == \
        [("non-finite result at r*t = 2000", "a")]
    assert workloads.transient_check(p, "lumped", nan, nan, 100.0)[0][1] is None
    assert workloads.cond3_check(False, True, p)[0][1] == "b"
    assert workloads.cond3_check(True, False, p)[0][1] is None
    assert p.counts["markov.transient.nonfinite"] == 2
    assert p.counts["aggregation.check_cond3.false_negatives"] == 1


def test_an_exception_fails_the_operation_and_ends_the_pass(tmp_path):
    w = replace(workloads.WORKLOADS["scaffold-n3-full"], times=(-1.0,))
    inputs = workloads.Inputs.from_seed(0)
    model = workloads.setup(w, (1, 1, 1), inputs, tmp_path, Tracer(enabled=False))
    p = workloads.run_pass(w, (1, 1, 1), model, inputs, Tracer(enabled=False), tmp_path)
    name, problems = p.failures[-1]
    assert name == "markov.transient.lumped[rt=-1]"
    assert problems[0][0].startswith("raised ValueError")


def test_uniformized_horizons_fix_the_series_length():
    w = workloads.WORKLOADS["polymer-n3-cli"]
    for r in (15.0, 30.0):
        assert [(label, t * r) for label, t in workloads.horizons(w, r)] == \
            [(f"rt={x:g}", pytest.approx(x)) for x in w.times]
    n4 = workloads.WORKLOADS["scaffold-n4-lump"]
    assert workloads.horizons(n4, 30.0)[-1] == ("t=50", 50.0)


def test_pass_count_depends_on_the_arguments_only():
    for w in workloads.WORKLOADS.values():
        assert workloads.pass_count(w, 0.1) == 1
        assert workloads.pass_count(w, 15) == max(1, round(15 / w.pass_s))


def test_inputs_follow_the_seed():
    a, b = workloads.Inputs.from_seed(7), workloads.Inputs.from_seed(7)
    assert a == b and a != workloads.Inputs.from_seed(8)
    assert all(0.5 <= r <= 2.0 for r in a.rates)
    assert np.array_equal(a.block_distribution(5), b.block_distribution(5))
    assert a.block_distribution(5).sum() == pytest.approx(1.0)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_lumpkit_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scaffold-n3-full",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
