"""lumpkit benchmark: the explore -> check -> aggregate -> solve pipeline on
seeded workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload scaffold-n3-full --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run it from the root of a lumpkit checkout: it imports lumpkit from ./src and
exits with status 2 when there is none. Each workload runs in its own
process. The last line of a single-workload run is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Lines before it start with
"#" and record the environment, every failed operation and the per-pass
figures. README.md in this directory lists the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

from spans import Tracer, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("scaffold-n3-full", "scaffold-n4-lump", "polymer-n3-cli")
SETUP_PROBES = 7  # timed; half before the passes, half after
PROCESS_TIMEOUT_S = 600

END_TO_END = (("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = ("rules", "sitegraph", "casestudies", "aggregation", "markov", "dsl", "cli", "bench")
PER_LAYER = (
    ("rules.explore.s", "s"), ("rules.explore.states", "count"), ("rules.explore.nnz", "count"),
    ("rules.build_partition.s", "s"), ("rules.build_partition.blocks", "count"),
    ("casestudies.phi.s", "s"), ("casestudies.phi.calls", "count"),
    ("sitegraph.species_census.s", "s"), ("sitegraph.species_census.calls", "count"),
    ("aggregation.check_condition.s", "s"), ("aggregation.check_condition.nnz_per_s", "1/s"),
    ("aggregation.check_cond3.s", "s"), ("aggregation.check_cond3.false_negatives", "count"),
    ("aggregation.aggregate.s", "s"), ("aggregation.nested.s", "s"),
    ("aggregation.lift.s", "s"), ("aggregation.restrict.s", "s"),
    ("markov.stationary.full.s", "s"), ("markov.stationary.lumped.s", "s"),
    ("markov.transient.full.s", "s"), ("markov.transient.lumped.s", "s"),
    ("markov.transient.max_rt", "1"), ("markov.transient.nonfinite", "count"),
    ("cli.explore.s", "s"), ("cli.check.s", "s"), ("cli.aggregate.s", "s"),
    ("cli.stationary.s", "s"), ("cli.deaggregate.s", "s"), ("cli.transient.s", "s"),
    ("markov.save_chain.s", "s"), ("markov.load_chain.s", "s"),
    ("rules.mixture_from_key.s", "s"), ("cli.chain_json_bytes", "B"),
    ("dsl.parse_model.s", "s"), ("dsl.print_model.s", "s"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.pass_s", "s"), ("trace.uncovered_s", "s"), ("trace.overhead_s", "s"),
)
# counts a pass records itself rather than through spans
PASS_COUNTS = ("rules.explore.states", "rules.explore.nnz", "rules.build_partition.blocks",
               "aggregation.check_cond3.false_negatives", "markov.transient.max_rt",
               "markov.transient.nonfinite", "cli.chain_json_bytes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure about this long: seconds / nominal pass time passes, "
                             "at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> int:
    """Pin BLAS to one thread before numpy loads; children inherit it.

    The pipeline is one process and mostly Python. A second BLAS thread
    shortened no step by more than a few percent on a 2-CPU machine, but made
    single dense transient calls take twice as long now and then.
    """
    threads = min(1, len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = str(SRC)
    return threads


def environment(seed, threads) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {"seed": seed, "git_commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": threads,
            "loadavg_1m": os.getloadavg()[0],
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def run_child(argv, timeout):
    """Run a child to completion (killing it on timeout); returns (code, stdout)."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    return proc.returncode, out


def setup_probes(name, seed, workdir, count) -> list:
    """Seconds from launching a fresh process until its model is ready, for
    count processes run one after another."""
    times = []
    for _ in range(count):
        start = perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), name, str(seed),
                               str(workdir)], stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = perf_counter() - start
                proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        times.append(elapsed)
    return times


def layer_metrics(tracer, traced, untraced_pipeline_s) -> dict:
    total, calls, layer_self, pass_wall, uncovered = summarize(tracer.spans, "traced")
    values = {f"{name}.s": seconds for name, seconds in total.items()}
    values.update({f"{name}.calls": calls.get(name, 0)
                   for name in ("casestudies.phi", "sitegraph.species_census")})
    values.update({name: traced.counts.get(name, 0) for name in PASS_COUNTS})
    checked = values.get("aggregation.check_condition.s", 0.0)
    values["aggregation.check_condition.nnz_per_s"] = (
        values["rules.explore.nnz"] * calls.get("aggregation.check_condition", 0) / checked
        if checked else 0.0)
    values.update({f"layer.{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS})
    values["trace.pass_s"] = pass_wall
    values["trace.uncovered_s"] = uncovered
    values["trace.overhead_s"] = traced.pipeline_s - untraced_pipeline_s
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def run_one(args, threads) -> int:
    sys.path.insert(0, str(SRC))
    import lumpkit
    import workloads

    if not Path(lumpkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported lumpkit from {lumpkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed, threads)
    print("# env " + json.dumps(env), flush=True)
    w = workloads.WORKLOADS[args.workload]
    inputs = workloads.Inputs.from_seed(args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        # The first probe fills the page and bytecode caches and is dropped.
        # The rest are split around the passes so that one slow stretch of
        # the machine does not set them all. A traced run reports no setup_s.
        probes = 0 if args.trace else SETUP_PROBES
        setup_times = (setup_probes(w.name, args.seed, workdir, 1 + probes // 2)[1:]
                       if probes else [])
        tracer = Tracer(enabled=bool(args.trace))
        untraced = Tracer(enabled=False)
        tracer.pass_id = "setup"
        with tracer.span("setup"):
            model = workloads.setup(w, w.size, inputs, workdir, tracer)
        warm_model = (model if w.warmup_size == w.size
                      else workloads.setup(w, w.warmup_size, inputs, workdir, untraced))
        workloads.run_pass(w, w.warmup_size, warm_model, inputs, untraced, workdir)
        passes = [workloads.run_pass(w, w.size, model, inputs, untraced, workdir)
                  for _ in range(workloads.pass_count(w, args.seconds))]
        # The median pass: on a shared machine other tenants make stretches
        # of seconds both slower (by up to 80%) and faster (by up to 25%)
        # than usual, and the fastest of five passes caught the fast ones.
        pipeline_s = statistics.median(p.pipeline_s for p in passes)
        setup_times += setup_probes(w.name, args.seed, workdir, probes - len(setup_times))
        measured = list(passes)
        if args.trace:
            tracer.pass_id = "traced"
            traced = workloads.run_pass(w, w.size, model, inputs, tracer, workdir)
            measured.append(traced)
            tracer.write(OUT / f"trace-{w.name}-seed{args.seed}.json", env)
            metrics = layer_metrics(tracer, traced, pipeline_s)
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "pipeline_s": pipeline_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    if setup_times:
        print("# setup_s per probe " + " ".join(f"{t:.4f}" for t in setup_times))
    for i, p in enumerate(passes):
        print(f"# pass {i}: pipeline_s {p.pipeline_s:.4f} (wall {p.wall_s:.4f}, "
              f"excluded {p.excluded_s:.4f}), {p.attempted} ops, {len(p.failures)} failed")
    for note in measured[-1].notes:
        print(f"# {note}")
    attempted = sum(p.attempted for p in measured)
    failures = [f for p in measured for _, f in p.failures]
    distinct = {name: problems for p in measured for name, problems in p.failures}
    for name, problems in distinct.items():
        for text, defect in problems:
            tag = (f"known defect ({defect}): {workloads.KNOWN_DEFECTS[defect]}" if defect
                   else "UNEXPECTED")
            print(f"# FAILED {name}: {text} -- {tag}")
    print(f"# ops_failed_frac {len(failures) / attempted:.4f} "
          f"(failed {len(failures)} / attempted {attempted})")
    if args.trace:
        layer_total = sum(metrics[f"layer.{layer}.self_s"]["value"] for layer in LAYERS)
        print(f"# traced pass {metrics['trace.pass_s']['value']:.4f} s = layer self times "
              f"{layer_total:.4f} s + uncovered {metrics['trace.uncovered_s']['value']:.4f} s")
    correct = all(defect for problems in failures for _, defect in problems)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of the results."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        code, out = run_child([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], PROCESS_TIMEOUT_S)
        lines = out.splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        if code != 0 or not lines:
            print(f"## {name} exited {code}")
            status = 1
            continue
        rows.append((name, json.loads(lines[-1])))
    for name, result in rows:
        cells = [f"{m} {v['value']:.4g} {v['unit']}" for m, v in result["metrics"].items()
                 if args.trace == 0 or m.startswith(("layer.", "trace."))]
        print(f"{name}: " + ", ".join(cells) + f", ops_failed_frac "
              f"{result['failed'] / result['attempted']:.4f} ({result['failed']} failed / "
              f"{result['attempted']} attempted), correct {result['correct']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lumpkit" / "__init__.py").is_file():
        print(f"perfbench: no lumpkit package under {SRC}; run from a lumpkit checkout",
              file=sys.stderr)
        return 2
    threads = pin_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, threads)


if __name__ == "__main__":
    sys.exit(main())
