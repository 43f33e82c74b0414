"""Command line entry point.

Exit codes form a stable contract: 0 success, 1 input or parse error,
2 resource cap exceeded, 3 aggregation condition violated.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import aggregation, casestudies, dsl, markov, rules, sitegraph
from .errors import (ConditionViolated, LumpkitError, NotIrreducible, SolverFailure,
                     StateCapExceeded)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_VIOLATED = 3


@rules.reads_species
def _species(bonds):
    return tuple(sorted(sitegraph.species_census(bonds).items()))


# a polymer component's chain or ring shape fixes its species, so
# polymer-phi1 is the census under the case study's name
_PHI_FUNCS = {
    "species": _species,
    "scaffold-phi1": casestudies.scaffold_phi1,
    "scaffold-phi2": casestudies.scaffold_phi2,
    "polymer-phi1": _species,
    "polymer-phi2": casestudies.polymer_phi2,
    "polymer-phi3": casestudies.polymer_phi3,
}
_CASE_STUDY_INTERFACES = {"scaffold": casestudies.SCAFFOLD_INTERFACE,
                          "polymer": casestudies.POLYMER_INTERFACE}


def _refuse_overwrite(inputs, outputs):
    """Refuse, before any file is read or written, an output that names the
    same file as another output or as an input: inputs and outputs are
    (option, file name) pairs, a name of None not given."""
    named = {}  # real path -> the first option that names it
    for option, path in inputs:
        if path is not None:
            named.setdefault(os.path.realpath(path), option)
    for option, path in outputs:
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in named:
            raise LumpkitError(f"{named[real]} and {option} both name {path}")
        named[real] = option


def _load_model(path):
    with markov.naming(path), open(path, encoding="utf-8") as fh:
        return dsl.parse_model(fh.read())


def _partitioned_chain(args):
    """The chain file's space and matrix, and the partition that --partition
    or --phi gives, with the options checked before any file is read."""
    if not (args.partition or args.phi):
        raise LumpkitError("supply --partition FILE or --phi NAME")
    if args.phi and not args.model:
        raise LumpkitError("--phi requires --model for the instance counts and interface")
    if args.model and not args.phi:
        raise LumpkitError("--model is read only with --phi")
    aggregation.check_tol(args.tol)
    space, matrix = markov.load_chain(args.chain)
    if args.partition:
        return space, matrix, aggregation.load_partition(args.partition, space)
    model = _load_model(args.model)
    study = args.phi.split("-", 1)[0]
    if model.interface != _CASE_STUDY_INTERFACES.get(study, model.interface):
        raise LumpkitError(f"--phi {args.phi} needs a model with the {study} "
                           f"case study's node types and sites")
    with markov.naming(args.chain):  # a refused key names the chain file
        chain = rules.ExploredChain(space, matrix, model.initial.counts, model.interface)
    return space, matrix, rules.build_partition(chain, _PHI_FUNCS[args.phi])


def _measures_for(args, space, part):
    if args.measures:
        alphas = aggregation.load_measures(args.measures, space)
        with markov.naming(args.measures):
            alphas.check_compatible(part)
        return alphas
    return aggregation.uniform_measures(part)


def _block_space(part):
    """States block0, block1, ... of an aggregated chain."""
    return markov.StateSpace(tuple(f"block{i}" for i in range(len(part))))


def cmd_explore(args):
    _refuse_overwrite([("model", args.model)], [("--out", args.out), ("--dot", args.dot)])
    model = _load_model(args.model)
    max_states = args.max_states
    if max_states is None:  # read here, so that a bad value is an input error
        max_states = rules.max_states_from_env()
    if args.dot:  # the labels come from the same search as the chain
        chain, labels = rules.explore_labelled(model, max_states)
    else:
        chain = rules.explore(model, max_states)
    markov.save_chain(args.out, chain.space, chain.matrix)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.writelines(rules.export_dot(chain, labels))
    print(f"explored {len(chain.space)} states -> {args.out}")
    return EXIT_OK


def cmd_check(args):
    space, matrix, part = _partitioned_chain(args)
    alphas = _measures_for(args, space, part)
    result = aggregation.check_condition(matrix, part, alphas, args.tol)
    cond3 = aggregation.check_cond3(matrix, part)
    print(f"condition holds: {result['holds']}  residual: {result['residual']:.3e}")
    print(f"structural (permutation) condition: {cond3}")
    return EXIT_OK if result["holds"] else EXIT_VIOLATED


def cmd_aggregate(args):
    _refuse_overwrite([("chain", args.chain), ("--partition", args.partition),
                       ("--model", args.model), ("--measures", args.measures)],
                      [("--out", args.out), ("--partition-out", args.partition_out),
                       ("--measures-out", args.measures_out)])
    space, matrix, part = _partitioned_chain(args)
    alphas = _measures_for(args, space, part)
    with markov.naming(args.chain):  # a lumped chain refused names the chain it came from
        agg = aggregation.aggregate(matrix, part, alphas, args.tol)
    markov.save_chain(args.out, _block_space(part), agg.matrix)
    if args.partition_out:
        aggregation.save_partition(args.partition_out, part, space)
    if args.measures_out:
        aggregation.save_measures(args.measures_out, alphas, space)
    print(f"aggregated {len(space)} states into {len(part)} blocks "
          f"(residual {agg.residual:.3e}) -> {args.out}")
    return EXIT_OK


def _lift(args, space, blockdist):
    """The distribution over space that lifts the block distribution in the
    CSV file blockdist through --partition and --measures."""
    part = aggregation.load_partition(args.partition, space)
    alphas = _measures_for(args, space, part)
    blocks = markov.load_distribution(blockdist, _block_space(part))
    return aggregation.lift(blocks, part, alphas)


def _initial_distribution(args, space):
    spec = args.init
    if spec == "uniform":
        return markov.Distribution.uniform(len(space))
    if spec.startswith("respectful:"):
        if not args.partition:
            raise LumpkitError("respectful: init requires --partition")
        return _lift(args, space, spec.split(":", 1)[1])
    return markov.load_distribution(spec, space)


def cmd_transient(args):
    if (args.partition or args.measures) and not args.init.startswith("respectful:"):
        raise LumpkitError("--partition and --measures are read only with --init respectful:FILE")
    outs = {}  # file name -> time; {t:g} gives close times one name
    for t in args.t:
        out = f"{args.out}_t{t:g}.csv"
        if out in outs:
            raise LumpkitError(f"--t {outs[out]!r} and {t!r} both write {out}")
        outs[out] = t
    init = None if args.init == "uniform" else args.init.removeprefix("respectful:")
    _refuse_overwrite([("chain", args.chain), ("--init", init), ("--partition", args.partition),
                       ("--measures", args.measures)], [("--out", out) for out in outs])
    space, matrix = markov.load_chain(args.chain)
    if not isinstance(matrix, markov.RateMatrix):
        raise LumpkitError(f"{args.chain}: transient requires a rate-matrix chain")
    pi0 = _initial_distribution(args, space)
    # solve every time before writing any file, so a bad time leaves no output
    results = [(out, t, markov.transient(matrix, pi0, t, args.tol)) for out, t in outs.items()]
    for out, t, result in results:
        markov.save_distribution(out, space, result)
        print(f"t = {t:g} -> {out}")
    return EXIT_OK


def cmd_stationary(args):
    _refuse_overwrite([("chain", args.chain)], [("--out", args.out)])
    space, matrix = markov.load_chain(args.chain)
    mu = markov.stationary(matrix)
    markov.save_distribution(args.out, space, mu)
    print(f"stationary distribution -> {args.out}")
    return EXIT_OK


def cmd_deaggregate(args):
    _refuse_overwrite([("blockdist", args.blockdist), ("--chain", args.chain),
                       ("--partition", args.partition), ("--measures", args.measures)],
                      [("--out", args.out)])
    space, _ = markov.load_chain(args.chain)
    markov.save_distribution(args.out, space, _lift(args, space, args.blockdist))
    print(f"lifted distribution -> {args.out}")
    return EXIT_OK


def cmd_casestudy(args):
    if args.which == "scaffold":
        model = casestudies.scaffold_model(
            casestudies.ScaffoldParams(args.na, args.nb, args.nc, *args.rates))
    else:
        model = casestudies.polymer_model(casestudies.PolymerParams(args.n, *args.rates))
    text = dsl.print_model(model)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"{args.which} model -> {args.out}")
    return EXIT_OK


def _times(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: expected comma-separated times")


def _rates(text):
    try:
        c1, c2, c3, c4 = map(float, text.split(","))
    except ValueError:  # a value that is not a number, or not four of them
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected four comma-separated rates")
    return [c1, c2, c3, c4]


def build_parser():
    parser = argparse.ArgumentParser(prog="lumpkit")
    sub = parser.add_subparsers(dest="command", required=True)
    partitioned = argparse.ArgumentParser(add_help=False)  # check and aggregate
    partitioned.add_argument("chain")
    source = partitioned.add_mutually_exclusive_group()
    source.add_argument("--partition")
    source.add_argument("--phi", choices=_PHI_FUNCS)
    partitioned.add_argument("--model")
    partitioned.add_argument("--measures")
    partitioned.add_argument("--tol", type=float, default=aggregation.DEFAULT_CONDITION_TOL)
    case_output = argparse.ArgumentParser(add_help=False)  # both case studies
    case_output.add_argument("--rates", type=_rates, default=[1.0, 1.0, 1.0, 1.0])
    case_output.add_argument("--out", required=True)

    p = sub.add_parser("explore", help="build the CTMC of a rule model")
    p.add_argument("model")
    p.add_argument("--out", required=True)
    p.add_argument("--dot")
    p.add_argument("--max-states", type=int,
                   help=f"default: LUMPKIT_MAX_STATES or {rules.DEFAULT_MAX_STATES}")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("check", help="test the aggregation condition", parents=[partitioned])
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("aggregate", help="build the aggregated chain", parents=[partitioned])
    p.add_argument("--out", required=True)
    p.add_argument("--partition-out")
    p.add_argument("--measures-out")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("transient", help="transient distribution at given times")
    p.add_argument("chain")
    p.add_argument("--init", required=True,
                   help="distribution CSV, 'uniform', or 'respectful:BLOCKCSV'")
    p.add_argument("--t", required=True, type=_times)
    p.add_argument("--partition")
    p.add_argument("--measures")
    p.add_argument("--out", required=True, help="output file prefix")
    p.add_argument("--tol", type=float, default=markov.DEFAULT_TRANSIENT_TOL)
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser("stationary", help="stationary distribution")
    p.add_argument("chain")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("deaggregate", help="lift a block distribution")
    p.add_argument("blockdist")
    p.add_argument("--chain", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--measures")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_deaggregate)

    p = sub.add_parser("casestudy", help="emit a built-in case study model")
    which = p.add_subparsers(dest="which", required=True)
    ps = which.add_parser("scaffold", parents=[case_output])
    ps.add_argument("--na", type=int, required=True)
    ps.add_argument("--nb", type=int, required=True)
    ps.add_argument("--nc", type=int, required=True)
    ps.set_defaults(func=cmd_casestudy)
    pp = which.add_parser("polymer", parents=[case_output])
    pp.add_argument("--n", type=int, required=True)
    pp.set_defaults(func=cmd_casestudy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's exit 2 would read as a state cap
        return EXIT_INPUT if exc.code else EXIT_OK  # EXIT_OK after --help
    try:
        return args.func(args)
    except (StateCapExceeded, MemoryError) as exc:  # the model's cap, or the machine's
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except ConditionViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    except (NotIrreducible, SolverFailure) as exc:  # only stationary and transient solve
        print(f"error: {args.chain}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (LumpkitError, OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
