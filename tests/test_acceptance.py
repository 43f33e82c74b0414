"""Acceptance gate: twelve standalone criteria, one printed pass/fail line
each, at the tolerances stated in the assertions."""

import numpy as np
import oracle
import pytest

from conftest import bond_maps, fig_chain, fig_partition
from lumpkit import aggregation, casestudies, dsl, markov, rules, sitegraph


def report(capsys, number, ok, text):
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def scaffold_chain(na, nb, nc, rates=(1.0, 1.0, 1.0, 1.0)):
    return rules.explore(casestudies.scaffold_model(
        casestudies.ScaffoldParams(na, nb, nc, *rates)))


def polymer_chain(n, rates=(1.0, 1.0, 1.0, 1.0)):
    return rules.explore(casestudies.polymer_model(
        casestudies.PolymerParams(n, *rates)))


def uniform_agg(chain, phi, tol=1e-9):
    part = rules.build_partition(chain, phi)
    alphas = aggregation.uniform_measures(part)
    return part, alphas, aggregation.aggregate(chain.matrix, part, alphas, tol)


def test_criterion_1_scaffold_state_counts(capsys):
    ok = True
    for n in (1, 2):
        chain = scaffold_chain(n, n, n)
        phi1 = rules.build_partition(chain, casestudies.scaffold_phi1)
        phi2 = rules.build_partition(chain, casestudies.scaffold_phi2)
        expected = ((n + 1) * (n + 2) * (n + 3) // 6, (n + 1) ** 2)
        ok = ok and (len(phi1), len(phi2)) == expected
    report(capsys, 1, ok,
           "scaffold block counts (n+1)(n+2)(n+3)/6 and (n+1)^2 for n in {1,2}")


def test_criterion_2_polymer_state_counts(capsys):
    chain = polymer_chain(2)
    phi2 = rules.build_partition(chain, casestudies.polymer_phi2)
    phi3 = rules.build_partition(chain, casestudies.polymer_phi3)
    census_count = len({
        tuple(sorted(sitegraph.species_census(bonds).items()))
        for bonds in bond_maps(chain)})
    ok = (len(phi2) == 9 and len(phi3) == 5
          and census_count >= 3 * casestudies.partition_number(2))
    report(capsys, 2, ok,
           "polymer n=2: 9 phi2 blocks, 5 phi3 blocks, census >= 3*P(2)")


def test_criterion_3_structural_condition(capsys):
    ok = True
    for counts in ((1, 3, 1), (2, 2, 2)):
        chain = scaffold_chain(*counts)
        for phi in (casestudies.scaffold_phi1, casestudies.scaffold_phi2):
            part = rules.build_partition(chain, phi)
            ok = ok and aggregation.check_cond3(chain.matrix, part)
    chain = polymer_chain(2)
    part = rules.build_partition(chain, casestudies.polymer_phi2)
    ok = ok and aggregation.check_cond3(chain.matrix, part)
    chain = polymer_chain(2, rates=(1.0, 1.0, 1.0 + 1e-6, 1.0))
    part = rules.build_partition(chain, casestudies.polymer_phi3)
    ok = ok and not aggregation.check_cond3(chain.matrix, part)
    report(capsys, 3, ok,
           "permutation condition passes for scaffold phi1/phi2 and polymer "
           "phi2, fails for polymer phi3 with unequal bind rates")


def test_criterion_4_aggregated_matrix_validity(capsys):
    residual = 0.0
    cases = []
    for counts in ((1, 1, 1), (2, 2, 2), (1, 3, 1)):
        chain = scaffold_chain(*counts)
        for phi in (casestudies.scaffold_phi1, casestudies.scaffold_phi2):
            cases.append((chain, phi))
    cases.append((polymer_chain(2), casestudies.polymer_phi2))
    for chain, phi in cases:
        _, _, agg = uniform_agg(chain, phi)
        residual = max(residual,
                       np.abs(agg.matrix.dense().sum(axis=1)).max())
    ok = residual <= 1e-11
    report(capsys, 4, ok,
           f"aggregated generators row-sum residual {residual:.2e} <= 1e-11")


def test_criterion_5_lumpability_invertibility(capsys):
    chain = scaffold_chain(2, 2, 2)
    part, alphas, agg = uniform_agg(chain, casestudies.scaffold_phi2)
    raw = np.arange(1.0, len(part) + 1)
    blocks0 = markov.Distribution(raw / raw.sum())
    pi0 = aggregation.lift(blocks0, part, alphas)
    worst = 0.0
    series = aggregation.convergence_diagnostics(
        chain.matrix, part, alphas, pi0, [0.5, 2.0, 10.0], 1e-9)
    for _, dev_lump, dev_inv in series:
        worst = max(worst, dev_lump, dev_inv)
    ok = worst <= 1e-9
    report(capsys, 5, ok,
           f"respecting start on scaffold (2,2,2): deviations {worst:.2e} <= 1e-9")


def test_criterion_6_commutation(capsys):
    chain = scaffold_chain(1, 3, 1)
    part, alphas, _ = uniform_agg(chain, casestudies.scaffold_phi2)
    r1 = markov.default_rate(chain.matrix)
    res1 = oracle.verify_commutation(chain.matrix, part, alphas, r1, 1e-9)
    q = fig_chain(1.25, 1.25)
    fpart = fig_partition()
    res2 = oracle.verify_commutation(
        q, fpart, aggregation.uniform_measures(fpart),
        markov.default_rate(q), 1e-9)
    ok = res1 <= 1e-12 and res2 <= 1e-12
    report(capsys, 6, ok,
           f"uniformization commutes with aggregation: {max(res1, res2):.2e} <= 1e-12")


def test_criterion_7_power_identity(capsys):
    chain = scaffold_chain(1, 3, 1)
    part, alphas, _ = uniform_agg(chain, casestudies.scaffold_phi2)
    m = markov.uniformize(chain.matrix, markov.default_rate(chain.matrix))
    worst = max(oracle.power_identity_residual(m, part, alphas, n, 1e-9)
                for n in range(1, 7))
    ok = worst <= 1e-12
    report(capsys, 7, ok,
           f"matrix-power identity residual {worst:.2e} <= 1e-12 for n=1..6")


def test_criterion_8_stationarity(capsys):
    chain = scaffold_chain(2, 2, 2)
    part, alphas, agg = uniform_agg(chain, casestudies.scaffold_phi2)
    mu = markov.stationary(chain.matrix)
    dev_respect = aggregation.respects(mu, part, alphas)["deviation"]
    mu_blocks = markov.stationary(agg.matrix)
    dev_restrict = np.abs(
        aggregation.restrict(mu, part).weights - mu_blocks.weights).max()
    ok = dev_respect <= 1e-9 and dev_restrict <= 1e-9
    report(capsys, 8, ok,
           f"stationary respects alphas ({dev_respect:.2e}) and restricts to "
           f"the aggregated stationary ({dev_restrict:.2e}), both <= 1e-9")


def test_criterion_9_convergence(capsys):
    chain = scaffold_chain(1, 3, 1)
    part, alphas, _ = uniform_agg(chain, casestudies.scaffold_phi2)
    nine = next(i for i, b in enumerate(part.blocks) if len(b) == 9)
    pi0 = markov.Distribution.point_mass(len(chain.space), part.blocks[nine][0])
    series = aggregation.convergence_diagnostics(
        chain.matrix, part, alphas, pi0, [1.0, 5.0, 10.0, 50.0], 1e-9)
    devs = [row[2] for row in series]
    ok = devs[-1] <= 1e-6 and all(
        devs[i] >= devs[i + 1] - 1e-9 for i in range(len(devs) - 1))
    report(capsys, 9, ok,
           f"point-mass start: dev_inv falls to {devs[-1]:.2e} <= 1e-6 "
           "and is nonincreasing")


def test_criterion_10_class_sizes(capsys):
    ok = True
    p131 = casestudies.ScaffoldParams(1, 3, 1)
    ok = ok and casestudies.scaffold_class_size_phi1((1, 0, 0), p131) == 3
    ok = ok and casestudies.scaffold_class_size_phi2((1, 0), p131) == 3
    ok = ok and casestudies.scaffold_class_size_phi2((1, 1), p131) == 9
    ok = ok and casestudies.scaffold_class_size_phi1((1, 1, 0), p131) == 6
    ok = ok and casestudies.scaffold_class_size_phi1((0, 0, 1), p131) == 3
    for counts in ((1, 3, 1), (2, 2, 2)):
        p = casestudies.ScaffoldParams(*counts)
        chain = scaffold_chain(*counts)
        for phi, size_fn in (
                (casestudies.scaffold_phi1, casestudies.scaffold_class_size_phi1),
                (casestudies.scaffold_phi2, casestudies.scaffold_class_size_phi2)):
            sizes = {}
            for bonds in bond_maps(chain):
                v = phi(bonds)
                sizes[v] = sizes.get(v, 0) + 1
            ok = ok and all(size_fn(v, p) == s for v, s in sizes.items())
    report(capsys, 10, ok,
           "closed-form class sizes equal enumerated block sizes exactly")


def test_criterion_11_nested_aggregation(capsys):
    chain = scaffold_chain(1, 3, 1)
    fine = rules.build_partition(chain, casestudies.scaffold_phi1)
    coarse = rules.build_partition(chain, casestudies.scaffold_phi2)
    fine_alphas = aggregation.uniform_measures(fine)
    fine_chain = aggregation.aggregate(chain.matrix, fine, fine_alphas, 1e-9)
    nested = aggregation.nested(fine, coarse)
    check = aggregation.check_condition(
        fine_chain.matrix, nested.groups, nested.alpha_prime, 1e-12)
    reagg = aggregation.aggregate(
        fine_chain.matrix, nested.groups, nested.alpha_prime, 1e-12)
    coarse_chain = aggregation.aggregate(
        chain.matrix, coarse, aggregation.uniform_measures(coarse), 1e-9)
    matrix_dev = np.abs(
        reagg.matrix.dense() - coarse_chain.matrix.dense()).max()
    # conditional distribution over fine blocks within each coarse block at
    # t = 5 from a respecting start must reproduce alpha_prime
    raw = np.arange(1.0, len(nested.groups) + 1)
    coarse0 = markov.Distribution(raw / raw.sum())
    fine0 = aggregation.lift(coarse0, nested.groups, nested.alpha_prime)
    at_t = markov.transient(fine_chain.matrix, fine0, 5.0, 1e-14)
    cond_dev = 0.0
    for j, group in enumerate(nested.groups.blocks):
        mass = sum(at_t[i] for i in group)
        for i in group:
            cond_dev = max(cond_dev, abs(
                at_t[i] / mass - nested.alpha_prime.alphas[j][i]))
    ok = (check["residual"] <= 1e-12 and matrix_dev <= 1e-11
          and cond_dev <= 1e-9)
    report(capsys, 11, ok,
           f"nested aggregation: condition residual {check['residual']:.2e}, "
           f"generator deviation {matrix_dev:.2e}, conditional-distribution "
           f"deviation {cond_dev:.2e}")


def test_criterion_12_parser_round_trip(capsys):
    ok = True
    for model in (
            casestudies.scaffold_model(
                casestudies.ScaffoldParams(1, 3, 1, 2.0, 3.0, 0.5, 0.25)),
            casestudies.polymer_model(
                casestudies.PolymerParams(2, 1.0, 2.0, 0.5, 0.125))):
        text = dsl.print_model(model)
        again = dsl.parse_model(text)
        ok = ok and again.rules == model.rules
        ok = ok and again.initial.graph == model.initial.graph
    built = casestudies.scaffold_model(casestudies.ScaffoldParams(1, 3, 1))
    parsed = dsl.parse_model(dsl.print_model(built))
    a = rules.explore(built)
    b = rules.explore(parsed)
    ok = ok and a.space.states == b.space.states and a.matrix == b.matrix
    report(capsys, 12, ok,
           "DSL round-trips and the parsed scaffold explores identically")
