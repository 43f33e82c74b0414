import inspect
import tracemalloc

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_expm, fig_chain, fig_partition
import lumpkit
from lumpkit import aggregation, casestudies, cli, errors, markov, rules
from lumpkit.errors import ConditionViolated, NotNested


def scaffold_chain(na=1, nb=3, nc=1, rates=(1.0, 1.0, 1.0, 1.0)):
    return rules.explore(casestudies.scaffold_model(
        casestudies.ScaffoldParams(na, nb, nc, *rates)))


@st.composite
def stochastic_with_partition(draw):
    dim = draw(st.integers(min_value=2, max_value=6))
    raw = draw(st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=dim * dim, max_size=dim * dim))
    rows = np.array(raw).reshape(dim, dim)
    rows = rows / rows.sum(axis=1, keepdims=True)
    p = markov.StochasticMatrix.from_dense(rows)
    labels = draw(st.lists(st.integers(min_value=0, max_value=2),
                           min_size=dim, max_size=dim))
    blocks = {}
    for s, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(s)
    part = aggregation.Partition(tuple(tuple(b) for b in blocks.values()))
    return p, part


class TestPartitionAndMeasures:
    def test_partition_must_cover(self):
        with pytest.raises(ValueError):
            aggregation.Partition(((0, 1), (3,)))

    def test_partition_must_be_disjoint(self):
        with pytest.raises(ValueError, match="state 1 listed twice"):
            aggregation.Partition(((0, 1), (1, 2)))

    def test_block_of(self):
        part = aggregation.Partition(((0, 2), (1,)))
        assert part.block_of[0] == 0 and part.block_of[1] == 1 and part.block_of[2] == 0

    def test_uniform_measures_weights(self):
        part = aggregation.Partition(((0,), (1, 2, 3)))
        alphas = aggregation.uniform_measures(part)
        assert alphas.alphas[0] == {0: 1.0}
        assert all(abs(w - 1 / 3) < 1e-15 for w in alphas.alphas[1].values())

    def test_measures_must_sum_to_one(self):
        part = aggregation.Partition(((0, 1),))
        with pytest.raises(ValueError):
            aggregation.MeasureFamily(({0: 0.6, 1: 0.6},))

    def test_measures_must_be_positive(self):
        with pytest.raises(ValueError, match="not positive"):
            aggregation.MeasureFamily(({0: 1.0, 1: 0.0},))

    def test_measures_refuse_nan(self):
        with pytest.raises(ValueError, match="not positive"):
            aggregation.MeasureFamily(({0: 1.0, 1: float("nan")},))


class TestLargeUniformBlocks:
    """A measure's sum is checked against an absolute bound, so it must be
    rounded once: summed left to right, n copies of fl(1/n) miss 1 by more
    than markov.ROW_SUM_TOL for many n in the thousands."""

    @pytest.mark.parametrize("n", [36217, 104709])  # 104,709: scaffold (4,4,5)
    def test_one_block_measure_is_accepted(self, n):
        part = aggregation.Partition((tuple(range(n)),))
        alphas = aggregation.uniform_measures(part)
        assert np.array_equal(alphas.weights(part), np.full(n, 1.0 / n))

    def test_nested_in_singletons(self):
        n = 36217
        result = aggregation.nested(aggregation.Partition.singletons(n),
                                    aggregation.Partition((tuple(range(n)),)))
        assert result.groups.blocks == (tuple(range(n)),)
        assert set(result.alpha_prime.alphas[0].values()) == {1.0 / n}

    def test_sum_still_bounded(self):
        with pytest.raises(ValueError, match="measure 1 sums to"):
            aggregation.MeasureFamily(({0: 1.0}, dict.fromkeys(range(1, 1001), 1.001e-3)))


class TestMeasureArrays:
    def test_arrays_follow_the_dicts(self):
        alphas = aggregation.MeasureFamily(({2: 0.25, 0: 0.75}, {1: 1.0}))
        assert alphas.states.tolist() == [2, 0, 1]
        assert alphas.values.tolist() == [0.25, 0.75, 1.0]
        assert alphas.measure_of.tolist() == [0, 0, 1]
        with pytest.raises(ValueError):
            alphas.values[0] = 1.0

    @pytest.mark.parametrize("alphas, blocks", [
        (({0: 0.5, 1: 0.5}, {2: 1.0}), ((0, 1), (2, 3))),  # block 1 has a state more
        (({0: 0.5, 1: 0.5}, {2: 0.5, 3: 0.5}), ((0, 1, 2), (3,))),
        (({0: 0.5, 9: 0.5}, {2: 1.0}), ((0, 1), (2,))),  # a state outside the partition
        (({0: 0.5, -1: 0.5}, {2: 1.0}), ((0, 1), (2,))),  # not counted from the end
        (({0: 1.0}, {1: 0.5, 2: 0.5}), ((1, 2), (0,))),  # measures in the other order
    ])
    def test_support_must_be_the_block(self, alphas, blocks):
        family = aggregation.MeasureFamily(alphas)
        part = aggregation.Partition(blocks)
        with pytest.raises(ValueError, match=r"measure \d support does not match block \d"):
            family.weights(part)

    def test_first_mismatched_measure_is_named(self):
        family = aggregation.MeasureFamily(({0: 1.0}, {1: 1.0}, {2: 0.5, 4: 0.5}, {3: 1.0}))
        part = aggregation.Partition(((0,), (1,), (2, 3), (4,)))
        with pytest.raises(ValueError, match="measure 2 support does not match block 2"):
            family.check_compatible(part)

    def test_states_must_be_integers(self):
        with pytest.raises(ValueError, match="integer state indices"):
            aggregation.MeasureFamily(({"a": 1.0},))


class TestDeltaTable:
    def test_singleton_partition_reproduces_matrix(self):
        q = fig_chain(1.0, 2.0)
        part = aggregation.Partition.singletons(6)
        alphas = aggregation.uniform_measures(part)
        assert aggregation.check_condition(q, part, alphas)["residual"] == 0.0
        agg = aggregation.aggregate(q, part, alphas)
        assert agg.residual == 0.0
        assert np.array_equal(agg.matrix.dense(), q.dense())

    def test_fig_chain_delta_on_target_block(self):
        # feeders at rates c1 and c2 per target: delta = (2/4)(c1+c2) on both
        # targets even when c1 != c2, and the spread on that pair is zero.
        # Moves g2 -> g1 and g2' -> g1' at (c1 - c2)/2 level the feeder
        # block's delta onto itself, whose spread would hide that pair's.
        c1, c2 = 2.5, 1.0
        q = fig_chain(c1, c2).dense()
        q[1, 0] = q[3, 2] = 0.5 * (c1 - c2)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        q = markov.RateMatrix.from_dense(q)
        part = fig_partition()
        alphas = aggregation.uniform_measures(part)
        assert aggregation.check_condition(q, part, alphas)["residual"] == 0.0
        agg = aggregation.aggregate(q, part, alphas).matrix.dense()
        assert abs(agg[0, 1] - 0.5 * (c1 + c2)) < 1e-14

    def test_perturbed_row_has_positive_spread(self):
        q = fig_chain(1.0, 1.0).dense()
        q[0, 4] = 3.0
        q[0, 0] = -q[0, 1:].sum()
        q = markov.RateMatrix.from_dense(q)
        part = fig_partition()
        alphas = aggregation.uniform_measures(part)
        assert aggregation.check_condition(q, part, alphas)["residual"] > 0
        with pytest.raises(ConditionViolated):
            aggregation.aggregate(q, part, alphas)

    def test_singleton_partition_memory_is_linear_in_nonzeros(self):
        # a blocks x states table would be 3,000^2 doubles = 69 MiB per array
        n = 3000
        ids = np.arange(n)
        q = markov.RateMatrix(n, np.r_[ids, ids], np.r_[(ids + 1) % n, ids],
                              np.r_[np.ones(n), -np.ones(n)])
        part = aggregation.Partition.singletons(n)
        alphas = aggregation.uniform_measures(part)
        for call in (aggregation.check_condition, aggregation.aggregate):
            tracemalloc.start()
            try:
                call(q, part, alphas)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2 ** 20, (call.__name__, peak)


class TestConditionChecks:
    def test_singleton_partition_always_holds(self):
        q = fig_chain(0.3, 1.7)
        part = aggregation.Partition.singletons(6)
        res = aggregation.check_condition(q, part, aggregation.uniform_measures(part), 1e-9)
        assert res == {"holds": True, "residual": 0.0}
        assert aggregation.check_cond3(q, part)

    def test_partition_of_another_dimension_refused(self):
        q = fig_chain(0.3, 1.7)
        part = aggregation.Partition.singletons(5)
        with pytest.raises(ValueError, match="does not cover the matrix dimension"):
            aggregation.check_condition(q, part, aggregation.uniform_measures(part))
        with pytest.raises(ValueError, match="does not cover the matrix dimension"):
            aggregation.check_cond3(q, part)

    def test_scaffold_phi1_holds(self):
        ch = scaffold_chain(1, 1, 1)
        part = rules.build_partition(ch, casestudies.scaffold_phi1)
        res = aggregation.check_condition(
            ch.matrix, part, aggregation.uniform_measures(part), 1e-9)
        assert res["holds"]

    def test_polymer_phi3_fails_with_unequal_rates(self):
        ch = rules.explore(casestudies.polymer_model(
            casestudies.PolymerParams(2, bind_ba=1.0, bind_rl=2.0)))
        part = rules.build_partition(ch, casestudies.polymer_phi3)
        res = aggregation.check_condition(
            ch.matrix, part, aggregation.uniform_measures(part), 1e-9)
        assert not res["holds"]
        assert not aggregation.check_cond3(ch.matrix, part)

    def test_polymer_phi3_fails_at_n2_even_with_equal_rates(self):
        # the number of ways to add a bond depends on the per-type split
        # (m_rl, m_ba), not only on the total, so incoming columns differ
        # inside a total-bond block once n >= 2
        ch = rules.explore(casestudies.polymer_model(casestudies.PolymerParams(2)))
        part = rules.build_partition(ch, casestudies.polymer_phi3)
        assert not aggregation.check_cond3(ch.matrix, part)

    def test_polymer_phi3_passes_at_n1_with_equal_rates(self):
        ch = rules.explore(casestudies.polymer_model(casestudies.PolymerParams(1)))
        part = rules.build_partition(ch, casestudies.polymer_phi3)
        assert aggregation.check_cond3(ch.matrix, part)
        ch2 = rules.explore(casestudies.polymer_model(
            casestudies.PolymerParams(1, bind_ba=1.0, bind_rl=1.0 + 1e-6)))
        part2 = rules.build_partition(ch2, casestudies.polymer_phi3)
        assert not aggregation.check_cond3(ch2.matrix, part2)

    def test_cond3_on_fig_chain(self):
        # with equal feeder rates the block-swapping permutation works
        # globally; with unequal rates the feeders' own diagonal entries
        # differ, so the full structural check fails even though the
        # feeder-to-target pair still has zero spread
        assert aggregation.check_cond3(fig_chain(1.5, 1.5), fig_partition())
        assert not aggregation.check_cond3(fig_chain(1.0, 2.0), fig_partition())

    def test_cond3_false_on_mismatched_predecessors(self):
        q = np.zeros((3, 3))
        q[0, 1] = 1.0  # state 1 has one incoming rate, state 2 has none
        np.fill_diagonal(q, -q.sum(axis=1))
        k = markov.RateMatrix.from_dense(q)
        assert not aggregation.check_cond3(k, aggregation.Partition(((0,), (1, 2))))

    def test_cond3_counts_a_missing_negative_rate_as_zero(self):
        # state 0 leaves its block and state 1 is absorbing, so only the
        # column of state 0 holds a (negative) diagonal rate
        q = markov.RateMatrix.from_dense(np.array([
            [-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert not aggregation.check_cond3(q, aggregation.Partition(((0, 1), (2,))))

    def test_cond3_tolerates_summation_noise(self):
        # generator diagonals summed in different orders differ in the last
        # bits; the condition itself holds to 1e-15
        ch = scaffold_chain(3, 3, 3, rates=(1.3, 0.7, 1.1, 0.9))
        part = rules.build_partition(ch, casestudies.scaffold_phi2)
        res = aggregation.check_condition(
            ch.matrix, part, aggregation.uniform_measures(part))
        assert res["holds"] and res["residual"] < 1e-13
        assert aggregation.check_cond3(ch.matrix, part)

    @settings(max_examples=25, deadline=None)
    @given(stochastic_with_partition())
    def test_cond3_implies_numeric_condition(self, case):
        p, part = case
        alphas = aggregation.uniform_measures(part)
        res = aggregation.check_condition(p, part, alphas, 1e-12)
        if aggregation.check_cond3(p, part):
            assert res["residual"] <= 1e-12
        assert res["residual"] >= 0.0


class TestAggregate:
    def test_singleton_partition_identity(self):
        q = fig_chain(1.0, 2.0)
        part = aggregation.Partition.singletons(6)
        agg = aggregation.aggregate(q, part, aggregation.uniform_measures(part), 1e-12)
        assert np.allclose(agg.matrix.dense(), q.dense(), atol=1e-15)

    def test_fig_chain_rate(self):
        c = 1.5
        q = fig_chain(c, c)
        part = fig_partition()
        agg = aggregation.aggregate(q, part, aggregation.uniform_measures(part), 1e-12)
        assert abs(agg.matrix.dense()[0, 1] - 0.5 * (c + c)) < 1e-14

    def test_violation_raises_with_residual(self):
        ch = rules.explore(casestudies.polymer_model(casestudies.PolymerParams(2)))
        part = rules.build_partition(ch, casestudies.polymer_phi3)
        with pytest.raises(ConditionViolated) as err:
            aggregation.aggregate(ch.matrix, part,
                                  aggregation.uniform_measures(part), 1e-9)
        assert err.value.residual > 1e-9

    def test_scaffold_phi2_rows_sum_to_zero(self):
        ch = scaffold_chain()
        part = rules.build_partition(ch, casestudies.scaffold_phi2)
        agg = aggregation.aggregate(ch.matrix, part,
                                    aggregation.uniform_measures(part), 1e-9)
        assert np.abs(agg.matrix.dense().sum(axis=1)).max() <= 1e-11


class TestKeptArrays:
    """A chain keeps its rows' partner patterns and a matrix its K^T, built
    on first use; no later call may change what another call reads."""

    def test_partitions_in_turn_on_one_chain(self):
        chain = scaffold_chain(3, 3, 3)
        for phi in (casestudies.scaffold_phi1, casestudies.scaffold_phi2,
                    cli._PHI_FUNCS["species"], casestudies.scaffold_phi1):
            assert rules.build_partition(chain, phi) == rules.build_partition(
                scaffold_chain(3, 3, 3), phi)

    def test_kept_arrays_are_read_only(self):
        chain = scaffold_chain(2, 2, 2)
        rules.build_partition(chain, casestudies.scaffold_phi1)
        kept = chain._patterns
        rules.build_partition(chain, casestudies.scaffold_phi2)
        assert chain._patterns is kept
        _, patterns, which = kept
        part = rules.build_partition(chain, cli._PHI_FUNCS["species"])
        aggregation.check_condition(chain.matrix, part, aggregation.uniform_measures(part))
        op = chain.matrix._operator
        for arr in (*patterns, *which, op.indptr, op.indices, op.data):
            with pytest.raises(ValueError, match="read-only"):
                arr[:1] = arr[:1]

    def test_checks_and_solves_in_turn_on_one_matrix(self):
        chain = scaffold_chain(3, 3, 3, rates=(1.3, 0.7, 1.1, 0.9))
        part = rules.build_partition(chain, casestudies.scaffold_phi2)
        alphas = aggregation.uniform_measures(part)
        pi0 = aggregation.lift(markov.Distribution.uniform(len(part)), part, alphas)
        K = chain.matrix

        def fresh():
            return markov.RateMatrix(K.dim, K.row, K.col, K.data)

        checked = aggregation.check_condition(K, part, alphas)
        agg = aggregation.aggregate(K, part, alphas)
        x = markov.transient(K, pi0, 2.0)
        mu = markov.stationary(K)
        assert checked == aggregation.check_condition(fresh(), part, alphas)
        again = aggregation.aggregate(fresh(), part, alphas)
        assert agg.matrix == again.matrix and agg.residual == again.residual
        assert x == markov.transient(fresh(), pi0, 2.0)
        assert mu == markov.stationary(fresh())


class TestRestrictLiftRespects:
    def test_restrict_sizes(self):
        part = aggregation.Partition(((0,), (1, 2, 3)))
        pi = markov.Distribution.uniform(4)
        assert np.allclose(aggregation.restrict(pi, part).weights, [0.25, 0.75])

    def test_lift_uniform_block(self):
        part = aggregation.Partition(((0, 1, 2),))
        alphas = aggregation.uniform_measures(part)
        blocks = markov.Distribution([1.0])
        lifted = aggregation.lift(blocks, part, alphas)
        assert np.allclose(lifted.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_lift_refuses_another_number_of_blocks(self):
        part = aggregation.Partition(((0, 1), (2,)))
        with pytest.raises(ValueError, match="3 block weights for 2 blocks"):
            aggregation.lift(markov.Distribution.uniform(3), part,
                             aggregation.uniform_measures(part))

    def test_restrict_refuses_another_number_of_states(self):
        part = aggregation.Partition(((0, 1), (2,)))
        with pytest.raises(ValueError, match="^4 weights for 3 states$"):
            aggregation.restrict(markov.Distribution.uniform(4), part)

    def test_respects_refuses_another_number_of_states(self):
        part = aggregation.Partition(((0, 1), (2,)))
        with pytest.raises(ValueError, match="^2 weights for 3 states$"):
            aggregation.respects(markov.Distribution.uniform(2), part,
                                 aggregation.uniform_measures(part))

    def test_restrict_after_lift_is_identity(self):
        part = aggregation.Partition(((0, 2), (1, 3, 4)))
        alphas = aggregation.MeasureFamily((
            {0: 0.25, 2: 0.75}, {1: 0.5, 3: 0.3, 4: 0.2}))
        blocks = markov.Distribution([0.6, 0.4])
        back = aggregation.restrict(aggregation.lift(blocks, part, alphas), part)
        assert np.abs(back.weights - blocks.weights).max() <= 1e-15

    def test_lifted_distribution_respects(self):
        part = aggregation.Partition(((0, 2), (1, 3, 4)))
        alphas = aggregation.MeasureFamily((
            {0: 0.25, 2: 0.75}, {1: 0.5, 3: 0.3, 4: 0.2}))
        pi = aggregation.lift(markov.Distribution([0.6, 0.4]), part, alphas)
        assert aggregation.respects(pi, part, alphas)["holds"]

    def test_point_mass_does_not_respect_uniform(self):
        part = aggregation.Partition(((0, 1),))
        alphas = aggregation.uniform_measures(part)
        res = aggregation.respects(markov.Distribution([1.0, 0.0]), part, alphas)
        assert not res["holds"]
        assert abs(res["deviation"] - 0.5) < 1e-15

    def test_zero_mass_blocks_ignored(self):
        part = aggregation.Partition(((0,), (1, 2)))
        alphas = aggregation.uniform_measures(part)
        res = aggregation.respects(markov.Distribution([1.0, 0.0, 0.0]), part, alphas)
        assert res["holds"]

    def test_stationary_respects_for_condition_chain(self):
        ch = scaffold_chain(2, 2, 2)
        part = rules.build_partition(ch, casestudies.scaffold_phi2)
        alphas = aggregation.uniform_measures(part)
        mu = markov.stationary(ch.matrix)
        assert aggregation.respects(mu, part, alphas)["deviation"] <= 1e-9


class TestToleranceValidation:
    # a NaN or negative tol fails every comparison and an infinite one passes
    # every comparison, so each would decide the condition silently
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-12])
    def test_non_finite_or_negative_tol_rejected(self, tol):
        q = fig_chain(1.0, 2.0)
        part = fig_partition()
        alphas = aggregation.uniform_measures(part)
        for call in (lambda: aggregation.check_condition(q, part, alphas, tol),
                     lambda: aggregation.aggregate(q, part, alphas, tol),
                     lambda: aggregation.respects(markov.Distribution.uniform(6), part,
                                                  alphas, tol)):
            with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
                call()

    def test_diagnostics_transient_tol_default_is_its_constant(self):
        default = inspect.signature(aggregation.convergence_diagnostics).parameters[
            "transient_tol"].default
        assert default is aggregation.DEFAULT_DIAGNOSTICS_TRANSIENT_TOL == 1e-14

    def test_zero_tol_accepted(self):
        q = fig_chain(1.5, 1.5)
        part = fig_partition()
        alphas = aggregation.uniform_measures(part)
        assert aggregation.check_condition(q, part, alphas, 0.0)["holds"]
        assert aggregation.aggregate(q, part, alphas, 0.0).residual == 0.0
        assert aggregation.respects(markov.Distribution.uniform(6), part, alphas, 0.0)["holds"]


class TestNested:
    def test_fine_equals_coarse_gives_point_masses(self):
        part = aggregation.Partition(((0, 1), (2,)))
        res = aggregation.nested(part, part)
        assert res.alpha_prime.alphas == ({0: 1.0}, {1: 1.0})

    def test_straddling_block_raises(self):
        fine = aggregation.Partition(((0, 1), (2,)))
        coarse = aggregation.Partition(((0,), (1, 2)))
        with pytest.raises(NotNested):
            aggregation.nested(fine, coarse)

    def test_partitions_of_different_spaces_refused(self):
        with pytest.raises(ValueError, match="different state spaces"):
            aggregation.nested(aggregation.Partition(((0, 1),)),
                               aggregation.Partition(((0, 1, 2),)))

    def test_scaffold_alpha_prime_sizes(self):
        ch = scaffold_chain()
        fine = rules.build_partition(ch, casestudies.scaffold_phi1)
        coarse = rules.build_partition(ch, casestudies.scaffold_phi2)
        res = aggregation.nested(fine, coarse)
        # the 9-state coarse block splits into fine blocks of sizes 3 and 6
        weights = sorted(w for alpha in res.alpha_prime.alphas
                         for w in alpha.values())
        assert any(abs(w - 1 / 3) < 1e-15 for w in weights)
        assert any(abs(w - 2 / 3) < 1e-15 for w in weights)
        singleton_fine = [i for i, blk in enumerate(fine.blocks) if len(blk) == 1]
        for alpha in res.alpha_prime.alphas:
            for i in singleton_fine:
                if i in alpha and len(alpha) == 1:
                    assert alpha[i] == 1.0

    def test_two_level_aggregation_consistency(self):
        ch = scaffold_chain()
        fine = rules.build_partition(ch, casestudies.scaffold_phi1)
        coarse = rules.build_partition(ch, casestudies.scaffold_phi2)
        fine_alphas = aggregation.uniform_measures(fine)
        fine_chain = aggregation.aggregate(ch.matrix, fine, fine_alphas, 1e-9)
        res = aggregation.nested(fine, coarse)
        check = aggregation.check_condition(
            fine_chain.matrix, res.groups, res.alpha_prime, 1e-12)
        assert check["holds"]
        reagg = aggregation.aggregate(
            fine_chain.matrix, res.groups, res.alpha_prime, 1e-12)
        coarse_chain = aggregation.aggregate(
            ch.matrix, coarse, aggregation.uniform_measures(coarse), 1e-9)
        assert np.abs(reagg.matrix.dense() - coarse_chain.matrix.dense()).max() <= 1e-11


def test_theorem_checks_are_not_public():
    """The theorem checks hold for every correct aggregation; they test the
    library from the tests' oracle, not from inside it."""
    moved = ("verify_commutation", "power_identity_residual", "structural_preservation",
             "PreservationReport", "TheoremViolated", "evolve_discrete", "cesaro")
    for module in (lumpkit, aggregation, markov, errors):
        assert [name for name in moved if hasattr(module, name)] == [], module.__name__
    assert not set(moved) & set(lumpkit.__all__)
    assert all(hasattr(oracle, name) for name in moved)


class TestIdentityResiduals:
    def test_commutation_fig_chain(self):
        q = fig_chain(1.25, 1.25)
        part = fig_partition()
        alphas = aggregation.uniform_measures(part)
        r = markov.default_rate(q)
        assert oracle.verify_commutation(q, part, alphas, r, 1e-12) <= 1e-13

    def test_commutation_singleton(self):
        q = fig_chain(1.0, 2.0)
        part = aggregation.Partition.singletons(6)
        alphas = aggregation.uniform_measures(part)
        assert oracle.verify_commutation(q, part, alphas, 10.0, 1e-12) <= 1e-15

    def test_power_identity_scaffold(self):
        ch = scaffold_chain(1, 1, 1)
        part = rules.build_partition(ch, casestudies.scaffold_phi2)
        alphas = aggregation.uniform_measures(part)
        m = markov.uniformize(ch.matrix, markov.default_rate(ch.matrix))
        for n in (1, 5):
            assert oracle.power_identity_residual(m, part, alphas, n, 1e-9) <= 1e-12

    def test_power_identity_singleton(self):
        ch = scaffold_chain(1, 1, 1)
        part = aggregation.Partition.singletons(len(ch.space))
        alphas = aggregation.uniform_measures(part)
        m = markov.uniformize(ch.matrix, markov.default_rate(ch.matrix))
        assert oracle.power_identity_residual(m, part, alphas, 3, 1e-9) <= 1e-13

    def test_structural_preservation_scaffold(self):
        ch = scaffold_chain()
        part = rules.build_partition(ch, casestudies.scaffold_phi2)
        alphas = aggregation.uniform_measures(part)
        agg = aggregation.aggregate(ch.matrix, part, alphas, 1e-9)
        report = oracle.structural_preservation(ch.matrix, agg)
        assert report.original_irreducible and report.aggregated_irreducible

    def test_two_cycle_lumped_to_self_loop(self):
        p = markov.StochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        part = aggregation.Partition(((0, 1),))
        alphas = aggregation.uniform_measures(part)
        agg = aggregation.aggregate(p, part, alphas, 1e-12)
        assert agg.matrix.dense()[0, 0] == 1.0
        report = oracle.structural_preservation(p, agg)
        assert report.aggregated_irreducible


class TestLumpabilityInvertibility:
    def test_respecting_start_discrete(self):
        ch = scaffold_chain(1, 1, 1)
        part = rules.build_partition(ch, casestudies.scaffold_phi2)
        alphas = aggregation.uniform_measures(part)
        p = markov.uniformize(ch.matrix, markov.default_rate(ch.matrix))
        agg = aggregation.aggregate(p, part, alphas, 1e-9)
        blocks0 = markov.Distribution([0.5, 0.2, 0.2, 0.1])
        pi0 = aggregation.lift(blocks0, part, alphas)
        for n in (1, 4, 9):
            full = oracle.evolve_discrete(p, pi0, n)
            small = oracle.evolve_discrete(agg.matrix, blocks0, n)
            assert np.abs(aggregation.restrict(full, part).weights
                          - small.weights).max() <= 1e-9
            lifted = aggregation.lift(small, part, alphas)
            assert np.abs(full.weights - lifted.weights).max() <= 1e-9

    def test_diagnostics_respecting_start(self):
        ch = scaffold_chain()
        part = rules.build_partition(ch, casestudies.scaffold_phi2)
        alphas = aggregation.uniform_measures(part)
        blocks0 = markov.Distribution([0.4, 0.3, 0.2, 0.1])
        pi0 = aggregation.lift(blocks0, part, alphas)
        series = aggregation.convergence_diagnostics(
            ch.matrix, part, alphas, pi0, [0.0, 0.5, 2.0], 1e-9)
        t0 = series[0]
        assert t0[1] <= 1e-15 and t0[2] <= 1e-15
        for _, dev_lump, dev_inv in series:
            assert dev_lump <= 1e-10 and dev_inv <= 1e-10

    def test_diagnostics_point_mass_converges(self):
        ch = scaffold_chain()
        part = rules.build_partition(ch, casestudies.scaffold_phi2)
        alphas = aggregation.uniform_measures(part)
        big_block = max(range(len(part)), key=lambda i: len(part.blocks[i]))
        pi0 = markov.Distribution.point_mass(
            len(ch.space), part.blocks[big_block][0])
        series = aggregation.convergence_diagnostics(
            ch.matrix, part, alphas, pi0, [1.0, 10.0, 50.0], 1e-9)
        devs = [row[2] for row in series]
        assert devs[-1] <= 1e-6
        assert devs[0] >= devs[1] >= devs[2] - 1e-9

    def test_continuous_lumpability_against_expm_oracle(self):
        ch = scaffold_chain(1, 1, 1, rates=(2.0, 1.0, 0.5, 0.25))
        part = rules.build_partition(ch, casestudies.scaffold_phi1)
        alphas = aggregation.uniform_measures(part)
        agg = aggregation.aggregate(ch.matrix, part, alphas, 1e-9)
        blocks0 = markov.Distribution([0.25] * 4)
        pi0 = aggregation.lift(blocks0, part, alphas)
        t = 0.8
        full = pi0.weights @ dense_expm(ch.matrix, t)
        small = blocks0.weights @ dense_expm(agg.matrix, t)
        sums = [full[list(b)].sum() for b in part.blocks]
        assert np.abs(np.array(sums) - small).max() <= 1e-12


class TestSerialization:
    def test_partition_round_trip(self, tmp_path):
        space = markov.StateSpace(("a", "b", "c", "d"))
        part = aggregation.Partition(((0, 3), (1, 2)))
        path = tmp_path / "part.json"
        aggregation.save_partition(path, part, space)
        assert aggregation.load_partition(path, space) == part

    def test_measures_round_trip(self, tmp_path):
        space = markov.StateSpace(("a", "b", "c"))
        alphas = aggregation.MeasureFamily(({0: 1.0}, {1: 0.25, 2: 0.75}))
        path = tmp_path / "meas.json"
        aggregation.save_measures(path, alphas, space)
        again = aggregation.load_measures(path, space)
        assert again.alphas == alphas.alphas

    def test_files_in_the_documented_layout_load(self, tmp_path):
        # keys in written order, not sorted: the layout of earlier releases
        space = markov.StateSpace(("b", "a", "c"))
        (tmp_path / "part.json").write_text('{"blocks": [["c", "a"], ["b"]]}\n')
        (tmp_path / "meas.json").write_text(
            '{"alphas": [{"a": 0.5, "c": 0.5}, {"b": 1.0}]}\n')
        part = aggregation.load_partition(tmp_path / "part.json", space)
        assert part.blocks == ((1, 2), (0,))
        alphas = aggregation.load_measures(tmp_path / "meas.json", space)
        assert alphas.alphas == ({1: 0.5, 2: 0.5}, {0: 1.0})
        # the readers keep Python ints, as the library's own blocks and measures
        assert all(type(s) is int for b in part.blocks for s in b)
        assert all(type(s) is int for a in alphas.alphas for s in a)
