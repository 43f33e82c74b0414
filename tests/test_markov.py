import inspect
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dense_expm, dense_stationary
from oracle import cesaro, evolve_discrete
from lumpkit import aggregation, casestudies, markov, rules
from lumpkit.errors import NotIrreducible, RateBoundViolated, SolverFailure


def two_state_q(a=1.3, b=0.7):
    return markov.RateMatrix.from_dense(np.array([[-a, a], [b, -b]]))


def rate_matrix(dim, entries):
    """The generator with these (row, col, rate) off-diagonal entries."""
    row, col, rate = map(np.array, zip(*entries))
    return markov.RateMatrix(dim, np.r_[row, row], np.r_[col, row], np.r_[rate, -rate])


def birth_death(birth, death):
    """The generator of k -> k + 1 at birth[k] and k + 1 -> k at death[k]."""
    k = np.arange(len(birth))
    return rate_matrix(len(k) + 1, [*zip(k, k + 1, birth), *zip(k + 1, k, death)])


@st.composite
def small_rate_matrices(draw):
    dim = draw(st.integers(min_value=2, max_value=5))
    entries = draw(st.lists(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        min_size=dim * dim, max_size=dim * dim))
    q = np.array(entries).reshape(dim, dim)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return markov.RateMatrix.from_dense(q)


@st.composite
def matrices_with_repeated_values(draw):
    """Rate matrices whose rates repeat, some with no entries at all, or the
    stochastic matrices that uniformize them."""
    dim = draw(st.integers(min_value=1, max_value=6))
    rates = draw(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=3))
    q = np.array(draw(st.lists(st.sampled_from([0.0] + rates),
                               min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    q = markov.RateMatrix.from_dense(q)
    return q if draw(st.booleans()) else markov.uniformize(q, markov.default_rate(q))


class TestTypes:
    def test_state_space_rejects_duplicates(self):
        with pytest.raises(ValueError):
            markov.StateSpace(("a", "b", "a"))

    def test_state_space_index_is_inverse(self):
        space = markov.StateSpace(("x", "y", "z"))
        assert [space.index[s] for s in space.states] == [0, 1, 2]

    def test_stochastic_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            markov.StochasticMatrix.from_dense(np.array([[0.5, 0.4], [0.0, 1.0]]))

    def test_stochastic_rejects_negative(self):
        with pytest.raises(ValueError):
            markov.StochasticMatrix.from_dense(np.array([[-0.5, 1.5], [0.0, 1.0]]))

    def test_rate_rejects_negative_offdiagonal(self):
        with pytest.raises(ValueError):
            markov.RateMatrix.from_dense(np.array([[1.0, -1.0], [0.0, 0.0]]))

    def test_rate_rejects_nonzero_row_sum(self):
        with pytest.raises(ValueError):
            markov.RateMatrix.from_dense(np.array([[-1.0, 2.0], [0.0, 0.0]]))

    def test_distribution_invariants(self):
        with pytest.raises(ValueError):
            markov.Distribution([0.5, 0.6])
        with pytest.raises(ValueError):
            markov.Distribution([1.5, -0.5])
        d = markov.Distribution.point_mass(3, 1)
        assert d[1] == 1.0 and d[0] == 0.0

    def test_distribution_equality(self):
        d = markov.Distribution([0.25, 0.75])
        assert d == markov.Distribution(np.array([0.25, 0.75]))
        assert d != markov.Distribution([0.75, 0.25])
        assert d != markov.Distribution([0.25, 0.25, 0.5])
        assert d != [0.25, 0.75] and d != d.weights.tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_distribution_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            markov.Distribution([bad, 0.5])

    @pytest.mark.parametrize("triplets", [  # row, col and value arrays, the refusal
        ([5, 0], [0, 1], [1.0, 1.0], "out of range"),
        ([-1, 0], [0, 1], [1.0, 1.0], "out of range"),  # valid if -1 counted from the end
        ([1, 0], [2, 1], [1.0, 1.0], "out of range"),
        ([0.5, 1.9], [1.2, 0], [1.0, 1.0], "must be integers"),  # a cast reads (0, 1), (1, 0)
        ([0, 1], [1, 0], [np.nan, 1.0], "finite"),
        ([True, False], [1, 0], [1.0, 1.0], "must be integers"),
        (["0", "1"], [1, 0], [1.0, 1.0], "must be integers"),
        ([0, 1], [1, 0], ["1", "1"], "real numbers"),
    ])
    def test_bad_triplets_rejected(self, triplets):
        row, col, data, message = triplets
        with pytest.raises(ValueError, match=message):
            markov.StochasticMatrix(2, row, col, data)

    @pytest.mark.parametrize("index_dtype", [np.int64, np.int32, np.uint8, float])
    def test_whole_number_indices_accepted(self, index_dtype):
        row, col = np.array([0, 1], dtype=index_dtype), np.array([1, 0], dtype=index_dtype)
        p = markov.StochasticMatrix(2, row, col, np.array([1, 1]))
        assert p == markov.StochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert p.row.dtype == p.col.dtype == np.int32 and p.data.dtype == float

    @pytest.mark.parametrize("make, dim", [
        # read as 2 states with an entry in row 2, refused later inside scipy
        (lambda: markov.RateMatrix(2.5, [2, 2], [0, 2], [1.0, -1.0]), 2.5),
        (lambda: markov.StochasticMatrix(True, [0], [0], [1.0]), True),  # read as 1 state
        (lambda: markov.StochasticMatrix(np.float64(1.0), [0], [0], [1.0]), np.float64(1.0)),
        (lambda: markov.StochasticMatrix(0, [], [], []), 0),
        # past int32 indices; the entry is out of range too, so no check sizes an array by it
        (lambda: markov.StochasticMatrix(2 ** 31, [-1], [0], [1.0]), 2 ** 31),
    ], ids=["fraction", "bool", "float", "zero", "past-int32"])
    def test_dimension_must_be_an_int32_count(self, make, dim):
        with pytest.raises(ValueError, match=re.escape(f"dimension must be an integer in "
                                                       f"[1, 2^31), not {dim!r}")):
            make()

    def test_numpy_integer_dimension_accepted(self):
        p = markov.StochasticMatrix(np.uint64(1), [0], [0], [1.0])
        assert p.dim == 1 and type(p.dim) is int

    def test_duplicate_triplets_are_summed(self):
        p = markov.StochasticMatrix(2, [0, 1, 0], [1, 0, 1], [0.25, 1.0, 0.75])
        assert p == markov.StochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("make", [
        lambda: markov.RateMatrix(2, [0], [0, 1], [0.0]),
        lambda: markov.RateMatrix.from_dense(np.zeros((2, 3))),
        lambda: markov.Distribution([[0.5], [0.5]]),
    ], ids=["lengths-differ", "not-square", "not-a-vector"])
    def test_malformed_construction_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_triplet_round_trip(self):
        q = two_state_q()
        again = markov.RateMatrix(2, *zip(*q.triplets()))
        assert q == again

    @settings(max_examples=60, deadline=None)
    @given(matrices_with_repeated_values())
    @example(markov.RateMatrix.from_dense(np.zeros((3, 3))))
    def test_triplets_match_one_object_per_number(self, m):
        expected = list(zip(m.row.tolist(), m.col.tolist(), m.data.tolist()))
        got = m.triplets()
        assert type(got) is list and got == expected
        assert [tuple(map(type, t)) for t in got] == [(int, int, float)] * len(expected)
        assert json.dumps(got) == json.dumps(expected)

    def test_triplets_share_index_and_value_objects(self):
        # scaffold (3,3,3): a new int or float per number retains about 142
        # bytes per entry, shared index and value objects about 76
        m = rules.explore(casestudies.scaffold_model(casestudies.ScaffoldParams(3, 3, 3))).matrix
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trip = m.triplets()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trip) == 9724
        assert retained / len(trip) < 100, retained / len(trip)

    def test_triplets_across_chunk_boundaries(self):
        # two whole chunks of entries and one past them
        rng = np.random.default_rng(7)
        dim, nnz = 200, 2 * markov._CHUNK + 1
        off = np.flatnonzero(~np.eye(dim, dtype=bool).ravel())
        row, col = np.divmod(rng.choice(off, nnz - dim, replace=False), dim)
        rates = rng.choice([0.5, 1.0, 2.5, 1 / 3], row.size)
        ids = np.arange(dim)
        m = markov.RateMatrix(dim, np.r_[row, ids], np.r_[col, ids],
                              np.r_[rates, -np.bincount(row, weights=rates, minlength=dim)])
        assert m.data.size == nnz
        got = m.triplets()
        assert got == list(zip(m.row.tolist(), m.col.tolist(), m.data.tolist()))
        assert {tuple(map(type, t)) for t in got} == {(int, int, float)}


class TestStationary:
    def test_one_state(self):
        p = markov.StochasticMatrix.from_dense(np.array([[1.0]]))
        assert markov.stationary(p).weights[0] == 1.0

    def test_rate_example(self):
        q = markov.RateMatrix.from_dense(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        mu = markov.stationary(q)
        assert np.allclose(mu.weights, [2 / 3, 1 / 3], atol=1e-12)

    def test_symmetric_stochastic(self):
        p = markov.StochasticMatrix.from_dense(np.full((2, 2), 0.5))
        assert np.allclose(markov.stationary(p).weights, [0.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("rate", [1e-15, 1e-13])
    def test_tiny_weight_kept(self, rate, lu_calls):
        # a weight far below the largest is still a weight, not rounding
        q = markov.RateMatrix.from_dense(np.array([[-1.0, 1.0], [rate, -rate]]))
        exact = np.array([rate, 1.0]) / (1.0 + rate)
        assert np.abs(markov.stationary(q).weights / exact - 1.0).max() <= 1e-12
        assert lu_calls == []

    @pytest.mark.parametrize("rate", [1e-15, 1e-13])
    def test_tiny_weight_kept_by_the_lu(self, rate, lu_calls):
        # one way round a 3-cycle, pi(i) is proportional to 1 / q_i
        q = rate_matrix(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, rate)])
        exact = np.array([rate, rate, 1.0]) / (1.0 + 2.0 * rate)
        assert np.abs(markov.stationary(q).weights / exact - 1.0).max() <= 1e-12
        assert len(lu_calls) == 1

    def test_tol_default_is_its_constant(self):
        default = inspect.signature(markov.stationary).parameters["tol"].default
        assert default is markov.DEFAULT_STATIONARY_TOL == 1e-10

    def test_residual_above_tol_refused(self):
        # no floating-point solve of this chain has a zero flow residual
        rng = np.random.default_rng(7)
        q = rng.uniform(0.1, 1.0, (30, 30)) / 3
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        with pytest.raises(SolverFailure, match="residual"):
            markov.stationary(markov.RateMatrix.from_dense(q), tol=0.0)

    def test_residual_above_tol_refused_after_detailed_balance(self, lu_calls):
        # a reversible chain whose balanced weights leave a flow residual
        # above tol goes on to the LU, which is refused too
        rng = np.random.default_rng(7)
        q = birth_death(rng.uniform(0.1, 1.0, 29), rng.uniform(0.1, 1.0, 29))
        assert 0.0 < np.abs(q.vecmat(markov._detailed_balance(q))).max()
        with pytest.raises(SolverFailure, match="residual"):
            markov.stationary(q, tol=0.0)
        assert len(lu_calls) == 1

    def test_failed_factorization_refused(self, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        q = rate_matrix(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5)])  # no detailed balance
        with pytest.raises(SolverFailure, match="Factor is exactly singular"):
            markov.stationary(q)

    @pytest.mark.parametrize("solution", [[0.5, 1.0, -0.5], [0.5, np.nan, 0.5],
                                          [0.5, np.inf, 0.5]], ids=["negative", "nan", "inf"])
    def test_negative_or_non_finite_solve_refused(self, monkeypatch, solution):
        # each weight is inside the one closed class, where a negative one
        # beyond rounding is no weight at all
        class Factor:
            def solve(self, b):
                return np.array(solution)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda *args, **kwargs: Factor())
        q = rate_matrix(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5)])
        with pytest.raises(SolverFailure, match="negative or non-finite weights"):
            markov.stationary(q)

    def test_reducible_rejected(self):
        p = markov.StochasticMatrix.from_dense(np.eye(2))
        with pytest.raises(NotIrreducible):
            markov.stationary(p)

    def test_against_null_space_oracle(self):
        # lstsq on the full constrained system, nothing shared with the
        # production solve path
        rng_rows = np.array([
            [0.1, 0.5, 0.4],
            [0.3, 0.3, 0.4],
            [0.25, 0.25, 0.5],
        ])
        p = markov.StochasticMatrix.from_dense(rng_rows)
        mu = markov.stationary(p)
        a = np.vstack([(rng_rows - np.eye(3)).T, np.ones(3)])
        b = np.concatenate([np.zeros(3), [1.0]])
        oracle = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.abs(mu.weights - oracle).max() < 1e-12

    @pytest.mark.parametrize("entries", [
        [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5)],
        [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 0.5), (2, 1, 3.0), (2, 0, 0.7)],
        # every entry has its reverse, but the rate products round the
        # cycle differ (2 one way, 1 the other): Kolmogorov's criterion fails
        [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 2.0), (2, 1, 1.0), (2, 0, 1.0), (0, 2, 1.0)],
        # off by 1e-11: the tree's weights leave a flow residual of about
        # 3e-12, within tol, but an entry out of balance by 1e-11
        [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0 + 1e-11), (2, 1, 1.0), (2, 0, 1.0), (0, 2, 1.0)],
    ], ids=["one-way-cycle", "one-one-way-entry", "unbalanced-cycle", "nearly-balanced-cycle"])
    def test_chains_without_detailed_balance_take_the_lu(self, entries, lu_calls):
        q = rate_matrix(3, entries)
        assert np.abs(markov.stationary(q).weights - dense_stationary(q)).max() < 1e-12
        assert len(lu_calls) == 1

    def test_two_reversible_components_rejected(self):
        # every entry balances with weight 1 on the states the tree misses
        q = rate_matrix(4, [(0, 1, 1.0), (1, 0, 2.0), (2, 3, 1.5), (3, 2, 1.5)])
        with pytest.raises(NotIrreducible):
            markov.stationary(q)

    @pytest.mark.parametrize("ratio", [1e150, 1e-150])
    def test_extreme_rate_ratios_balanced_in_log_space(self, ratio, lu_calls):
        # the weights span ratio^3 = 1e+-450, past the float range: the
        # smallest underflows to 0 and every other one is exact
        q = birth_death(np.full(3, ratio), np.ones(3))
        w = markov.stationary(q).weights
        log_w = np.arange(4) * math.log(ratio)
        log_w -= log_w.max() + math.log(np.exp(log_w - log_w.max()).sum())
        kept = log_w > math.log(np.finfo(float).tiny)
        assert np.isfinite(w).all() and (w[~kept] == 0.0).all() and kept.sum() == 3
        assert np.abs(np.log(w[kept]) - log_w[kept]).max() <= 1e-12
        assert lu_calls == []

    def test_detailed_balance_past_32_bit_edge_codes(self, without_lu):
        # 50,000 states: a code row * n + col in 32 bits wraps past 46,341
        # states; pi(k) is proportional to the product of birth / death rates
        rng = np.random.default_rng(31)
        birth, death = rng.uniform(0.5, 2.0, 49_999), rng.uniform(0.5, 2.0, 49_999)
        w = markov.stationary(birth_death(birth, death)).weights
        log_w = np.r_[0.0, np.cumsum(np.log(birth.astype(np.longdouble) / death))]
        exact = np.exp(log_w - log_w.max())
        assert np.abs(w / (exact / exact.sum()) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", [10_000, 50_000])
    def test_detailed_balance_where_log_pi_spans_ten_thousand_and_more(self, n, without_lu):
        # log pi falls by about 2.3 per state, so at 10,000 states an ulp of
        # log pi is over 1e-12: the edge bound must grow with the log terms
        rng = np.random.default_rng(1)
        birth, death = rng.uniform(0.1, 1.0, n - 1), rng.uniform(1.0, 10.0, n - 1)
        w = markov.stationary(birth_death(birth, death)).weights
        log_w = np.r_[0.0, np.cumsum(np.log(birth.astype(np.longdouble) / death))]
        assert -log_w.min() > 2 * n
        log_w -= log_w.max() + np.log(np.exp(log_w - log_w.max()).sum())
        kept = log_w > math.log(np.finfo(float).tiny)
        assert 100 < kept.sum() < n
        assert np.abs(w[kept] / np.exp(log_w[kept]) - 1.0).max() <= 1e-12


class TestUniformize:
    def test_zero_generator(self):
        q = markov.RateMatrix.from_dense(np.zeros((3, 3)))
        m = markov.uniformize(q, 1.0)
        assert np.array_equal(m.dense(), np.eye(3))

    def test_direct_substitution(self):
        q = markov.RateMatrix.from_dense(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        m = markov.uniformize(q, 4.0)
        assert np.allclose(m.dense(), [[0.75, 0.25], [0.5, 0.5]], atol=1e-15)

    def test_strict_bound(self):
        q = markov.RateMatrix.from_dense(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        with pytest.raises(RateBoundViolated):
            markov.uniformize(q, 2.0)

    def test_default_rate_above_max(self):
        q = two_state_q()
        r = markov.default_rate(q)
        assert r > max(q.exit_rates())
        # 1.05 * qmax rounds back to qmax at 5e-324 and overflows at 1.75e308
        for qmax in (5e-324, 1e-310, 1.7e308, 1.75e308):
            q = markov.RateMatrix.from_dense(np.array([[-qmax, qmax], [0.0, 0.0]]))
            r = markov.default_rate(q)
            assert qmax < r < math.inf, qmax
            assert markov.uniformize(q, r).dense()[0, 0] >= 0.0

    def test_default_rate_past_the_largest_float(self):
        big = sys.float_info.max
        q = markov.RateMatrix.from_dense(np.array([[-big, big], [0.0, 0.0]]))
        assert markov.default_rate(q) == math.inf
        with pytest.raises(SolverFailure, match=f"cap of {markov.POISSON_TERM_CAP}"):
            markov.transient(q, markov.Distribution([1.0, 0.0]), 1e-300)


class TestTransient:
    def test_zero_generator_any_time(self):
        q = markov.RateMatrix.from_dense(np.zeros((2, 2)))
        pi0 = markov.Distribution([0.3, 0.7])
        assert np.array_equal(markov.transient(q, pi0, 7.0).weights, pi0.weights)

    def test_t_zero(self):
        q = two_state_q()
        pi0 = markov.Distribution([0.2, 0.8])
        assert np.array_equal(markov.transient(q, pi0, 0.0).weights, pi0.weights)

    def test_two_state_closed_form(self):
        q = markov.RateMatrix.from_dense(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        pi0 = markov.Distribution([1.0, 0.0])
        res = markov.transient(q, pi0, 1.0)
        exact = np.array([(1 + math.exp(-2)) / 2, (1 - math.exp(-2)) / 2])
        assert np.abs(res.weights - exact).max() < 1e-12

    def test_against_taylor_oracle(self):
        ch = rules.explore(casestudies.scaffold_model(
            casestudies.ScaffoldParams(1, 3, 1, 2.0, 1.0, 0.5, 0.75)))
        pi0 = markov.Distribution.point_mass(len(ch.space), 0)
        for t in (0.3, 1.7):
            res = markov.transient(ch.matrix, pi0, t, tol=1e-12)
            oracle = pi0.weights @ dense_expm(ch.matrix, t)
            assert np.abs(res.weights - oracle).max() < 1e-11

    def test_semigroup(self):
        q = two_state_q(0.9, 1.4)
        pi0 = markov.Distribution([0.25, 0.75])
        for s in (0.5, 1.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                direct = markov.transient(q, pi0, s + t)
                stepped = markov.transient(q, markov.transient(q, pi0, s), t)
                assert np.abs(direct.weights - stepped.weights).max() <= 1e-9

    def test_poisson_series_identity(self):
        # e^{-rt} sum_k (rt)^k/k! pi0 M^k reproduces the transient solution
        q = two_state_q()
        r = markov.default_rate(q)
        m = markov.uniformize(q, r).dense()
        pi0 = markov.Distribution([1.0, 0.0])
        t = 1.3
        acc = np.zeros(2)
        vec = pi0.weights.copy()
        weight = math.exp(-r * t)
        for k in range(200):
            acc += weight * vec
            vec = vec @ m
            weight *= r * t / (k + 1)
        res = markov.transient(q, pi0, t)
        assert np.abs(res.weights - acc).max() < 1e-10

    def test_large_rt_matches_expm(self):
        # r*t = 1050: e^{-rt} underflows, so the series must start near the mode
        ch = rules.explore(casestudies.scaffold_model(
            casestudies.ScaffoldParams(1, 1, 1, 100.0, 100.0, 100.0, 100.0)))
        pi0 = markov.Distribution.point_mass(len(ch.space), 0)
        res = markov.transient(ch.matrix, pi0, 5.0)
        oracle = pi0.weights @ scipy.linalg.expm(ch.matrix.dense() * 5.0)
        assert np.abs(res.weights - oracle).max() < 1e-10

    def test_distribution_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="length does not match"):
            markov.transient(two_state_q(), markov.Distribution.uniform(3), 1.0)

    def test_term_cap_raises(self):
        # at rate 1.7e308, r*t = 1.785e308 overflows the window's bounds,
        # and at t = 1e300 it is infinite
        for rate, t in ((1e6, 2.0), (1.7e308, 1.0), (1.7e308, 1e300)):
            q = markov.RateMatrix.from_dense(np.array([[-rate, rate], [rate, -rate]]))
            with pytest.raises(SolverFailure, match=f"cap of {markov.POISSON_TERM_CAP}"):
                markov.transient(q, markov.Distribution([1.0, 0.0]), t)

    def test_window_past_the_cap_names_its_term_count(self):
        # r*t = 999,000 is under the cap, but the window's right end,
        # r*t + L/3 + sqrt(L^2/9 + 2 r*t L) with L = log(2/tol), is past it
        rt, log_tol = 999_000, math.log(2e12)
        right = math.ceil(rt + log_tol / 3 + math.sqrt(log_tol ** 2 / 9 + 2 * rt * log_tol))
        assert right == 1_006_533
        with pytest.raises(SolverFailure, match=f"needs {right} Poisson terms, more than the "
                                                f"cap of {markov.POISSON_TERM_CAP}"):
            markov._poisson_window(float(rt), 1e-12)

    @pytest.mark.parametrize("times", [(0.5, 2.0, 8.0), (8.0, 2.0, 0.5)])
    def test_horizons_share_one_uniformized_chain(self, times):
        # each solve equals the same solve on a fresh copy of the generator:
        # the kept chain carries nothing from one horizon to the next
        q = rules.explore(casestudies.polymer_model(casestudies.PolymerParams(2))).matrix
        pi0 = markov.Distribution.point_mass(q.dim, 0)
        got = [markov.transient(q, pi0, t).weights for t in times]
        kept = q._uniformized
        for t, x in zip(times, got):
            fresh = markov.RateMatrix(q.dim, q.row, q.col, q.data)
            assert np.array_equal(x, markov.transient(fresh, pi0, t).weights)
        assert q._uniformized is kept
        assert kept == markov.uniformize(q, markov.default_rate(q))

    def test_kept_chain_is_read_only(self):
        q = two_state_q()
        markov.transient(q, markov.Distribution([1.0, 0.0]), 1.0)
        m = q._uniformized
        op = m._operator
        for arr in (m.row, m.col, m.data, op.indptr, op.indices, op.data):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.data[0] = 0.5

    @pytest.mark.parametrize("which", ["explored", "uniformized"])
    def test_operator_is_the_transpose_in_csr(self, which):
        # row j of K^T lists column j of K in increasing i, so a product sums
        # each output in the order of the entries; its arrays are its own
        q = rules.explore(casestudies.polymer_model(casestudies.PolymerParams(2))).matrix
        k = q if which == "explored" else q._uniformized
        op = k._operator
        assert op.format == "csr" and op.indptr.dtype == op.indices.dtype == np.int32
        by_column = np.lexsort((k.row, k.col))
        assert np.array_equal(op.indices, k.row[by_column])
        assert np.array_equal(op.data, k.data[by_column])
        assert np.array_equal(op.indptr, np.r_[0, np.cumsum(np.bincount(k.col, minlength=k.dim))])
        assert not (np.shares_memory(op.indices, k.col) or np.shares_memory(op.data, k.data))
        for arr in (op.indptr, op.indices, op.data):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            op.data[0] = 0.5

    def test_zero_generator_builds_nothing(self):
        q = markov.RateMatrix.from_dense(np.zeros((3, 3)))
        pi0 = markov.Distribution([0.2, 0.3, 0.5])
        assert markov.transient(q, pi0, 4.0) is pi0
        assert "_uniformized" not in vars(q) and "_operator" not in vars(q)

    @settings(max_examples=25, deadline=None)
    @given(small_rate_matrices(), st.floats(min_value=0.0, max_value=3.0))
    # 1.05 times the exit rate 5e-324 rounds back to 5e-324
    @example(markov.RateMatrix.from_dense(np.array([[-5e-324, 5e-324], [0.0, 0.0]])), 1.0)
    def test_transient_is_a_distribution(self, q, t):
        pi0 = markov.Distribution.uniform(q.dim)
        res = markov.transient(q, pi0, t)
        assert res.weights.min() >= 0.0
        assert abs(res.weights.sum() - 1.0) <= 1e-12


class TestDiscrete:
    def test_evolve_zero_steps(self):
        p = markov.StochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        pi0 = markov.Distribution([1.0, 0.0])
        assert np.array_equal(evolve_discrete(p, pi0, 0).weights, pi0.weights)

    def test_evolve_swap(self):
        p = markov.StochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        pi0 = markov.Distribution([1.0, 0.0])
        assert np.array_equal(evolve_discrete(p, pi0, 3).weights, [0.0, 1.0])

    def test_cesaro_identity(self):
        p = markov.StochasticMatrix.from_dense(np.eye(2))
        pi0 = markov.Distribution([0.4, 0.6])
        assert np.array_equal(cesaro(p, pi0, 5).weights, pi0.weights)

    def test_cesaro_alternating(self):
        p = markov.StochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        pi0 = markov.Distribution([1.0, 0.0])
        assert np.allclose(cesaro(p, pi0, 2).weights, [0.5, 0.5])

    def test_cesaro_converges_to_stationary(self):
        p = markov.StochasticMatrix.from_dense(np.array([
            [0.1, 0.5, 0.4],
            [0.3, 0.3, 0.4],
            [0.25, 0.25, 0.5],
        ]))
        pi0 = markov.Distribution.point_mass(3, 0)
        avg = cesaro(p, pi0, 10 ** 4)
        mu = markov.stationary(p)
        assert np.abs(avg.weights - mu.weights).max() < 1e-3


class TestClassify:
    def test_identity_three_states(self):
        p = markov.StochasticMatrix.from_dense(np.eye(3))
        structure = markov.classify(p)
        assert len(structure.communicating_classes) == 3
        assert all(structure.closed_flags)
        assert structure.periods == (1, 1, 1)
        assert not structure.irreducible

    def test_two_cycle_period(self):
        p = markov.StochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        structure = markov.classify(p)
        assert structure.irreducible
        assert structure.periods == (2,)

    def test_scaffold_chain_irreducible(self):
        ch = rules.explore(casestudies.scaffold_model(
            casestudies.ScaffoldParams(1, 1, 1, 1.0, 2.0, 3.0, 4.0)))
        assert markov.classify(ch.matrix).irreducible

    def test_transient_class_not_closed(self):
        p = markov.StochasticMatrix.from_dense(np.array([[0.5, 0.5], [0.0, 1.0]]))
        structure = markov.classify(p)
        flags = dict(zip(
            [min(c) for c in structure.communicating_classes], structure.closed_flags))
        assert flags[0] is False and flags[1] is True


class TestSerialization:
    def test_chain_round_trip(self, tmp_path):
        # the non-dyadic rates come back only from an exact (repr) round trip
        for rates in [(1.0, 2.0, 0.5, 0.25), (1.3, 0.7, 1 / 3, 0.1)]:
            model = casestudies.scaffold_model(casestudies.ScaffoldParams(2, 1, 1, *rates))
            ch = rules.explore(model)
            path = tmp_path / "chain.json"
            markov.save_chain(path, ch.space, ch.matrix)
            space, matrix = markov.load_chain(path)
            assert space.states == ch.space.states
            assert matrix == ch.matrix

    def test_indented_files_still_load(self, tmp_path):
        # files written before save_json went compact are indented
        ch = rules.explore(casestudies.scaffold_model(
            casestudies.ScaffoldParams(2, 1, 1, 1.3, 0.7, 1 / 3, 0.1)))
        part = rules.build_partition(ch, casestudies.scaffold_phi1)
        alphas = aggregation.uniform_measures(part)
        for name, save in [("chain", lambda p: markov.save_chain(p, ch.space, ch.matrix)),
                           ("partition", lambda p: aggregation.save_partition(p, part, ch.space)),
                           ("measures", lambda p: aggregation.save_measures(p, alphas, ch.space))]:
            path = tmp_path / f"{name}.json"
            save(path)
            assert path.read_text(encoding="utf-8").count("\n") == 1
            data = markov.load_json(path)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=1, sort_keys=True)
                fh.write("\n")
        space, matrix = markov.load_chain(tmp_path / "chain.json")
        assert space.states == ch.space.states
        assert matrix == ch.matrix
        assert aggregation.load_partition(tmp_path / "partition.json", space) == part
        assert aggregation.load_measures(tmp_path / "measures.json", space) == alphas

    @pytest.mark.parametrize("triplets, where", [
        ([[0, 1, "1.5"], [0, 0, -1.5], [1, 0, 1], [1, 1, -1]], "triplets[0][2]"),
        ([[0, 1, 1.5], [0, 0, -1.5], [True, 0, 1], [1, 1, -1]], "triplets[2][0]"),
    ], ids=["string-value", "bool-row"])
    def test_chain_triplet_entries_must_be_numbers(self, tmp_path, triplets, where):
        # numpy would read "1.5" as the number 1.5 and true as row 1
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"states": ["a", "b"], "kind": "rate", "triplets": triplets}))
        with pytest.raises(ValueError, match=rf"^entry {re.escape(where)} of .*, not a number$"):
            markov.load_chain(path)

    def test_distribution_round_trip(self, tmp_path):
        space = markov.StateSpace(("a", "b", "c"))
        pi = markov.Distribution([0.25, 0.5, 0.25])
        path = tmp_path / "dist.csv"
        markov.save_distribution(path, space, pi)
        again = markov.load_distribution(path, space)
        assert np.array_equal(pi.weights, again.weights)

    def test_state_space_maps_keys_to_indices(self):
        space = markov.StateSpace(("a", "b", "c"))
        assert space.indices(["c", "a"], "f.csv").tolist() == [2, 0]
        assert space.indices([], "f.csv").size == 0
        with pytest.raises(ValueError, match="unknown state 'x' in f.csv"):
            space.indices(["a", "x"], "f.csv")
        with pytest.raises(ValueError, match="state 'b' listed twice in f.csv"):
            space.indices(["b", "a", "b"], "f.csv")
        with pytest.raises(ValueError, match="state 'c' listed twice"):
            markov.StateSpace(("a", "c", "b", "c"))

    def test_distribution_state_listed_twice(self, tmp_path):
        # the last row would win, and the file's weights add up to 1.5
        path = tmp_path / "dist.csv"
        path.write_text("a,0.5\na,0.5\nb,0.5\n")
        with pytest.raises(ValueError, match="state 'a' listed twice"):
            markov.load_distribution(path, markov.StateSpace(("a", "b", "c")))
