"""Differential tests: the array-based numerics against references written
here from the definitions, with dense numpy and brute force."""

import math

import mpmath
import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import bond_maps, dense_stationary, reachability, row_bond_maps

from lumpkit import aggregation, casestudies, cli, markov, rules
from lumpkit.errors import ConditionViolated
from lumpkit.sitegraph import node_type

weights = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


@st.composite
def partitions(draw, dim):
    labels = draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim))
    blocks = {}
    for s, label in enumerate(labels):
        blocks.setdefault(label, []).append(s)
    return aggregation.Partition(tuple(tuple(b) for b in blocks.values()))


@st.composite
def measures(draw, part):
    alphas = []
    for block in part.blocks:
        raw = np.array(draw(st.lists(weights, min_size=len(block), max_size=len(block))))
        raw = raw / raw.sum()
        raw[-1] = 1.0 - raw[:-1].sum()
        alphas.append(dict(zip(block, raw)))
    return aggregation.MeasureFamily(tuple(alphas))


def stochastic_rows(draw, rows, cols, sparse=True):
    entries = st.one_of(st.just(0.0), weights) if sparse else weights
    raw = np.array(draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))
    raw = raw.reshape(rows, cols)
    raw[:, 0] += raw.sum(axis=1) == 0  # no empty row
    return raw / raw.sum(axis=1, keepdims=True)


def to_generator(p, rate):
    """rate * (P - I): a generator with the same off-diagonal pattern."""
    q = rate * p
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


@st.composite
def lumping_cases(draw):
    """(matrix, the same as a dense array, partition, measures, lumpable).

    A lumpable K sends each state of A_i to block j with the block-level
    probability C(i, j) and lands according to alpha_j, so that
    sum_{s' in A_i} alpha_i(s') K(s', s) = C(i, j) alpha_j(s) holds exactly
    in real arithmetic; other cases are arbitrary stochastic matrices.
    """
    dim = draw(st.integers(2, 6))
    part = draw(partitions(dim))
    alphas = draw(measures(part))
    lumpable = draw(st.booleans())
    if lumpable:
        c = stochastic_rows(draw, len(part), len(part))
        w = alphas.weights(part)
        k = c[np.ix_(part.block_of, part.block_of)] * w
    else:
        k = stochastic_rows(draw, dim, dim)
    is_rate = draw(st.booleans())
    if is_rate:
        k = k - np.eye(dim)  # keeps the condition: V (K - I) = V K - V
        np.fill_diagonal(k, 0.0)
        np.fill_diagonal(k, -k.sum(axis=1))
        return markov.RateMatrix.from_dense(k), k, part, alphas, lumpable
    return markov.StochasticMatrix.from_dense(k), k, part, alphas, lumpable


def reference_delta(k, part, alphas):
    """delta(A_i, s) = sum_{s' in A_i} alpha_i(s') K(s', s) / alpha_j(s),
    with A_j the block of s, and its max - min over each target block."""
    m, n = len(part), k.shape[0]
    values = np.zeros((m, n))
    for i, source in enumerate(part.blocks):
        for s in range(n):
            j = part.block_of[s]
            values[i, s] = sum(alphas.alphas[i][sp] * k[sp, s] for sp in source)
            values[i, s] /= alphas.alphas[j][s]
    spread = np.array([[values[i, list(block)].max() - values[i, list(block)].min()
                        for block in part.blocks] for i in range(m)])
    return values, spread


class TestLumping:
    @settings(max_examples=150, deadline=None)
    @given(lumping_cases())
    def test_delta_table_matches_the_definition(self, case):
        matrix, k, part, alphas, _ = case
        _, spread = reference_delta(k, part, alphas)
        residual = aggregation.check_condition(matrix, part, alphas)["residual"]
        assert residual == pytest.approx(spread.max(), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(lumping_cases())
    def test_aggregate_matches_the_definition(self, case):
        matrix, k, part, alphas, lumpable = case
        values, spread = reference_delta(k, part, alphas)
        if not lumpable and spread.max() > 1e-9:
            with pytest.raises(ConditionViolated):
                aggregation.aggregate(matrix, part, alphas)
            return
        agg = aggregation.aggregate(matrix, part, alphas).matrix.dense()
        # the aggregated entry (i, j) is delta(A_i, s) for every s in A_j
        for j, block in enumerate(part.blocks):
            for s in block:
                assert np.abs(agg[:, j] - values[:, s]).max() <= 1e-9
        row_sum = 0.0 if isinstance(matrix, markov.RateMatrix) else 1.0
        assert np.abs(agg.sum(axis=1) - row_sum).max() <= 1e-12


def cycles(sigma):
    seen, out = set(), []
    for start in range(len(sigma)):
        cycle = []
        while start not in seen:
            seen.add(start)
            cycle.append(start)
            start = sigma[start]
        if cycle:
            out.append(tuple(cycle))
    return out


@st.composite
def symmetric_cases(draw):
    """(matrix, partition): a chain averaged over the group of a permutation
    sigma, with the orbits of sigma as blocks, so that the permutation
    condition holds up to rounding; half of the time one off-diagonal entry
    is then swapped with another of its row, which usually breaks it."""
    dim = draw(st.integers(1, 7))
    sigma = np.array(draw(st.permutations(range(dim))))
    orbits = cycles(sigma)
    order = math.lcm(*map(len, orbits))
    k = stochastic_rows(draw, dim, dim)
    is_rate = draw(st.booleans())
    if is_rate:
        k = to_generator(k, 1.0)
    power, total = np.arange(dim), np.zeros_like(k)
    for _ in range(order):
        total[np.ix_(power, power)] += k  # sigma^t K sigma^-t
        power = sigma[power]
    k = total / order
    if dim > 2 and draw(st.booleans()):
        a, b, c = draw(st.permutations(range(dim)))[:3]
        k[a, b], k[a, c] = k[a, c], k[a, b]
    cls = markov.RateMatrix if is_rate else markov.StochasticMatrix
    return cls.from_dense(k), aggregation.Partition(tuple(orbits))


def reference_cond3(k, part, tol=aggregation.DEFAULT_CONDITION_TOL):
    """Every state of a target block receives, from each source block A_i,
    the same sorted vector of |A_i| rates (zeros included) within tol."""
    for source in part.blocks:
        for block in part.blocks:
            vectors = np.array([np.sort(k[list(source), s]) for s in block])
            if (vectors.max(axis=0) - vectors.min(axis=0)).max() > tol:
                return False
    return True


class TestCond3:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(symmetric_cases(),
                     lumping_cases().map(lambda case: (case[0], case[2]))))
    def test_matches_the_sorted_columns(self, case):
        matrix, part = case
        assert aggregation.check_cond3(matrix, part) == \
            reference_cond3(matrix.dense(), part)


def as_chain(draw, p):
    """The stochastic rows p, or a generator with their off-diagonal pattern."""
    if draw(st.booleans()):
        return markov.RateMatrix.from_dense(to_generator(p, draw(weights) * 10))
    return markov.StochasticMatrix.from_dense(p)


@st.composite
def irreducible_chains(draw):
    dim = draw(st.integers(1, 7))
    return as_chain(draw, stochastic_rows(draw, dim, dim, sparse=False))  # all entries positive


@st.composite
def sparse_irreducible_chains(draw):
    """Sparse entries plus a directed cycle through the states in a drawn
    order, which makes the chain irreducible. The cycle's first edge has no
    reverse, so the pattern is never symmetric."""
    dim = draw(st.integers(3, 12))
    order = draw(st.permutations(range(dim)))
    p = stochastic_rows(draw, dim, dim)
    for a, b in zip(order, order[1:] + order[:1]):
        p[a, b] += draw(weights)
    p[order[1], order[0]] = 0.0
    return as_chain(draw, p / p.sum(axis=1, keepdims=True))


@st.composite
def single_closed_class_chains(draw):
    """(matrix, its transient states): a closed class whose entries are all
    positive, and transient states that each step to a state numbered below
    them, so every path ends in the closed class; then the states shuffled."""
    closed = draw(st.integers(1, 4))
    dim = closed + draw(st.integers(1, 5))
    p = np.zeros((dim, dim))
    p[:closed, :closed] = stochastic_rows(draw, closed, closed, sparse=False)
    for s in range(closed, dim):
        p[s] = stochastic_rows(draw, 1, dim)[0]
        p[s, draw(st.integers(0, s - 1))] += draw(weights)
        p[s] /= p[s].sum()
    order = np.array(draw(st.permutations(range(dim))))
    return as_chain(draw, p[np.ix_(order, order)]), np.flatnonzero(order >= closed)


def detailed_balance(maps, ratio):
    """pi(s) proportional to the product of k_on / k_off over the bonds of s,
    given the bond map of each state, ratio[bond type] = k_on / k_off. The
    case studies bind and unbind one pair of sites per step, at a rate per
    pair, and each step has its reverse, so pi(s) K(s, s') = pi(s') K(s', s)
    on every transition."""
    log_w = np.array([sum(math.log(ratio[frozenset({(node_type(v), s), (node_type(w), t)})])
                          for v, sites in bonds.items() for s, (w, t) in sites) / 2
                      for bonds in maps])  # a bond map lists each bond twice
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


RATES = (1.3, 0.7, 1.1, 0.9)
A_B, B_C, A_R_B_L = (frozenset({("A", "b"), ("B", "a")}), frozenset({("B", "c"), ("C", "b")}),
                     frozenset({("A", "r"), ("B", "l")}))
SCAFFOLD_RATIO = {A_B: RATES[0] / RATES[2], B_C: RATES[1] / RATES[3]}  # c1/c3, c2/c4
POLYMER_RATIO = {A_B: RATES[0] / RATES[1], A_R_B_L: RATES[2] / RATES[3]}  # b-a, then r-l


@pytest.fixture(scope="module")
def scaffold_444():
    """The full scaffold (4,4,4) chain: 43,681 states, 498,465 nonzeros."""
    return rules.explore(casestudies.scaffold_model(casestudies.ScaffoldParams(4, 4, 4, *RATES)))


class TestStationary:
    @settings(max_examples=100, deadline=None)
    @given(irreducible_chains())
    def test_matches_a_dense_solve(self, matrix):
        mu = markov.stationary(matrix)
        assert np.abs(mu.weights - dense_stationary(matrix)).max() <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(sparse_irreducible_chains())
    def test_sparse_unsymmetric_pattern_matches_a_dense_solve(self, matrix):
        pattern = matrix.dense() != 0
        assert (pattern != pattern.T).any()
        mu = markov.stationary(matrix)
        assert np.abs(mu.weights - dense_stationary(matrix)).max() <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(single_closed_class_chains())
    def test_transient_states_get_no_weight(self, case):
        matrix, transient = case
        mu = markov.stationary(matrix)
        assert (mu.weights[transient] == 0.0).all()
        assert np.abs(mu.weights - dense_stationary(matrix)).max() <= 1e-10

    @pytest.mark.parametrize("model, ratio", [
        (casestudies.scaffold_model(casestudies.ScaffoldParams(3, 3, 3, *RATES)), SCAFFOLD_RATIO),
        (casestudies.scaffold_model(casestudies.ScaffoldParams(3, 3, 4, *RATES)), SCAFFOLD_RATIO),
        (casestudies.polymer_model(casestudies.PolymerParams(3, *RATES)), POLYMER_RATIO),
    ], ids=["scaffold-333", "scaffold-334", "polymer-3"])
    def test_matches_detailed_balance(self, model, ratio):
        chain = rules.explore(model)
        mu = markov.stationary(chain.matrix)
        assert np.abs(mu.weights - detailed_balance(bond_maps(chain), ratio)).max() <= 1e-12

    def test_lumped_solves_lift_to_the_full_one_at_scaffold_444(self, scaffold_444, without_lu):
        # the paper's invertibility at stationarity on 43,681 states, which
        # the sparse LU does not solve in minutes; the closed form reads the
        # bond maps from the slot rows, as decoding 43,681 keys takes seconds
        chain = scaffold_444
        mu = markov.stationary(chain.matrix).weights
        assert np.abs(mu - detailed_balance(row_bond_maps(chain), SCAFFOLD_RATIO)).max() <= 1e-18
        for phi in (casestudies.scaffold_phi1, casestudies.scaffold_phi2):
            part = rules.build_partition(chain, phi)
            alphas = aggregation.uniform_measures(part)
            lumped = markov.stationary(aggregation.aggregate(chain.matrix, part, alphas).matrix)
            assert np.abs(aggregation.lift(lumped, part, alphas).weights - mu).max() <= 1e-15

    # a lumped entry of phi2 sums up to 9,216 cells at (4,4,4) and 23,040 at
    # (4,4,5), and a cell up to 16 and 20 weighted rates. Each cell is summed
    # in entry order, and each lumped entry pairwise over its cells, to row
    # sums near 1.4e-14; summing the cells left to right reaches 2.7e-12 and
    # 4.8e-12, past markov.ROW_SUM_TOL = 1e-12
    @pytest.mark.parametrize("phi", [casestudies.scaffold_phi1, casestudies.scaffold_phi2],
                             ids=["phi1", "phi2"])
    def test_aggregated_row_sums_far_inside_the_tolerance_at_scaffold_444(self, scaffold_444,
                                                                          phi):
        assert lumped_row_sum(scaffold_444, phi) <= 1e-13

    @pytest.mark.parametrize("phi", [casestudies.scaffold_phi1, casestudies.scaffold_phi2],
                             ids=["phi1", "phi2"])
    def test_aggregated_row_sums_far_inside_the_tolerance_at_scaffold_445(self, scaffold_445,
                                                                          phi):
        # the largest case-study chain under the cap: 104,709 states
        assert lumped_row_sum(scaffold_445, phi) <= 1e-13


def lumped_row_sum(chain, phi):
    """The largest |row sum| of the chain aggregated by phi's partition
    under uniform measures."""
    part = rules.build_partition(chain, phi)
    lumped = aggregation.aggregate(chain.matrix, part, aggregation.uniform_measures(part)).matrix
    return np.abs(np.bincount(lumped.row, weights=lumped.data, minlength=lumped.dim)).max()


@st.composite
def generators(draw):
    dim = draw(st.integers(2, 5))
    p = stochastic_rows(draw, dim, dim)
    scale = draw(st.sampled_from([0.1, 1.0, 30.0, 300.0]))
    return markov.RateMatrix.from_dense(to_generator(p, scale * draw(weights)))


def reference_expm(a):
    """e^a in 50-digit arithmetic. scipy.linalg.expm is no oracle here: on a
    defective generator of norm ~350 its rows sum to 1 - 9.5e-4."""
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


class TestTransient:
    @settings(max_examples=100, deadline=None)
    @given(generators(), st.floats(min_value=0.0, max_value=10.0), st.integers(0, 4))
    @example(markov.RateMatrix.from_dense(np.array([[-300.0, 300.0], [150.0, -150.0]])),
             5.0, 0)  # r*t = 1575, past exp(-r*t) underflow
    @example(markov.RateMatrix.from_dense(np.array([
        [-174.4986552484632, 80.92691257899742, 93.57174266946576],
        [0.0, -174.49865524846317, 174.49865524846317],
        [0.0, 0.0, 0.0]])), 1.0, 0)  # a repeated exit rate: a defective Jordan block
    def test_matches_expm(self, q, t, start):
        pi0 = markov.Distribution.point_mass(q.dim, start % q.dim)
        got = markov.transient(q, pi0, t)
        want = pi0.weights @ reference_expm(q.dense() * t)
        assert np.isfinite(got.weights).all()
        assert np.abs(got.weights - want).max() <= 1e-9

    def test_matches_expm_multiply_at_scaffold_444(self, scaffold_444):
        # the full n=4 chain against scipy's expm_multiply (Al-Mohy and
        # Higham 2011), a truncated Taylor series that shares nothing with
        # uniformization
        q = scaffold_444.matrix
        qt = scipy.sparse.csr_array((q.data, (q.col, q.row)), shape=(q.dim, q.dim))
        pi0 = markov.Distribution.uniform(q.dim)
        for t in (2.0, 8.0):
            want = scipy.sparse.linalg.expm_multiply(qt * t, pi0.weights)
            assert np.abs(markov.transient(q, pi0, t).weights - want).max() <= 1e-12

    @pytest.mark.parametrize("rt", [0.01, 1.0, 30.0, 745.0, 1e4, 2e5])
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_poisson_window_loses_at_most_tol(self, rt, tol):
        left, w = markov._poisson_window(rt, tol)
        k = np.arange(left, left + len(w))
        exact = np.exp(k * math.log(rt) - rt - np.array([math.lgamma(x + 1.0) for x in k]))
        # the window's exact mass is within tol of 1 and the normalized
        # weights are the exact ones scaled by it
        assert 1.0 - tol <= exact.sum() <= 1.0 + 1e-9
        assert np.abs(w * exact.sum() - exact).max() <= 1e-9


@st.composite
def sparse_chains(draw):
    dim = draw(st.integers(1, 7))
    p = stochastic_rows(draw, dim, dim)
    if draw(st.booleans()):
        return markov.RateMatrix.from_dense(to_generator(p, 1.0))
    return markov.StochasticMatrix.from_dense(p)


class TestClassify:
    @settings(max_examples=200, deadline=None)
    @given(sparse_chains())
    def test_matches_brute_force_reachability(self, matrix):
        adj = matrix.dense() > 0
        is_rate = isinstance(matrix, markov.RateMatrix)
        if is_rate:
            np.fill_diagonal(adj, False)
        reach = reachability(adj)
        classes = sorted({frozenset(np.flatnonzero(reach[i] & reach[:, i]).tolist())
                          for i in range(matrix.dim)}, key=min)
        closed = [all(set(np.flatnonzero(reach[i]).tolist()) <= c for i in c)
                  for c in classes]
        periods = []
        power = np.eye(matrix.dim, dtype=int)
        returns = []
        for n in range(1, matrix.dim + 1):
            power = (power @ adj.astype(int) > 0).astype(int)
            returns.append((n, np.diag(power) > 0))
        for c in classes:
            g = 0
            for n, back in returns:
                if any(back[i] for i in c):
                    g = math.gcd(g, n)
            periods.append(1 if is_rate or g == 0 else g)
        got = markov.classify(matrix)
        assert list(got.communicating_classes) == classes
        assert list(got.closed_flags) == closed
        assert list(got.periods) == periods
        assert got.irreducible == (len(classes) == 1 and closed[0])


# --- vecmat against dense products and the bincount sums it replaced -------------

def canonical_chains(seed):
    """A rate matrix and a stochastic matrix, of dimension seed % 8 + 1 and
    drawn from the seed. The rate matrix has a state with no entries at
    all and an absorbing state, whose empty row has no diagonal entry; the
    stochastic matrix has a state that no entry enters, but at dim 1."""
    rng = np.random.default_rng(seed)
    dim = seed % 8 + 1
    empty, absorbing = rng.permutation(dim)[[0, -1]]
    q = np.where(rng.random((dim, dim)) < 0.5, rng.uniform(0.1, 5.0, (dim, dim)), 0.0)
    q[empty], q[:, empty], q[absorbing] = 0.0, 0.0, 0.0
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    p = np.where(rng.random((dim, dim)) < 0.5, rng.uniform(0.1, 1.0, (dim, dim)), 0.0)
    p[:, empty] = 0.0
    p[p.sum(axis=1) == 0, absorbing] = 1.0
    return (markov.RateMatrix.from_dense(q),
            markov.StochasticMatrix.from_dense(p / p.sum(axis=1, keepdims=True)))


def bincount_vecmat(k, v):
    """v K as it was summed before scipy's product: left to right over the
    entries in row-major order, one bin per column."""
    return np.bincount(k.col, weights=v[k.row] * k.data, minlength=k.dim)


class TestVecmat:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_the_dense_product(self, seed):
        rng = np.random.default_rng(seed)
        for k in canonical_chains(seed):
            for v in (rng.random(k.dim), rng.standard_normal(k.dim)):
                dense = k.dense()
                got = k.vecmat(v)
                assert got.shape == (k.dim,)
                assert (np.abs(got - v @ dense) <= 1e-15 * (np.abs(v) @ np.abs(dense))).all()

    def test_the_seeds_hold_the_edge_cases(self):
        chains = [canonical_chains(seed) for seed in range(24)]
        assert {q.dim for q, _ in chains} >= {1} and {q.data.size for q, _ in chains} >= {0}
        for q, _ in chains:
            no_diagonal = np.setdiff1d(np.arange(q.dim), q.row[q.row == q.col])
            assert np.isin(no_diagonal, q.row, invert=True).any()  # an absorbing state
            assert np.isin(np.arange(q.dim), np.r_[q.row, q.col], invert=True).any()

    @pytest.mark.parametrize("model", [
        casestudies.scaffold_model(casestudies.ScaffoldParams(3, 3, 3, *RATES)),
        casestudies.polymer_model(casestudies.PolymerParams(3, *RATES)),
    ], ids=["scaffold-333", "polymer-3"])
    def test_case_studies_equal_the_bincount_sums(self, model):
        q = rules.explore(model).matrix
        m = markov.uniformize(q, markov.default_rate(q))
        rng = np.random.default_rng(32)
        for k in (q, m):
            for v in (np.full(k.dim, 1.0 / k.dim), rng.random(k.dim), rng.standard_normal(k.dim)):
                assert np.array_equal(k.vecmat(v), bincount_vecmat(k, v))
        # and along a run of uniformization steps, each from the last
        v = w = np.full(m.dim, 1.0 / m.dim)
        for _ in range(200):
            v, w = m.vecmat(v), bincount_vecmat(m, w)
        assert np.array_equal(v, w)


# --- narrowed sort keys against the int64 sorts they replaced ----------------------

class _Plain(markov.SquareMatrix):
    """A SquareMatrix with no row-sum or sign check, for arbitrary entries."""

    def _validate(self):
        pass


# each side of the limits of the uint8 and uint16 partition keys, and of the
# uint8, uint16 and uint32 row-major codes of SquareMatrix (dim * dim - 1),
# and the largest dimension, whose codes pass 2^53, the last exact float64
KEY_WIDTH_DIMS = (1, 16, 17, 255, 256, 257, 65535, 65536, 65537, 2 ** 31 - 1)


def at_each_width(test):
    """The test on one fixed case per dimension of KEY_WIDTH_DIMS besides
    the drawn ones: unsorted entries at the largest code, repeats that sum
    at an odd code, an exact zero and a repeat that cancels to 0.0."""
    for dim in KEY_WIDTH_DIMS:
        top, mid, one = dim - 1, dim // 2, min(1, dim - 1)
        test = example((dim, [top, mid, 0, top, mid, top, one, one],
                        [top, one, mid, top, one, top, 0, 0],
                        [0.1, 1.0, 0.0, 0.2, 2.0, -0.3, 0.5, -0.5]))(test)
    return test


@st.composite
def raw_triplets(draw):
    """A dimension at a key-width limit and entries that repeat coordinates,
    hold exact zeros, and cancel."""
    dim = draw(st.sampled_from(KEY_WIDTH_DIMS))
    index = st.one_of(st.sampled_from(sorted({0, dim // 2, max(dim - 2, 0), dim - 1})),
                      st.integers(0, dim - 1))
    cells = draw(st.lists(st.tuples(index, index), min_size=1, max_size=6))
    values = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.1, 0.2, -0.3, 1e-300]),
                       st.floats(-1e3, 1e3, allow_nan=False))
    entries = draw(st.lists(st.tuples(st.sampled_from(cells), values), max_size=40))
    cancelled = draw(st.lists(st.sampled_from(entries), max_size=5)) if entries else []
    entries += [(cell, -value) for cell, value in cancelled]
    row = [r for (r, _), _ in entries]
    col = [c for (_, c), _ in entries]
    return dim, row, col, [v for _, v in entries]


@st.composite
def sparse_chains(draw):
    """A sparse generator at or past a key-width limit, a partition with up
    to one block per state, and measures uniform or drawn per block."""
    dim = draw(st.sampled_from([2, 3, 5, 8, 40, 255, 256, 257, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = min(dim, draw(st.sampled_from([1, 2, 3, 7, 256, 257, dim])))
    labels = np.unique(rng.integers(0, k, dim), return_inverse=True)[1]
    part = aggregation.Partition(tuple(tuple(np.flatnonzero(labels == j).tolist())
                                       for j in range(labels.max() + 1)))
    nnz = draw(st.integers(0, 4 * dim))
    row, col = rng.integers(0, dim, nnz), rng.integers(0, dim, nnz)
    pool = np.array([0.5, 1.0, 0.25, 2.0])  # few values, so spreads are often exactly 0
    rates = pool[rng.integers(0, 4, nnz)] if draw(st.booleans()) else rng.random(nnz)
    off = row != col
    row, col, rates = row[off], col[off], rates[off]
    ids = np.arange(dim)
    Q = markov.RateMatrix(dim, np.r_[row, ids], np.r_[col, ids],
                          np.r_[rates, -np.bincount(row, weights=rates, minlength=dim)])
    if draw(st.booleans()):
        return Q, part, aggregation.uniform_measures(part)
    alphas = []
    for block in part.blocks:
        raw = rng.uniform(0.1, 1.0, len(block))
        alphas.append(dict(zip(block, (raw / raw.sum()).tolist())))
    return Q, part, aggregation.MeasureFamily(tuple(alphas))


class TestNarrowedSortKeys:
    @pytest.mark.parametrize("bound, dtype", [(0, np.uint8), (1, np.uint8), (256, np.uint8),
                                              (257, np.uint16), (65536, np.uint16),
                                              (65537, np.uint32), (2 ** 32 + 1, np.uint64)])
    def test_narrowest_unsigned_dtype(self, bound, dtype):
        key = np.array([0, max(bound - 1, 0)], dtype=np.int64)
        narrow = markov.narrowed(key, bound)
        assert narrow.dtype == dtype and np.array_equal(narrow, key)

    @settings(max_examples=120, deadline=None)
    @given(raw_triplets())
    @at_each_width
    def test_square_matrix_equals_the_int64_sort(self, case):
        dim, row, col, data = case
        m = _Plain(dim, row, col, data)
        for got, want, dtype in zip((m.row, m.col, m.data),
                                    oracle.coordinate_arrays(dim, row, col, data),
                                    (np.int32, np.int32, np.float64)):
            assert got.dtype == dtype and np.array_equal(got, want)

    @settings(max_examples=80, deadline=None)
    @given(sparse_chains())
    def test_residual_and_cond3_equal_the_unique_grouping(self, case):
        Q, part, alphas = case
        want = oracle.unique_residual(Q, part, alphas)
        assert aggregation.check_condition(Q, part, alphas)["residual"] == want
        assert aggregation.check_cond3(Q, part) == oracle.unique_cond3(Q, part)
        agg = aggregation.aggregate(Q, part, alphas, tol=1e300)
        assert agg.residual == want
        assert_lumped_from_nonzero_cells(agg, Q, part, alphas)

    def test_cells_that_sum_to_zero_are_left_out(self):
        # 0 <-> 1 at rate 1 in one block: each target's one cell is -1/2 + 1/2
        Q = markov.RateMatrix.from_dense([[-1.0, 1.0], [1.0, -1.0]])
        part = aggregation.Partition(((0, 1),))
        alphas = aggregation.uniform_measures(part)
        assert aggregation._cells(Q, part, alphas.weights(part))[0].size == 0
        assert aggregation.check_condition(Q, part, alphas) == {"holds": True, "residual": 0.0}
        agg = aggregation.aggregate(Q, part, alphas)
        assert agg.residual == 0.0 and agg.matrix.row.size == 0
        assert np.array_equal(agg.matrix.dense(), [[0.0]])

    @pytest.mark.parametrize("phi", [casestudies.scaffold_phi1, casestudies.scaffold_phi2,
                                     cli._PHI_FUNCS["species"]],
                             ids=["phi1", "phi2", "species"])
    def test_cells_equal_the_unique_grouping_at_scaffold_444(self, scaffold_444, phi):
        Q, part = scaffold_444.matrix, rules.build_partition(scaffold_444, phi)
        alphas = aggregation.uniform_measures(part)
        src, col, flow = aggregation._cells(Q, part, alphas.weights(part))
        order = np.lexsort((col, src))
        want_src, want_col, want_flow, _ = oracle.unique_cells(Q, part, alphas)
        kept = want_flow != 0.0
        for got, want in ((src, want_src), (col, want_col), (flow, want_flow)):
            assert np.array_equal(got[order], want[kept])
        want = oracle.unique_residual(Q, part, alphas)
        assert aggregation.check_condition(Q, part, alphas)["residual"] == want
        agg = aggregation.aggregate(Q, part, alphas)
        assert agg.residual == want
        assert_lumped_from_nonzero_cells(agg, Q, part, alphas)


def assert_lumped_from_nonzero_cells(agg, Q, part, alphas):
    """Each lumped entry is its cells' flows, summed pairwise in increasing
    target state, where a cell whose flow is exactly 0.0 is left out, as
    the compiled product of ``aggregation._cells`` leaves it out."""
    src, col, flow, _ = oracle.unique_cells(Q, part, alphas)
    kept = flow != 0.0
    src, col, flow = src[kept], col[kept], flow[kept]
    for got, expected in zip((agg.matrix.row, agg.matrix.col, agg.matrix.data),
                             oracle.coordinate_arrays(len(part), src, part.block_of[col], flow)):
        assert np.array_equal(got, expected)
