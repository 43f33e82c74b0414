"""Measure-weighted lumping of Markov chains.

A partition of the state space together with one probability measure per
block defines a backward-looking aggregation condition: the measure-weighted
incoming mass into a target state, normalized by the target's own weight,
must be constant over each target block. When the condition holds, the
aggregated matrix over blocks is again stochastic (or a generator) and the
original chain's distribution can be recovered from the aggregated one.
The condition's cells, which the residual and the aggregated matrix are
read from, are one compiled sparse product over the matrix's operator
(``markov.SquareMatrix._operator``), so scipy is loaded on the first check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import markov
from .errors import ConditionViolated, NotNested
from .markov import Distribution, RateMatrix, narrowed, run_starts, transient

DEFAULT_CONDITION_TOL = 1e-9
RESPECT_TOL = 1e-12
ZERO_BLOCK_EPS = 1e-12
DEFAULT_DIAGNOSTICS_TRANSIENT_TOL = 1e-14


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks of state indices covering the state space."""

    blocks: tuple  # tuple of tuples of state indices, each sorted
    block_of: np.ndarray = field(init=False, repr=False, compare=False)  # state -> block

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not all(blocks):
            raise ValueError("blocks must be nonempty")
        states = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.int64,
                             count=sum(map(len, blocks)))
        ordered = np.sort(states)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise ValueError(f"state {repeated[0]} listed twice")
        if states.size and (ordered[0] != 0 or ordered[-1] != states.size - 1):
            raise ValueError("blocks must cover a contiguous index range")
        block_of = np.empty(states.size, dtype=np.int64)
        block_of[states] = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        block_of.flags.writeable = False
        object.__setattr__(self, "block_of", block_of)

    @property
    def num_states(self):
        return len(self.block_of)

    def __len__(self):
        return len(self.blocks)

    @classmethod
    def singletons(cls, n):
        return cls(tuple((i,) for i in range(n)))


@dataclass(frozen=True)
class MeasureFamily:
    """One probability measure per block, strictly positive on its block.
    Besides the dicts, the measures are held as three read-only arrays, one
    entry per (measure, state) in the dicts' order: the state, its weight,
    and the measure's index."""

    alphas: tuple  # tuple of dicts state index -> weight
    states: np.ndarray = field(init=False, repr=False, compare=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)
    measure_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alphas = tuple(dict(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        sizes = np.array([len(a) for a in alphas], dtype=np.int64)
        states = np.array(list(itertools.chain.from_iterable(alphas)))
        if states.size and states.dtype.kind not in "iu":
            raise ValueError("measures must be over integer state indices")
        values = np.fromiter(itertools.chain.from_iterable(a.values() for a in alphas),
                             dtype=float, count=int(sizes.sum()))
        measure_of = np.repeat(np.arange(len(alphas)), sizes)
        positive = np.ones(len(alphas), dtype=bool)
        positive[measure_of[~(values > 0)]] = False  # NaN fails w > 0
        for i, alpha in enumerate(alphas):
            if not alpha:
                raise ValueError(f"measure {i} is empty")
            if not positive[i]:
                raise ValueError(f"measure {i} has a weight that is not positive")
            # fsum rounds once: a left-to-right sum of n copies of fl(1/n)
            # drifts past ROW_SUM_TOL for some n in the thousands
            total = math.fsum(alpha.values())
            if abs(total - 1.0) > markov.ROW_SUM_TOL:
                raise ValueError(f"measure {i} sums to {total!r}, expected 1")
        for name, arr in (("states", states.astype(np.int64)), ("values", values),
                          ("measure_of", measure_of)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def check_compatible(self, part: Partition):
        """Is measure i's support block i of part, for every i? A measure
        matches its block when it has as many states, all in that block."""
        if len(self.alphas) != len(part):
            raise ValueError(f"{len(self.alphas)} measures for {len(part)} blocks")
        inside = (self.states >= 0) & (self.states < part.num_states)
        home = np.where(inside, part.block_of[np.where(inside, self.states, 0)], -1)
        wrong = np.bincount(self.measure_of[home != self.measure_of], minlength=len(part)) > 0
        wrong |= (np.bincount(self.measure_of, minlength=len(part))
                  != np.bincount(part.block_of, minlength=len(part)))
        if wrong.any():
            i = int(np.argmax(wrong))
            raise ValueError(f"measure {i} support does not match block {i}")

    def weights(self, part: Partition) -> np.ndarray:
        """alpha_i(s) for every state s, with A_i the block holding s."""
        self.check_compatible(part)
        w = np.empty(part.num_states)
        w[self.states] = self.values
        return w


def uniform_measures(part: Partition) -> MeasureFamily:
    """alpha_i(s) = 1/|A_i| on each block."""
    return MeasureFamily(tuple(dict.fromkeys(b, 1.0 / len(b)) for b in part.blocks))


def _spread(group, target, value, block_of, m):
    """max - min of value over the states of each target block, per group,
    in order of (group, target block), where a state without an entry in a
    group counts as 0. Each (group, target state) pair has at most one entry;
    memory is linear in them."""
    key = group.astype(np.int64) * m + block_of[target]
    order = np.argsort(narrowed(key, key.max(initial=0) + 1), kind="stable")
    key, value = key[order], value[order]
    starts = np.flatnonzero(run_starts(key))
    hi = np.maximum.reduceat(value, starts)
    lo = np.minimum.reduceat(value, starts)
    lacking = (np.diff(np.r_[starts, value.size])
               < np.bincount(block_of, minlength=m)[key[starts] % m])
    hi[lacking] = np.maximum(hi[lacking], 0.0)
    lo[lacking] = np.minimum(lo[lacking], 0.0)
    return hi - lo


def _cells(K, part: Partition, w):
    """The (source block, target state) cells of the condition: each cell's
    source block A_i, its target state s and its flow
    sum_{s' in A_i} w[s'] K(s', s), in increasing s. They are scipy's
    compiled row-wise product C^T = K^T V^T, with K^T the matrix's kept
    CSR operator and V^T[s', i] = w[s'] for s' in A_i: row s of C^T lists
    target s's cells, each flow summed over increasing s', the entries'
    order. A cell whose flow sums to exactly 0.0 is left out, which
    ``_spread`` reads as 0."""
    from scipy.sparse import csr_array

    if part.num_states != K.dim:
        raise ValueError("partition does not cover the matrix dimension")
    n = K.dim
    vt = csr_array((w, part.block_of.astype(np.int32), np.arange(n + 1, dtype=np.int32)),
                   shape=(n, len(part)))
    ct = K._operator @ vt
    return ct.indices, np.repeat(np.arange(n), np.diff(ct.indptr)), ct.data


def _residual(part: Partition, w, src, col, flow) -> float:
    """Largest spread over a target block A_j of the condition value
    delta(A_i, s) = sum_{s' in A_i} alpha_i(s') K(s', s) / alpha_j(s), with
    w[s] = alpha_j(s) for s in A_j, and the cells from ``_cells``."""
    return float(_spread(src, col, flow / w[col], part.block_of, len(part)).max(initial=0.0))


def check_tol(tol):
    """A NaN or negative tol would make every comparison with it fail, and an
    infinite one would make every comparison pass."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, not {tol!r}")


def check_condition(K, part: Partition, alphas: MeasureFamily,
                    tol: float = DEFAULT_CONDITION_TOL):
    """Does the backward condition hold at tolerance tol? Reports the residual."""
    check_tol(tol)
    w = alphas.weights(part)
    residual = _residual(part, w, *_cells(K, part, w))
    return {"holds": residual <= tol, "residual": residual}


def check_cond3(K, part: Partition) -> bool:
    """Structural sufficient condition: between any two states of a target
    block, the multisets of incoming rates from each source block agree
    within DEFAULT_CONDITION_TOL (a rate-preserving permutation of the source
    block exists, up to rounding).

    The negative rates of two multisets are matched from the smallest up and
    the positive ones from the largest down; a rate one state lacks counts
    as a zero.
    """
    if part.num_states != K.dim:
        raise ValueError("partition does not cover the matrix dimension")
    m, b = len(part), part.block_of
    src = b[K.row]
    order = np.lexsort((K.data, narrowed(K.col, K.dim), narrowed(src, m)))
    src, col, val = src[order], K.col[order], K.data[order]
    # rank of each rate inside its (source block, target state) group
    index = np.arange(val.size)
    first = run_starts(src, col)
    group = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], val.size]
    positive = val > 0
    rank = np.where(positive, ends[group] - 1 - index, index - starts[group])
    slot = (src * 2 + positive) * (rank.max(initial=0) + 1) + rank
    return bool(np.all(_spread(slot, col, val, b, m) <= DEFAULT_CONDITION_TOL))


@dataclass(frozen=True)
class AggregatedChain:
    partition: Partition
    measures: MeasureFamily
    matrix: object  # StochasticMatrix or RateMatrix over blocks
    residual: float


def aggregate(K, part: Partition, alphas: MeasureFamily,
              tol: float = DEFAULT_CONDITION_TOL) -> AggregatedChain:
    """Aggregated matrix over blocks, V K Pi with V[i, s'] = alpha_i(s') and
    Pi the block-indicator matrix: entry (i, j) is the alpha_j-weighted
    average of the condition value over block j, and rows keep the sums of
    K's rows. Each entry is summed pairwise over its cells from ``_cells``,
    in increasing target state."""
    check_tol(tol)
    w = alphas.weights(part)
    src, col, flow = _cells(K, part, w)
    residual = _residual(part, w, src, col, flow)
    if residual > tol:
        raise ConditionViolated(residual, tol)
    matrix = type(K)(len(part), src, part.block_of[col], flow)
    return AggregatedChain(part, alphas, matrix, residual)


def restrict(pi: Distribution, part: Partition) -> Distribution:
    """Project a distribution onto the block space by summing within blocks."""
    if len(pi) != part.num_states:
        raise ValueError(f"{len(pi)} weights for {part.num_states} states")
    weights = np.bincount(part.block_of, weights=pi.weights, minlength=len(part))
    return Distribution(weights / weights.sum())


def lift(pi_blocks: Distribution, part: Partition, alphas: MeasureFamily) -> Distribution:
    """De-aggregate a block distribution through the block measures."""
    if len(pi_blocks) != len(part):
        raise ValueError(f"{len(pi_blocks)} block weights for {len(part)} blocks")
    return Distribution(pi_blocks.weights[part.block_of] * alphas.weights(part))


def respects(pi: Distribution, part: Partition, alphas: MeasureFamily,
             tol: float = RESPECT_TOL):
    """Is the conditional distribution of pi on each positive-mass block equal
    to that block's measure?"""
    check_tol(tol)
    if len(pi) != part.num_states:
        raise ValueError(f"{len(pi)} weights for {part.num_states} states")
    w = alphas.weights(part)
    mass = np.bincount(part.block_of, weights=pi.weights, minlength=len(part))[part.block_of]
    loaded = mass > 0.0  # empty blocks impose no constraint
    deviation = float(np.max(np.abs(pi.weights[loaded] / mass[loaded] - w[loaded]),
                             initial=0.0))
    return {"holds": deviation <= tol, "deviation": deviation}


@dataclass(frozen=True)
class NestedResult:
    groups: Partition  # partition of fine-block indices by coarse block
    alpha_prime: MeasureFamily  # over fine-block indices


def nested(fine: Partition, coarse: Partition) -> NestedResult:
    """Group fine blocks by the coarse block containing them and attach the
    size-proportional measures that make the fine-block chain aggregate to
    the coarse-block chain."""
    if fine.num_states != coarse.num_states:
        raise ValueError("partitions cover different state spaces")
    group_of = coarse.block_of[[block[0] for block in fine.blocks]]
    straddling = np.flatnonzero(coarse.block_of != group_of[fine.block_of])
    if straddling.size:
        fi = fine.block_of[straddling[0]]
        targets = sorted(set(coarse.block_of[list(fine.blocks[fi])].tolist()))
        raise NotNested(f"fine block {fi} straddles coarse blocks {targets}")
    groups = [np.flatnonzero(group_of == ci).tolist() for ci in range(len(coarse))]
    alphas = tuple({fi: len(fine.blocks[fi]) / len(coarse.blocks[ci]) for fi in members}
                   for ci, members in enumerate(groups))
    return NestedResult(Partition(tuple(map(tuple, groups))), MeasureFamily(alphas))


def convergence_diagnostics(Q: RateMatrix, part: Partition, alphas: MeasureFamily,
                            pi0: Distribution, times,
                            tol: float = DEFAULT_CONDITION_TOL,
                            transient_tol: float = DEFAULT_DIAGNOSTICS_TRANSIENT_TOL):
    """Lumpability and invertibility deviations between the full chain and
    the aggregated chain, per time point."""
    agg = aggregate(Q, part, alphas, tol)
    pi0_blocks = restrict(pi0, part)
    w, b = alphas.weights(part), part.block_of
    series = []
    for t in times:
        x = transient(Q, pi0, t, transient_tol).weights
        y = transient(agg.matrix, pi0_blocks, t, transient_tol).weights
        dev_lump = np.abs(y - np.bincount(b, weights=x, minlength=len(part))).max()
        loaded = y[b] > ZERO_BLOCK_EPS  # the identity is vacuous on mass-free blocks
        dev_inv = np.abs(x - y[b] * w)[loaded].max(initial=0.0)
        series.append((float(t), float(dev_lump), float(dev_inv)))
    return series


# --- serialization -----------------------------------------------------------

def save_partition(path, part: Partition, space):
    markov.save_json(path, {"blocks": [[space.states[s] for s in block]
                                       for block in part.blocks]})


def load_partition(path, space) -> Partition:
    data = markov.load_json(path)
    markov.check_shape(data, {"blocks": [[str]]}, path)
    found = iter(space.indices([k for b in data["blocks"] for k in b], path).tolist())
    blocks = tuple(tuple(itertools.islice(found, len(b))) for b in data["blocks"])
    uncovered = len(space) - sum(map(len, blocks))
    with markov.naming(path):
        if uncovered:
            raise ValueError(f"partition leaves {uncovered} of {len(space)} states uncovered")
        return Partition(blocks)


def save_measures(path, alphas: MeasureFamily, space):
    markov.save_json(path, {"alphas": [{space.states[s]: w for s, w in a.items()}
                                       for a in alphas.alphas]})


def load_measures(path, space) -> MeasureFamily:
    data = markov.load_json(path)
    markov.check_shape(data, {"alphas": [{str: float}]}, path)
    found = iter(space.indices([k for a in data["alphas"] for k in a], path).tolist())
    alphas = tuple({next(found): float(w) for w in a.values()} for a in data["alphas"])
    with markov.naming(path):
        return MeasureFamily(alphas)

