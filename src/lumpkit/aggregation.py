"""Measure-weighted lumping of Markov chains.

A partition of the state space together with one probability measure per
block defines a backward-looking aggregation condition: the measure-weighted
incoming mass into a target state, normalized by the target's own weight,
must be constant over each target block. When the condition holds, the
aggregated matrix over blocks is again stochastic (or a generator) and the
original chain's distribution can be recovered from the aggregated one.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import markov
from .errors import ConditionViolated, NotNested
from .markov import Distribution, RateMatrix, transient

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
        states = np.array([s for block in blocks for s in block], dtype=np.int64)
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
    """One probability measure per block, strictly positive on its block."""

    alphas: tuple  # tuple of dicts state index -> weight

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(dict(a) for a in self.alphas))
        for i, alpha in enumerate(self.alphas):
            if not alpha:
                raise ValueError(f"measure {i} is empty")
            if not all(w > 0 for w in alpha.values()):  # NaN fails w > 0
                raise ValueError(f"measure {i} has a weight that is not positive")
            total = sum(alpha.values())
            if abs(total - 1.0) > markov.ROW_SUM_TOL:
                raise ValueError(f"measure {i} sums to {total!r}, expected 1")

    def check_compatible(self, part: Partition):
        if len(self.alphas) != len(part):
            raise ValueError(f"{len(self.alphas)} measures for {len(part)} blocks")
        for i, alpha in enumerate(self.alphas):
            if set(alpha) != set(part.blocks[i]):
                raise ValueError(f"measure {i} support does not match block {i}")

    def weights(self, part: Partition) -> np.ndarray:
        """alpha_i(s) for every state s, with A_i the block holding s."""
        self.check_compatible(part)
        w = np.empty(part.num_states)
        for alpha in self.alphas:
            w[list(alpha)] = list(alpha.values())
        return w


def uniform_measures(part: Partition) -> MeasureFamily:
    """alpha_i(s) = 1/|A_i| on each block."""
    return MeasureFamily(tuple({s: 1.0 / len(b) for s in b} for b in part.blocks))


def _spread(group, target, value, block_of, m):
    """max - min of value over the states of each target block, per group,
    where a state without an entry in a group counts as 0. Each (group,
    target state) pair has at most one entry; memory is linear in them."""
    keys, where = np.unique(group * m + block_of[target], return_inverse=True)
    hi = np.full(keys.size, -np.inf)
    lo = np.full(keys.size, np.inf)
    np.maximum.at(hi, where, value)
    np.minimum.at(lo, where, value)
    lacking = np.bincount(where, minlength=keys.size) < np.bincount(block_of, minlength=m)[keys % m]
    hi[lacking] = np.maximum(hi[lacking], 0.0)
    lo[lacking] = np.minimum(lo[lacking], 0.0)
    return hi - lo


def _residual(K, part: Partition, w) -> float:
    """Largest spread over a target block A_j of the condition value
    delta(A_i, s) = sum_{s' in A_i} alpha_i(s') K(s', s) / alpha_j(s), with
    w[s] = alpha_j(s) for s in A_j."""
    if part.num_states != K.dim:
        raise ValueError("partition does not cover the matrix dimension")
    n, b = K.dim, part.block_of
    cells, where = np.unique(b[K.row] * n + K.col, return_inverse=True)
    flow = np.bincount(where, weights=w[K.row] * K.data)  # summed in entry order
    col = cells % n
    return float(_spread(cells // n, col, flow / w[col], b, len(part)).max(initial=0.0))


def _check_tol(tol):
    """A NaN or negative tol would make every comparison with it fail, and an
    infinite one would make every comparison pass."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, not {tol!r}")


def check_condition(K, part: Partition, alphas: MeasureFamily,
                    tol: float = DEFAULT_CONDITION_TOL):
    """Does the backward condition hold at tolerance tol? Reports the residual."""
    _check_tol(tol)
    residual = _residual(K, part, alphas.weights(part))
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
    order = np.lexsort((K.data, K.col, src))
    src, col, val = src[order], K.col[order], K.data[order]
    # rank of each rate inside its (source block, target state) group
    index = np.arange(val.size)
    first = np.r_[True, (src[1:] != src[:-1]) | (col[1:] != col[:-1])]
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
    K's rows."""
    _check_tol(tol)
    w, b = alphas.weights(part), part.block_of
    residual = _residual(K, part, w)
    if residual > tol:
        raise ConditionViolated(residual, tol)
    matrix = type(K)(len(part), b[K.row], b[K.col], w[K.row] * K.data)
    return AggregatedChain(part, alphas, matrix, residual)


def restrict(pi: Distribution, part: Partition) -> Distribution:
    """Project a distribution onto the block space by summing within blocks."""
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
    _check_tol(tol)
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
    blocks = tuple(tuple(space.lookup(k, path) for k in block) for block in data["blocks"])
    seen = set()
    for key in itertools.chain.from_iterable(data["blocks"]):
        if key in seen:
            raise ValueError(f"state {key!r} listed twice in {path}")
        seen.add(key)
    uncovered = len(space) - len(seen)
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
    alphas = tuple({space.lookup(k, path): float(w) for k, w in a.items()}
                   for a in data["alphas"])
    with markov.naming(path):
        return MeasureFamily(alphas)


def save_diagnostics(path, series):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "dev_lump", "dev_inv"])
        for t, dev_lump, dev_inv in series:
            writer.writerow([repr(t), repr(dev_lump), repr(dev_inv)])
