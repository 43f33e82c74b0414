"""Finite DTMC/CTMC representations and basic analyses.

Matrices are stored sparsely as coordinate arrays in row-major order, 16
bytes per nonzero; distributions are dense vectors. All values are immutable
after construction and every operation is a pure function, so concurrent
read access is safe. Two derived values are built on first use and kept for
the matrix's lifetime: a matrix's compiled sparse operator, K^T in CSR, the
one scipy form of its entries, which ``vecmat``, ``classify``,
``_detailed_balance``, ``stationary``'s LU and the aggregation condition's
cells read, 12 more bytes per nonzero; and a generator's uniformized chain,
which ``transient`` steps, a matrix of its own (Q's entries and the
diagonal) with its own operator. Both are functions of the immutable
arrays, so two threads that build one at once build equal copies, and
keeping either is harmless. scipy is imported only inside the functions
that use it, which keeps ``import lumpkit`` fast.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import reprlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ModelSyntaxError, NotIrreducible, RateBoundViolated, SolverFailure

ROW_SUM_TOL = 1e-12
DEFAULT_TRANSIENT_TOL = 1e-12
DEFAULT_STATIONARY_TOL = 1e-10
DETAILED_BALANCE_TOL = 1e-12
DEFAULT_RATE_SLACK = 1.05
POISSON_TERM_CAP = 10 ** 6
_CHUNK = 2 ** 14  # entries ``triplets`` zips at once


@dataclass(frozen=True)
class StateSpace:
    """Ordered list of opaque state keys with an index lookup."""

    states: tuple
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {key: i for i, key in enumerate(self.states)}
        if len(index) != len(self.states):
            raise ValueError(f"state {_first_repeat(self.states)!r} listed twice")
        object.__setattr__(self, "index", index)

    def __len__(self):
        return len(self.states)

    def indices(self, keys, path):
        """The index array of state keys read from the file at path, which
        must name known states, each at most once."""
        try:
            found = np.fromiter(map(self.index.__getitem__, keys), dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"unknown state {exc.args[0]!r} in {path}") from None
        if np.unique(found).size < found.size:
            raise ValueError(f"state {_first_repeat(keys)!r} listed twice in {path}")
        return found


def _first_repeat(keys):
    """The first key that an earlier one equals, or None."""
    seen = set()
    return next((key for key in keys if key in seen or seen.add(key)), None)


def narrowed(key, bound):
    """An integer sort key whose values lie in [0, bound), cast to the
    smallest unsigned dtype that holds them: numpy's stable sorts, and so
    ``np.lexsort``, radix-sort keys of 16 bits or fewer, as aggregation and
    partitions use. The permutation is the one the wider key gives."""
    return key.astype(np.min_scalar_type(max(int(bound) - 1, 0)), copy=False)


def run_starts(*keys):
    """Mask of the entries that start a run of equal key tuples, for keys
    sorted together."""
    first = np.zeros(keys[0].size, dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    return first


class SquareMatrix:
    """Square sparse matrix held as three read-only arrays: ``row``, ``col``
    and ``data``, int32, int32 and float64, list the nonzero entries sorted by
    (row, col), with duplicate coordinates summed and exact zeros dropped.

    ``vecmat``, ``classify``, detailed balance, the stationary LU and the
    aggregation condition's cells read one scipy sparse operator, K^T in
    CSR, built from these arrays on first use and kept for the matrix's
    lifetime: 12 bytes per nonzero beside the arrays' 16. Building it twice
    in a race is harmless."""

    def __init__(self, dim, row, col, data):
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or not 0 < dim < 2 ** 31:
            raise ValueError(f"dimension must be an integer in [1, 2^31), not {dim!r}")
        row, col, data = (np.asarray(arr).ravel() for arr in (row, col, data))
        # numpy would cast "1", True and 0.5 to the index 1, 1 and 0
        if not all(a.dtype.kind in "iu" or a.dtype.kind == "f" and (a % 1 == 0).all()
                   for a in (row, col)):
            raise ValueError("triplet row and column indices must be integers")
        if data.dtype.kind not in "iuf":
            raise ValueError("entries must be real numbers")
        if not row.shape == col.shape == data.shape:
            raise ValueError("row, column and value arrays differ in length")
        outside = (row < 0) | (row >= dim) | (col < 0) | (col >= dim)
        if outside.any():
            k = int(np.argmax(outside))
            raise ValueError(f"entry ({int(row[k])}, {int(col[k])}) out of range "
                             f"for dimension {dim}")
        data = data.astype(float, copy=False)
        if not np.isfinite(data).all():
            raise ValueError("entries must be finite")
        # row-major codes, built in place in the narrowest unsigned type that
        # holds dim * dim - 1 (16 bits up to 256 states, where numpy's stable
        # sort is a radix sort); a stable sort keeps each coordinate's
        # entries in the order given
        ctype = np.min_scalar_type(int(dim) ** 2 - 1)
        code = row.astype(ctype)
        code *= ctype.type(dim)
        np.add(code, col, out=code, dtype=ctype, casting="unsafe")  # exact: 0 <= col < dim
        order = np.argsort(code, kind="stable")
        code, data = code[order], data[order]
        del order  # freed before the copies below, which set explore's peak
        starts = run_starts(code)
        if not starts.all():  # some coordinate repeats: sum its entries pairwise
            starts = np.flatnonzero(starts)
            code, data = code[starts], np.add.reduceat(data, starts)
        nonzero = data != 0.0
        if not nonzero.all():
            code, data = code[nonzero], data[nonzero]
        del starts, nonzero
        if code.size >= 2 ** 31:
            raise ValueError(f"{code.size} stored entries, more than int32 indices can hold")
        row, col = np.empty(code.size, dtype=np.int32), np.empty(code.size, dtype=np.int32)
        np.divmod(code, int(dim), out=(row, col), casting="unsafe")  # each fits: dim < 2^31
        for arr in (row, col, data):
            arr.flags.writeable = False
        self.dim, self.row, self.col, self.data = int(dim), row, col, data
        self._validate()

    def _validate(self):
        raise NotImplementedError

    def _check(self, negative, what, row_sum):
        if negative.any():
            k = int(np.argmax(negative))
            raise ValueError(f"{what} at ({self.row[k]}, {self.col[k]})")
        sums = np.bincount(self.row, weights=self.data, minlength=self.dim)
        worst = int(np.argmax(np.abs(sums - row_sum)))
        if abs(sums[worst] - row_sum) > ROW_SUM_TOL:
            raise ValueError(f"row {worst} sums to {float(sums[worst])!r}, expected {row_sum:g}")

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("expected a square matrix")
        row, col = np.nonzero(arr)
        return cls(arr.shape[0], row, col, arr[row, col])

    def dense(self):
        arr = np.zeros((self.dim, self.dim))
        arr[self.row, self.col] = self.data
        return arr

    def triplets(self):
        """The nonzero entries as (row, col, value) tuples of Python int, int
        and float, sorted by (row, col). The tuples share one int object per
        state index and one float object per distinct value, instead of
        holding a new object for every number: about 75 bytes per nonzero
        instead of 160, and the chain writer's peak falls with it. They are
        zipped _CHUNK entries at a time, so no nnz-long object array is made."""
        index = np.arange(self.dim).astype(object)
        values, which = np.unique(self.data, return_inverse=True)
        values = values.astype(object)
        out = []
        for lo in range(0, self.data.size, _CHUNK):
            at = slice(lo, lo + _CHUNK)
            out += zip(index[self.row[at]], index[self.col[at]], values[which[at]])
        return out

    def vecmat(self, v):
        """Row vector times matrix: (v K)_j = sum_i v_i K(i, j)."""
        return self._operator @ v

    @cached_property
    def _operator(self):
        """K^T in CSR for scipy's compiled products: one transposition of a
        CSR array over the matrix's own ``col`` and ``data``, which are
        already in row-major order. Row j lists column j of K in increasing
        i, so a product sums each output over increasing i, the order of the
        entries. Its int32 indices and float64 values, 12 bytes per nonzero,
        are new and read-only."""
        from scipy.sparse import csr_array

        indptr = np.r_[0, np.cumsum(np.bincount(self.row, minlength=self.dim))].astype(np.int32)
        op = csr_array((self.data, self.col, indptr), shape=(self.dim, self.dim)).T.tocsr()
        for arr in (op.indptr, op.indices, op.data):
            arr.flags.writeable = False
        return op

    def __eq__(self, other):
        return (type(self) is type(other) and self.dim == other.dim
                and np.array_equal(self.row, other.row)
                and np.array_equal(self.col, other.col)
                and np.array_equal(self.data, other.data))


class StochasticMatrix(SquareMatrix):
    """Row-stochastic transition matrix."""

    kind = "stochastic"

    def _validate(self):
        self._check(self.data < 0, "negative entry", 1.0)


class RateMatrix(SquareMatrix):
    """CTMC generator: nonnegative off-diagonal, zero row sums."""

    kind = "rate"

    def _validate(self):
        self._check((self.row != self.col) & (self.data < 0), "negative off-diagonal entry", 0.0)

    def exit_rates(self):
        """Per-state exit rates q_i = -Q(i, i)."""
        diagonal = self.row == self.col
        rates = np.zeros(self.dim)
        rates[self.row[diagonal]] = -self.data[diagonal]
        return rates

    @cached_property
    def _uniformized(self):
        """The chain ``transient`` steps, uniformize(Q, default_rate(Q)),
        built on the first solve and kept with its operator: one more copy
        of the entries, shared by every later horizon."""
        return uniformize(self, default_rate(self))


class Distribution:
    """Probability vector over a state space."""

    def __init__(self, weights):
        arr = np.array(weights, dtype=float)
        if arr.ndim != 1:
            raise ValueError("weights must be a vector")
        if not np.isfinite(arr).all():
            raise ValueError("weights must be finite")
        if (arr < 0).any():
            raise ValueError("weights must be nonnegative")
        if abs(arr.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"weights sum to {float(arr.sum())!r}, expected 1")
        arr.flags.writeable = False
        self.weights = arr

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    def __eq__(self, other):
        return isinstance(other, Distribution) and np.array_equal(self.weights, other.weights)

    @classmethod
    def point_mass(cls, dim, i):
        w = np.zeros(dim)
        w[i] = 1.0
        return cls(w)

    @classmethod
    def uniform(cls, dim):
        return cls(np.full(dim, 1.0 / dim))


@dataclass(frozen=True)
class ChainStructure:
    """Communicating-class decomposition of a chain."""

    communicating_classes: tuple  # tuple of frozensets of state indices
    closed_flags: tuple
    periods: tuple
    irreducible: bool


def classify(K) -> ChainStructure:
    """Communicating classes, closedness, and periods of a chain.

    The stored entries define the transition digraph, whose strong components
    are those of the compiled operator's K^T. Periods are found for
    stochastic matrices; every class of a rate matrix reports period 1.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components, dijkstra

    n, src, dst = K.dim, K.row, K.col
    count, label = connected_components(K._operator, directed=True, connection="strong")
    inner = label[src] == label[dst]
    closed = np.ones(count, dtype=bool)
    closed[label[src[~inner]]] = False
    classes = sorted(np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1]),
                     key=lambda c: c[0])
    periods = [1] * count
    if isinstance(K, StochasticMatrix):
        # gcd of level(u) + 1 - level(v) over the class's edges u -> v, with
        # breadth-first levels inside the class: one search from an extra
        # node n linked to the smallest state of every class
        src, dst = src[inner], dst[inner]
        linked = csr_array((np.ones(src.size + count), (np.r_[src, [n] * count],
                                                        np.r_[dst, [c[0] for c in classes]])),
                           shape=(n + 1, n + 1))
        level = dijkstra(linked, indices=n, unweighted=True).astype(np.int64)
        gcd = np.zeros(count, dtype=np.int64)
        np.gcd.at(gcd, label[src], level[src] + 1 - level[dst])
        periods = [int(gcd[label[c[0]]]) or 1 for c in classes]
    return ChainStructure(
        tuple(frozenset(c.tolist()) for c in classes),
        tuple(bool(closed[label[c[0]]]) for c in classes),
        tuple(periods),
        count == 1 and bool(closed[0]))


def _detailed_balance(K):
    """The stationary distribution of a reversible irreducible chain as a
    product of rate ratios along a spanning tree (Kelly 1979, ch. 1), or
    None where that is not certified.

    The tree is breadth-first from state 0 over the off-diagonal entries,
    each of which must have its reverse. log pi(j) - log pi(i) = log K(i, j)
    - log K(j, i) for j's parent i, and these steps are summed up the tree by
    pointer doubling: d = log2 of the depth vector steps, not one per level.
    The result stands only if every entry balances its reverse,
    |log pi(i) K(i, j) - log pi(j) K(j, i)| <= DETAILED_BALANCE_TOL
    + (d + 1) eps (|log pi(i)| + |log K(i, j)| + |log pi(j)| + |log K(j, i)|).
    The first term bounds the difference of the two sides relative to the
    larger one; the second is the rounding of the log terms, which grows
    with them (an ulp of log pi is 3.6e-12 where it is 23,000).
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order

    n = K.dim
    off = K.row != K.col
    row, col, log_rate = K.row[off], K.col[off], np.log(K.data[off])
    indptr = np.r_[0, np.cumsum(np.bincount(row, minlength=n))]
    # the transposed pattern, each entry holding the index of its reverse
    flip = csr_array((np.arange(row.size), col, indptr), shape=(n, n)).T.tocsr()
    if not (np.array_equal(flip.indptr, indptr) and np.array_equal(flip.indices, col)):
        return None
    back = flip.data
    # the pattern is symmetric, so the operator's K^T gives K's tree
    order, parent = breadth_first_order(K._operator, 0, return_predecessors=True)
    if order.size < n:
        return None
    tree = parent[col] == row  # one entry into each state but 0, from its parent
    log_pi = np.zeros(n)
    log_pi[col[tree]] = log_rate[tree] - log_rate[back[tree]]
    # invariant: log_pi[j] = log pi(j) - log pi(above[j]); state 0 is above itself
    above, doublings = np.maximum(parent, 0), 0
    while above.any():
        log_pi, above, doublings = log_pi + log_pi[above], above[above], doublings + 1
    flux = log_pi[row] + log_rate
    # each log pi is a sum of `doublings` rounded additions and each side of
    # an entry's balance one more, so rounding grows with the log terms
    scale = np.abs(log_pi[row]) + np.abs(log_rate)
    bound = DETAILED_BALANCE_TOL + (doublings + 1) * np.finfo(float).eps * (scale + scale[back])
    if not (np.abs(flux - flux[back]) <= bound).all():
        return None
    mu = np.exp(log_pi - log_pi.max())
    return mu / mu.sum()


def stationary(K, tol=DEFAULT_STATIONARY_TOL) -> Distribution:
    """Stationary distribution of an irreducible chain, by detailed balance
    where that is certified and by a sparse LU otherwise.

    Detailed balance (``_detailed_balance``) comes first. Its answer is
    returned when every off-diagonal entry has its reverse, a breadth-first
    tree over them reaches every state (so the chain is irreducible, with
    no ``classify``), every entry balances its reverse to
    DETAILED_BALANCE_TOL = 1e-12 relative to the larger side plus the
    rounding of its log terms, and the flow residual is at most tol. A chain
    of 43,681 states takes about 0.05 s.

    Otherwise, solves mu K = mu (stochastic) or mu K = 0 (rate) with the
    last balance equation replaced by the normalization, by a sparse LU
    factorization (SuperLU) whose columns are ordered by minimum degree on
    the pattern of A + A^T (Liu 1985). The case-study chains have a nearly
    symmetric pattern, since each bind rule has its unbind rule, and this
    ordering leaves a third of the fill of SuperLU's default COLAMD, which
    orders for A^T A: chains of about 5,000 states solve in about a second.
    The states outside the one closed class get weight exactly 0; every
    other weight is kept, however small.
    """
    def flow_residual(mu):
        flow = K.vecmat(mu)
        return np.max(np.abs(flow - mu if isinstance(K, StochasticMatrix) else flow))

    mu = _detailed_balance(K)
    if mu is not None and flow_residual(mu) <= tol:
        return Distribution(mu)

    from scipy.sparse import csr_array, eye_array, vstack
    from scipy.sparse.linalg import splu

    structure = classify(K)
    if sum(structure.closed_flags) > 1:
        raise NotIrreducible("chain has more than one closed communicating class")
    n = K.dim
    balance = K._operator - eye_array(n) if isinstance(K, StochasticMatrix) else K._operator
    a = vstack([balance[:-1], csr_array(np.ones((1, n)))], format="csc")
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        mu = splu(a, permc_spec="MMD_AT_PLUS_A").solve(b)
    except RuntimeError as exc:
        raise SolverFailure(str(exc)) from exc
    # inside the closed class every weight is positive, so a negative one
    # within rounding of zero is zero
    inside = np.zeros(n, dtype=bool)
    inside[list(structure.communicating_classes[structure.closed_flags.index(True)])] = True
    mu[~inside] = 0.0
    mu[(mu < 0) & (mu >= -n * np.finfo(float).eps * mu.max())] = 0.0
    if not np.isfinite(mu).all() or (mu < 0).any():
        raise SolverFailure("stationary solve produced negative or non-finite weights")
    mu = mu / mu.sum()
    residual = flow_residual(mu)
    if not residual <= tol:
        raise SolverFailure(f"stationary residual {residual:.3e} exceeds {tol:.3e}")
    return Distribution(mu)


def uniformize(Q: RateMatrix, r: float) -> StochasticMatrix:
    """Uniformized transition matrix M = I + Q/r, requiring r > max_i q_i."""
    qmax = float(Q.exit_rates().max())
    if r <= qmax:
        raise RateBoundViolated(f"r = {r!r} must exceed the maximal exit rate {qmax!r}")
    # I + Q/r is entrywise nonnegative under the strict rate bound; row sums
    # inherit the generator's zero-sum dust, which stays within tolerance
    ids = np.arange(Q.dim, dtype=np.int32)
    return StochasticMatrix(Q.dim, np.r_[Q.row, ids], np.r_[Q.col, ids],
                            np.r_[Q.data / r, np.ones(Q.dim)])


def default_rate(Q: RateMatrix) -> float:
    """Uniformization rate strictly above the exit-rate bound: the slack
    times the largest exit rate, or the next float up where that product
    rounds back to it (a subnormal rate) or overflows. Only the largest
    float has no finite float above it; it gets infinity, whose r*t
    ``transient`` refuses."""
    qmax = float(Q.exit_rates().max())
    if qmax == 0.0:
        return 1.0
    r = DEFAULT_RATE_SLACK * qmax
    return r if qmax < r < math.inf else math.nextafter(qmax, math.inf)


def _poisson_window(rt: float, tol: float):
    """Two-sided truncation of the Poisson(rt) distribution (Fox & Glynn 1988).

    Returns (left, weights): weights[k] is the probability of left + k,
    normalized over the window. The truncation points come from the
    Bernstein tail bounds P(X >= rt + x) <= exp(-x^2 / (2 (rt + x/3))) and
    P(X <= rt - x) <= exp(-x^2 / (2 rt)), each set to tol / 2, so the mass
    outside the window is at most tol. Weights are products of ratios scaled
    from the mode, so none overflows and only the negligible ones underflow.
    """
    # the window reaches past rt, so an rt at the cap needs too many terms;
    # refusing it first keeps an rt near or past the float range, where the
    # bounds below overflow, out of them
    if not rt < POISSON_TERM_CAP:
        raise SolverFailure(f"r*t = {rt:.6g} needs over r*t Poisson terms, "
                            f"more than the cap of {POISSON_TERM_CAP}")
    log_tol = math.log(2.0 / tol)
    left = max(0, math.floor(rt - math.sqrt(2.0 * rt * log_tol)))
    right = math.ceil(rt + log_tol / 3.0 + math.sqrt(log_tol ** 2 / 9.0 + 2.0 * rt * log_tol))
    if right > POISSON_TERM_CAP:
        raise SolverFailure(f"r*t = {rt:.6g} needs {right} Poisson terms, "
                            f"more than the cap of {POISSON_TERM_CAP}")
    mode = int(rt)
    below = np.cumprod(np.arange(mode, left, -1) / rt)[::-1]
    above = np.cumprod(rt / np.arange(mode + 1, right + 1))
    weights = np.r_[below, 1.0, above]
    return left, weights / weights.sum()


def transient(Q: RateMatrix, pi0: Distribution, t: float,
              tol: float = DEFAULT_TRANSIENT_TOL) -> Distribution:
    """Transient solution pi0 e^{Qt} via the uniformized Poisson-weighted
    series, truncated on both sides with at most tol of Poisson mass lost;
    raises SolverFailure when r*t needs more than POISSON_TERM_CAP terms.

    The series steps the uniformized chain M = I + Q/r, r = default_rate(Q),
    through r*t + O(sqrt(r*t log(1/tol))) Poisson terms. Each term costs one
    product v M, O(nnz(M)) in scipy's compiled sparse kernel (about 13 us at
    1,156 states and 0.6 ms at 43,681 states, one core of a shared x86_64
    machine), and one vector update. M and its operator are built on Q's
    first solve and kept on Q, so every later horizon on Q pays for its
    terms only."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and nonnegative")
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    if len(pi0) != Q.dim:
        raise ValueError("distribution length does not match matrix dimension")
    if t == 0.0:
        return pi0
    qmax = float(Q.exit_rates().max())
    if qmax == 0.0:
        return pi0
    left, weights = _poisson_window(default_rate(Q) * t, tol)
    m = Q._uniformized
    v = pi0.weights
    for _ in range(left):
        v = m.vecmat(v)
    acc = weights[0] * v
    for w in weights[1:]:
        v = m.vecmat(v)
        acc += w * v
    return Distribution(acc / acc.sum())


# --- serialization -----------------------------------------------------------

def save_json(path, data: dict):
    """The one JSON writer for chains, partitions and measures: compact, on
    one line, since ``json.dumps`` (unlike ``json.dump``) runs the C encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, sort_keys=True))
        fh.write("\n")


@contextlib.contextmanager
def naming(path):
    """Reraise an input error about the file at path that does not name it (bytes
    not UTF-8, malformed JSON, a value refused) as a ValueError naming it first."""
    try:
        yield
    except (ValueError, OverflowError, ModelSyntaxError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_json(path) -> dict:
    """The JSON value in the file at path; an object that names a key twice
    is refused, not read as its last value."""
    with naming(path), open(path, encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError(f"key {_first_repeat([key for key, _ in pairs])!r} "
                         f"listed twice in one object")
    return obj


def _scanned(items, shape):
    """Do all the items have the shape, a scalar one or a list of one, by a
    scan at C speed? Any other shape, or any item that differs, reads False."""
    if type(shape) is list:
        return shape[0] in (str, float) and set(map(type, items)) <= {list} and _scanned(
            itertools.chain.from_iterable(items), shape[0])
    return shape in (str, float) and set(map(type, items)) <= ({str} if shape is str
                                                               else {int, float})


def check_shape(value, shape, path, where=""):
    """Raise ValueError, naming the file at path and the entry, unless the
    value read from it has the shape: str; float for any JSON number;
    [shape] for a list of values of that shape; {str: shape} for an object
    of them; {name: shape, ...} for an object with at least these entries."""
    kind = shape if isinstance(shape, type) else type(shape)
    # json.load makes exact ints and floats; type() also turns away bool
    if not (type(value) in (int, float) if kind is float else isinstance(value, kind)):
        place = f"entry {where} of {path}" if where else str(path)
        name = {str: "a string", float: "a number", list: "a list", dict: "a JSON object"}[kind]
        raise ValueError(f"{place} is {reprlib.repr(value)}, not {name}")
    if kind is shape:
        return
    if kind is list or str in shape:
        inner, items = (shape[0], value) if kind is list else (shape[str], value.values())
        if not _scanned(items, inner):
            for key, item in zip(range(len(value)) if kind is list else value, items):
                check_shape(item, inner, path, f"{where}[{key!r}]")
    else:
        for name, inner in shape.items():
            if name not in value:
                raise ValueError(f"{path} has no entry {name!r}")
            check_shape(value[name], inner, path, f"{where}.{name}" if where else name)


def save_chain(path, space: StateSpace, K):
    save_json(path, {"states": list(space.states), "kind": K.kind, "triplets": K.triplets()})


def load_chain(path):
    data = load_json(path)
    check_shape(data, {"states": [str], "kind": str, "triplets": [[float]]}, path)
    cls = {"stochastic": StochasticMatrix, "rate": RateMatrix}.get(data["kind"])
    if cls is None:
        raise ValueError(f"entry kind of {path} is {data['kind']!r}, not 'rate' or 'stochastic'")
    triplets = data["triplets"]
    with naming(path):
        space = StateSpace(tuple(data["states"]))
        if set(map(len, triplets)) - {3}:
            raise ValueError("triplets must be [row, col, value] entries")
        flat = np.fromiter(itertools.chain.from_iterable(triplets), dtype=float,
                           count=3 * len(triplets))
        return space, cls(len(space), flat[0::3], flat[1::3], flat[2::3])


def save_distribution(path, space: StateSpace, dist: Distribution):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for key, w in zip(space.states, dist.weights):
            writer.writerow([key, repr(float(w))])


def load_distribution(path, space: StateSpace) -> Distribution:
    with naming(path), open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    keys, values = [], []
    for number, row in enumerate(rows, start=1):
        if not row:
            continue
        try:
            key, value = row
            values.append(float(value))
        except ValueError:
            raise ValueError(f"row {number} of {path} is not key,weight: {row!r}") from None
        keys.append(key)
    weights = np.zeros(len(space))
    weights[space.indices(keys, path)] = values
    with naming(path):
        return Distribution(weights)
