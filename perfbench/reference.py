"""Independent references the workloads check lumpkit's answers against.

Nothing here calls lumpkit's exploration, aggregation or solvers: counts come
from closed-form combinatorics, partitions from parsing the chain's state
keys, and matrices and vectors from numpy (and scipy's ``expm``) applied to
the chain's triplets.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

# Two sites bind when a rule joins them; (type, site, type, site) per bond
# type of each case study.
SCAFFOLD_BONDS = (("A", "b", "B", "a"), ("B", "c", "C", "b"))
POLYMER_BONDS = (("A", "b", "B", "a"), ("A", "r", "B", "l"))

# e^{-r t} is below the smallest double once r t exceeds about 745.
UNDERFLOW_RT = 745.0


def matchings(a: int, b: int) -> int:
    """Partial matchings between a and b distinguishable sites."""
    return sum(comb(a, k) * comb(b, k) * factorial(k) for k in range(min(a, b) + 1))


def scaffold_state_count(n_a, n_b, n_c) -> int:
    return matchings(n_a, n_b) * matchings(n_b, n_c)


def polymer_state_count(n) -> int:
    return matchings(n, n) ** 2


def parse_key(key: str):
    """Edges of a mixture key ``A#0.b-B#1.a;...`` as ((node, site), (node, site))."""
    if key == "-":
        return []
    edges = []
    for part in key.split(";"):
        end1, end2 = part.split("-")
        v1, s1 = end1.rsplit(".", 1)
        v2, s2 = end2.rsplit(".", 1)
        edges.append(((v1, s1), (v2, s2)))
    return edges


def _type(node):
    return node.split("#", 1)[0]


def out_degree(key: str, counts: dict, bonds) -> int:
    """Distinct successors of a state: every free pair of a bond type can
    bind, every edge can unbind, and each such move reaches another state."""
    edges = parse_key(key)
    bound = {}
    for edge in edges:
        for v, s in edge:
            bound[(_type(v), s)] = bound.get((_type(v), s), 0) + 1
    binds = sum((counts[t1] - bound.get((t1, s1), 0)) * (counts[t2] - bound.get((t2, s2), 0))
                for t1, s1, t2, s2 in bonds)
    return binds + len(edges)


def scaffold_phi1(key: str):
    """(AB-only, BC-only, ABC) complex counts from the bound sites of each B."""
    sites = {}
    for edge in parse_key(key):
        for v, s in edge:
            if _type(v) == "B":
                sites.setdefault(v, set()).add(s)
    m_ab = sum(1 for s in sites.values() if s == {"a"})
    m_bc = sum(1 for s in sites.values() if s == {"c"})
    return (m_ab, m_bc, len(sites) - m_ab - m_bc)


def bond_counts(key: str, site_x: str):
    """(edges that use site_x, other edges)."""
    edges = parse_key(key)
    with_x = sum(1 for e in edges if any(s == site_x for _, s in e))
    return (with_x, len(edges) - with_x)


def scaffold_phi2(key):
    """(B bound on a, B bound on c): the number of A-B and B-C edges."""
    return bond_counts(key, "a")


def polymer_phi2(key):
    """(r-l bonds, b-a bonds)."""
    return bond_counts(key, "r")


def polymer_species(key: str, counts: dict):
    """Multiset of component shapes. A polymer component is fixed up to
    renaming by its A count, B count and the counts of each bond type."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = parse_key(key)
    for (v1, _), (v2, _) in edges:
        parent[find(v1)] = find(v2)
    shape = {}
    for v in list(parent):
        shape.setdefault(find(v), [0, 0, 0, 0])[0 if _type(v) == "A" else 1] += 1
    for (v1, s1), (v2, s2) in edges:
        shape[find(v1)][2 if "r" in (s1, s2) else 3] += 1
    shapes = [tuple(s) for s in shape.values()]
    # nodes on no edge are components of their own
    for t, single in (("A", (1, 0, 0, 0)), ("B", (0, 1, 0, 0))):
        shapes += [single] * (counts[t] - sum(1 for v in parent if _type(v) == t))
    return tuple(sorted(shapes))


def key_partition(keys, value):
    """Blocks of state indices grouped by value(key), ordered by value."""
    fibers = {}
    for i, key in enumerate(keys):
        fibers.setdefault(value(key), []).append(i)
    values = sorted(fibers)
    return [tuple(fibers[v]) for v in values], values


def triplet_arrays(triplets):
    data = np.asarray(triplets, dtype=float).reshape(-1, 3)
    return data[:, 0].astype(np.int64), data[:, 1].astype(np.int64), data[:, 2]


def block_index(blocks, n):
    block_of = np.empty(n, dtype=np.int64)
    for i, block in enumerate(blocks):
        block_of[list(block)] = i
    return block_of


def lumped_generator(rows, cols, vals, blocks, n):
    """Forward aggregation with uniform block measures: Q_ij is the
    measure-weighted rate from block i into block j."""
    block_of = block_index(blocks, n)
    weight = np.array([1.0 / len(blocks[i]) for i in block_of])
    q = np.zeros((len(blocks), len(blocks)))
    np.add.at(q, (block_of[rows], block_of[cols]), weight[rows] * vals)
    return q


def balance_residual(mu, rows, cols, vals, n) -> float:
    """max |(mu Q)_j| computed from the triplets."""
    flow = np.zeros(n)
    np.add.at(flow, cols, np.asarray(mu)[rows] * vals)
    return float(np.max(np.abs(flow)))


def dense_balance_residual(mu, q) -> float:
    return float(np.max(np.abs(np.asarray(mu) @ q)))


def transient(pi0, q, t):
    """pi0 e^{Qt} by scipy's scaled-and-squared Pade expm."""
    from scipy.linalg import expm
    return np.asarray(pi0) @ expm(q * t)


def max_exit_rate(rows, cols, vals) -> float:
    diagonal = rows == cols
    return float(-vals[diagonal].min()) if diagonal.any() else 0.0


def cond3(rows, cols, vals, blocks, n, decimals=9) -> bool:
    """The permutation condition on rates rounded to 1e-9: for each source
    block, every state of a target block receives the same multiset of
    rates from it."""
    block_of = block_index(blocks, n)
    m = len(blocks)
    src = block_of[rows]
    rounded = np.round(vals, decimals)
    order = np.lexsort((rounded, cols, src))
    src, tgt, rounded = src[order], cols[order], rounded[order]
    starts = np.flatnonzero(np.r_[True, (np.diff(src) != 0) | (np.diff(tgt) != 0)])
    ends = np.r_[starts[1:], len(src)]
    # one id per distinct multiset; group g is (source block, target state)
    ids = {}
    sig = np.array([ids.setdefault(rounded[a:b].tobytes(), len(ids))
                    for a, b in zip(starts, ends)])
    pair = src[starts] * m + block_of[tgt[starts]]
    size = np.array([len(b) for b in blocks])
    # a target block passes for source i when every state in it receives a
    # multiset from i, all with the same id, or none of them receives one
    receivers = np.bincount(pair, minlength=m * m)
    low = np.full(m * m, len(ids))
    high = np.full(m * m, -1)
    np.minimum.at(low, pair, sig)
    np.maximum.at(high, pair, sig)
    touched = receivers > 0
    return bool(np.all(receivers[touched] == np.tile(size, m)[touched])
                and np.all(low[touched] == high[touched]))


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))
