"""Shared builders for the test suite."""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg

from lumpkit import aggregation, casestudies, markov, rules
from lumpkit.sitegraph import make_mixture, node_type

# the case-study maps declared with rules.reads_local_views, by name
LOCAL_VIEW_MAPS = {name: getattr(casestudies, name) for name in
                   ("scaffold_phi1", "scaffold_phi2", "polymer_phi2", "polymer_phi3")}


def bond_maps(chain):
    """The bond map of each state of an explored chain, decoded from its key."""
    return [rules.mixture_from_key(key, chain.counts, chain.interface)
            for key in chain.space.states]


def row_bond_maps(chain):
    """The bond map of each state of a chain, built from its slot rows by
    the builder ``build_partition`` calls, given every state."""
    return rules._bond_maps(*rules._row_patterns(chain), np.arange(len(chain.rows)))


def ordered(maps):
    """Bond maps as lists of items: equal only in the same instance order."""
    return [list(bonds.items()) for bonds in maps]


def local_view_census(bonds):
    """The multiset of a bond map's local views, each instance's type and
    its bonds with the partner named by type, sorted (a site may appear
    twice in a drawn map), as sorted (view, count) pairs."""
    return tuple(sorted(Counter(
        (node_type(v), tuple(sorted((s, (node_type(w), t)) for s, (w, t) in sites)))
        for v, sites in bonds.items()).items()))


def fibers(maps, phi):
    """The blocks of phi by one call per state on the bond maps of maps,
    grouped in a dict: sorted by value, each in state order."""
    groups = {}
    for i, bonds in enumerate(maps):
        groups.setdefault(phi(bonds), []).append(i)
    return tuple(tuple(groups[value]) for value in sorted(groups))


def key_mixture(key, interface, counts):
    """The mixture a state key names, with the key parsed here, apart from
    the library's decoder: the reference its bond maps are checked against."""
    parts = [] if key == "-" else key.split(";")
    edges = [frozenset(tuple(end.rsplit(".", 1)) for end in part.split("-")) for part in parts]
    return make_mixture(interface, counts, edges)


def fig_chain(c1, c2, d=1.0):
    """Six-state rate matrix with two blocks: four upstream states feeding two
    downstream targets (rates c1 and c2 per target), and a symmetric return
    rate d from each target to both of its feeders.

    States 0..3 form the first block (feeders g1, g2, g1', g2'), states 4..5
    the second (targets g, g'). g1 and g2 feed g; g1' and g2' feed g'.
    """
    q = np.zeros((6, 6))
    q[0, 4] = c1
    q[1, 4] = c2
    q[2, 5] = c1
    q[3, 5] = c2
    q[4, 0] = q[4, 1] = d
    q[5, 2] = q[5, 3] = d
    np.fill_diagonal(q, -q.sum(axis=1))
    return markov.RateMatrix.from_dense(q)


def fig_partition():
    return aggregation.Partition(((0, 1, 2, 3), (4, 5)))


def dense_expm(Q, t, terms=200):
    """Taylor-series matrix exponential, scaled and squared; independent of
    the uniformization path under test."""
    a = Q.dense() * t
    s = max(0, int(np.ceil(np.log2(max(1.0, np.abs(a).max())))) + 4)
    a = a / 2 ** s
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


def dense_stationary(matrix):
    """Least-squares solution of mu (K - I) = 0 (or mu Q = 0), sum(mu) = 1."""
    k = matrix.dense()
    if isinstance(matrix, markov.StochasticMatrix):
        k = k - np.eye(matrix.dim)
    a = np.vstack([k.T, np.ones(matrix.dim)])
    b = np.r_[np.zeros(matrix.dim), 1.0]
    return np.linalg.lstsq(a, b, rcond=None)[0]


def reachability(adj):
    """Transitive-reflexive closure by repeated boolean squaring: after k
    squarings it holds every path of up to 2^k steps."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for _ in range(len(adj).bit_length()):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    return reach


@pytest.fixture(scope="session")
def scaffold_445():
    """Scaffold (4,4,5) at rates 1.3/0.7/1.1/0.9, explored with its own size
    as the cap: 104,709 states, the largest case-study chain that the tests
    explore."""
    model = casestudies.scaffold_model(casestudies.ScaffoldParams(4, 4, 5, 1.3, 0.7, 1.1, 0.9))
    return rules.explore(model, max_states=104_709)


@pytest.fixture
def lu_calls(monkeypatch):
    """The sparse LU factorizations that ``markov.stationary`` starts, listed."""
    real, calls = scipy.sparse.linalg.splu, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    return calls


@pytest.fixture
def without_lu(monkeypatch):
    """A sparse LU that raises, so only detailed balance can solve."""
    def refused(*args, **kwargs):
        raise AssertionError("stationary fell back to the sparse LU")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", refused)
