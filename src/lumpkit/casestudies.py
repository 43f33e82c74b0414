"""Models, abstraction maps, and exact combinatorics for the two
desk-scale case studies: a scaffold binding two partners on independent
sites, and two-sided polymerization of two protein types. Each model is
text in the rule language that ``dsl`` parses. Class sizes are exact
integers; block measures are their reciprocals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from . import dsl
from .errors import InvalidArgs, InvalidCounts
from .rules import RuleModel, check_rate, reads_local_views


# --- case study 1: scaffold --------------------------------------------------

SCAFFOLD_INTERFACE = {"A": frozenset({"b"}), "B": frozenset({"a", "c"}),
                      "C": frozenset({"b"})}

_SCAFFOLD_TEXT = """node A {{ sites: b }}
node B {{ sites: a, c }}
node C {{ sites: b }}

rule r1: A(b), B(a) -> A(b!1), B(a!1) @ {c1}
rule r2: B(c), C(b) -> B(c!1), C(b!1) @ {c2}
rule r3: A(b!1), B(a!1) -> A(b), B(a) @ {c3}
rule r4: B(c!1), C(b!1) -> B(c), C(b) @ {c4}

init: A*{n_a}, B*{n_b}, C*{n_c}
"""


@dataclass(frozen=True)
class ScaffoldParams:
    """Counts of A/B/C nodes and the four rule rates: c1 binds A-B, c2 binds
    B-C, c3 and c4 are the respective unbind rates."""

    n_a: int
    n_b: int
    n_c: int
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    c4: float = 1.0

    def __post_init__(self):
        if min(self.n_a, self.n_b, self.n_c) < 1:
            raise ValueError("node counts must be positive")
        for rate in (self.c1, self.c2, self.c3, self.c4):
            check_rate(rate)


def _parse(text, p, counts):
    """The model of text with p's counts and rates filled in, each rate as
    ``repr(float(rate))``: the parser refuses numpy's ``np.float64(...)``."""
    return dsl.parse_model(text.format(**{k: v if k in counts else repr(float(v))
                                          for k, v in vars(p).items()}))


def scaffold_model(p: ScaffoldParams) -> RuleModel:
    """Two reversible binding rules on the two independent sites of B."""
    return _parse(_SCAFFOLD_TEXT, p, ("n_a", "n_b", "n_c"))


def _scaffold_bound_b(bonds):
    """The numbers of B instances of a bond map bound on site a, bound on
    site c, and bound on both, read off each B's bonds in site order."""
    on_a = on_c = on_both = 0
    for v, sites in bonds.items():
        if sites and (v[:2] == "B#" or v == "B"):  # node_type(v) == "B"
            a = c = False
            for s, _ in sites:
                if s == "a":
                    a = True
                elif s == "c":
                    c = True
            on_a += a
            on_c += c
            on_both += a and c
    return on_a, on_c, on_both


@reads_local_views
def scaffold_phi1(bonds):
    """(AB-only, BC-only, ABC) complex counts, read off each B's two sites."""
    on_a, on_c, on_both = _scaffold_bound_b(bonds)
    return (on_a - on_both, on_c - on_both, on_both)


@reads_local_views
def scaffold_phi2(bonds):
    """(number of B bound on a, number of B bound on c)."""
    on_a, on_c, _ = _scaffold_bound_b(bonds)
    return (on_a, on_c)


def scaffold_class_size_phi1(v, p: ScaffoldParams) -> int:
    """Number of mixtures with the given (AB, BC, ABC) counts."""
    m_ab, m_bc, m_abc = v
    m_a = p.n_a - m_ab - m_abc
    m_b = p.n_b - m_ab - m_bc - m_abc
    m_c = p.n_c - m_bc - m_abc
    if min(m_ab, m_bc, m_abc, m_a, m_b, m_c) < 0:
        raise InvalidCounts(f"counts {v} are infeasible for {p}")
    num = factorial(p.n_a) * factorial(p.n_b) * factorial(p.n_c)
    den = (factorial(m_ab) * factorial(m_bc) * factorial(m_abc)
           * factorial(m_a) * factorial(m_b) * factorial(m_c))
    return num // den


def scaffold_class_size_phi2(v, p: ScaffoldParams) -> int:
    """Number of mixtures with the given (bound-a, bound-c) counts; the two
    bond layers are chosen independently."""
    m_ab_star, m_star_bc = v
    if not (0 <= m_ab_star <= min(p.n_a, p.n_b)
            and 0 <= m_star_bc <= min(p.n_b, p.n_c)):
        raise InvalidCounts(f"counts {v} are infeasible for {p}")
    ab = comb(p.n_a, m_ab_star) * comb(p.n_b, m_ab_star) * factorial(m_ab_star)
    bc = comb(p.n_c, m_star_bc) * comb(p.n_b, m_star_bc) * factorial(m_star_bc)
    return ab * bc


def scaffold_state_counts(n: int):
    """(species-level, fragment-level) block counts at n copies of each node."""
    if n < 0:
        raise InvalidArgs("n must be nonnegative")
    return ((n + 1) * (n + 2) * (n + 3) // 6, (n + 1) ** 2)


# --- case study 2: two-sided polymerization ---------------------------------

POLYMER_INTERFACE = {"A": frozenset({"b", "r"}), "B": frozenset({"a", "l"})}

_POLYMER_TEXT = """node A {{ sites: b, r }}
node B {{ sites: a, l }}

rule bind_ba: A(b), B(a) -> A(b!1), B(a!1) @ {bind_ba}
rule unbind_ba: A(b!1), B(a!1) -> A(b), B(a) @ {unbind_ba}
rule bind_rl: A(r), B(l) -> A(r!1), B(l!1) @ {bind_rl}
rule unbind_rl: A(r!1), B(l!1) -> A(r), B(l) @ {unbind_rl}

init: A*{n}, B*{n}
"""


@dataclass(frozen=True)
class PolymerParams:
    """n copies of A and of B; rates for bind/unbind of the b-a bond and
    bind/unbind of the r-l bond."""

    n: int
    bind_ba: float = 1.0
    unbind_ba: float = 1.0
    bind_rl: float = 1.0
    unbind_rl: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        for rate in (self.bind_ba, self.unbind_ba, self.bind_rl, self.unbind_rl):
            check_rate(rate)


def polymer_model(p: PolymerParams) -> RuleModel:
    return _parse(_POLYMER_TEXT, p, ("n",))


@reads_local_views
def polymer_phi2(bonds):
    """(number of r-l bonds, number of b-a bonds); a bond map lists each
    bond at both of its ends."""
    ends = rl_ends = 0
    for sites in bonds.values():
        ends += len(sites)
        for s, (_, t) in sites:
            if (s == "r" and t == "l") or (s == "l" and t == "r"):
                rl_ends += 1
    return (rl_ends // 2, ends // 2 - rl_ends // 2)


@reads_local_views
def polymer_phi3(bonds) -> int:
    """Total bond count."""
    return sum(map(len, bonds.values())) // 2


def polymer_count_f(kind: int, m_a: int, m_b: int, i: int) -> int:
    """Sequential-choice counts: f1 picks a chain with free b/a ends, f2 a
    same-type-ended chain, f3 a ring (divided by its rotational symmetry)."""
    if min(m_a, m_b) < 0 or i < 0:
        raise InvalidArgs("arguments must be nonnegative")
    if kind == 1:
        return comb(m_a, i) * comb(m_b, i) * factorial(i) ** 2
    if kind == 2:
        if i < 1:
            raise InvalidArgs("f2 requires i >= 1")
        return comb(m_a, i) * comb(m_b, i - 1) * factorial(i) * factorial(i - 1)
    if kind == 3:
        if i < 1:
            raise InvalidArgs("f3 requires i >= 1")
        return comb(m_a, i) * comb(m_b, i) * factorial(i) ** 2 // i
    raise InvalidArgs(f"unknown counting kind {kind}")


def polymer_class_size_phi2(m_rl: int, m_ba: int, n: int) -> int:
    if not (0 <= m_rl <= n and 0 <= m_ba <= n):
        raise InvalidArgs(f"bond counts ({m_rl}, {m_ba}) infeasible for n = {n}")
    return (comb(n, m_rl) ** 2 * factorial(m_rl)
            * comb(n, m_ba) ** 2 * factorial(m_ba))


def polymer_class_size_phi3(m: int, n: int) -> int:
    if not 0 <= m <= 2 * n:
        raise InvalidArgs(f"bond count {m} infeasible for n = {n}")
    return sum(polymer_class_size_phi2(i, m - i, n)
               for i in range(max(0, m - n), min(n, m) + 1))


def polymer_state_counts(n: int):
    """(per-bond-type, total-bond-count) block counts."""
    if n < 0:
        raise InvalidArgs("n must be nonnegative")
    return ((n + 1) ** 2, 2 * n + 1)


def partition_number(n: int) -> int:
    """Number of integer partitions of n, by dynamic programming."""
    if n < 0:
        raise InvalidArgs("n must be nonnegative")
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]
