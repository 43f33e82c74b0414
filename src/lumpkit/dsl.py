"""Concrete text syntax for rule-based models.

    # comment
    node A { sites: b }
    node B { sites: a, c }
    rule r1: A(b), B(a) -> A(b!1), B(a!1) @ 1.0
    init: A*1, B*3, C*1

A bond label ``!k`` pairs two sites within one rule side; a bare site in a
pattern is a tested-free site. Rates are decimal literals parsed exactly
through rationals so that identical literals yield identical floats.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    ModelSyntaxError,
    RepeatedNodeTypeInRule,
    UnbalancedBond,
    UndeclaredSite,
)
from .rules import RewriteRule, RuleModel
from .sitegraph import SiteGraph, make_mixture

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NODE_RE = re.compile(rf"^node\s+({_NAME})\s*\{{\s*sites\s*:\s*([^}}]*)\}}$")
_RULE_RE = re.compile(rf"^rule\s+({_NAME})\s*:\s*(.+?)\s*->\s*(.+?)\s*@\s*(\S+)$")
_INIT_RE = re.compile(r"^init\s*:\s*(.+)$")
_AGENT_RE = re.compile(rf"^({_NAME})\s*\(\s*([^)]*)\)$")
_SITE_RE = re.compile(rf"^({_NAME})\s*(?:!\s*(\d+))?$")
_COUNT_RE = re.compile(rf"^({_NAME})\s*\*\s*(\d+)$")


def _split_agents(text):
    """Split a pattern on commas that are outside parentheses."""
    parts = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += ch
    if current.strip():
        parts.append(current.strip())
    return parts


def _parse_pattern(text, declared, line):
    """One side of a rule into a SiteGraph over type-named nodes."""
    nodes = set()
    interface = {}
    bonds = {}
    for agent in _split_agents(text):
        match = _AGENT_RE.match(agent)
        if not match:
            raise ModelSyntaxError(f"malformed agent {agent!r}", line)
        name, site_text = match.groups()
        if name not in declared:
            raise UndeclaredSite(f"node type {name!r} is not declared", line)
        if name in nodes:
            raise RepeatedNodeTypeInRule(
                f"node type {name!r} occurs twice in one rule side", line)
        nodes.add(name)
        sites = set()
        for raw in filter(None, (s.strip() for s in site_text.split(","))):
            site_match = _SITE_RE.match(raw)
            if not site_match:
                raise ModelSyntaxError(f"malformed site {raw!r}", line)
            site, label = site_match.groups()
            if site not in declared[name]:
                raise UndeclaredSite(
                    f"site {site!r} is not declared for node type {name!r}", line)
            if site in sites:
                raise ModelSyntaxError(f"site {site!r} mentioned twice", line)
            sites.add(site)
            if label is not None:
                bonds.setdefault(label, []).append((name, site))
        interface[name] = frozenset(sites)
    edges = set()
    for label, endpoints in bonds.items():
        if len(endpoints) != 2:
            raise UnbalancedBond(
                f"bond label !{label} occurs {len(endpoints)} time(s)", line)
        edges.add(frozenset(endpoints))
    return SiteGraph(frozenset(nodes), interface, frozenset(edges))


def _parse_rate(text, line):
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelSyntaxError(f"malformed rate {text!r}", line) from exc
    except OverflowError:  # past the float range, which RewriteRule refuses
        return float("inf")


def parse_model(text: str) -> RuleModel:
    declared = {}
    rules = []
    init_counts = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("node"):
            match = _NODE_RE.match(line)
            if not match:
                raise ModelSyntaxError("malformed node declaration", lineno)
            name, site_text = match.groups()
            if name in declared:
                raise ModelSyntaxError(f"node type {name!r} declared twice", lineno)
            sites = [s.strip() for s in site_text.split(",") if s.strip()]
            twice = [s for s in sites if sites.count(s) > 1]
            if twice:
                raise ModelSyntaxError(f"site {twice[0]!r} declared twice for {name!r}", lineno)
            declared[name] = frozenset(sites)
        elif line.startswith("rule"):
            match = _RULE_RE.match(line)
            if not match:
                raise ModelSyntaxError("malformed rule", lineno)
            rule_name, left_text, right_text, rate_text = match.groups()
            if any(rule.name == rule_name for rule in rules):
                raise ModelSyntaxError(f"rule {rule_name!r} declared twice", lineno)
            left = _parse_pattern(left_text, declared, lineno)
            right = _parse_pattern(right_text, declared, lineno)
            rate = _parse_rate(rate_text, lineno)
            try:
                rules.append(RewriteRule(left, right, rate, rule_name))
            except ValueError as exc:  # sides that differ, a rate that is not allowed
                raise ModelSyntaxError(str(exc), lineno) from None
        elif line.startswith("init"):
            match = _INIT_RE.match(line)
            if not match:
                raise ModelSyntaxError("malformed init line", lineno)
            if init_counts is not None:
                raise ModelSyntaxError("init specified twice", lineno)
            init_counts = {}
            for part in (p.strip() for p in match.group(1).split(",")):
                count_match = _COUNT_RE.match(part)
                if not count_match:
                    raise ModelSyntaxError(f"malformed init entry {part!r}", lineno)
                name, count = count_match.groups()
                if name not in declared:
                    raise UndeclaredSite(f"node type {name!r} is not declared", lineno)
                if name in init_counts:
                    raise ModelSyntaxError(f"node type {name!r} counted twice in init", lineno)
                init_counts[name] = int(count)
        else:
            raise ModelSyntaxError(f"unrecognized line {line!r}", lineno)
    if init_counts is None:
        raise ModelSyntaxError("model has no init line")
    initial = make_mixture(declared, init_counts)
    return RuleModel(tuple(rules), initial, dict(declared))


def _format_pattern(graph: SiteGraph) -> str:
    labels = {}
    next_label = 1
    for edge in sorted(graph.edges, key=sorted):
        for endpoint in edge:
            labels[endpoint] = next_label
        next_label += 1
    agents = []
    for node in sorted(graph.nodes):
        sites = []
        for site in sorted(graph.interface[node]):
            label = labels.get((node, site))
            sites.append(site if label is None else f"{site}!{label}")
        agents.append(f"{node}({', '.join(sites)})")
    return ", ".join(agents)


def print_model(model: RuleModel) -> str:
    """Canonical text form; parse(print_model(m)) is structurally equal to m."""
    if model.initial.graph.edges:
        raise ValueError("the text syntax only supports edgeless initial mixtures")
    lines = []
    for name in sorted(model.interface):
        sites = ", ".join(sorted(model.interface[name]))
        lines.append(f"node {name} {{ sites: {sites} }}")
    lines.append("")
    for rule in model.rules:
        rate = repr(rule.rate)
        lines.append(f"rule {rule.name}: {_format_pattern(rule.left)} -> "
                     f"{_format_pattern(rule.right)} @ {rate}")
    lines.append("")
    counts = ", ".join(f"{t}*{n}" for t, n in sorted(model.initial.counts.items()))
    lines.append(f"init: {counts}")
    return "\n".join(lines) + "\n"
