"""Line-oriented text formats for graphs and discrete models.

Graph DSL (UTF-8, one directive per line, ``#`` starts a comment):

    var <name> [latent]
    edge <tail> -> <head>
    arc <a> <-> <b>          # expands to a fresh latent common cause

Model DSL extends the graph DSL:

    domain <var> <v1> <v2> ...
    cpt <var> | <pa>=<val> ... : <p1> <p2> ...

Probabilities are decimal or rational ``a/b`` literals, parsed exactly.
A JSON mirror of the graph format is accepted wherever a graph file is:
``{"vars": [{"name": ..., "latent": bool}], "edges": [[tail, head]]}``.

Graph directives are checked for shape, in line order; the graph is
then checked by the ``CausalGraph`` constructor (variables, then edges,
then arcs, then cycles), and its refusal is reported at the line of the
directive it refused.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from typing import Iterable

from .graph import CausalGraph, GraphError, Variable
from .scm import DiscreteModel, Mechanism


class ParseError(Exception):
    """Syntax or consistency error, carrying the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_ARROWS = {"edge": "->", "arc": "<->"}


def _tokens(line: str) -> list[str]:
    return line.split("#", 1)[0].split()


def parse_fraction(tok: str, line: int = 0) -> Fraction:
    try:
        if "/" in tok:
            a, b = tok.split("/", 1)
            return Fraction(int(a), int(b))
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, f"bad probability literal {tok!r}") from None


def _scan(text: str):
    """Yield (lineno, tokens) for nonempty lines."""
    for i, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if toks:
            yield i, toks


def _graph_from_json(text: str) -> CausalGraph:
    """The JSON mirror as text-format directives at line 1, once each
    name is a string, each ``latent`` flag a boolean, each edge a pair."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"bad JSON: {exc.msg}") from None
    lines = []
    try:
        for v in doc["vars"]:
            name, latent = v["name"], v.get("latent", False)
            if not (isinstance(name, str) and isinstance(latent, bool)):
                raise TypeError(f"variable {json.dumps(v)} needs a string "
                                "name and a boolean latent flag")
            lines.append((1, ["var", name] + ["latent"] * latent))
        for e in doc.get("edges", []):
            if not (isinstance(e, list) and len(e) == 2
                    and all(isinstance(n, str) for n in e)):
                raise TypeError(f"edge {json.dumps(e)} is not a pair of names")
            lines.append((1, ["edge", e[0], "->", e[1]]))
    except (KeyError, TypeError) as exc:
        raise ParseError(1, f"bad graph JSON structure: {exc}") from None
    return _graph_from_directives(lines)


def graph_to_json(g: CausalGraph) -> str:
    doc = {
        "vars": [{"name": v.name, "latent": v.latent} for v in g.variables],
        "edges": [[t, h] for t, h in g.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


def graph_to_dsl(g: CausalGraph) -> str:
    lines = []
    for v in g.variables:
        lines.append(f"var {v.name} latent" if v.latent else f"var {v.name}")
    for t, h in g.edges:
        lines.append(f"edge {t} -> {h}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> CausalGraph:
    """Parse the graph DSL (or its JSON mirror, detected by a leading
    brace)."""
    if text.lstrip().startswith("{"):
        return _graph_from_json(text)
    return _graph_from_directives(_scan(text))


def _graph_from_directives(lines: Iterable[tuple[int, list[str]]]
                           ) -> CausalGraph:
    """Build a graph from (lineno, tokens) directive pairs, so errors
    name the line of the source text the pairs came from.  Each
    directive's shape is checked at its own line; the graph itself is
    checked by the ``CausalGraph`` constructor, and its refusal is
    reported at the line of the directive it refused."""
    given: dict[str, list] = {"var": [], "edge": [], "arc": []}
    line_of: dict[tuple[str, int], int] = {}  # GraphError.at -> line
    for i, toks in lines:
        kind = toks[0]
        if kind == "var":
            if len(toks) < 2 or toks[2:] not in ([], ["latent"]):
                raise ParseError(i, f"bad var directive {' '.join(toks)!r}")
            given[kind].append(Variable(toks[1], latent=len(toks) == 3))
        elif kind in _ARROWS:
            if len(toks) != 4 or toks[2] != _ARROWS[kind]:
                raise ParseError(i, f"bad {kind} directive "
                                 f"{' '.join(toks)!r}")
            given[kind].append((toks[1], toks[3]))
        elif kind in ("domain", "cpt"):
            raise ParseError(i, f"{kind!r} belongs to the model format; "
                             "this parser reads plain graphs")
        else:
            raise ParseError(i, f"unknown directive {kind!r}")
        line_of[kind, len(given[kind]) - 1] = i
    try:
        return CausalGraph(given["var"], given["edge"], given["arc"])
    except GraphError as exc:
        raise ParseError(line_of[exc.at], str(exc)) from None


def _parse_pa_assignment(toks: list[str], line: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in toks:
        if "=" not in tok:
            raise ParseError(line, f"bad parent assignment token {tok!r}")
        name, value = tok.split("=", 1)
        if not name or not value:
            raise ParseError(line, f"bad parent assignment token {tok!r}")
        if name in out:
            raise ParseError(line, f"parent {name!r} assigned twice")
        out[name] = value
    return out


def parse_model(text: str) -> DiscreteModel:
    """Parse the model DSL: graph directives plus domains and exact
    conditional tables."""
    graph_lines: list[tuple[int, list[str]]] = []
    domain_lines: list[tuple[int, list[str]]] = []
    cpt_lines: list[tuple[int, list[str]]] = []
    for i, toks in _scan(text):
        if toks[0] in ("var", "edge", "arc"):
            graph_lines.append((i, toks))
        elif toks[0] == "domain":
            domain_lines.append((i, toks))
        elif toks[0] == "cpt":
            cpt_lines.append((i, toks))
        else:
            raise ParseError(i, f"unknown directive {toks[0]!r}")
    g = _graph_from_directives(graph_lines)
    # the graph lists the declared variables in ``var`` order, then one
    # latent per ``arc`` in arc order: each name's line is its directive's
    line_of = dict(zip(g.names,
                       [i for i, toks in graph_lines if toks[0] == "var"]
                       + [i for i, toks in graph_lines if toks[0] == "arc"]))

    domains: dict[str, tuple[str, ...]] = {}
    for i, toks in domain_lines:
        if len(toks) < 4:
            raise ParseError(i, "domain needs a variable and at least "
                             "two values")
        name, values = toks[1], tuple(toks[2:])
        if name not in g.names:
            raise ParseError(i, f"unknown variable {name!r}")
        if name in domains:
            raise ParseError(i, f"duplicate domain for {name!r}")
        if len(set(values)) != len(values):
            raise ParseError(i, f"repeated value in domain of {name!r}")
        domains[name] = values

    missing = [n for n in g.names if n not in domains]
    if missing:
        raise ParseError(line_of[missing[0]],
                         f"no domain declared for {missing[0]!r}")

    rows: dict[str, dict[tuple, tuple]] = {n: {} for n in g.names}
    parent_order: dict[str, tuple[str, ...]] = {
        n: g.ordered(g.parents(n)) for n in g.names}
    for i, toks in cpt_lines:
        if len(toks) < 2:
            raise ParseError(i, "bad cpt directive")
        name = toks[1]
        if name not in g.names:
            raise ParseError(i, f"unknown variable {name!r}")
        rest = toks[2:]
        if rest and rest[0] == "|":
            rest = rest[1:]
        if ":" not in rest:
            raise ParseError(i, "cpt needs a ':' before the probabilities")
        sep = rest.index(":")
        pa_assign = _parse_pa_assignment(rest[:sep], i)
        probs = [parse_fraction(t, i) for t in rest[sep + 1:]]
        expected = parent_order[name]
        if set(pa_assign) != set(expected):
            raise ParseError(
                i, f"cpt for {name!r} must assign exactly its parents "
                f"{list(expected)}, got {sorted(pa_assign)}")
        for p, v in pa_assign.items():
            if v not in domains[p]:
                raise ParseError(i, f"value {v!r} not in domain of {p!r}")
        key = tuple(pa_assign[p] for p in expected)
        if key in rows[name]:
            raise ParseError(i, f"duplicate cpt row for {name!r} at "
                             f"{dict(pa_assign)}")
        if len(probs) != len(domains[name]):
            raise ParseError(
                i, f"cpt row for {name!r} has {len(probs)} probabilities, "
                f"domain has {len(domains[name])} values")
        if sum(probs) != 1:
            raise ParseError(i, f"cpt row for {name!r} sums to "
                             f"{sum(probs)}, not 1")
        if any(p < 0 for p in probs):
            raise ParseError(i, f"negative probability in cpt row for "
                             f"{name!r}")
        rows[name][key] = tuple(probs)

    mechanisms = {}
    for n in g.names:
        # each row was checked to assign every parent a domain value, so
        # a row can be missing but never surplus
        lack = set(product(*[domains[p] for p in parent_order[n]]))
        lack -= rows[n].keys()
        if lack:
            raise ParseError(
                line_of[n], f"cpt for {n!r} misses a row for parent "
                f"assignment {dict(zip(parent_order[n], min(lack)))!r}")
        mechanisms[n] = Mechanism(n, parent_order[n], rows[n])
    return DiscreteModel(g, domains, mechanisms)


def model_to_dsl(m: DiscreteModel) -> str:
    lines = [graph_to_dsl(m.graph).rstrip("\n")]
    for n in m.graph.names:
        lines.append(f"domain {n} {' '.join(str(v) for v in m.domains[n])}")
    for n in m.graph.names:
        mech = m.mechanisms[n]
        for key in product(*[m.domains[p] for p in mech.parents]):
            row = mech.row(key)
            pa = " ".join(f"{p}={v}" for p, v in zip(mech.parents, key))
            ps = " ".join(str(x) for x in row)
            lines.append(f"cpt {n} | {pa} : {ps}".replace("|  :", "| :"))
    return "\n".join(lines) + "\n"

