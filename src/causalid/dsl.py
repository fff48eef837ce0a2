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
directive it refused.  A model file's ``domain``, then ``cpt``, lines
are checked for what text alone can get wrong; the ``DiscreteModel``
constructor's refusal is reported at its directive's line, or at a
variable's ``var`` or ``arc`` line for a missing domain, table or row.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable

from .graph import CausalGraph, GraphError, Variable
from .scm import DiscreteModel, Mechanism, ModelError


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
        name, eq, value = tok.partition("=")
        if not (name and eq and value):
            raise ParseError(line, f"bad parent assignment token {tok!r}")
        if name in out:
            raise ParseError(line, f"parent {name!r} assigned twice")
        out[name] = value
    return out


def parse_model(text: str) -> DiscreteModel:
    """Parse the model DSL: graph directives plus domains and exact
    conditional tables.  Each directive's shape is checked here; the
    model itself is checked by the ``DiscreteModel`` constructor, and its
    refusal is reported at the line of the directive it refused."""
    # the graph's var, edge and arc lines are kept under "var"
    lines: dict[str, list[tuple[int, list[str]]]] = {
        "var": [], "domain": [], "cpt": []}
    for i, toks in _scan(text):
        kind = "var" if toks[0] in _ARROWS else toks[0]
        if kind not in lines:
            raise ParseError(i, f"unknown directive {toks[0]!r}")
        lines[kind].append((i, toks))
    g = _graph_from_directives(lines["var"])
    # the graph lists the declared variables in ``var`` order, then one
    # latent per ``arc`` in arc order: each name's line is its directive's
    line_of: dict[tuple, int] = {  # ModelError.at -> line
        ("var", n): i for n, i in zip(g.names, [
            i for kind in ("var", "arc")
            for i, toks in lines["var"] if toks[0] == kind])}

    domains: dict[str, tuple[str, ...]] = {}
    for i, toks in lines["domain"]:
        if len(toks) < 2:
            raise ParseError(i, "bad domain directive")
        if toks[1] in domains:
            raise ParseError(i, f"duplicate domain for {toks[1]!r}")
        domains[toks[1]] = tuple(toks[2:])
        line_of["domain", toks[1]] = i

    mechanisms: dict[str, Mechanism] = {}
    for i, toks in lines["cpt"]:
        if len(toks) < 2:
            raise ParseError(i, "bad cpt directive")
        name = toks[1]
        if name not in g.names:
            raise ParseError(i, f"unknown variable {name!r}")
        rest = toks[3:] if toks[2:3] == ["|"] else toks[2:]
        if ":" not in rest:
            raise ParseError(i, "cpt needs a ':' before the probabilities")
        sep = rest.index(":")
        pa_assign = _parse_pa_assignment(rest[:sep], i)
        probs = [parse_fraction(t, i) for t in rest[sep + 1:]]
        parents = g.ordered(g.parents(name))
        if set(pa_assign) != set(parents):
            raise ParseError(
                i, f"cpt for {name!r} must assign exactly its parents "
                f"{list(parents)}, got {sorted(pa_assign)}")
        key = tuple(pa_assign[p] for p in parents)
        if name not in mechanisms:
            mechanisms[name] = Mechanism(name, parents, {})
        if key in mechanisms[name].table:
            raise ParseError(i, f"duplicate cpt row for {name!r} at "
                             f"{dict(pa_assign)}")
        mechanisms[name].table[key] = probs
        line_of["row", name, key] = i
    try:
        return DiscreteModel(g, domains, mechanisms)
    except ModelError as exc:
        raise ParseError(line_of[exc.at], str(exc)) from None


def model_to_dsl(m: DiscreteModel) -> str:
    lines = [graph_to_dsl(m.graph).rstrip("\n")]
    for n in m.graph.names:
        lines.append(f"domain {n} {' '.join(str(v) for v in m.domains[n])}")
    for n in m.graph.names:
        mech = m.mechanisms[n]
        for key, row in mech.table.items():  # in parent-assignment order
            pa = " ".join(f"{p}={v}" for p, v in zip(mech.parents, key))
            ps = " ".join(str(x) for x in row)
            lines.append(f"cpt {n} | {pa} : {ps}".replace("|  :", "| :"))
    return "\n".join(lines) + "\n"

