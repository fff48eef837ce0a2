"""Seeded inputs for the three workloads, and the check of each op.

A workload is a list of passes.  Pass ``j`` of a run with seed ``s``
draws from ``Random("<workload>:<s>:<j>")`` and holds the same strata
(family and size) on every pass: only node names, the declaration order
the search breaks ties by, edge line order and model tables change.  So
every pass has the same mix of work and no input repeats in a run.

Each ``Op`` carries the CLI arguments of one ``causalid ... --json``
call and a ``check`` that turns (exit code, stdout, stderr) into an
outcome (``decided``, ``undecided`` or ``refused``) or raises
``Mismatch``.  Checks use only ``reference``, never the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

import reference as ref

CELL_BUDGET = 2 ** 20  # the engine's documented refusal threshold

IDENTIFIED = "identified"
NOT_WITHIN_BUDGET = "not-identified-within-budget"
KNOWN_NON_IDENTIFIABLE = "known-non-identifiable"


class Mismatch(Exception):
    """An op's output disagrees with the reference or the known truth."""


@dataclass
class Op:
    family: str
    nodes: int
    cells: int
    argv: list
    check: Callable[[object, str, str], str]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _doc(out: str, command: str) -> dict:
    try:
        doc = json.loads(out)
    except ValueError:
        raise Mismatch(f"stdout is not one JSON document: {out[:200]!r}")
    _expect(doc.get("schema") == 1, f"schema {doc.get('schema')!r}")
    _expect(doc.get("command") == command, f"command {doc.get('command')!r}")
    return doc


# -- graphs ----------------------------------------------------------------

_FIRST = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_REST = "abcdefghijklmnopqrstuvwxyz0123456789"


def _names(rng: random.Random, roles) -> dict[str, str]:
    """Distinct random three-character names, one per role."""
    out: dict[str, str] = {}
    taken = set()
    for role in roles:
        while True:
            name = rng.choice(_FIRST) + rng.choice(_REST) + rng.choice(_REST)
            if name not in taken:
                break
        taken.add(name)
        out[role] = name
    return out


@dataclass
class Shape:
    """A graph over roles: ``nodes`` in topological order, ``latent``
    roles, directed ``edges`` and bidirected ``arcs`` (written with the
    DSL's ``arc`` directive)."""

    nodes: list
    latent: set
    edges: list
    arcs: list

    def expanded(self):
        """(nodes in topological order, latent roles, parents) with each
        arc written out as a latent common cause ``arc<k>``."""
        extra = [f"arc{k}" for k in range(len(self.arcs))]
        edges = list(self.edges)
        for u, (a, b) in zip(extra, self.arcs):
            edges += [(u, a), (u, b)]
        pa = {n: [] for n in extra + self.nodes}
        for t, h in edges:
            pa[h].append(t)
        return (extra + self.nodes, self.latent | set(extra),
                {n: tuple(ps) for n, ps in pa.items()})

    def text(self, rng: random.Random, name: dict) -> str:
        declare = list(self.nodes)
        rng.shuffle(declare)
        edges = list(self.edges)
        rng.shuffle(edges)
        lines = [f"var {name[n]} latent" if n in self.latent
                 else f"var {name[n]}" for n in declare]
        lines += [f"edge {name[t]} -> {name[h]}" for t, h in edges]
        lines += [f"arc {name[a]} <-> {name[b]}" for a, b in self.arcs]
        return "\n".join(lines) + "\n"


def _leaves(shape: Shape, count: int) -> None:
    # observed leaves hang alternately off X and Y: never ancestors of Y
    for i in range(count):
        leaf = f"E{i}"
        shape.nodes.append(leaf)
        shape.edges.append(("X" if i % 2 == 0 else "Y", leaf))


def frontdoor(k: int) -> Shape:
    ms = [f"M{i}" for i in range(k)]
    chain = ["X"] + ms + ["Y"]
    return Shape(["U", "X"] + ms + ["Y"], {"U"},
                 [("U", "X"), ("U", "Y")] + list(zip(chain, chain[1:])), [])


def backdoor(confounders: int, latent: bool, leaves: int) -> Shape:
    """Observed confounders C_i of X and Y; with ``latent``, C0 reaches Y
    only through a latent L, as in the corpus's loyalty diagram."""
    cs = [f"C{i}" for i in range(confounders)]
    nodes = (["L"] if latent else []) + cs + ["X", "Y"]
    edges = [("X", "Y")]
    for c in cs:
        edges.append((c, "X"))
        if not (latent and c == "C0"):
            edges.append((c, "Y"))
    if latent:
        edges += [("L", "C0"), ("L", "Y")]
    shape = Shape(nodes, {"L"} if latent else set(), edges, [])
    _leaves(shape, leaves)
    return shape


def with_arcs(shape: Shape) -> Shape:
    """The same diagram with each latent, which must have exactly two
    children, written as the DSL's bidirected ``arc``."""
    arcs = [tuple(h for t, h in shape.edges if t == u)
            for u in shape.nodes if u in shape.latent]
    return Shape([n for n in shape.nodes if n not in shape.latent], set(),
                 [e for e in shape.edges if e[0] not in shape.latent], arcs)


def bow(instrument: bool, leaves: int) -> Shape:
    nodes = (["I"] if instrument else []) + ["X", "Y"]
    edges = [("X", "Y")] + ([("I", "X")] if instrument else [])
    shape = Shape(nodes, set(), edges, [("X", "Y")])
    _leaves(shape, leaves)
    return shape


def pricing(instrument: bool, leaves: int) -> Shape:
    """Confounded mediator: U drives X and the mediator Z."""
    nodes = (["I"] if instrument else []) + ["U", "X", "Z", "Y"]
    edges = [("U", "X"), ("U", "Z"), ("X", "Z"), ("X", "Y"), ("Z", "Y")]
    edges += [("I", "X")] if instrument else []
    shape = Shape(nodes, {"U"}, edges, [])
    _leaves(shape, leaves)
    return shape


def _identify_op(rng, family, shape, path: Path, check) -> Op:
    name = _names(rng, shape.nodes)
    path.write_text(shape.text(rng, name), encoding="utf-8")
    nodes = len(shape.nodes) + len(shape.arcs)
    argv = ["identify", str(path), "--x", name["X"], "--y", name["Y"],
            "--json"]
    return Op(family, nodes, 2 ** nodes, argv, check(shape, name, rng))


def _identified_check(shape: Shape, name: dict, rng: random.Random):
    """An identifiable query: IDENTIFIED must carry a formula that equals
    p(y|do(x)) on a fresh random model of the graph."""
    nodes, latent, parents = shape.expanded()
    label = {n: name.get(n, n) for n in nodes}
    model = ref.random_model(
        [label[n] for n in nodes], {label[n] for n in latent},
        {label[n]: tuple(label[p] for p in ps) for n, ps in parents.items()},
        random.Random(rng.getrandbits(64)))
    x, y = name["X"], name["Y"]
    observed = {label[n] for n in nodes if n not in latent}

    def check(rc, out: str, err: str) -> str:
        doc = _doc(out, "identify")
        _expect(doc["x"] == [x] and doc["y"] == [y], "query echoed wrongly")
        if doc["status"] == NOT_WITHIN_BUDGET:
            _expect(rc == 1 and doc["formula"] is None, f"exit {rc}")
            return "undecided"
        _expect(doc["status"] == IDENTIFIED,
                f"identifiable query reported {doc['status']}")
        _expect(rc == 0, f"exit {rc} with IDENTIFIED")
        formula = ref.parse_formula(doc["formula"])
        for _, targets, given, do in ref.formula_terms(formula):
            _expect(not do, "formula keeps an intervention")
            used = {ref.base(n) for n in targets + given}
            _expect(used <= observed, f"formula names {sorted(used)}")
        ev = ref.Evaluator(model)
        for xv, yv in product(model.domains[x], model.domains[y]):
            got = ev.value(formula, {x: xv, y: yv})
            want = ref.interventional(model, x, xv, y, yv)
            _expect(got == want, f"{doc['formula']} at {x}={xv} {y}={yv}: "
                                 f"{got} != {want}")
        return "decided"

    return check


def _non_identifiable_check(shape: Shape, name: dict, rng: random.Random):
    """A query known to be non-identifiable: IDENTIFIED is always wrong."""
    x, y = name["X"], name["Y"]

    def check(rc, out: str, err: str) -> str:
        doc = _doc(out, "identify")
        _expect(doc["x"] == [x] and doc["y"] == [y], "query echoed wrongly")
        status = doc["status"]
        _expect(status in (KNOWN_NON_IDENTIFIABLE, NOT_WITHIN_BUDGET),
                f"non-identifiable query reported {status}")
        _expect(rc == 1 and doc["formula"] is None, f"exit {rc}")
        return "decided" if status == KNOWN_NON_IDENTIFIABLE else "undecided"

    return check


def search_identified(seed: int, j: int, work: Path) -> list[Op]:
    rng = random.Random(f"search-identified:{seed}:{j}")
    plan = [(f"frontdoor-k{k}", frontdoor(k)) for k in (1, 2, 3)]
    for c, latent, leaves in product((1, 2), (False, True), range(5)):
        plan.append((f"backdoor-c{c}{'-latent' if latent else ''}-l{leaves}",
                     backdoor(c, latent, leaves)))
    # two mid-cost diagrams again with their latent written as an arc: this
    # exercises the DSL's arc directive, and the 25 families put the median
    # inside a group of similar cost instead of on a gap between two
    plan.append(("frontdoor-k2-arc", with_arcs(frontdoor(2))))
    plan.append(("backdoor-c1-arc-l3", with_arcs(backdoor(1, True, 3))))
    ops = [_identify_op(rng, fam, shape, work / f"p{j}-{i}.graph",
                        _identified_check)
           for i, (fam, shape) in enumerate(plan)]
    rng.shuffle(ops)
    return ops


def search_exhausted(seed: int, j: int, work: Path) -> list[Op]:
    rng = random.Random(f"search-exhausted:{seed}:{j}")
    # up to two additions to each shape, and the bow with three leaves;
    # an odd count keeps the median inside one family's samples
    plan = [("bow-i0-l3", bow(False, 3))]
    for inst, leaves in product((False, True), range(3)):
        if inst + leaves <= 2:
            plan.append((f"bow-i{int(inst)}-l{leaves}", bow(inst, leaves)))
            plan.append((f"pricing-i{int(inst)}-l{leaves}",
                         pricing(inst, leaves)))
    ops = [_identify_op(rng, fam, shape, work / f"p{j}-{i}.graph",
                        _non_identifiable_check)
           for i, (fam, shape) in enumerate(plan)]
    rng.shuffle(ops)
    return ops


# -- exact evaluation ------------------------------------------------------

def _eval_shape(rng: random.Random, n: int):
    """Random binary DAG over v0..v{n-1} (topological order) with latent
    roots v0, v1.  X = v{n//2} has exactly two observed parents and
    sometimes the latent v0; Y = v{n-1} is a child of X."""
    nodes = [f"v{i}" for i in range(n)]
    ix = n // 2
    parents: dict[str, list] = {"v0": [], "v1": []}
    for i in range(2, n):
        if i == ix:
            ps = rng.sample(range(2, ix), 2) + ([0] if rng.random() < .5
                                                else [])
        elif i == n - 1:
            ps = [ix, rng.choice([k for k in range(n - 1) if k != ix])]
        else:
            ps = rng.sample(range(i), rng.randint(1, 2))
        parents[nodes[i]] = [nodes[k] for k in ps]
    for lat in ("v0", "v1"):
        if not any(lat in ps for ps in parents.values()):
            kids = [v for v in nodes[2:] if len(parents[v]) < 3
                    and v != nodes[ix]]
            parents[rng.choice(kids)].append(lat)
    return nodes, {"v0", "v1"}, parents, nodes[ix], nodes[n - 1]


def _wide_shape(rng: random.Random, n: int):
    """More than 20 binary nodes, but p(Y|do(X)) needs only the latent
    v0, X's parents v1, v2, X = v3 and Y = v4; the rest descend from Y
    or from the latent root v5."""
    nodes = [f"v{i}" for i in range(n)]
    parents = {"v0": [], "v1": [], "v2": [], "v3": ["v1", "v2", "v0"],
               "v4": ["v3", "v0"], "v5": []}
    for i in range(6, n):
        ps = [nodes[k] for k in rng.sample(range(4, i), 1 + (i % 2))]
        if i % 5 == 0 and "v5" not in ps:
            ps.append("v5")
        parents[nodes[i]] = ps
    return nodes, {"v0", "v5"}, parents, "v3", "v4"


def _eval_op(rng, kind: str, n: int, wide: bool, path: Path) -> Op:
    roles, latent, parents, rx, ry = (_wide_shape if wide else _eval_shape)(
        rng, n)
    name = _names(rng, roles)
    model = ref.random_model(
        [name[r] for r in roles], {name[r] for r in latent},
        {name[r]: tuple(name[p] for p in parents[r]) for r in roles}, rng)
    declare = list(model.order)
    rng.shuffle(declare)
    edges = [(p, c) for c in model.order for p in model.parents[c]]
    rng.shuffle(edges)
    path.write_text(ref.model_text(model, declare, edges), encoding="utf-8")
    x, y = name[rx], name[ry]
    family = f"eval-{'wide-' if wide else ''}{kind}-n{n}"
    if kind == "do":
        xv = rng.choice(model.domains[x])
        argv = ["eval", str(path), "--do", f"{x}={xv}", "--target", y,
                "--check", "--json"]
        formula = None
    else:
        adj = sorted(p for p in model.parents[x] if p not in model.latent)
        text = (f"sum_{{{','.join(adj)}}} p({y}|{x},{','.join(adj)}) "
                f"p({','.join(adj)})")
        argv = ["eval", str(path), "--formula", text, "--do", x,
                "--target", y, "--check", "--json"]
        formula = ref.parse_formula(text)
        xv = None

    def check(rc, out: str, err: str) -> str:
        if rc == 2 and not out and "cells" in err:
            _expect(model.cells() > CELL_BUDGET,
                    f"refused a {model.cells()}-cell model: {err.strip()}")
            return "refused"
        _expect(rc == 0, f"exit {rc}: {err.strip()[:200]}")
        rows = _doc(out, "eval")["rows"]
        want_keys = ([(xv, v) for v in model.domains[y]] if formula is None
                     else list(product(model.domains[x], model.domains[y])))
        got_keys = [(r["binding"].get(x), r["binding"].get(y)) for r in rows]
        _expect(sorted(got_keys) == sorted(want_keys),
                f"rows for {got_keys}, expected {want_keys}")
        ev = ref.Evaluator(model) if formula is not None else None
        for r, (a, b) in zip(rows, got_keys):
            effect = ref.interventional(model, x, a, y, b)
            value = effect if ev is None else ev.value(formula, {x: a, y: b})
            _expect(Fraction(r["exact"]) == value,
                    f"value at {x}={a} {y}={b}: {r['exact']} != {value}")
            _expect(Fraction(r["check_diff"]) == value - effect,
                    f"check-diff at {x}={a} {y}={b}: {r['check_diff']}")
        return "decided"

    return Op(family, n, model.cells(), argv, check)


def exact_eval(seed: int, j: int, work: Path) -> list[Op]:
    """16 models of 9-12 nodes and one wide model (about 6% of ops)."""
    rng = random.Random(f"exact-eval:{seed}:{j}")
    plan = [(kind, n, False) for n, kind, _ in
            product((9, 10, 11, 12), ("do", "formula"), range(2))]
    plan.append(("do" if j % 2 == 0 else "formula", 22, True))
    ops = [_eval_op(rng, kind, n, wide, work / f"p{j}-{i}.model")
           for i, (kind, n, wide) in enumerate(plan)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "search-identified": search_identified,
    "search-exhausted": search_exhausted,
    "exact-eval": exact_eval,
}
