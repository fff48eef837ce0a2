"""Independent reference for checking the engine's answers.

Nothing here imports the package under test.  A model is a plain
``Model`` record of exact ``Fraction`` tables; interventional and
observational marginals come from a truncated-factorization product over
the ancestral closure of the variables a query names, and formulas are
read back from the CLI's text rendering by a parser of their own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


@dataclass(frozen=True)
class Model:
    """Discrete model: ``order`` is a topological order of every node,
    ``parents[n]`` the parent tuple its table is keyed by, ``table[n]``
    maps a parent-value tuple to one probability per domain value."""

    order: tuple[str, ...]
    latent: frozenset[str]
    domains: dict[str, tuple[str, ...]]
    parents: dict[str, tuple[str, ...]]
    table: dict[str, dict[tuple, tuple[Fraction, ...]]]

    def cells(self) -> int:
        total = 1
        for n in self.order:
            total *= len(self.domains[n])
        return total

    def ancestral(self, names) -> list[str]:
        """``names`` plus all their ancestors, in topological order."""
        keep = set(names)
        stack = list(keep)
        while stack:
            for p in self.parents[stack.pop()]:
                if p not in keep:
                    keep.add(p)
                    stack.append(p)
        return [n for n in self.order if n in keep]


def random_model(order, latent, parents, rng, max_weight: int = 9) -> Model:
    """Binary model with strictly positive rows from integer weights."""
    domains = {n: ("0", "1") for n in order}
    table = {}
    for n in order:
        rows = {}
        for pa in product(*(domains[p] for p in parents[n])):
            w = [rng.randint(1, max_weight) for _ in domains[n]]
            rows[pa] = tuple(Fraction(x, sum(w)) for x in w)
        table[n] = rows
    return Model(tuple(order), frozenset(latent), domains,
                 {n: tuple(parents[n]) for n in order}, table)


def marginal(m: Model, keep, do=None) -> dict[tuple, Fraction]:
    """p(keep | do(do)) as a table keyed by values in ``keep`` order.

    Enumerates only the ancestral closure of ``keep`` and the intervened
    nodes, multiplying every table except those of intervened nodes,
    which are pinned to their assigned value.
    """
    do = dict(do or {})
    keep = tuple(keep)
    nodes = m.ancestral(set(keep) | set(do))
    pos = {n: i for i, n in enumerate(nodes)}
    out: dict[tuple, Fraction] = {}
    values: list = [None] * len(nodes)

    def walk(i: int, mass: Fraction):
        if i == len(nodes):
            key = tuple(values[pos[k]] for k in keep)
            out[key] = out.get(key, 0) + mass
            return
        n = nodes[i]
        if n in do:
            values[i] = do[n]
            walk(i + 1, mass)
            return
        row = m.table[n][tuple(values[pos[p]] for p in m.parents[n])]
        for v, pr in zip(m.domains[n], row):
            values[i] = v
            walk(i + 1, mass * pr)

    walk(0, Fraction(1))
    return out


def interventional(m: Model, x: str, xv: str, y: str, yv: str) -> Fraction:
    return marginal(m, (y,), {x: xv}).get((yv,), Fraction(0))


# -- model text (the CLI's model format) ------------------------------------

def model_text(m: Model, declare, edges) -> str:
    """Render a model in the CLI's line format; ``declare`` fixes the
    variable declaration order and ``edges`` the edge line order."""
    lines = [f"var {n} latent" if n in m.latent else f"var {n}"
             for n in declare]
    lines += [f"edge {t} -> {h}" for t, h in edges]
    lines += [f"domain {n} {' '.join(m.domains[n])}" for n in declare]
    for n in declare:
        for pa, row in m.table[n].items():
            cond = " ".join(f"{p}={v}" for p, v in zip(m.parents[n], pa))
            probs = " ".join(str(p) for p in row)
            lines.append(f"cpt {n} | {cond} : {probs}")
    return "\n".join(lines) + "\n"


# -- formulas --------------------------------------------------------------
#
# Expression trees are tuples: ("p", targets, given, do), ("sum", bound,
# body), ("prod", factors), ("div", num, den).  Names keep their primes;
# the base variable is the name without trailing primes.

_TOKEN = re.compile(r"\s*([A-Za-z0-9_]+'*|[(){}|,/])")


class FormulaError(ValueError):
    """A formula that does not parse or cannot be evaluated."""


def _tokens(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            if text[i:].strip():
                raise FormulaError(f"bad character at {i} in {text!r}")
            break
        out.append(m.group(1))
        i = m.end()
    return out


def parse_formula(text: str):
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(want=None):
        nonlocal pos
        if pos >= len(toks):
            raise FormulaError(f"unexpected end of {text!r}")
        t = toks[pos]
        if want is not None and t != want:
            raise FormulaError(f"expected {want!r}, got {t!r} in {text!r}")
        pos += 1
        return t

    def names_until(stop):
        out = [take()]
        while peek() == ",":
            take(",")
            out.append(take())
        take(stop)
        return tuple(out)

    def expr():
        e = prod()
        while peek() == "/":
            take("/")
            e = ("div", e, prod())
        return e

    def prod():
        fs = [factor()]
        while peek() not in (None, ")", "/"):
            fs.append(factor())
        return fs[0] if len(fs) == 1 else ("prod", tuple(fs))

    def factor():
        t = peek()
        if t == "(":
            take("(")
            e = expr()
            take(")")
            return e
        if t == "p" and toks[pos + 1:pos + 2] == ["("]:
            take("p")
            take("(")
            targets, given, do = [take()], [], []
            while peek() == ",":
                take(",")
                targets.append(take())
            if peek() == "|":
                take("|")
                while True:
                    t = take()
                    if t == "do":
                        take("(")
                        do.extend(names_until(")"))
                    else:
                        given.append(t)
                    if peek() != ",":
                        break
                    take(",")
            take(")")
            return ("p", tuple(targets), tuple(given), tuple(do))
        if t is not None and t.startswith("sum_"):
            take()
            rest = t[len("sum_"):]
            if rest:
                bound = (rest,)
            else:
                take("{")
                bound = names_until("}")
            return ("sum", bound, prod())
        raise FormulaError(f"unexpected token {t!r} in {text!r}")

    e = expr()
    if peek() is not None:
        raise FormulaError(f"trailing {peek()!r} in {text!r}")
    return e


def base(name: str) -> str:
    return name.rstrip("'")


def formula_terms(e):
    if e[0] == "p":
        yield e
    elif e[0] == "sum":
        yield from formula_terms(e[2])
    elif e[0] == "prod":
        for f in e[1]:
            yield from formula_terms(f)
    else:
        yield from formula_terms(e[1])
        yield from formula_terms(e[2])


class Evaluator:
    """Exact value of a do-free formula on a model, from observational
    marginals computed once per variable set."""

    def __init__(self, m: Model):
        self.m = m
        self._tables: dict[tuple, dict] = {}

    def prob(self, assign: dict[str, str]) -> Fraction:
        names = tuple(sorted(assign))
        table = self._tables.get(names)
        if table is None:
            table = self._tables[names] = marginal(self.m, names)
        return table.get(tuple(assign[n] for n in names), Fraction(0))

    def value(self, e, env: dict[str, str]) -> Fraction:
        kind = e[0]
        if kind == "p":
            _, targets, given, do = e
            if do:
                raise FormulaError("formula still has do()")
            g = {base(n): env[n] for n in given}
            joint = {**g, **{base(n): env[n] for n in targets}}
            if not g:
                return self.prob(joint)
            den = self.prob(g)
            if den == 0:
                raise FormulaError("zero-probability conditioning event")
            return self.prob(joint) / den
        if kind == "sum":
            _, bound, body = e
            total = Fraction(0)
            for combo in product(*(self.m.domains[base(b)] for b in bound)):
                total += self.value(body, {**env, **dict(zip(bound, combo))})
            return total
        if kind == "prod":
            out = Fraction(1)
            for f in e[1]:
                out *= self.value(f, env)
            return out
        den = self.value(e[2], env)
        if den == 0:
            raise FormulaError("zero denominator")
        return self.value(e[1], env) / den
