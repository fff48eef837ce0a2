"""Symbolic probability expressions.

Identification results are stated in a small language of probability
terms with observation and intervention slots, sums over bound
variables, products and quotients:

    p(A,B|C,do(D))     conditional term, do() marks interventions (do
                       without a "(" after it is a variable's name)
    sum_z <factors>    sum over all domain values of z (also sum_{a,b})
    juxtaposition      product
    /                  quotient; parentheses group

Expressions carry variable names only; domains and values come from a
model at evaluation time.  A primed variable such as x' is an ordinary
bound variable stored as written; it stands for the graph variable
named by its base, the name without its primes.  Graph names contain
no ``'``, so a primed name never clashes with one, and as ``'`` sorts
before every name character, sorted names run by base, then by primes.

The shape of the tree (a sum's body, a product's factors, a quotient's
numerator and denominator) is stated once, in ``_parts`` and
``_rebuilt``: every structural walk (term and name queries, binder
checks, the canonical form, display cleanup) and the derivation replay,
whose positions are tuples of part indices, reach sub-expressions only
through them.  Rendering, the canonical sort key and evaluation branch
on each node kind, since each kind means something different there.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterable, Mapping, Union

from .dsep import d_separated
from .graph import CausalGraph, _Record
from .scm import DiscreteModel, PositivityError

_NAME_TEXT_RE = re.compile(r"^[A-Za-z0-9_]+'*$")


class ExprError(Exception):
    """Malformed expression or parse failure."""


def base_name(name: str) -> str:
    """The graph variable ``name`` stands for: the name without primes."""
    return name.rstrip("'")


def name_from_text(tok: str) -> str:
    if not _NAME_TEXT_RE.match(tok):
        raise ExprError(f"bad variable token {tok!r}")
    return tok


def fresh_name(base: str, used: Iterable[str]) -> str:
    """``base`` with the fewest primes that no name in ``used`` has."""
    taken = set(used)
    while base in taken:
        base += "'"
    return base


class ProbTerm(_Record):
    """p(targets | given, do(do)); the three name sets are disjoint and
    no two of them share a base variable."""

    __slots__ = ("targets", "given", "do")

    def __init__(self, targets: tuple[str, ...], given: tuple[str, ...] = (),
                 do: tuple[str, ...] = ()):
        targets = tuple(sorted(targets))
        given = tuple(sorted(given))
        do = tuple(sorted(do))
        if not targets:
            raise ExprError("a probability term needs at least one target")
        allnames = targets + given + do
        if len(set(allnames)) != len(allnames):
            repeated = sorted({n for n in allnames if allnames.count(n) > 1})
            raise ExprError(
                f"repeated variable {', '.join(repeated)} in term")
        bases = [base_name(n) for n in allnames]
        if len(set(bases)) != len(bases):
            base = min(b for b in bases if bases.count(b) > 1)
            names = sorted(n for n in allnames if base_name(n) == base)
            raise ExprError(f"term mentions {base} twice (primes included): "
                            + ", ".join(names))
        super().__init__(targets, given, do)


class Sum(_Record):
    __slots__ = ("bound", "body")

    def __init__(self, bound: tuple[str, ...], body: Expr):
        if not bound:
            raise ExprError("sum needs at least one bound variable")
        if len(set(bound)) != len(bound):
            raise ExprError("repeated bound variable")
        super().__init__(bound, body)


class Product(_Record):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        if len(factors) < 2:
            raise ExprError("product needs at least two factors")
        super().__init__(factors)


class Quotient(_Record):
    __slots__ = ("num", "den")


Expr = Union[ProbTerm, Sum, Product, Quotient]


def P(targets, given=(), do=()) -> ProbTerm:
    """Convenience constructor accepting strings or iterables."""
    tt = (targets,) if isinstance(targets, str) else tuple(targets)
    gg = (given,) if isinstance(given, str) else tuple(given)
    dd = (do,) if isinstance(do, str) else tuple(do)
    return ProbTerm(tt, gg, dd)


# -- structure ---------------------------------------------------------

# Recursive walks here are module-level functions, never self-calling
# closures: such a closure is a reference cycle that lives, with all it
# refers to, until the cyclic garbage collector runs.

def _parts(e: Expr) -> tuple:
    """The sub-expressions of ``e`` in order: a sum's body, a product's
    factors, a quotient's numerator then denominator; none for a term."""
    if isinstance(e, ProbTerm):
        return ()
    if isinstance(e, Sum):
        return (e.body,)
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Quotient):
        return (e.num, e.den)
    raise ExprError(f"not an expression: {e!r}")


def _rebuilt(e: Expr, parts) -> Expr:
    """The node ``e`` with its sub-expressions replaced by ``parts``."""
    if isinstance(e, Sum):
        return Sum(e.bound, parts[0])
    if isinstance(e, Product):
        return Product(tuple(parts))
    if isinstance(e, Quotient):
        return Quotient(*parts)
    return e


def walk_terms(e: Expr):
    if isinstance(e, ProbTerm):
        yield e
    for part in _parts(e):
        yield from walk_terms(part)


def is_do_free(e: Expr) -> bool:
    return all(not t.do for t in walk_terms(e))


def free_variables(e: Expr, _bound: frozenset[str] = frozenset()
                   ) -> frozenset[str]:
    if isinstance(e, ProbTerm):
        return frozenset(n for n in e.targets + e.given + e.do
                         if n not in _bound)
    if isinstance(e, Sum):
        _bound = _bound | frozenset(e.bound)
    out = frozenset()
    for part in _parts(e):
        out |= free_variables(part, _bound)
    return out


def used_names(e: Expr) -> frozenset[str]:
    """Every name in ``e``: those its terms read and its sums bind."""
    names = (e.targets + e.given + e.do if isinstance(e, ProbTerm)
             else e.bound if isinstance(e, Sum) else ())
    return frozenset(names).union(*[used_names(part) for part in _parts(e)])


def validate(e: Expr, _scope: frozenset[str] = frozenset()) -> None:
    """Check binder hygiene: a bound variable may not collide with any
    name already in scope."""
    if isinstance(e, ProbTerm):
        return
    if isinstance(e, Sum):
        clash = sorted(set(e.bound) & _scope)
        if clash:
            raise ExprError("bound variable rebinds name in scope: "
                            + ", ".join(clash))
        _scope = _scope | frozenset(e.bound)
    for part in _parts(e):
        validate(part, _scope)


# -- rendering ---------------------------------------------------------

def _render_term(t: ProbTerm, latex: bool) -> str:
    tgt = ",".join(t.targets)
    parts = []
    if t.do:
        inner = ",".join(t.do)
        parts.append((r"\mathrm{do}(" if latex else "do(") + inner + ")")
    parts.extend(t.given)
    if parts:
        return f"p({tgt}|{','.join(parts)})"
    return f"p({tgt})"


def _needs_parens(f: Expr, last_in_product: bool) -> bool:
    if isinstance(f, ProbTerm):
        return False
    if isinstance(f, Sum):
        return not last_in_product  # a trailing sum swallows nothing more
    return True  # nested products and quotients always grouped


def _wrap(s: str, latex: bool) -> str:
    return (r"\left(" + s + r"\right)") if latex else f"({s})"


def _render(x: Expr, latex: bool) -> str:
    if isinstance(x, ProbTerm):
        return _render_term(x, latex)
    if isinstance(x, Sum):
        if latex:
            head = r"\sum_{" + ",".join(x.bound) + "} "
        elif len(x.bound) == 1:
            head = f"sum_{x.bound[0]} "
        else:
            head = "sum_{" + ",".join(x.bound) + "} "
        body = _render(x.body, latex)
        if isinstance(x.body, Quotient):
            body = _wrap(body, latex)
        return head + body
    if isinstance(x, Product):
        out = []
        for i, f in enumerate(x.factors):
            s = _render(f, latex)
            if _needs_parens(f, i == len(x.factors) - 1):
                s = _wrap(s, latex)
            out.append(s)
        return (r" \: " if latex else " ").join(out)
    if isinstance(x, Quotient):
        if latex:
            return (r"\frac{" + _render(x.num, latex) + "}{"
                    + _render(x.den, latex) + "}")
        num, den = _render(x.num, latex), _render(x.den, latex)
        if not isinstance(x.num, ProbTerm):
            num = _wrap(num, latex)
        if not isinstance(x.den, ProbTerm):
            den = _wrap(den, latex)
        return f"{num} / {den}"
    raise ExprError(f"not an expression: {x!r}")


def render(e: Expr, format: str = "text") -> str:
    """Deterministic rendering; the text format round-trips through
    ``parse``."""
    latex = format == "latex"
    if format not in ("text", "latex"):
        raise ExprError(f"unknown format {format!r}")
    validate(e)
    return _render(e, latex)


# -- parsing -----------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*([A-Za-z0-9_]+'*|[(){}|,/])")


def _tokenize(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            if text[i:].strip():
                raise ExprError(f"unexpected character {text[i:].strip()[0]!r}"
                                f" at offset {i}")
            break
        out.append(m.group(1))
        i = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise ExprError("unexpected end of expression")
        self.i += 1
        return t

    def expect(self, tok: str) -> None:
        t = self.next()
        if t != tok:
            raise ExprError(f"expected {tok!r}, found {t!r}")

    def parse_expr(self) -> Expr:
        e = self.parse_product()
        while self.peek() == "/":
            self.next()
            e = Quotient(e, self.parse_product())
        return e

    def parse_product(self) -> Expr:
        factors = [self.parse_factor()]
        while self.peek() not in (None, ")", "/"):
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_factor(self) -> Expr:
        t = self.peek()
        if t == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t is None:
            raise ExprError("unexpected end of expression")
        if t == "p" and self.toks[self.i + 1:self.i + 2] == ["("]:
            return self.parse_term()
        if t.startswith("sum_"):
            return self.parse_sum()
        raise ExprError(f"unexpected token {t!r}")

    def parse_sum(self) -> Expr:
        t = self.next()
        rest = t[len("sum_"):]
        if rest:
            bound = [name_from_text(rest)]
        else:
            self.expect("{")
            bound = [name_from_text(self.next())]
            while self.peek() == ",":
                self.next()
                bound.append(name_from_text(self.next()))
            self.expect("}")
        body = self.parse_product()
        return Sum(tuple(bound), body)

    def parse_term(self) -> ProbTerm:
        self.expect("p")
        self.expect("(")
        targets = [name_from_text(self.next())]
        while self.peek() == ",":
            self.next()
            targets.append(name_from_text(self.next()))
        given: list[str] = []
        do: list[str] = []
        if self.peek() == "|":
            self.next()
            while True:
                t = self.next()
                if t == "do" and self.peek() == "(":  # else a variable
                    self.expect("(")
                    do.append(name_from_text(self.next()))
                    while self.peek() == ",":
                        self.next()
                        do.append(name_from_text(self.next()))
                    self.expect(")")
                else:
                    given.append(name_from_text(t))
                if self.peek() != ",":
                    break
                self.next()
        self.expect(")")
        return ProbTerm(tuple(targets), tuple(given), tuple(do))


def parse(text: str) -> Expr:
    """Parse the text grammar (the renderer's text output parses back)."""
    toks = _tokenize(text)
    if not toks:
        raise ExprError("empty expression")
    p = _Parser(toks)
    e = p.parse_expr()
    if p.peek() is not None:
        raise ExprError(f"trailing input from token {p.peek()!r}")
    validate(e)
    return e


# -- canonical form ----------------------------------------------------

def _skeleton_key(e: Expr, env: Mapping[str, str]) -> str:
    """Serialization with bound names replaced by base markers, so factor
    ordering does not depend on the eventual alpha-renaming."""
    def mark(n: str) -> str:
        return env.get(n, n)

    if isinstance(e, ProbTerm):
        return ("P(" + ",".join(sorted(mark(n) for n in e.targets)) + "|"
                + ",".join(sorted(mark(n) for n in e.given)) + ";"
                + ",".join(sorted(mark(n) for n in e.do)) + ")")
    if isinstance(e, Sum):
        env2 = dict(env)
        for b in e.bound:
            env2[b] = f"§{base_name(b)}"
        bases = ",".join(sorted(f"§{base_name(b)}" for b in e.bound))
        return f"S[{bases}]{_skeleton_key(e.body, env2)}"
    if isinstance(e, Product):
        return "*".join(sorted(_skeleton_key(f, env) for f in e.factors))
    return f"({_skeleton_key(e.num, env)})/({_skeleton_key(e.den, env)})"


def canonicalize(e: Expr) -> Expr:
    """Flatten products, merge and sort nested sums, order product
    factors structurally, and alpha-rename bound variables in order of
    appearance.  Evaluation is invariant under canonicalization."""
    validate(e)
    e = _canonical(e)
    counters = {}
    for n in free_variables(e):
        b = base_name(n)
        counters[b] = max(counters.get(b, 0), len(n) - len(b))
    return _rename(e, {}, counters)


def _canonical(x: Expr) -> Expr:
    """One bottom-up pass: a sum absorbs a sum body's binders, a product
    splices in product factors, then binders are sorted by base and
    factors by skeleton.  The parts come back canonical, so one level
    of merging suffices, and as the sorts are stable, ties keep the
    order they would have in the fully flattened node."""
    parts = [_canonical(part) for part in _parts(x)]
    if isinstance(x, Sum):
        bound, body = x.bound, parts[0]
        if isinstance(body, Sum):
            bound += body.bound
            body, = _parts(body)
        return Sum(tuple(sorted(bound, key=base_name)), body)
    if isinstance(x, Product):
        fs = []
        for f in parts:
            fs.extend(_parts(f) if isinstance(f, Product) else (f,))
        fs.sort(key=lambda f: _skeleton_key(f, {}))
        return Product(tuple(fs))
    return _rebuilt(x, parts)


def _rename(x: Expr, env: Mapping[str, str], counters: dict) -> Expr:
    """Alpha-rename bound variables to their base with k primes,
    numbering each base on from ``counters`` in order of appearance."""
    if isinstance(x, ProbTerm):
        return ProbTerm(tuple(env.get(n, n) for n in x.targets),
                        tuple(env.get(n, n) for n in x.given),
                        tuple(env.get(n, n) for n in x.do))
    if isinstance(x, Sum):
        env = dict(env)
        for b in x.bound:
            base = base_name(b)
            counters[base] = counters.get(base, 0) + 1
            env[b] = base + "'" * counters[base]
    parts = [_rename(part, env, counters) for part in _parts(x)]
    if isinstance(x, Sum):
        return Sum(tuple(sorted(env[b] for b in x.bound)), parts[0])
    return _rebuilt(x, parts)


def tidy(e: Expr) -> Expr:
    """Commutative display cleanup: inside a product, move sums after
    plain factors so renders need no parentheses.  Semantics unchanged."""
    parts = [tidy(part) for part in _parts(e)]
    if isinstance(e, Product):
        parts.sort(key=lambda f: isinstance(f, Sum))
    return _rebuilt(e, parts)


def alpha_equal(a: Expr, b: Expr) -> bool:
    return canonicalize(a) == canonicalize(b)


# -- evaluation --------------------------------------------------------

def evaluate(e: Expr, model: DiscreteModel,
             binding: Mapping[str, object]):
    """Exact value of the expression under a binding of its free
    variables.  Terms with interventions are evaluated through graph
    surgery (the oracle semantics); do-free terms read the plain joint.
    Each distinct do-assignment's joint is built once per call.  Names
    are checked once, first: the least name the graph lacks raises.
    """
    validate(e)
    missing = free_variables(e) - set(binding)
    if missing:
        raise ExprError(f"unbound variables: {', '.join(sorted(missing))}")
    model.graph.check_known(map(base_name, used_names(e)))
    return _value(e, model, dict(binding), {})


# The walk is a set of module-level functions that pass the per-call
# ``joints`` cache explicitly: a self-calling closure would form a
# reference cycle that keeps the model and its joints alive until the
# cyclic garbage collector runs.

def _value(x: Expr, model: DiscreteModel, env: dict, joints: dict):
    if isinstance(x, ProbTerm):
        return _term_value(x, model, env, joints)
    if isinstance(x, Sum):
        doms = [model.domains[base_name(b)] for b in x.bound]
        total = Fraction(0)
        for combo in iproduct(*doms):
            env2 = dict(env)
            env2.update(zip(x.bound, combo))
            total = total + _value(x.body, model, env2, joints)
        return total
    if isinstance(x, Product):
        val = 1
        for f in x.factors:
            val = val * _value(f, model, env, joints)
        return val
    num = _value(x.num, model, env, joints)
    den = _value(x.den, model, env, joints)
    if den == 0:
        raise PositivityError(
            f"denominator {render(x.den)} evaluates to zero")
    return num / den


def _term_value(t: ProbTerm, model: DiscreteModel, env: Mapping[str, object],
                joints: dict):
    t_assign, o_assign, do_assign = [{base_name(n): env[n] for n in names}
                                     for names in (t.targets, t.given, t.do)]
    key = frozenset(do_assign.items())
    jd = joints.get(key)
    if jd is None:
        jd = joints[key] = model.intervene(do_assign).joint()
    if o_assign:
        den = jd.p(o_assign)
        if den == 0:
            culprit = ProbTerm(t.given, (), t.do)
            raise PositivityError(
                f"{render(culprit)} = 0 while evaluating {render(t)}")
        return jd.p({**t_assign, **o_assign}) / den
    return jd.p(t_assign)


# -- derivations -------------------------------------------------------

RULE_TAGS = ("rule1", "rule2", "rule3", "chain", "marginalize", "definition")


class GuardFact(_Record):
    """A d-separation statement on a surgically modified graph: with the
    stated edges cut, ``left`` and ``right`` are separated given
    ``given``."""

    __slots__ = ("left", "right", "given", "cut_incoming", "cut_outgoing")

    def verify(self, g: CausalGraph) -> bool:
        h = g.mutilate(self.cut_incoming, self.cut_outgoing)
        return d_separated(h, self.left, self.right, self.given)

    def render(self) -> str:
        marks = []
        if self.cut_incoming:
            marks.append("in-cut:" + ",".join(self.cut_incoming))
        if self.cut_outgoing:
            marks.append("out-cut:" + ",".join(self.cut_outgoing))
        where = f"G[{'; '.join(marks)}]" if marks else "G"
        return (f"({','.join(self.left)} _||_ {','.join(self.right)}"
                f" | {','.join(self.given)}) in {where}")


class DerivationStep(_Record):
    __slots__ = ("rule", "guard", "before", "after")

    def __init__(self, rule: str, guard: GuardFact | None, before: Expr,
                 after: Expr):
        if rule not in RULE_TAGS:
            raise ExprError(f"unknown rule tag {rule!r}")
        super().__init__(rule, guard, before, after)

    def to_json(self, step: int) -> dict:
        return {
            "step": step,
            "rule": self.rule,
            "guard": None if self.guard is None else {
                "left": list(self.guard.left),
                "right": list(self.guard.right),
                "given": list(self.guard.given),
                "cut_incoming": list(self.guard.cut_incoming),
                "cut_outgoing": list(self.guard.cut_outgoing),
            },
            "before": render(self.before),
            "after": render(self.after),
        }
