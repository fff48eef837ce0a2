import gc
import random
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalid import (CausalGraph, DerivationStep, DiscreteModel, ExprError,
                      GraphError, GuardFact, P, PositivityError, ProbTerm,
                      Product, Query, Quotient, Sum, alpha_equal,
                      backdoor_formula, canonicalize, evaluate,
                      frontdoor_formula, identify, is_do_free, parse,
                      random_model, render)
from causalid.expr import (base_name, free_variables, fresh_name,
                           name_from_text, tidy, used_names, validate,
                           walk_terms)

from causalid.dsl import parse_graph, parse_model

from conftest import binary_confounder_model, random_dag

GOLD = Path(__file__).parent / "golden"
DEMO = Path(__file__).resolve().parent.parent / "demo"


def gold(name: str) -> str:
    return (GOLD / name).read_text().rstrip("\n")


# -- construction and names ---------------------------------------------------

def test_term_sets_disjoint():
    with pytest.raises(ExprError):
        ProbTerm(("y",), ("y",))
    with pytest.raises(ExprError, match="primes"):
        ProbTerm(("y",), ("x", "x'"))
    with pytest.raises(ExprError):
        ProbTerm(())


def test_prime_round_trip():
    assert name_from_text("x'") == "x'"
    assert name_from_text("x''") == "x''"
    assert base_name("x''") == "x"
    assert base_name("x__1") == "x__1"
    assert fresh_name("x", {"x", "x'"}) == "x''"
    assert fresh_name("w", {"x"}) == "w"


def test_sum_binder_hygiene():
    inner = Sum(("z",), P("y", given="z"))
    with pytest.raises(ExprError, match="rebinds"):
        validate(Sum(("z",), inner))


# -- rendering ------------------------------------------------------------------

def test_render_goldens():
    assert render(backdoor_formula(("x",), ("y",), ("z1", "z2"))) == \
        gold("eq9.txt")
    assert render(backdoor_formula(("x",), ("y",), ("z",))) == \
        gold("eq12.txt")
    assert render(frontdoor_formula(("x",), ("y",), ("z",))) == \
        gold("eq13.txt")
    assert render(backdoor_formula(("x",), ("y",), ("z",)), "latex") == \
        gold("eq12.tex")
    assert render(frontdoor_formula(("x",), ("y",), ("z",)), "latex") == \
        gold("eq13.tex")


def test_render_do_first_then_observations():
    assert render(P("y", given="w", do="x")) == "p(y|do(x),w)"
    assert render(P(("a", "b"), given=("c",), do=("d",))) == "p(a,b|do(d),c)"


def test_render_quotient_and_parens():
    q = Quotient(P(("y", "w"), do="x"), P("w", do="x"))
    assert render(q) == "p(w,y|do(x)) / p(w|do(x))"
    assert render(q, "latex") == \
        r"\frac{p(w,y|\mathrm{do}(x))}{p(w|\mathrm{do}(x))}"
    e = Product((Sum(("z",), P("z")), P("y")))
    assert render(e) == "(sum_z p(z)) p(y)"


def test_backdoor_formula_empty_set_is_plain_conditional():
    assert render(backdoor_formula(("x",), ("y",), ())) == "p(y|x)"


# -- parsing -----------------------------------------------------------------

def test_parse_examples():
    e = parse("sum_z p(y|x,z) p(z)")
    assert e == backdoor_formula(("x",), ("y",), ("z",))
    e13 = parse("sum_z p(z|x) sum_x' p(y|x',z) p(x')")
    assert alpha_equal(e13, frontdoor_formula(("x",), ("y",), ("z",)))
    assert parse("p(y|do(x),w)") == P("y", given="w", do="x")
    # observation-first ordering parses to the same term
    assert parse("p(y|w,do(x))") == P("y", given="w", do="x")
    assert parse("sum_{a,b} p(a,b)") == Sum(("a", "b"), P(("a", "b")))
    two = parse("p(y|do(a,b),w)")
    assert two == P("y", given="w", do=("a", "b"))
    assert render(two) == "p(y|do(a,b),w)"


def test_parse_quotient_precedence():
    e = parse("p(a) p(b) / p(c)")
    assert isinstance(e, Quotient)
    assert e.num == Product((P("a"), P("b")))
    e2 = parse("sum_z p(z) / p(c)")
    assert isinstance(e2, Quotient) and isinstance(e2.num, Sum)


def test_parse_errors():
    for bad in ("", "p(", "p(y|do(x)", "sum_ p(y)", "p(y) )", "q(y)",
                "p(y|x x)"):
        with pytest.raises(ExprError):
            parse(bad)
    with pytest.raises(ExprError, match=r"character '\+' at offset 4"):
        parse("p(y) + p(z)")
    for early in ("sum_z", "p(y) ("):
        with pytest.raises(ExprError, match="unexpected end of expression"):
            parse(early)


def _random_expr(rng: random.Random, names, depth=0):
    kind = rng.random()
    pool = [n for n in names]
    rng.shuffle(pool)
    k = rng.randint(1, min(3, len(pool)))
    targets = pool[:k]
    rest = pool[k:]
    giv = rest[:rng.randint(0, min(2, len(rest)))]
    rest = rest[len(giv):]
    do = rest[:rng.randint(0, min(2, len(rest)))]
    term = ProbTerm(tuple(targets), tuple(giv), tuple(do))
    if depth >= 3 or kind < 0.35:
        return term
    if kind < 0.55:
        body = _random_expr(rng, names, depth + 1)
        free = sorted(free_variables(body))
        if not free:
            return term
        base = rng.choice(free)
        nb = fresh_name(base, used_names(body))

        def sub(e):
            if isinstance(e, ProbTerm):
                def r(ns):
                    return tuple(nb if n == base else n for n in ns)
                return ProbTerm(r(e.targets), r(e.given), r(e.do))
            if isinstance(e, Sum):
                return Sum(e.bound, sub(e.body))
            if isinstance(e, Product):
                return Product(tuple(sub(f) for f in e.factors))
            return Quotient(sub(e.num), sub(e.den))
        return Sum((nb,), sub(body))
    if kind < 0.8:
        return Product(tuple(_random_expr(rng, names, depth + 1)
                             for _ in range(rng.randint(2, 3))))
    return Quotient(_random_expr(rng, names, depth + 1),
                    _random_expr(rng, names, depth + 1))


def _nodes(e, scope=frozenset()):
    """Every node of ``e`` with the names bound around it, parents
    first, spelled out per node kind as a reference for the walkers."""
    yield e, scope
    if isinstance(e, Sum):
        yield from _nodes(e.body, scope | frozenset(e.bound))
    elif isinstance(e, Product):
        for f in e.factors:
            yield from _nodes(f, scope)
    elif isinstance(e, Quotient):
        yield from _nodes(e.num, scope)
        yield from _nodes(e.den, scope)


_WALK_MODEL = random_model(random_dag(random.Random(1), 4, 0.5),
                           random.Random(2), cards=(2, 3))


@given(st.integers(0, 10**6))
def test_walkers_match_brute_force(seed):
    rng = random.Random(seed)
    names = list(_WALK_MODEL.graph.names)
    e = _random_expr(rng, names)
    if seed % 2:  # a binder that no term reads
        e = Sum((names[0] + "'" * 9,), e)
    nodes = list(_nodes(e))
    terms = [t for t, _ in nodes if isinstance(t, ProbTerm)]
    assert list(walk_terms(e)) == terms
    assert free_variables(e) == {
        n for t, scope in nodes if isinstance(t, ProbTerm)
        for n in t.targets + t.given + t.do if n not in scope}
    assert used_names(e) == (
        {n for t in terms for n in t.targets + t.given + t.do}
        | {b for s, _ in nodes if isinstance(s, Sum) for b in s.bound})
    assert is_do_free(e) == all(not t.do for t in terms)
    c = canonicalize(e)
    assert canonicalize(c) == c
    binding = {n: rng.choice(_WALK_MODEL.domains[base_name(n)])
               for n in free_variables(e)}
    assert evaluate(tidy(e), _WALK_MODEL, binding) == \
        evaluate(e, _WALK_MODEL, binding)


@given(st.integers(0, 500))
def test_parse_render_round_trip(seed):
    rng = random.Random(seed)
    e = _random_expr(rng, ["x", "y", "z", "w", "do", "p", "B__1"])
    assert canonicalize(parse(render(e))) == canonicalize(e)


def test_two_frontdoor_variants_canonicalize_identically():
    a = frontdoor_formula(("x",), ("y",), ("z",))
    # same formula with a differently primed inner variable
    b = parse("sum_z p(z|x) sum_x'' p(y|x'',z) p(x'')")
    assert canonicalize(a) == canonicalize(b)


def test_canonicalize_flattens_and_merges():
    e = Product((Product((P("a"), P("b"))), P("c")))
    assert canonicalize(e) == Product(
        tuple(sorted((P("a"), P("b"), P("c")),
                     key=lambda t: t.targets)))
    nested = Sum(("z",), Sum(("w",), P(("a",), given=("w", "z"))))
    c = canonicalize(nested)
    assert isinstance(c, Sum) and len(c.bound) == 2
    assert not isinstance(c.body, Sum)


# -- evaluation ----------------------------------------------------------------

def test_evaluate_fair_coin():
    g = CausalGraph(["y"])
    m = DiscreteModel.from_tables(g, {"y": (0, 1)},
                                  {"y": {(): (F(1, 2), F(1, 2))}})
    assert evaluate(P("y"), m, {"y": 1}) == F(1, 2)


def test_evaluate_backdoor_matches_oracle(confounder_model):
    m = binary_confounder_model()
    e = backdoor_formula(("X",), ("Y",), ("Z",))
    assert evaluate(e, m, {"X": 1, "Y": 1}) == F(7, 10)
    assert evaluate(e, m, {"X": 1, "Y": 1}) == \
        m.do_marginal({"X": 1}, ("Y",)).p({"Y": 1})


def test_quotient_is_conditional():
    m = binary_confounder_model()
    q = Quotient(P(("Y", "X")), P("X"))
    c = P("Y", given="X")
    for x in (0, 1):
        for y in (0, 1):
            b = {"X": x, "Y": y}
            assert evaluate(q, m, b) == evaluate(c, m, b)


def test_evaluate_invariant_under_canonicalize():
    rng = random.Random(0)
    g = random_dag(random.Random(1), 4, 0.5)
    m = random_model(g, random.Random(2))
    names = list(g.names)
    checked = 0
    for _ in range(500):
        e = _random_expr(rng, names)
        free = sorted(free_variables(e))
        binding = {n: rng.choice(m.domains[n]) for n in free}
        assert evaluate(e, m, binding) == \
            evaluate(canonicalize(e), m, binding)
        checked += 1
    assert checked == 500


def test_sum_over_targets_is_one():
    m = binary_confounder_model()
    e = Sum(("Y'",), P("Y'", given="X"))
    assert evaluate(e, m, {"X": 0}) == 1
    e2 = Sum(("Y'",), P("Y'", do="X"))
    assert evaluate(e2, m, {"X": 1}) == 1


def test_mixed_conditional_identity():
    # p(y|do(x),w) * p(w|do(x)) == p(y,w|do(x)), exactly
    g = CausalGraph(["X", "W", "Y"], [("X", "W"), ("W", "Y"), ("X", "Y")])
    m = random_model(g, random.Random(12), cards=(2, 3))
    lhs = Product((P("Y", given="W", do="X"), P("W", do="X")))
    rhs = P(("Y", "W"), do="X")
    for xv in m.domains["X"]:
        for wv in m.domains["W"]:
            for yv in m.domains["Y"]:
                b = {"X": xv, "W": wv, "Y": yv}
                assert evaluate(lhs, m, b) == evaluate(rhs, m, b)


def test_positivity_error_names_term():
    g = CausalGraph(["w", "y"], [("w", "y")])
    m = DiscreteModel.from_tables(
        g, {"w": (0, 1), "y": (0, 1)},
        {"w": {(): (F(1), F(0))},
         "y": {(0,): (F(1, 2), F(1, 2)), (1,): (F(1, 2), F(1, 2))}})
    with pytest.raises(PositivityError, match=r"p\(w\)"):
        evaluate(parse("p(y|w)"), m, {"w": 1, "y": 0})
    with pytest.raises(PositivityError) as info:
        evaluate(parse("p(y) / p(w)"), m, {"w": 1, "y": 0})
    assert str(info.value) == "denominator p(w) evaluates to zero"


def test_unbound_variable_rejected():
    m = binary_confounder_model()
    with pytest.raises(ExprError, match="unbound"):
        evaluate(P("Y", given="X"), m, {"Y": 1})
    # names as written, sorted, never a list repr
    with pytest.raises(ExprError) as info:
        evaluate(parse("p(Y|X',Z)"), m, {"Y": 1})
    assert str(info.value) == "unbound variables: X', Z"


@pytest.mark.parametrize("formula, binding", [
    ("sum_{Sc,Qa'} p(Y,Sc,Qa')", {"Y": 1}),
    ("p(Y|Sc) p(Y|Qa)", {"Y": 1, "Sc": 0, "Qa": 0}),
], ids=["binders", "terms"])
def test_unknown_variable_names_the_least(formula, binding):
    # the whole formula is checked before the walk, so the least unknown
    # base name is named, not the first one the walk reaches
    m = binary_confounder_model()
    with pytest.raises(GraphError) as info:
        evaluate(parse(formula), m, binding)
    assert str(info.value) == "unknown variable 'Qa'"


def test_is_do_free():
    assert is_do_free(backdoor_formula(("x",), ("y",), ("z",)))
    assert is_do_free(frontdoor_formula(("x",), ("y",), ("z",)))
    assert not is_do_free(P("y", do="x"))


def test_frontdoor_collapses_on_plain_chain(chain):
    # without the confounder the mediator formula reduces to p(y|x)
    m = random_model(chain, random.Random(6), cards=(2, 3))
    e = frontdoor_formula(("X",), ("Y",), ("Z",))
    c = P("Y", given="X")
    for xv in m.domains["X"]:
        for yv in m.domains["Y"]:
            b = {"X": xv, "Y": yv}
            assert evaluate(e, m, b) == evaluate(c, m, b)


def test_tidy_moves_sums_last():
    e = Product((Sum(("z",), P("z")), P("y")))
    t = tidy(e)
    assert isinstance(t.factors[0], ProbTerm)
    assert render(t) == "p(y) sum_z p(z)"
    q = tidy(Quotient(e, P("w")))
    assert q == Quotient(t, P("w"))
    assert render(q, "latex") == r"\frac{p(y) \: \sum_{z} p(z)}{p(w)}"


# -- derivation records -----------------------------------------------------

def test_derivation_step_tags_and_json(frontdoor_graph):
    guard = GuardFact(("Z",), ("X",), (), (), ("X",))
    assert guard.verify(frontdoor_graph)
    step = DerivationStep("rule2", guard, P("Z", do="X"),
                          P("Z", given="X"))
    doc = step.to_json(3)
    assert doc["step"] == 3 and doc["rule"] == "rule2"
    assert doc["guard"]["cut_outgoing"] == ["X"]
    assert doc["before"] == "p(Z|do(X))"
    with pytest.raises(ExprError, match="unknown rule tag"):
        DerivationStep("rule9", None, P("y"), P("y"))


def test_guard_render():
    g = GuardFact(("Y",), ("X",), ("Z",), ("X", "Z"), ())
    assert g.render() == "(Y _||_ X | Z) in G[in-cut:X,Z]"
    g2 = GuardFact(("Y",), ("Z",), (), (), ())
    assert g2.render() == "(Y _||_ Z | ) in G"


def test_evaluate_leaves_no_cycle_behind(monkeypatch):
    # with the cyclic collector off, dropping the model frees it and
    # every joint that evaluate built: nothing forms a reference cycle
    built = []
    joint = DiscreteModel.joint

    def recording_joint(self):
        jd = joint(self)
        built.append((weakref.ref(self), weakref.ref(jd)))
        return jd

    monkeypatch.setattr(DiscreteModel, "joint", recording_joint)
    gc.collect()
    gc.disable()
    try:
        m = parse_model((DEMO / "frontdoor.model").read_text())
        built.append((weakref.ref(m),))
        assert evaluate(parse("p(Y|do(X))"), m,
                        {"X": "1", "Y": "1"}) == F(173, 300)
        del m
        assert len(built) == 2
        assert all(r() is None for refs in built for r in refs)
    finally:
        gc.enable()


def _recursive_walks():
    e = frontdoor_formula(("X",), ("Y",), ("Z",))
    chain = CausalGraph(["X", "Z", "Y"], [("X", "Z"), ("Z", "Y")])
    frontdoor = parse_graph((DEMO / "frontdoor.graph").read_text())
    return {
        "render": lambda: render(e, "latex"),
        "used_names": lambda: used_names(e),
        "canonicalize": lambda: canonicalize(e),
        "paths_between": lambda: list(chain.paths_between("X", "Y")),
        "tidy": lambda: tidy(e),
        "free_variables": lambda: free_variables(e),
        "validate": lambda: validate(e),
        "walk_terms": lambda: list(walk_terms(e)),
        "identify": lambda: identify(Query(frontdoor, ("X",), ("Y",))),
    }


@pytest.mark.parametrize("name", ["render", "used_names", "canonicalize",
                                  "paths_between", "tidy", "free_variables",
                                  "validate", "walk_terms", "identify"])
def test_recursive_walks_leave_no_cycle_behind(name):
    # with the cyclic collector off, repeated walks leave nothing that
    # only a collection can free
    walk = _recursive_walks()[name]
    walk()
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            walk()
        assert gc.collect() == 0
    finally:
        gc.enable()
