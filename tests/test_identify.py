import gc
import importlib
import random
import re
import sys
import weakref
from fractions import Fraction as F
from functools import partial
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalid import (IDENTIFIED, KNOWN_NON_IDENTIFIABLE,
                      NOT_WITHIN_BUDGET, CausalGraph, GraphError, P, Query,
                      backdoor_admissible, backdoor_formula, catalog,
                      d_separated_exhaustive, evaluate, find_backdoor_sets,
                      frontdoor_admissible, frontdoor_formula, get_entry,
                      identify, parse, random_model, render,
                      rule1_applicable, rule2_applicable, rule3_applicable,
                      run_entry, unavailable)
from causalid.dsl import parse_graph
from causalid.expr import GuardFact, ProbTerm, alpha_equal
from causalid.identify import (EngineInvariantError, _Chain, _Marg,
                               _plan_cost, _Replayer, _role_isomorphic,
                               _Rule, _Searcher, _subsets, _verify,
                               find_frontdoor_sets, oracle_disagreement)

from conftest import random_dag

DEMO = Path(__file__).resolve().parent.parent / "demo"


# -- back-door criterion ------------------------------------------------------

def test_backdoor_adjustment_example():
    g = get_entry("adjustment-example").graph
    assert backdoor_admissible(g, {"X"}, {"Y"}, {"Z3", "Z4"})
    assert not backdoor_admissible(g, {"X"}, {"Y"}, {"Z4"})


def test_backdoor_loyalty(loyalty_graph):
    assert backdoor_admissible(loyalty_graph, {"X"}, {"Y"}, {"Z"})
    assert find_backdoor_sets(loyalty_graph, {"X"}, {"Y"}) == \
        [frozenset({"Z"})]


def test_backdoor_two_node_empty_set():
    g = CausalGraph(["X", "Y"], [("X", "Y")])
    assert backdoor_admissible(g, {"X"}, {"Y"}, set())
    assert find_backdoor_sets(g, {"X"}, {"Y"}) == [frozenset()]


def test_backdoor_rejects_latent_member(frontdoor_graph):
    with pytest.raises(GraphError, match="latent"):
        backdoor_admissible(frontdoor_graph, {"X"}, {"Y"}, {"U"})


def test_backdoor_descendant_fails(chain):
    # Z descends from X in the chain, so it is inadmissible
    assert not backdoor_admissible(chain, {"X"}, {"Y"}, {"Z"})


def test_no_backdoor_set_for_frontdoor_graph(frontdoor_graph):
    assert find_backdoor_sets(frontdoor_graph, {"X"}, {"Y"}) == []


def _brute_minimal_sets(g, xs, ys, admissible, sizes):
    # the definition: every admissible subset, keep the inclusion-minimal
    # ones, sort by size then declaration order
    pool = [n for n in g.observed_names if n not in xs | ys]
    found = [frozenset(c) for r in sizes(len(pool))
             for c in combinations(pool, r) if admissible(g, xs, ys, c)]
    minimal = [z for z in found if not any(o < z for o in found)]
    return sorted(minimal, key=lambda z: (len(z), [g.index(n) for n in
                                                   g.ordered(z)]))


def _random_effect(rng, g):
    # an observed treatment (sometimes two nodes) with an observed
    # outcome below it, or None when no observed node has one
    obs = list(g.observed_names)
    rng.shuffle(obs)
    for x in obs:
        below = [y for y in g.ordered(g.descendants({x}))
                 if y in g.observed_names]
        if below:
            y = rng.choice(below)
            rest = [n for n in obs if n not in (x, y)]
            extra = rest[:1] if rng.random() < 0.3 else []
            return frozenset([x, *extra]), frozenset([y])
    return None


@given(st.integers(0, 3000))
def test_minimal_sets_match_definition(seed):
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(3, 7), p=rng.uniform(0.2, 0.6),
                   latent=0.3)
    effect = _random_effect(rng, g)
    if effect is None:
        return
    xs, ys = effect
    assert find_backdoor_sets(g, xs, ys) == _brute_minimal_sets(
        g, xs, ys, backdoor_admissible, lambda n: range(n + 1))
    assert find_frontdoor_sets(g, xs, ys) == _brute_minimal_sets(
        g, xs, ys, frontdoor_admissible, lambda n: range(1, n + 1))


def test_backdoor_formula_evaluates(confounder_model):
    e = backdoor_formula(("X",), ("Y",), ("Z",))
    assert evaluate(e, confounder_model, {"X": 1, "Y": 1}) == F(7, 10)


# -- front-door criterion ------------------------------------------------------

def test_frontdoor_cases(frontdoor_graph, chain, pricing_graph):
    assert frontdoor_admissible(frontdoor_graph, {"X"}, {"Y"}, {"Z"})
    assert frontdoor_admissible(chain, {"X"}, {"Y"}, {"Z"})
    assert not frontdoor_admissible(pricing_graph, {"X"}, {"Y"}, {"Z"})
    sales = get_entry("sales-training").graph
    assert frontdoor_admissible(sales, {"X"}, {"Y"}, {"Z"})
    with pytest.raises(GraphError, match="latent"):
        frontdoor_admissible(frontdoor_graph, {"X"}, {"Y"}, {"U"})
    assert find_frontdoor_sets(frontdoor_graph, {"X"}, {"Y"}) == \
        [frozenset({"Z"})]


def test_frontdoor_formula_oracle(frontdoor_graph):
    e = frontdoor_formula(("X",), ("Y",), ("Z",))
    m = random_model(frontdoor_graph, random.Random(3), cards=(2, 3))
    for xv in m.domains["X"]:
        oracle = m.do_marginal({"X": xv}, ("Y",))
        for yv in m.domains["Y"]:
            assert evaluate(e, m, {"X": xv, "Y": yv}) == \
                oracle.p({"Y": yv})


# -- rewrite-rule guards ----------------------------------------------------------

def test_rule2_two_node_exchange():
    g = CausalGraph(["Z", "Y"], [("Z", "Y")])
    # with nothing else in play, do(z) and z are exchangeable
    assert rule2_applicable(g, set(), {"Y"}, {"Z"}, set())
    m = random_model(g, random.Random(1))
    for zv in m.domains["Z"]:
        want = m.joint().conditional(("Y",), {"Z": zv})
        got = m.do_marginal({"Z": zv}, ("Y",))
        for yv in m.domains["Y"]:
            assert got.p({"Y": yv}) == want.p({"Y": yv})


def test_rule2_frontdoor_mediator_step(frontdoor_graph):
    # do(x) becomes a plain observation of x in p(z|do(x))
    assert rule2_applicable(frontdoor_graph, set(), {"Z"}, {"X"}, set())


def test_rule1_connected_is_false(chain):
    assert not rule1_applicable(chain, set(), {"Y"}, {"X"}, set())
    assert rule1_applicable(chain, set(), {"Y"}, {"X"}, {"Z"})


def test_rule3_removal(frontdoor_graph):
    # p(x|do(z)) = p(x): interventions on a non-ancestor drop out
    assert rule3_applicable(frontdoor_graph, set(), {"X"}, {"Z"}, set())
    assert not rule3_applicable(frontdoor_graph, set(), {"Y"}, {"X"}, set())


def test_rule_guard_validation(chain):
    with pytest.raises(GraphError, match="disjoint"):
        rule1_applicable(chain, {"X"}, {"X"}, {"Z"}, set())
    with pytest.raises(GraphError, match="nonempty"):
        rule2_applicable(chain, {"X"}, {"Y"}, set(), set())


def test_rule_guard_monotone_under_edge_addition(loyalty_graph):
    g = loyalty_graph
    names = list(g.names)
    instances = []
    for x in names:
        for y in names:
            for z in names:
                if len({x, y, z}) < 3:
                    continue
                rest = [n for n in names if n not in (x, y, z)]
                for w in [()] + [(r,) for r in rest]:
                    instances.append(({x}, {y}, {z}, set(w)))
    for tail in names:
        for head in names:
            if tail == head or g.adjacent(tail, head):
                continue
            try:
                bigger = g.with_edge(tail, head)
            except GraphError:
                continue
            for X, Y, Z, W in instances:
                for rule in (rule1_applicable, rule2_applicable,
                             rule3_applicable):
                    if rule(bigger, X, Y, Z, W):
                        assert rule(g, X, Y, Z, W)


def _textbook_cut(g, into, out_of):
    # the surgically cut graph, rebuilt from the kept edges
    return CausalGraph(g.variables, [(t, h) for t, h in g.edges
                                     if h not in into and t not in out_of])


def _textbook_ancestors(g, seeds):
    # the seeds and every node with a directed path into them
    out = set(seeds)
    grew = True
    while grew:
        grew = False
        for t, h in g.edges:
            if h in out and t not in out:
                out.add(t)
                grew = True
    return out


def _textbook_rule(rule, g, xs, ys, zs, ws):
    # Pearl's guards: (Y _||_ Z | X, W) in G[bar X] for rule 1, in
    # G[bar X, underline Z] for rule 2, and in G[bar X, bar Z(W)] for
    # rule 3, where Z(W) is Z minus the ancestors of W in G[bar X]
    if rule == 1:
        cut = _textbook_cut(g, xs, ())
    elif rule == 2:
        cut = _textbook_cut(g, xs, zs)
    else:
        anc_w = _textbook_ancestors(_textbook_cut(g, xs, ()), ws)
        cut = _textbook_cut(g, xs | (zs - anc_w), ())
    return d_separated_exhaustive(cut, ys, zs, xs | ws)


def _random_parts(rng, names, count, nonempty):
    # ``count`` pairwise disjoint sets of names, the first ``nonempty``
    # of them seeded with one name each
    pool = list(names)
    rng.shuffle(pool)
    parts = [{pool.pop()} for _ in range(nonempty)]
    parts += [set() for _ in range(count - nonempty)]
    for n in pool:
        k = rng.randrange(count + 1)
        if k < count:
            parts[k].add(n)
    return [frozenset(p) for p in parts]


@given(st.integers(0, 3000))
def test_rule_guards_match_textbook_definition(seed):
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(2, 8), p=rng.uniform(0.2, 0.6),
                   latent=0.3)
    for _ in range(25):
        ys, zs, xs, ws = _random_parts(rng, g.names, 4, 2)
        for rule, applicable in ((1, rule1_applicable),
                                 (2, rule2_applicable),
                                 (3, rule3_applicable)):
            assert applicable(g, xs, ys, zs, ws) == \
                _textbook_rule(rule, g, xs, ys, zs, ws)


def _textbook_frontdoor(g, xs, ys, zs):
    # (1) every directed path from X to Y meets Z; (2) X and Z separated
    # once X's outgoing edges are cut; (3) Z and Y separated given X once
    # Z's outgoing edges are cut
    for x in xs:
        for y in ys:
            for path in g.paths_between(x, y):
                if all(path.forward) and not set(path.nodes[1:-1]) & zs:
                    return False
    return (d_separated_exhaustive(_textbook_cut(g, (), xs), xs, zs)
            and d_separated_exhaustive(_textbook_cut(g, (), zs), zs, ys, xs))


@given(st.integers(0, 3000))
def test_frontdoor_admissible_matches_textbook_definition(seed):
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(3, 8), p=rng.uniform(0.2, 0.6),
                   latent=0.3)
    for _ in range(25):
        xs, ys, zs = _random_parts(rng, g.names, 3, 3)
        zs &= frozenset(g.observed_names)
        if zs:
            assert frontdoor_admissible(g, xs, ys, zs) == \
                _textbook_frontdoor(g, xs, ys, zs)


_WELL_FORMED = {"X": {"A"}, "Y": {"B"}, "Z": {"C"}, "W": {"D"}}
_MALFORMED = {
    **{f"unknown-{k}": {k: _WELL_FORMED[k] | {"Q"}} for k in "XYZW"},
    "empty-Y": {"Y": set()},
    "empty-Z": {"Z": set()},
    **{f"overlap-{a}{b}": {a: _WELL_FORMED[a] | _WELL_FORMED[b]}
       for a, b in combinations("XYZW", 2)},
}


@pytest.mark.parametrize("change", _MALFORMED.values(), ids=_MALFORMED)
@pytest.mark.parametrize("rule", [rule1_applicable, rule2_applicable,
                                  rule3_applicable],
                         ids=["rule1", "rule2", "rule3"])
def test_rule_guards_reject_malformed_sets(rule, change):
    # the guards check only X against W themselves; the surgery and the
    # separation query reject every other malformed shape
    g = CausalGraph(["A", "B", "C", "D"],
                    [("A", "B"), ("C", "B"), ("D", "C")])
    sets = {**_WELL_FORMED, **change}
    rule(g, *(_WELL_FORMED[k] for k in "XYZW"))
    with pytest.raises(GraphError):
        rule(g, *(sets[k] for k in "XYZW"))


def _plan_rules(plan):
    # every rule step of a plan
    if isinstance(plan, _Rule):
        yield plan
    for part in ("rest", "first", "second"):
        if hasattr(plan, part):
            yield from _plan_rules(getattr(plan, part))


@given(st.integers(0, 3000))
def test_closure_plans_satisfy_every_guard(seed):
    # a closure offers its plan whenever its set finder returns a set,
    # checking no guard: every rule step of the plan holds by Pearl's
    # definition, and so does every guard its replay records
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(3, 8), p=rng.uniform(0.2, 0.6),
                   latent=0.3)
    if len(g.observed_names) < 2:
        return
    searcher = _Searcher(g)
    for _ in range(6):
        ts, ds = _random_parts(rng, g.observed_names, 2, 2)
        for plan in (searcher._backdoor_closure(ts, ds),
                     searcher._frontdoor_closure(ts, ds)):
            if plan is None:
                continue
            for step in _plan_rules(plan):
                assert _textbook_rule(int(step.tag[-1]), g, step.xs,
                                      step.after[0], step.zs, step.ws)
            replay = _Replayer(g, ProbTerm(g.ordered(ts), (),
                                           g.ordered(ds)))
            replay.run(plan, ())
            for fact in (s.guard for s in replay.steps if s.guard):
                cut = _textbook_cut(g, fact.cut_incoming, fact.cut_outgoing)
                assert d_separated_exhaustive(cut, fact.left, fact.right,
                                              fact.given)


# -- the search ---------------------------------------------------------------

def test_identify_frontdoor_full_derivation(frontdoor_graph):
    res = identify(Query(frontdoor_graph, ("X",), ("Y",)))
    assert res.status == IDENTIFIED
    assert res.budget_spent == 9
    assert alpha_equal(res.formula,
                       frontdoor_formula(("X",), ("Y",), ("Z",)))
    # every licensing fact replays true on its stated mutilated graph
    for step in res.derivation:
        if step.guard is not None:
            assert step.guard.verify(frontdoor_graph)
    guards = [s.guard for s in res.derivation if s.guard is not None]
    assert [(g_.left, g_.right, g_.given, g_.cut_incoming, g_.cut_outgoing)
            for g_ in guards] == [
        (("Z",), ("X",), (), (), ("X",)),
        (("Y",), ("Z",), ("X",), ("X",), ("Z",)),
        (("Y",), ("X",), ("Z",), ("X", "Z"), ()),
        (("X",), ("Z",), (), ("Z",), ()),
        (("Y",), ("Z",), ("X",), (), ("Z",)),
    ]


def test_variable_named_do_round_trips():
    # "do" is the intervention keyword only where "(" follows it
    g = parse_graph("var do\nvar X\nvar Y\nedge do -> X\nedge do -> Y\n"
                    "edge X -> Y\n")
    res = identify(Query(g, ("X",), ("Y",)))
    assert render(res.formula) == "sum_do p(Y|X,do) p(do)"
    back = parse(render(res.formula))
    assert back == res.formula
    m = random_model(g, random.Random(5), cards=(2, 3))
    for xv in m.domains["X"]:
        oracle = m.do_marginal({"X": xv}, ("Y",))
        for yv in m.domains["Y"]:
            assert evaluate(back, m, {"X": xv, "Y": yv}) == \
                oracle.p({"Y": yv})


def test_identify_builds_each_cut_graph_once(monkeypatch):
    # graph surgery is memoized and trusted: after parsing, the search,
    # replay and verification build no graph through the validating
    # constructor, and only 10 distinct cut graphs exist
    g = parse_graph((DEMO / "frontdoor.graph").read_text())
    built, cuts = [], []
    init, mutilate = CausalGraph.__init__, CausalGraph.mutilate

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def recording_mutilate(self, *args, **kwargs):
        cut = mutilate(self, *args, **kwargs)
        cuts.append(cut)
        return cut

    monkeypatch.setattr(CausalGraph, "__init__", counting_init)
    monkeypatch.setattr(CausalGraph, "mutilate", recording_mutilate)
    res = identify(Query(g, ("X",), ("Y",)))
    assert res.status == IDENTIFIED
    assert built == []
    assert len({id(c) for c in cuts}) == 10
    assert len(cuts) > 10


def _count_move_generations(monkeypatch):
    states = []
    moves = _Searcher._moves

    def counting_moves(self, state, limit):
        states.append(state)
        return moves(self, state, limit)

    monkeypatch.setattr(_Searcher, "_moves", counting_moves)
    return states


def test_identify_generates_moves_in_one_pass(monkeypatch):
    # one branch-and-bound pass: the bow has a single state and no plan,
    # so its moves are generated once, not once per budget level
    states = _count_move_generations(monkeypatch)
    bow = CausalGraph(["X", "Y"], [("X", "Y")], bidirected=[("X", "Y")])
    res = identify(Query(bow, ("X",), ("Y",)))
    assert res.status == NOT_WITHIN_BUDGET
    assert len(states) == 1
    states.clear()
    g = parse_graph((DEMO / "frontdoor.graph").read_text())
    res = identify(Query(g, ("X",), ("Y",)))
    assert res.status == IDENTIFIED
    assert (len(states), len(set(states))) == (13, 7)


def test_stored_plan_refuses_a_smaller_cap_without_moves(monkeypatch):
    # a stored plan is a global minimum: a cap below its cost is refused
    # from the memo, without generating the state's moves again
    g = parse_graph((DEMO / "frontdoor.graph").read_text())
    searcher = _Searcher(g)
    state = (frozenset({"Y"}), frozenset(), frozenset({"X"}))
    cost, _ = searcher.solve(state, 16)
    states = _count_move_generations(monkeypatch)
    assert searcher.solve(state, cost - 1) is None
    assert searcher.solve(state, cost)[0] == cost
    assert states == []


def test_rule_moves_build_guards_only_for_built_plans(monkeypatch):
    # the search decides on plain sets and builds no GuardFact; the
    # replay builds exactly one per guarded step of the derivation
    module = importlib.import_module("causalid.identify")
    built = []

    def counting_guard_fact(*args):
        built.append(args)
        return GuardFact(*args)

    monkeypatch.setattr(module, "GuardFact", counting_guard_fact)
    g = parse_graph((DEMO / "frontdoor.graph").read_text())
    searcher = _Searcher(g)
    state = (frozenset({"Y"}), frozenset({"Z"}), frozenset({"X"}))
    assert len(list(searcher._moves(state, [16]))) > 0
    root = (frozenset({"Y"}), frozenset(), frozenset({"X"}))
    assert searcher.solve(root, 16)[0] == 9
    assert built == []
    res = identify(Query(g, ("X",), ("Y",)))
    guards = [s.guard for s in res.derivation if s.guard is not None]
    assert len(guards) == len(built) == 5
    assert [GuardFact(*args) for args in built] == guards


@given(st.integers(0, 400))
def test_single_pass_equals_iterative_deepening(seed):
    # solve(s, b) returns a minimum-cost plan whenever one of cost <= b
    # exists, with ties to the first move generated, so it matches the
    # deepening loop that raises the cap from 1 until a plan appears
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(3, 6), p=rng.uniform(0.3, 0.7),
                   latent=0.3)
    effect = _random_effect(rng, g)
    if effect is None:
        return
    xs, ys = effect
    state = (ys, frozenset(), xs)
    deepening = _Searcher(g)
    first = None
    for limit in range(1, 9):
        first = deepening.solve(state, limit)
        if first is not None:
            break
    for budget in range(1, 9):
        want = first if first is not None and first[0] <= budget else None
        assert _Searcher(g).solve(state, budget) == want


def _count_guard_questions(monkeypatch):
    # (state, (rule, X, Y, Z, W)) of every rule guard the search runs,
    # through the module-global names that a tracer rebinds; the state
    # is read off the move generator that asks
    module = importlib.import_module("causalid.identify")
    asked = []
    for tag in ("rule1", "rule2", "rule3"):
        guard = getattr(module, f"{tag}_applicable")

        def counting(g, X, Y, Z, W, guard=guard, tag=tag):
            frame = sys._getframe(1)
            while frame.f_code.co_name != "_moves":
                frame = frame.f_back
            question = (tag, *map(frozenset, (X, Y, Z, W)))
            asked.append((frame.f_locals["state"], question))
            return guard(g, X, Y, Z, W)

        monkeypatch.setattr(module, f"{tag}_applicable", counting)
    return asked


BOW_WITH_INSTRUMENT_AND_LEAF = CausalGraph(
    ["I", "X", "Y", "L"], [("I", "X"), ("X", "Y"), ("Y", "L")],
    bidirected=[("X", "Y")])


@pytest.mark.parametrize("g, status, calls", [
    (parse_graph((DEMO / "frontdoor.graph").read_text()), IDENTIFIED, 21),
    (BOW_WITH_INSTRUMENT_AND_LEAF, NOT_WITHIN_BUDGET, None),
], ids=["frontdoor", "bow-instrument-leaf"])
def test_identify_runs_each_guard_once_per_state(monkeypatch, g, status,
                                                 calls):
    # states are expanded again (after a failure at a smaller cap, or
    # while their own expansion is on the stack), and two states may ask
    # one question, but every guard question (rule, X, Y, Z, W) is asked
    # once per identify
    asked = _count_guard_questions(monkeypatch)
    states = _count_move_generations(monkeypatch)
    assert identify(Query(g, ("X",), ("Y",))).status == status
    assert len(states) > len(set(states))
    questions = [q for _, q in asked]
    assert {q[0] for q in questions} == {"rule1", "rule2", "rule3"}
    assert len(questions) == len(set(questions))
    assert calls is None or len(questions) == calls


def _rule_move(tag, xs, zs, ws, after):
    return 1, partial(_Rule, tag, xs, zs, ws, after), (after,)


class _RecheckingSearcher(_Searcher):
    """The unpruned reference search: no cost floors, so every move is
    generated whatever the limit, and every guard is run again on every
    expansion, as the move generator reads without a verdict memo."""

    def _moves(self, state, limit):
        g = self.g
        T, O, D = state
        if not O:
            for closure in (self._backdoor_closure, self._frontdoor_closure):
                plan = closure(T, D)
                if plan is not None:
                    yield _plan_cost(plan), (lambda p=plan: p), ()
        for zs in _subsets(g, D):
            xs = D - zs
            if rule2_applicable(g, xs, T, zs, O):
                yield _rule_move("rule2", xs, zs, O, (T, O | zs, xs))
        for zs in _subsets(g, D):
            xs = D - zs
            if rule3_applicable(g, xs, T, zs, O):
                yield _rule_move("rule3", xs, zs, O, (T, O, xs))
        for zs in _subsets(g, O):
            ws = O - zs
            if rule2_applicable(g, D, T, zs, ws):
                yield _rule_move("rule2", D, zs, ws, (T, ws, D | zs))
        for zs in _subsets(g, O):
            ws = O - zs
            if rule1_applicable(g, D, T, zs, ws):
                yield _rule_move("rule1", D, zs, ws, (T, ws, D))
        candidates = [n for n in g.observed_names if n not in T | O | D]
        for vs in _subsets(g, candidates):
            yield 1, partial(_Marg, g.ordered(vs)), ((T | vs, O, D),)
        for ss in _subsets(g, T, proper=True):
            yield (1, partial(_Chain, g.ordered(ss)),
                   ((T - ss, O | ss, D), (ss, O, D)))


@given(st.integers(0, 400))
def test_verdict_memo_equals_rechecking_every_guard(seed):
    # the memo only replays verdicts and the floors only leave out moves
    # that cannot fit the limit, so the search finds the same cost and
    # plan at every budget as one that generates every move and asks
    # every guard again
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(3, 6), p=rng.uniform(0.3, 0.7),
                   latent=0.3)
    effect = _random_effect(rng, g)
    if effect is None:
        return
    xs, ys = effect
    state = (ys, frozenset(), xs)
    for budget in range(1, 9):
        assert (_Searcher(g).solve(state, budget)
                == _RecheckingSearcher(g).solve(state, budget))


def test_cap_one_runs_only_the_guards_that_empty_d(monkeypatch):
    # at cap 1 only a rule step that empties D can fit: the search asks
    # rule 2 and rule 3 on all of D, calls neither set finder and
    # generates no marg or chain move
    module = importlib.import_module("causalid.identify")
    asked = _count_guard_questions(monkeypatch)
    finders = []
    for name in ("find_backdoor_sets", "find_frontdoor_sets"):
        def counting(g, X, Y, finder=getattr(module, name), name=name):
            finders.append(name)
            return finder(g, X, Y)

        monkeypatch.setattr(module, name, counting)
    yielded = []
    moves = _Searcher._moves

    def recording_moves(self, state, limit):
        for move in moves(self, state, limit):
            yielded.append(move)
            yield move

    monkeypatch.setattr(_Searcher, "_moves", recording_moves)
    g = parse_graph((DEMO / "frontdoor.graph").read_text())
    root = (frozenset({"Y"}), frozenset(), frozenset({"X"}))
    assert _Searcher(g).solve(root, 1) is None
    none, x, y = frozenset(), frozenset({"X"}), frozenset({"Y"})
    assert asked == [(root, ("rule2", none, y, x, none)),
                     (root, ("rule3", none, y, x, none))]
    assert finders == []
    assert yielded == []


def _frontdoor_chain(k):
    # U -> X, U -> Y, X -> M0 -> ... -> Mk-1 -> Y
    chain = ["X", *(f"M{i}" for i in range(k)), "Y"]
    return CausalGraph([("U", True), *chain],
                       [("U", "X"), ("U", "Y"), *zip(chain, chain[1:])])


def _backdoor_core(leaves):
    # two observed confounders of X -> Y; leaves hang alternately off X
    # and Y, so they are never ancestors of Y
    es = [f"E{i}" for i in range(leaves)]
    edges = [("C0", "X"), ("C0", "Y"), ("C1", "X"), ("C1", "Y"), ("X", "Y")]
    edges += [("X" if i % 2 == 0 else "Y", e) for i, e in enumerate(es)]
    return CausalGraph(["C0", "C1", "X", "Y", *es], edges)


# p(Y, Z | do(X)) with Z confounding X and Y costs 3 only through a chain:
# p(Y|Z, do(X)) by rule 2 and p(Z|do(X)) by rule 3
CONFOUNDED_PAIR = CausalGraph(["Z", "X", "Y"],
                              [("Z", "X"), ("Z", "Y"), ("X", "Y")])


@pytest.mark.parametrize("offered, failing", [
    (frozenset(), "step 1 (rule2)"),
    (frozenset({"M"}), "step 3 (rule3)"),
], ids=["empty-set", "mediator"])
def test_identify_rejects_a_plan_whose_guard_fails(monkeypatch, offered,
                                                   failing):
    # the back-door closure trusts its set finder; a finder that offers
    # an inadmissible set is caught by identify, which re-verifies every
    # recorded guard and names the first step whose guard fails
    module = importlib.import_module("causalid.identify")
    monkeypatch.setattr(module, "find_backdoor_sets",
                        lambda g, X, Y: [offered])
    g = CausalGraph(["Z", "X", "M", "Y"],
                    [("Z", "X"), ("Z", "Y"), ("X", "M"), ("M", "Y")])
    with pytest.raises(EngineInvariantError, match=re.escape(failing)):
        identify(Query(g, ("X",), ("Y",)))


def _with_leaves(g, rng, count):
    # ``count`` new nodes, some latent, each a child of one or two nodes
    # of ``g``: they are never ancestors of anything
    variables, edges = list(g.variables), list(g.edges)
    for i in range(count):
        leaf = f"L{i}"
        variables.append((leaf, rng.random() < 0.3))
        edges += [(p, leaf) for p in rng.sample(g.names, rng.randint(1, 2))]
    return CausalGraph(variables, edges)


def _outcome(res):
    return (res.status, res.budget_spent, repr(res.derivation),
            None if res.formula is None else render(res.formula))


@given(st.integers(0, 2000))
def test_non_ancestor_leaves_leave_identify_unchanged(seed):
    # no minimum plan needs a node that is not an ancestor of X or Y,
    # and the verifier's random models cover only the ancestral
    # submodel, so the result is the same with or without the leaves;
    # the catalog matches shapes node for node, so a catalog verdict may
    # turn into a budget verdict, never into success
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(3, 6), p=rng.uniform(0.3, 0.7),
                   latent=0.3)
    effect = _random_effect(rng, g)
    if effect is None:
        return
    xs, ys = effect
    leafy = _with_leaves(g, rng, rng.randint(1, 2))
    bare = identify(Query(g, tuple(xs), tuple(ys)), budget=9)
    got = identify(Query(leafy, tuple(xs), tuple(ys)), budget=9)
    if bare.status == KNOWN_NON_IDENTIFIABLE:
        assert got.status in (KNOWN_NON_IDENTIFIABLE, NOT_WITHIN_BUDGET)
        return
    assert _outcome(got) == _outcome(bare)


@given(st.integers(0, 3000))
def test_identify_agrees_on_the_latent_projection(seed):
    # the projection keeps every observed separation in every cut graph
    # the search asks about, so a plan found on one graph is found, at
    # the same cost, on the other; the catalog matches shapes node for
    # node, so only an IDENTIFIED verdict is compared
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(3, 8), p=rng.uniform(0.2, 0.6),
                   latent=rng.uniform(0.1, 0.5))
    effect = _random_effect(rng, g)
    if effect is None:
        return
    xs, ys = tuple(effect[0]), tuple(effect[1])
    on_g = identify(Query(g, xs, ys), budget=12)
    on_p = identify(Query(g.projection(), xs, ys), budget=12)
    if IDENTIFIED in (on_g.status, on_p.status):
        assert _outcome(on_p) == _outcome(on_g)


def _x_to_y_with_leaves(leaves):
    # X -> Y with leaves hung alternately off X and Y
    es = [f"E{i}" for i in range(leaves)]
    return CausalGraph(["X", "Y", *es], [("X", "Y"), *(
        ("X" if i % 2 == 0 else "Y", e) for i, e in enumerate(es))])


def test_verify_models_cover_only_the_ancestral_submodel(monkeypatch):
    # 22 binary nodes would need a 2^22-cell joint, over the cell budget;
    # the oracle check draws its models on G[An(X u Y)] = X -> Y
    module = importlib.import_module("causalid.identify")
    drawn = []
    draw = module.random_model

    def recording_random_model(g, rng):
        drawn.append(g.names)
        return draw(g, rng)

    monkeypatch.setattr(module, "random_model", recording_random_model)
    res = identify(Query(_x_to_y_with_leaves(20), ("X",), ("Y",)))
    assert (res.status, res.budget_spent) == (IDENTIFIED, 1)
    assert render(res.formula) == "p(Y|X)"
    assert drawn == [("X", "Y")] * module.VERIFY_MODELS


def test_verify_on_the_submodel_still_rejects_a_wrong_formula():
    # p(Y|X) is confounded by C0 and C1; the 20 leaves put the full
    # joint over the cell budget, so only a check on the ancestral
    # submodel can tell the formula is wrong
    g = _backdoor_core(20)
    with pytest.raises(EngineInvariantError,
                       match="disagrees with the surgery oracle"):
        _verify(Query(g, ("X",), ("Y",)), P("Y", given="X"), ())


@pytest.mark.parametrize("g, outcome, cost", [
    *((_backdoor_core(n), {"Y"}, 4) for n in range(4)),
    *((_frontdoor_chain(k), {"Y"}, 9) for k in (1, 2, 3)),
    (CONFOUNDED_PAIR, {"Y", "Z"}, 3),
], ids=[*(f"backdoor-l{n}" for n in range(4)),
        *(f"frontdoor-k{k}" for k in (1, 2, 3)), "confounded-pair"])
def test_floors_keep_the_unpruned_plan(g, outcome, cost):
    # pruned and unpruned searches find the same minimum plan, so the
    # same derivation, below, at and above the cap the plan needs
    root = (frozenset(outcome), frozenset(), frozenset({"X"}))
    for budget in (cost - 1, cost, 16):
        got = _Searcher(g).solve(root, budget)
        assert got == _RecheckingSearcher(g).solve(root, budget)
        assert (got is None) == (budget < cost)
        assert got is None or got[0] == cost


def test_searcher_and_memos_die_when_identify_returns(monkeypatch):
    # nothing the search keeps forms a reference cycle, so the searcher
    # and both memos are freed by reference counting alone
    class Memo(dict):
        pass

    refs = []
    init = _Searcher.__init__

    def tracking_init(self, g):
        init(self, g)
        self.memo, self.verdicts = Memo(), Memo()
        refs.extend(weakref.ref(o) for o in (self, self.memo,
                                             self.verdicts))

    monkeypatch.setattr(_Searcher, "__init__", tracking_init)
    frontdoor = parse_graph((DEMO / "frontdoor.graph").read_text())
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert identify(Query(frontdoor, ("X",), ("Y",))).status \
            == IDENTIFIED
        assert identify(Query(BOW_WITH_INSTRUMENT_AND_LEAF, ("X",),
                              ("Y",))).status == NOT_WITHIN_BUDGET
        assert len(refs) == 6
        assert [r() for r in refs] == [None] * 6
    finally:
        if enabled:
            gc.enable()


def test_identify_budget_one_fails_on_frontdoor(frontdoor_graph):
    res = identify(Query(frontdoor_graph, ("X",), ("Y",)), budget=1)
    assert res.status == NOT_WITHIN_BUDGET
    assert res.budget_spent == 1


def test_identify_loyalty_within_four(loyalty_graph):
    res = identify(Query(loyalty_graph, ("X",), ("Y",)), budget=4)
    assert res.status == IDENTIFIED
    assert res.budget_spent == 4
    assert alpha_equal(res.formula, backdoor_formula(("X",), ("Y",),
                                                     ("Z",)))


def test_backdoor_implies_search_success_within_four():
    rng = random.Random(23)
    found = 0
    for _ in range(40):
        g = random_dag(rng, n=5, p=0.45, latent=0.25)
        obs = list(g.observed_names)
        if len(obs) < 2:
            continue
        x, y = obs[0], obs[1]
        sets = find_backdoor_sets(g, {x}, {y})
        if not sets:
            continue
        found += 1
        res = identify(Query(g, (x,), (y,)), budget=4)
        assert res.status == IDENTIFIED
        m = random_model(g, random.Random(99))
        want = backdoor_formula((x,), (y,), g.ordered(sets[0]))
        for xv in m.domains[x]:
            for yv in m.domains[y]:
                b = {x: xv, y: yv}
                assert evaluate(res.formula, m, b) == evaluate(want, m, b)
    assert found >= 10


def test_identify_pricing_known_non_identifiable(pricing_graph):
    res = identify(Query(pricing_graph, ("X",), ("Y",)))
    assert res.status == KNOWN_NON_IDENTIFIABLE


def test_non_identifiable_match_is_name_independent():
    g = CausalGraph([("H", True), "price", "volume", "turnover"],
                    [("H", "price"), ("H", "volume"),
                     ("price", "volume"), ("price", "turnover"),
                     ("volume", "turnover")])
    res = identify(Query(g, ("price",), ("turnover",)))
    assert res.status == KNOWN_NON_IDENTIFIABLE


def test_non_identifiable_requires_role_match(pricing_graph):
    # same shape but asking about a different effect: not in the catalog
    res = identify(Query(pricing_graph, ("Z",), ("Y",)))
    assert res.status != KNOWN_NON_IDENTIFIABLE


def test_role_isomorphism():
    a = CausalGraph([("U", True), "X", "Y"],
                    [("U", "X"), ("U", "Y"), ("X", "Y")])
    b = CausalGraph(["T", "O", ("H", True)],
                    [("H", "T"), ("H", "O"), ("T", "O")])
    assert _role_isomorphic(a, ("X",), ("Y",), b, ("T",), ("O",))
    assert not _role_isomorphic(a, ("Y",), ("X",), b, ("T",), ("O",))


def test_identify_rejects_latent_roles(frontdoor_graph):
    with pytest.raises(GraphError, match="observed"):
        Query(frontdoor_graph, ("U",), ("Y",))
    with pytest.raises(ValueError):
        identify(Query(frontdoor_graph, ("X",), ("Y",)), budget=0)


def test_identified_formulas_sound_on_many_models():
    rng_seed = 1000
    for entry in catalog():
        if entry.expectation.kind not in ("backdoor", "frontdoor",
                                          "do-equals-see"):
            continue
        res = identify(Query(entry.graph, entry.treatment, entry.outcome))
        assert res.status == IDENTIFIED, entry.name
        for k in range(50):
            m = random_model(entry.graph, random.Random(rng_seed + k))
            for xv in product(*[m.domains[x] for x in entry.treatment]):
                do = dict(zip(entry.treatment, xv))
                oracle = m.do_marginal(do, entry.outcome)
                for yv in product(*[m.domains[y] for y in entry.outcome]):
                    b = {**do, **dict(zip(entry.outcome, yv))}
                    assert evaluate(res.formula, m, b) == \
                        oracle.p(dict(zip(entry.outcome, yv))), entry.name


def test_derivation_steps_replay(loyalty_graph):
    res = identify(Query(loyalty_graph, ("X",), ("Y",)))
    assert [s.rule for s in res.derivation] == \
        ["marginalize", "chain", "rule3", "rule2"]
    for s in res.derivation:
        if s.guard is not None:
            assert s.guard.verify(loyalty_graph)
    assert render(res.derivation[-1].after) == render(res.formula)


# -- corpus ---------------------------------------------------------------------

def test_corpus_membership():
    names = [e.name for e in catalog()]
    for required in ("loyalty", "insurance", "sales-training", "pricing",
                     "rct-coin", "front-door"):
        assert required in names
    assert len(names) == len(set(names))
    assert any(e.reconstructed for e in catalog())
    assert {n for n, _ in unavailable()} & {"identifiable-catalog-a"}


def test_corpus_entries_all_pass():
    for entry in catalog():
        ok, detail = run_entry(entry)
        assert ok, f"{entry.name}: {detail}"


def test_loyalty_and_insurance_share_shape():
    a, b = get_entry("loyalty"), get_entry("insurance")
    assert a.graph == b.graph


def test_rct_coin_expectation():
    e = get_entry("rct-coin")
    res = identify(Query(e.graph, e.treatment, e.outcome))
    assert res.status == IDENTIFIED
    assert render(res.formula) == "p(Y|X)"


def test_pricing_marked_non_identifiable():
    assert get_entry("pricing").expectation.kind == "non-identifiable"


def test_oracle_disagreement_finds_the_first_bad_binding(frontdoor_graph):
    m = random_model(frontdoor_graph, random.Random(1))
    X, Y = ("X",), ("Y",)
    assert oracle_disagreement(frontdoor_formula(X, Y, ("Z",)), m,
                               X, Y) is None
    # p(Y|X) is confounded by U: the first binding, in treatment-major
    # order, where it differs from the surgery oracle is reported
    see = P("Y", given="X")
    want = None
    for x, y in product(m.domains["X"], m.domains["Y"]):
        b = {"X": x, "Y": y}
        oracle = m.do_marginal({"X": x}, Y).p({"Y": y})
        if evaluate(see, m, b) != oracle:
            want = (b, evaluate(see, m, b), oracle)
            break
    assert want is not None
    assert oracle_disagreement(see, m, X, Y) == want
