"""Causal-effect identification.

Decides whether p(y|do(x)) can be rewritten without interventions using
the graph alone, and produces the do-free formula plus the licensed
rewrite derivation.  Three layers:

* admissibility tests and formula builders for the back-door and
  front-door criteria;
* the three guarded rewrite rules of the do-calculus: one table
  (``_cuts``) states the surgery each rule prescribes, and every rule
  asks the same d-separation question on its cut graph;
* a budget-bounded search over rewrites (rules, marginalization
  insertion, chain splits, plus back-door/front-door closures as canned
  step sequences) with one memo entry per canonical state.  It decides
  on plain sets: every move has one shape, ``(own cost, plan builder,
  sub-states)``, one table answers each guard question once per search,
  and a move whose cost floor exceeds the current limit is left out
  before its guard runs.  ``_Searcher`` proves that the floors never
  change the plan found and that each closure's criterion implies the
  guards of its plan.

The search runs its d-separation guards on the full graph including
latent nodes, but only observed variables ever enter a formula.  The
replay states each step's guard; before a formula is reported every
guard is verified again on the query graph G and the formula is
cross-checked against the graph-surgery oracle on random models.
``oracle_disagreement`` is that check, shared with the corpus, and
builds one oracle table per do-assignment.

The random models are models of the ancestral submodel G[A], where A is
X u Y and every base name the formula reads, closed under ancestors
(latents included), not of G.  The check is as strong: the nodes outside
A are never parents of nodes in A, so a model of G[A] extends to a model
of G whose extra factors sum out, with the same A-marginal and the same
p(y|do(x)); conversely the A-marginal of every model of G is a model of
G[A] (Lauritzen, Dawid, Larsen & Leimer, Networks 1990).  The formula
reads only names in A, so it agrees with the oracle on every model of G
exactly when it does on every model of G[A], and leaves and other
non-ancestors never enlarge the oracle tables.

Failure to identify within the budget is never reported as
non-identifiability; only isomorphism with a catalog entry known to be
non-identifiable yields that verdict.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import combinations, permutations, product

from .dsep import d_separated
from .expr import (DerivationStep, Expr, GuardFact, P, ProbTerm, Product,
                   Sum, _parts, _rebuilt, base_name, evaluate, fresh_name,
                   is_do_free, tidy, used_names)
from .graph import CausalGraph, GraphError, _Record
from .scm import random_model

DEFAULT_BUDGET = 16

# every identified formula must match the surgery oracle on the random
# models with seeds 1..VERIFY_MODELS
VERIFY_MODELS = 3

IDENTIFIED = "identified"
NOT_WITHIN_BUDGET = "not-identified-within-budget"
KNOWN_NON_IDENTIFIABLE = "known-non-identifiable"


class EngineInvariantError(Exception):
    """A derivation failed a guard or its oracle cross-check: engine
    defect."""


class Query(_Record):
    __slots__ = ("graph", "treatment", "outcome")

    def __init__(self, graph: CausalGraph, treatment: tuple[str, ...],
                 outcome: tuple[str, ...]):
        xs, ys = frozenset(treatment), frozenset(outcome)
        graph.check_known(xs | ys)
        if not xs or not ys:
            raise GraphError("treatment and outcome must be nonempty")
        if xs & ys:
            raise GraphError("treatment and outcome must be disjoint")
        latent = (xs | ys) & graph.latent_names
        if latent:
            raise GraphError(
                f"treatment/outcome must be observed: {sorted(latent)}")
        super().__init__(graph, graph.ordered(xs), graph.ordered(ys))


class IdentificationResult(_Record):
    __slots__ = ("status", "formula", "derivation", "budget_spent")

    def __init__(self, status: str, formula: Expr | None,
                 derivation: tuple[DerivationStep, ...], budget_spent: int):
        if status == IDENTIFIED:
            assert formula is not None and is_do_free(formula)
        super().__init__(status, formula, derivation, budget_spent)


# -- back-door ----------------------------------------------------------

def backdoor_admissible(g: CausalGraph, X, Y, Z) -> bool:
    """Is Z a valid adjustment set for the effect of X on Y?

    Requires (1) no member of Z descends from X and (2) Z blocks every
    path into X's back (checked by separation with X's outgoing edges
    cut).
    """
    xs, ys, zs = frozenset(X), frozenset(Y), frozenset(Z)
    latent = zs & g.latent_names
    if latent:
        raise GraphError(f"adjustment set must be observed, got latent "
                         f"{sorted(latent)}")
    if zs & (xs | ys):
        raise GraphError("adjustment set overlaps treatment or outcome")
    if zs & g.descendants(xs):
        return False
    return d_separated(g.mutilate(cut_outgoing=xs), xs, ys, zs)


def find_backdoor_sets(g: CausalGraph, X, Y) -> list[frozenset[str]]:
    """All inclusion-minimal admissible observed adjustment sets, sorted
    by cardinality then lexicographically (declaration order)."""
    xs, ys = frozenset(X), frozenset(Y)
    if backdoor_admissible(g, xs, ys, ()):
        return [frozenset()]
    return _minimal_sets(g, xs, ys, backdoor_admissible)


def backdoor_formula(X, Y, Z) -> Expr:
    """sum_z p(y|x,z) p(z); collapses to p(y|x) for an empty Z."""
    xs, ys, zs = tuple(X), tuple(Y), tuple(Z)
    if not zs:
        return P(ys, given=xs)
    return Sum(tuple(sorted(zs)),
               Product((P(ys, given=xs + zs), P(zs))))


# -- front-door ---------------------------------------------------------

def frontdoor_admissible(g: CausalGraph, X, Y, Z) -> bool:
    """Mediator criterion: Z cuts every directed route from X to Y, X has
    no open back path to Z, and X blocks every back path from Z to Y."""
    xs, ys, zs = frozenset(X), frozenset(Y), frozenset(Z)
    latent = zs & g.latent_names
    if latent:
        raise GraphError(f"mediator set must be observed, got latent "
                         f"{sorted(latent)}")
    if zs & (xs | ys):
        raise GraphError("mediator set overlaps treatment or outcome")
    # 1. no directed path X -> ... -> Y avoiding Z (a node in both X and
    # Y is such a path of length zero)
    if (xs | g.mutilate(cut_outgoing=zs).descendants(xs)) & ys:
        return False
    # 2. every back path X..Z blocked by nothing at all
    if not d_separated(g.mutilate(cut_outgoing=xs), xs, zs, ()):
        return False
    # 3. every back path Z..Y blocked by X
    return d_separated(g.mutilate(cut_outgoing=zs), zs, ys, xs)


def find_frontdoor_sets(g: CausalGraph, X, Y) -> list[frozenset[str]]:
    """All inclusion-minimal nonempty observed mediator sets, sorted by
    cardinality then lexicographically (declaration order)."""
    return _minimal_sets(g, frozenset(X), frozenset(Y), frontdoor_admissible)


def _minimal_sets(g: CausalGraph, xs, ys, admissible
                  ) -> list[frozenset[str]]:
    """Inclusion-minimal nonempty observed sets outside X u Y passing
    ``admissible``, in (size, declaration) order.  Subsets come smallest
    first, so a candidate containing a set already found is not minimal
    and is skipped untested."""
    pool = [n for n in g.observed_names if n not in xs | ys]
    found: list[frozenset[str]] = []
    for zs in _subsets(g, pool):
        if any(f <= zs for f in found):
            continue
        if admissible(g, xs, ys, zs):
            found.append(zs)
    return found


def frontdoor_formula(X, Y, Z) -> Expr:
    """sum_z p(z|x) sum_x' p(y|x',z) p(x')."""
    xs, ys, zs = tuple(X), tuple(Y), tuple(Z)
    if not zs:
        raise GraphError("front-door formula needs a nonempty mediator set")
    used = set(xs) | set(ys) | set(zs)
    primed = []
    for x in xs:
        nx = fresh_name(x, used)
        used.add(nx)
        primed.append(nx)
    inner = Sum(tuple(sorted(primed)),
                Product((P(ys, given=tuple(primed) + zs), P(tuple(primed)))))
    return Sum(tuple(sorted(zs)), Product((P(zs, given=xs), inner)))


# -- do-calculus rule guards ---------------------------------------------

def _rule_sets(X, Y, Z, W):
    """Rule 1's and rule 2's four sets.  The surgery and the separation
    query check the names, a nonempty Y and Z, and every overlap but one:
    X and W both go into the conditioning set, so their overlap is
    checked here.  Rule 3 skips this, as its ``z_hat`` checks it."""
    xs, ys, zs, ws = (frozenset(X), frozenset(Y), frozenset(Z), frozenset(W))
    if xs & ws:
        raise GraphError("rule sets must be pairwise disjoint")
    return xs, ys, zs, ws


def _cuts(rule: str, g: CausalGraph, xs, zs, ws):
    """The surgery that licenses each do-calculus rule, as
    ``(cut_incoming, cut_outgoing)``: rule 1 cuts edges into X, rule 2
    also cuts edges out of Z, and rule 3 cuts edges into X and into
    z-hat, the Z-nodes that are not ancestors of W once edges into X are
    cut.  Every rule then asks whether Y and Z are separated by X u W."""
    if rule == "rule1":
        return xs, frozenset()
    if rule == "rule2":
        return xs, zs
    return xs | g.z_hat(xs, zs, ws), frozenset()


def _guard(rule: str, g: CausalGraph, xs, ys, zs, ws) -> GuardFact:
    """The separation licensing ``rule``, as the derivation records it."""
    ci, co = _cuts(rule, g, xs, zs, ws)
    return GuardFact(g.ordered(ys), g.ordered(zs), g.ordered(xs | ws),
                     g.ordered(ci), g.ordered(co))


def rule1_applicable(g: CausalGraph, X, Y, Z, W) -> bool:
    """May the observation z be dropped from p(y|do(x),z,w)?  Guard: Y and
    Z separated by X u W once edges into X are cut."""
    xs, ys, zs, ws = _rule_sets(X, Y, Z, W)
    cut = g.mutilate(*_cuts("rule1", g, xs, zs, ws))
    return d_separated(cut, ys, zs, xs | ws)


def rule2_applicable(g: CausalGraph, X, Y, Z, W) -> bool:
    """May do(z) and the plain observation z be exchanged in
    p(y|do(x),do(z),w)?  Guard: Y and Z separated by X u W once edges
    into X and out of Z are cut."""
    xs, ys, zs, ws = _rule_sets(X, Y, Z, W)
    cut = g.mutilate(*_cuts("rule2", g, xs, zs, ws))
    return d_separated(cut, ys, zs, xs | ws)


def rule3_applicable(g: CausalGraph, X, Y, Z, W) -> bool:
    """May the intervention do(z) be deleted from p(y|do(x),do(z),w)?
    Guard: Y and Z separated by X u W once edges into X and into the
    Z-nodes that are not ancestors of W (in the X-cut graph) are cut."""
    xs, ys, zs, ws = frozenset(X), frozenset(Y), frozenset(Z), frozenset(W)
    cut = g.mutilate(*_cuts("rule3", g, xs, zs, ws))
    return d_separated(cut, ys, zs, xs | ws)


# -- search plans ---------------------------------------------------------
#
# The search state is a single probability term reduced to its base
# variables: (targets, observations, interventions).  Rewrites depend
# only on those sets, factors of a product rewrite independently, and a
# sum never constrains the rewrites inside it, so the whole search
# decomposes term by term.  Plans record base-level moves; concrete
# bound names are minted only when a plan is replayed into a derivation.

State = tuple[frozenset[str], frozenset[str], frozenset[str]]


class _Done(_Record):
    __slots__ = ()


class _Rule(_Record):
    """A rule step, kept as its guard question ``(tag, X, Y, Z, W)`` with
    Y the targets ``after[0]``; the replay states the guard.  ``after``
    is the State the step reaches and ``rest`` the plan from there."""

    __slots__ = ("tag", "xs", "zs", "ws", "after", "rest")


class _Marg(_Record):
    """Marginalize in the ``added`` names, then follow the plan ``rest``."""

    __slots__ = ("added", "rest")


class _Chain(_Record):
    """The chain rule on the ``split`` names: plan ``first`` for the
    other targets given them, plan ``second`` for the ``split`` names."""

    __slots__ = ("split", "first", "second")


def _plan_cost(p) -> int:
    if isinstance(p, _Done):
        return 0
    if isinstance(p, (_Rule, _Marg)):
        return 1 + _plan_cost(p.rest)
    return 1 + _plan_cost(p.first) + _plan_cost(p.second)


def _subsets(g: CausalGraph, names, proper: bool = False):
    """Nonempty subsets in (size, declaration) order; ``proper`` keeps
    at least one element out."""
    pool = g.ordered(names)
    top = len(pool) - 1 if proper else len(pool)
    for r in range(1, top + 1):
        for c in combinations(pool, r):
            yield frozenset(c)


class _Searcher:
    """Budget-bounded minimal-cost search over term states, in one
    depth-first branch-and-bound pass: each state tries every move,
    tightening the cap to one below the best cost found so far, so
    ``solve(s, c)`` returns a minimum-cost plan whenever one of cost at
    most ``c`` exists.  Ties go to the first move in generation order.

    ``memo`` maps each expanded state to ``(largest cap searched, plan or
    None)``.  A stored plan is a global minimum, so it answers every cap;
    a stored failure answers every cap up to its own, and the default
    ``(0, None)`` refuses caps below 1.

    Cost floors.  ``floor(s)`` is 0 when ``D`` is empty and 1 otherwise:
    ``solve`` returns ``_Done`` only for an empty ``D``, and every move
    costs at least 1.  A move's floor is its own cost plus the floors of
    its sub-states: a rule step 1 + floor(after), ``marg`` 2 and
    ``chain`` 3 (their sub-states keep ``D``).  The closures cost
    exactly what their plans cost: the front-door plan is always 9 steps
    (marg, chain, rule 2, rule 3, a 4-step back-door plan for a nonempty
    ``D`` and a 1-step one), the back-door plan 1 (empty set) or 4.
    ``_moves`` leaves out every move whose floor exceeds the current
    limit (the cap, or the best cost found so far less one) before its
    guard or set finder runs.  Such a move costs more than the limit,
    so ``_try`` would have returned None for it.  The back-door closure
    is offered only from limit 4: below that, its one plan that fits is
    the empty-set plan, a single rule 2 on all of ``D`` with nothing
    observed, which is the very plan of the rule-2 move on all of ``D``
    (same question, same state after); that move has floor 1, so it is
    generated, and no move before it costs 1 (the front-door plan costs
    9, rule steps on a proper part of ``D`` keep ``D``).  So by
    induction on the cap, ``solve(s, c)`` is the minimum-cost plan of
    ``s`` within ``c`` with ties to the first move in generation order,
    whatever the memos hold: the plans, and so the derivations and
    ``budget_spent``, are those of the search without floors.

    ``verdicts`` answers each guard question ``(rule, X, Y, Z, W)`` and
    holds each closure's plan (None when refused) under ``(kind,
    state)``, once per search.  A state is expanded again after a failure
    at a smaller cap or while its own expansion is on the stack (rule 2
    turns do(z) into z and back), and two states may ask one question;
    every expansion reads the answers found so far, so it yields the
    moves that fit its limit in generation order and no guard runs
    twice.  Answers are kept, never moves: a move holds its sub-states,
    and keeping those alive costs more memory than regenerating the
    unguarded ``marg`` and ``chain`` moves costs time.  Both memos live
    and die with the searcher, one per ``identify``.

    No ``GuardFact`` is built here: a plan keeps each rule step's
    question, and the replay states its guard.  A closure offers its plan
    exactly when its set finder returns a set, as the criterion implies
    every guard of the plan.  Back door, zs for D on T: rule 2 exchanging
    do(D) for D given zs asks whether T and D are separated by zs once
    edges out of D are cut, the criterion's separation condition with
    the same cut and sets.  Rule 3 deleting do(D) from p(zs|do(D)) cuts
    edges into D and conditions on nothing, so an open path has no
    collider and runs directed out of D: it reaches zs only if a member
    of zs descends from D, which condition 1 rules out.  Front door,
    mediators zs: the outer rule 2 (zs to do(zs) in p(T|zs,do(D))) asks
    condition 3's question with edges into D cut too, and a subgraph
    separates whatever the graph separates (its open paths are open in
    the graph).  The outer rule 3 (deleting do(D) from p(T|do(zs),do(D)))
    cuts edges into zs and D and conditions on zs, so no collider is
    open, every open path out of D is directed, and by condition 1 it
    meets zs, which blocks it.  The inner back-door plan of p(T|do(zs))
    adjusted for D has condition 3 as its separation, and no member of D
    descends from zs, as that directed path would open condition 2's
    query; p(zs|do(D)) adjusted for nothing has condition 2 as its
    separation.  ``identify`` still verifies every recorded guard."""

    def __init__(self, g: CausalGraph):
        self.g = g
        self.memo: dict[State, tuple[int, tuple[int, object] | None]] = {}
        self.verdicts: dict[tuple, object] = {}

    def solve(self, state: State, cap: int):
        if not state[2]:
            return 0, _Done()
        searched, best = self.memo.get(state, (0, None))
        if best is not None:
            return best if best[0] <= cap else None
        if cap <= searched:
            return None
        # the move generator reads the limit as solve lowers it
        limit = [cap]
        for move in self._moves(state, limit):
            got = self._try(move, limit[0])
            if got is not None and (best is None or got[0] < best[0]):
                best = got
                if best[0] == 1:
                    break
                limit[0] = best[0] - 1
        self.memo[state] = (cap, best)
        return best

    def _try(self, move, cap: int):
        """Cost and plan of one move within ``cap``, or None.  A move is
        ``(own cost, builder, sub-states)``: its sub-states are solved
        left to right within what the cap leaves, and the builder makes
        the plan from their sub-plans."""
        cost, build, subs = move
        if cost > cap:
            return None
        plans = []
        for sub in subs:
            got = self.solve(sub, cap - cost)
            if got is None:
                return None
            cost += got[0]
            plans.append(got[1])
        return cost, build(*plans)

    # move generation, deterministic order

    def _moves(self, state: State, limit: list):
        """The moves out of ``state`` in generation order, leaving out
        each one whose floor exceeds ``limit[0]`` when it is reached.  The
        floors are the class docstring's: back-door closure 4, front-door
        closure 9, a rule step 1 when it empties ``D`` and 2 otherwise,
        ``marg`` 2 and ``chain`` 3."""
        g, verdicts = self.g, self.verdicts
        T, O, D = state
        if not O:
            closures = ((4, "backdoor", self._backdoor_closure),
                        (9, "frontdoor", self._frontdoor_closure))
            for floor, kind, closure in closures:
                if floor > limit[0]:
                    break
                key = (kind, state)
                if key not in verdicts:
                    verdicts[key] = closure(T, D)
                plan = verdicts[key]
                if plan is not None:
                    yield _plan_cost(plan), (lambda p=plan: p), ()
        for tag, guard, xs, zs, ws, after in self._rule_steps(state):
            if after[2] and limit[0] < 2:
                continue
            question = (tag, xs, T, zs, ws)
            holds = verdicts.get(question)
            if holds is None:
                holds = verdicts[question] = guard(g, xs, T, zs, ws)
            if holds:
                yield 1, partial(_Rule, tag, xs, zs, ws, after), (after,)
        candidates = [n for n in g.observed_names if n not in T | O | D]
        for vs in _subsets(g, candidates):
            if limit[0] < 2:
                return
            yield 1, partial(_Marg, g.ordered(vs)), ((T | vs, O, D),)
        for ss in _subsets(g, T, proper=True):
            if limit[0] < 3:
                return
            yield (1, partial(_Chain, g.ordered(ss)),
                   ((T - ss, O | ss, D), (ss, O, D)))

    def _rule_steps(self, state: State):
        """Every rule step out of ``state`` that needs a guard, in
        generation order, as ``(tag, guard, X, Z, W, state after)``: rule
        2 and rule 3 on each part of the interventions, then rule 2 and
        rule 1 on each part of the observations.  Each guard is read from
        its module-global name on every call, so a wrapper bound in its
        place (a tracer, a test's counter) sees every question asked."""
        g = self.g
        T, O, D = state
        for zs in _subsets(g, D):
            yield "rule2", rule2_applicable, D - zs, zs, O, (T, O | zs, D - zs)
        for zs in _subsets(g, D):
            yield "rule3", rule3_applicable, D - zs, zs, O, (T, O, D - zs)
        for zs in _subsets(g, O):
            yield "rule2", rule2_applicable, D, zs, O - zs, (T, O - zs, D | zs)
        for zs in _subsets(g, O):
            yield "rule1", rule1_applicable, D, zs, O - zs, (T, O - zs, D)

    # canned closures: the canonical adjustment derivations as fixed
    # primitive-step plans, offered whenever the criterion's set finder
    # returns a set (the class docstring proves the guards hold)

    def _backdoor_closure(self, T, D):
        sets = find_backdoor_sets(self.g, D, T)
        return self._backdoor_plan(T, D, sets[0]) if sets else None

    def _backdoor_plan(self, T, D, zs):
        """sum_zs p(T|D,zs) p(zs) for p(T|do(D)): rule 2 on do(D) given zs
        and rule 3 on p(zs|do(D))."""
        g, none = self.g, frozenset()
        if not zs:
            return _Rule("rule2", none, D, zs, (T, D, none), _Done())
        return _Marg(g.ordered(zs), _Chain(
            g.ordered(zs),
            _Rule("rule2", none, D, zs, (T, zs | D, none), _Done()),
            _Rule("rule3", none, D, none, (zs, none, none), _Done()),
        ))

    def _frontdoor_closure(self, T, D):
        """Two back-door plans joined by rule 2 and rule 3: in p(T|zs,
        do(D)), rule 2 makes zs do(zs) and rule 3 deletes do(D), leaving
        p(T|do(zs)) adjusted for D; p(zs|do(D)) is adjusted for nothing."""
        g, none = self.g, frozenset()
        sets = find_frontdoor_sets(g, D, T)
        if not sets:
            return None
        zs = sets[0]
        first = _Rule("rule2", D, zs, none, (T, none, D | zs),
                      _Rule("rule3", zs, D, none, (T, none, zs),
                            self._backdoor_plan(T, zs, D)))
        return _Marg(g.ordered(zs), _Chain(
            g.ordered(zs), first, self._backdoor_plan(zs, D, none)))


# -- plan replay into a concrete derivation --------------------------------

def _at(e: Expr, path: tuple[int, ...]) -> Expr:
    for i in path:
        e = _parts(e)[i]
    return e


def _replace(e: Expr, path: tuple[int, ...], new: Expr) -> Expr:
    if not path:
        return new
    parts = list(_parts(e))
    parts[path[0]] = _replace(parts[path[0]], path[1:], new)
    return _rebuilt(e, parts)


class _Replayer:
    """Replays a plan into concrete derivation steps on one formula.  A
    plan's position in the formula is a path of part indices (see
    ``expr._parts``): a marginalization's term is part 0 of its sum, a
    chain split's two terms are parts 0 and 1 of their product."""

    def __init__(self, g: CausalGraph, root: Expr):
        self.g = g
        self.root = root
        self.steps: list[DerivationStep] = []

    def _emit(self, rule: str, guard, path, new_sub: Expr):
        before = self.root
        self.root = _replace(self.root, path, new_sub)
        self.steps.append(DerivationStep(rule, guard, before, self.root))

    def run(self, plan, path: tuple):
        if isinstance(plan, _Done):
            return
        term = _at(self.root, path)
        names = {base_name(n): n
                 for n in term.targets + term.given + term.do}
        if isinstance(plan, _Rule):
            T, O, D = plan.after
            new_term = ProbTerm(tuple(names[b] for b in T),
                                tuple(names[b] for b in O),
                                tuple(names[b] for b in D))
            guard = _guard(plan.tag, self.g, plan.xs, T, plan.zs, plan.ws)
            self._emit(plan.tag, guard, path, new_term)
            self.run(plan.rest, path)
        elif isinstance(plan, _Marg):
            taken = set(used_names(self.root))
            bound = []
            for b in plan.added:
                nb = fresh_name(b, taken)
                taken.add(nb)
                bound.append(nb)
            inner = ProbTerm(term.targets + tuple(bound), term.given,
                             term.do)
            self._emit("marginalize", None, path,
                       Sum(tuple(sorted(bound)), inner))
            self.run(plan.rest, path + (0,))
        else:  # a _Chain
            snames = tuple(names[b] for b in plan.split)
            keep = tuple(n for n in term.targets if n not in snames)
            first = ProbTerm(keep, term.given + snames, term.do)
            second = ProbTerm(snames, term.given, term.do)
            self._emit("chain", None, path, Product((first, second)))
            self.run(plan.second, path + (1,))
            self.run(plan.first, path + (0,))


# -- known non-identifiable shapes ----------------------------------------

def _role_isomorphic(g1: CausalGraph, x1, y1,
                     g2: CausalGraph, x2, y2) -> bool:
    """Is there a bijection matching latency, edges, and the designated
    treatment/outcome roles?"""
    if len(g1.names) != len(g2.names) or len(g1.edges) != len(g2.edges):
        return False
    if len(g1.latent_names) != len(g2.latent_names):
        return False
    x1, y1 = frozenset(x1), frozenset(y1)
    x2, y2 = frozenset(x2), frozenset(y2)
    if (len(x1), len(y1)) != (len(x2), len(y2)):
        return False
    rest1 = [n for n in g1.names if n not in x1 | y1]
    rest2 = [n for n in g2.names if n not in x2 | y2]
    edges2 = set(g2.edges)

    def ok(mapping):
        for n in g1.names:
            if (n in g1.latent_names) != (mapping[n] in g2.latent_names):
                return False
        return all((mapping[t], mapping[h]) in edges2 for t, h in g1.edges)

    for px in permutations(sorted(x2)):
        for py in permutations(sorted(y2)):
            for pr in permutations(rest2):
                mapping = dict(zip(sorted(x1), px))
                mapping.update(zip(sorted(y1), py))
                mapping.update(zip(rest1, pr))
                if ok(mapping):
                    return True
    return False


def matches_non_identifiable_catalog(g: CausalGraph, X, Y) -> bool:
    from .catalog import catalog
    for entry in catalog():
        if entry.expectation.kind != "non-identifiable":
            continue
        if _role_isomorphic(g, X, Y, entry.graph,
                            entry.treatment, entry.outcome):
            return True
    return False


# -- top-level entry point --------------------------------------------------

def identify(query: Query,
             budget: int = DEFAULT_BUDGET) -> IdentificationResult:
    """Search for a do-free formula for p(outcome | do(treatment)).

    ``budget`` caps the number of derivation steps.  On success the
    formula is evaluated against the surgery oracle on ``VERIFY_MODELS``
    random models of the ancestral submodel and must agree exactly.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    g = query.graph
    state = (frozenset(query.outcome), frozenset(),
             frozenset(query.treatment))
    got = _Searcher(g).solve(state, budget)
    if got is None:
        if matches_non_identifiable_catalog(g, query.treatment,
                                            query.outcome):
            return IdentificationResult(KNOWN_NON_IDENTIFIABLE, None, (),
                                        budget)
        return IdentificationResult(NOT_WITHIN_BUDGET, None, (), budget)

    root = ProbTerm(query.outcome, (), query.treatment)
    replay = _Replayer(g, root)
    replay.run(got[1], ())
    formula = tidy(replay.root)
    _verify(query, formula, replay.steps)
    return IdentificationResult(IDENTIFIED, formula,
                                tuple(replay.steps), got[0])


def _verify(query: Query, formula: Expr, steps) -> None:
    if not is_do_free(formula):
        raise EngineInvariantError("search returned a formula with "
                                   "interventions left")
    g = query.graph
    read = {base_name(n) for n in used_names(formula)}
    latent_refs = read & g.latent_names
    if latent_refs:
        raise EngineInvariantError(
            f"formula mentions latent variables {sorted(latent_refs)}")
    for i, step in enumerate(steps, 1):
        if step.guard is not None and not step.guard.verify(g):
            raise EngineInvariantError(
                f"derivation step {i} ({step.rule}) has a failing guard "
                f"{step.guard.render()}")
    # the oracle check needs only the ancestral submodel (module docstring)
    sub = g.ancestral(read.union(query.treatment, query.outcome))
    for seed in range(1, VERIFY_MODELS + 1):
        m = random_model(sub, random.Random(seed))
        bad = oracle_disagreement(formula, m, query.treatment,
                                  query.outcome)
        if bad is not None:
            binding, got, want = bad
            raise EngineInvariantError(
                f"formula disagrees with the surgery oracle at "
                f"{binding!r}: {got} != {want}")


def oracle_disagreement(formula: Expr, model, treatment, outcome):
    """First ``(binding, formula value, oracle value)`` at which
    ``formula`` differs from p(outcome | do(treatment)) on ``model``, or
    None when they agree everywhere.

    The oracle is graph surgery (``do_marginal``); its table is built
    once per do-assignment and read for every outcome value.
    """
    ydoms = [model.domains[y] for y in outcome]
    for xv in product(*[model.domains[x] for x in treatment]):
        do = dict(zip(treatment, xv))
        oracle = model.do_marginal(do, outcome)
        for yv in product(*ydoms):
            y = dict(zip(outcome, yv))
            binding = {**do, **y}
            got = evaluate(formula, model, binding)
            want = oracle.p(y)
            if got != want:
                return binding, got, want
    return None
