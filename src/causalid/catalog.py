"""Built-in corpus of causal diagrams with known verdicts.

Business-flavored graphs (customer retention, claim provisioning, sales
training, pricing), the randomized-trial triple, the canonical
front-door diagram, and the entries of the identifiable/non-identifiable
diagram lists whose topology could be reconstructed.  Each entry carries
an executable expectation; ``run_entry`` checks it against the engine
and the exact-model oracle.

Entries whose full topology is not recoverable are listed in
``unavailable()`` rather than guessed, and reconstructions are flagged.
"""

from __future__ import annotations

import random
from functools import cache

from .expr import P, alpha_equal
from .graph import CausalGraph, _Record
from .identify import (IDENTIFIED, KNOWN_NON_IDENTIFIABLE, Query,
                       backdoor_admissible, backdoor_formula,
                       find_backdoor_sets, frontdoor_admissible,
                       frontdoor_formula, identify, oracle_disagreement)
from .scm import random_model

# seed for the per-entry numeric cross-checks
_CHECK_SEED = 7


class Expectation(_Record):
    """What an entry's run must show.  ``kind`` is backdoor, frontdoor,
    non-identifiable, do-equals-see or adjustment-sets; ``assertions``
    are (adjustment set, admissible) pairs."""

    __slots__ = ("kind", "adjustment", "assertions")
    _defaults = {"adjustment": (), "assertions": ()}


class CorpusEntry(_Record):
    __slots__ = ("name", "description", "graph", "treatment", "outcome",
                 "expectation", "reconstructed", "note")
    _defaults = {"reconstructed": False, "note": ""}


def _loyalty_graph() -> CausalGraph:
    return CausalGraph(
        [("U", True), "Z", "X", "Y"],
        [("U", "Z"), ("Z", "X"), ("X", "Y"), ("U", "Y")])


def _frontdoor_graph() -> CausalGraph:
    return CausalGraph(
        [("U", True), "X", "Z", "Y"],
        [("U", "X"), ("U", "Y"), ("X", "Z"), ("Z", "Y")])


def _pricing_graph() -> CausalGraph:
    return CausalGraph(
        [("U", True), "X", "Z", "Y"],
        [("U", "X"), ("U", "Z"), ("X", "Z"), ("X", "Y"), ("Z", "Y")])


# the entries are immutable values, so they are built once per process
@cache
def catalog() -> tuple[CorpusEntry, ...]:
    entries = [
        CorpusEntry(
            "loyalty",
            "Retention campaign (X) against churn (Y); unobserved intent "
            "to leave (U) drives the behavior score (Z) that triggers "
            "targeting.",
            _loyalty_graph(), ("X",), ("Y",),
            Expectation("backdoor", adjustment=("Z",))),
        CorpusEntry(
            "insurance",
            "Initial reserve (X) against final compensation (Y); the "
            "unobserved claim severity (U) drives the declaration (Z) "
            "the expert provisions from.",
            _loyalty_graph(), ("X",), ("Y",),
            Expectation("backdoor", adjustment=("Z",))),
        CorpusEntry(
            "sales-training",
            "Training spend (X) against turnover (Y) through salesforce "
            "skill (Z); competitive pressure (U) confounds spend and "
            "turnover.",
            CausalGraph([("U", True), "X", "Z", "Y"],
                        [("U", "X"), ("U", "Y"), ("X", "Z"), ("Z", "Y")]),
            ("X",), ("Y",),
            Expectation("frontdoor", adjustment=("Z",))),
        CorpusEntry(
            "pricing",
            "Price (X) against turnover (Y) with sales volume (Z); "
            "competitive pressure (U) moves both price and volume.",
            _pricing_graph(), ("X",), ("Y",),
            Expectation("non-identifiable")),
        CorpusEntry(
            "rct-free",
            "Treatment assigned independently of the patient features "
            "that also affect the outcome.",
            CausalGraph(["X", "Z1", "Z2", "Z3", "Y"],
                        [("X", "Y"), ("Z1", "Y"), ("Z2", "Y"),
                         ("Z3", "Y")]),
            ("X",), ("Y",),
            Expectation("do-equals-see")),
        CorpusEntry(
            "rct-confounded",
            "The experimenter picks who gets treated, turning the "
            "patient features into confounders.",
            CausalGraph(["X", "Z1", "Z2", "Z3", "Y"],
                        [("X", "Y"), ("Z1", "Y"), ("Z2", "Y"), ("Z3", "Y"),
                         ("Z1", "X"), ("Z2", "X"), ("Z3", "X")]),
            ("X",), ("Y",),
            Expectation("backdoor", adjustment=("Z1", "Z2", "Z3"))),
        CorpusEntry(
            "rct-coin",
            "Randomized trial: a coin (C) alone decides the treatment, "
            "cutting every back path into it.",
            CausalGraph(["C", "X", "Z1", "Z2", "Z3", "Y"],
                        [("C", "X"), ("X", "Y"), ("Z1", "Y"), ("Z2", "Y"),
                         ("Z3", "Y")]),
            ("X",), ("Y",),
            Expectation("do-equals-see")),
        CorpusEntry(
            "front-door",
            "Mediator-based identification: the effect of X on Y flows "
            "through the observed Z while U confounds X and Y.",
            _frontdoor_graph(), ("X",), ("Y",),
            Expectation("frontdoor", adjustment=("Z",))),
        CorpusEntry(
            "identifiable-catalog-b",
            "Treatment without causes: X feeds Z and Y directly, a "
            "latent W confounds Z with Y only.",
            CausalGraph([("W", True), "X", "Z", "Y"],
                        [("X", "Z"), ("X", "Y"), ("Z", "Y"),
                         ("W", "Z"), ("W", "Y")]),
            ("X",), ("Y",),
            Expectation("do-equals-see")),
        CorpusEntry(
            "identifiable-catalog-c",
            "A fully mediated confounder: Z screens X off from the "
            "latent U, and Z itself is observed.",
            CausalGraph([("U", True), "Z", "X", "Y"],
                        [("U", "Z"), ("U", "Y"), ("Z", "X"), ("Z", "Y"),
                         ("X", "Y")]),
            ("X",), ("Y",),
            Expectation("backdoor", adjustment=("Z",))),
        CorpusEntry(
            "non-identifiable-catalog-c",
            "Confounded treatment and mediator: the latent U reaches "
            "both X and the mediator Z.",
            CausalGraph([("U", True), "X", "Z", "Y"],
                        [("U", "X"), ("U", "Z"), ("X", "Z"), ("X", "Y"),
                         ("Z", "Y")]),
            ("X",), ("Y",),
            Expectation("non-identifiable")),
        CorpusEntry(
            "adjustment-example",
            "Eight-node diagram with four back paths from X to Y: "
            "{Z3,Z4} is a valid adjustment set, {Z4} alone opens a "
            "collider and is not.",
            CausalGraph(
                ["Z1", "Z2", "Z3", "Z4", "Z5", "X", "Z6", "Y"],
                [("Z1", "X"), ("Z1", "Z3"), ("Z2", "Z4"), ("Z2", "Y"),
                 ("Z3", "Y"), ("Z3", "Z4"), ("Z4", "Y"), ("Z4", "Z5"),
                 ("Z5", "X"), ("X", "Z6"), ("Z6", "Y")]),
            ("X",), ("Y",),
            Expectation("adjustment-sets",
                        assertions=((("Z3", "Z4"), True), (("Z4",), False))),
            reconstructed=True,
            note="reconstructed from a textual description of the "
                 "diagram; junction roles match but the exact edge list "
                 "is not authoritative"),
    ]
    return tuple(entries)


def unavailable() -> tuple[tuple[str, str], ...]:
    note = "topology not recoverable from the available description"
    return (
        ("identifiable-catalog-a", note),
        ("non-identifiable-catalog-a", note),
        ("non-identifiable-catalog-b", note),
    )


def get_entry(name: str) -> CorpusEntry:
    for e in catalog():
        if e.name == name:
            return e
    raise KeyError(f"no corpus entry named {name!r}")


def run_entry(entry: CorpusEntry) -> tuple[bool, str]:
    """Execute one entry's expectation; returns (passed, detail)."""
    g = entry.graph
    X, Y = entry.treatment, entry.outcome
    exp = entry.expectation
    try:
        if exp.kind == "adjustment-sets":
            for zs, want in exp.assertions:
                got = backdoor_admissible(g, X, Y, zs)
                if got != want:
                    return False, (f"adjustment set {set(zs)} expected "
                                   f"admissible={want}, got {got}")
            return True, "adjustment-set verdicts as expected"

        if exp.kind == "non-identifiable":
            res = identify(Query(g, X, Y))
            if res.status != KNOWN_NON_IDENTIFIABLE:
                return False, f"expected known-non-identifiable, got " \
                              f"{res.status}"
            return True, "reported known-non-identifiable"

        res = identify(Query(g, X, Y))
        if res.status != IDENTIFIED:
            return False, f"expected identified, got {res.status}"

        if exp.kind == "backdoor":
            sets = find_backdoor_sets(g, X, Y)
            if not sets or sets[0] != frozenset(exp.adjustment):
                return False, (f"expected minimal adjustment set "
                               f"{set(exp.adjustment)}, got "
                               f"{[set(s) for s in sets]}")
            want = backdoor_formula(X, Y, g.ordered(exp.adjustment))
        elif exp.kind == "frontdoor":
            if not frontdoor_admissible(g, X, Y, exp.adjustment):
                return False, (f"mediator set {set(exp.adjustment)} "
                               "unexpectedly inadmissible")
            want = frontdoor_formula(X, Y, g.ordered(exp.adjustment))
        elif exp.kind == "do-equals-see":
            want = P(Y, given=X)
        else:
            return False, f"unknown expectation kind {exp.kind!r}"

        if not alpha_equal(res.formula, want):
            return False, (f"formula mismatch: derived "
                           f"{res.formula!r}, expected {want!r}")

        # numeric cross-check on a fresh random model
        m = random_model(g, random.Random(_CHECK_SEED))
        bad = oracle_disagreement(res.formula, m, X, Y)
        if bad is not None:
            binding, got, oracle = bad
            return False, (f"value mismatch at {binding}: "
                           f"{got} != {oracle}")
        return True, f"identified; formula checks out ({res.budget_spent}" \
                     " steps)"
    except Exception as exc:  # a crash is a failed expectation
        return False, f"error: {exc}"
