"""The package's value records: plain classes with dataclass semantics.

Each record is compared with a frozen dataclass of the same name and
fields, the form the records had before they became plain classes, so
equality, hashing, repr and ordering are checked against the standard
library's own definition of them.
"""

import copy
import pickle
import subprocess
import sys
from dataclasses import make_dataclass
from fractions import Fraction as F

import pytest

from causalid import (CausalGraph, DerivationStep, ExprError, GraphError,
                      GuardFact, IdentificationResult, P, Query)
from causalid.catalog import CorpusEntry, Expectation
from causalid.dsep import Statement
from causalid.expr import ProbTerm, Product, Quotient, Sum
from causalid.graph import Path, PartiallyDirectedGraph, Variable, _Record
from causalid.identify import (IDENTIFIED, NOT_WITHIN_BUDGET, _Chain, _Done,
                               _Marg, _Rule)
from causalid.scm import Dataset, Mechanism, StructuralEquationSpec

from conftest import SRC

G = CausalGraph([("U", True), "X", "Z", "Y"],
                [("U", "X"), ("U", "Y"), ("X", "Z"), ("Z", "Y")])
GUARD = GuardFact(("Y",), ("X",), ("Z",), ("X",), ())
EXP = Expectation("frontdoor", adjustment=("Z",))


def _flip(pa, eps):
    return (pa[0] + eps) % 2


# (class, positional args, keyword args, the fields the record holds):
# keyword construction, defaults and __init__ normalization included
CASES = [
    (Variable, ("X",), {}, ("X", False)),
    (Variable, (), {"name": "U", "latent": True}, ("U", True)),
    (Path, (("X", "Z", "Y"), (True, False)), {},
     (("X", "Z", "Y"), (True, False))),
    (PartiallyDirectedGraph, (), {"variables": (Variable("X"),),
                                  "directed": (("X", "Y"),),
                                  "undirected": (("Y", "Z"),)},
     ((Variable("X"),), (("X", "Y"),), (("Y", "Z"),))),
    (Statement, ("X", "Y"), {"given": ("Z",)}, ("X", "Y", ("Z",))),
    (ProbTerm, (("Y",),), {}, (("Y",), (), ())),
    (ProbTerm, (), {"targets": ("Y", "X"), "do": ("W",)},
     (("X", "Y"), (), ("W",))),
    (Sum, (("Z",), P("Y", "Z")), {}, (("Z",), P("Y", "Z"))),
    (Product, ((P("Y"), P("Z")),), {}, ((P("Y"), P("Z")),)),
    (Quotient, (P("Y"),), {"den": P("Z")}, (P("Y"), P("Z"))),
    (GuardFact, ("Y", "X", "Z"), {"cut_incoming": ("X",),
                                  "cut_outgoing": ()},
     ("Y", "X", "Z", ("X",), ())),
    (DerivationStep, ("rule2", GUARD, P("Y", do="X")),
     {"after": P("Y", "X")},
     ("rule2", GUARD, P("Y", do="X"), P("Y", "X"))),
    (Query, (G,), {"treatment": ["X"], "outcome": {"Y"}},
     (G, ("X",), ("Y",))),
    (IdentificationResult, (IDENTIFIED, P("Y", "X"), ()),
     {"budget_spent": 2}, (IDENTIFIED, P("Y", "X"), (), 2)),
    (_Done, (), {}, ()),
    (_Rule, ("rule2", frozenset("X"), frozenset(), frozenset()),
     {"after": (frozenset("Y"), frozenset("X"), frozenset()),
      "rest": _Done()},
     ("rule2", frozenset("X"), frozenset(), frozenset(),
      (frozenset("Y"), frozenset("X"), frozenset()), _Done())),
    (_Marg, (("Z",),), {"rest": _Done()}, (("Z",), _Done())),
    (_Chain, (("Z",), _Done()), {"second": _Done()},
     (("Z",), _Done(), _Done())),
    (Mechanism, ("Y", ("X",)), {"table": {(0,): (F(1), F(0))}},
     ("Y", ("X",), {(0,): (F(1), F(0))})),
    (StructuralEquationSpec, ("Y", ("X",), ((0, 1),)),
     {"noise": {0: F(1, 2), 1: F(1, 2)}, "f": _flip},
     ("Y", ("X",), ((0, 1),), {0: F(1, 2), 1: F(1, 2)}, _flip)),
    (Dataset, (("X",),), {"rows": (("0",), ("1",))},
     (("X",), (("0",), ("1",)))),
    (Expectation, ("backdoor",), {}, ("backdoor", (), ())),
    (CorpusEntry, ("fd", "front door", G, ("X",), ("Y",), EXP), {},
     ("fd", "front door", G, ("X",), ("Y",), EXP, False, "")),
    (CorpusEntry, ("fd", "front door", G, ("X",), ("Y",), EXP),
     {"reconstructed": True, "note": "n"},
     ("fd", "front door", G, ("X",), ("Y",), EXP, True, "n")),
]


def _reference_class(cls):
    """A frozen dataclass with the record's name and fields."""
    return make_dataclass(cls.__qualname__, cls.__slots__, frozen=True,
                          order=cls is Statement)


IDS = [c[0].__name__ for c in CASES]


def test_every_record_has_a_case():
    assert {c[0] for c in CASES} == set(_Record.__subclasses__())


@pytest.mark.parametrize("cls, args, kwargs, fields", CASES, ids=IDS)
def test_record_is_a_value(cls, args, kwargs, fields):
    rec = cls(*args, **kwargs)
    ref = _reference_class(cls)(*fields)
    assert tuple(getattr(rec, f) for f in cls.__slots__) == fields
    assert cls.__match_args__ == cls.__slots__
    assert repr(rec) == repr(ref)
    # equal to a record of the same fields, never to another type
    again = cls(*args, **kwargs)
    assert rec == again and not rec != again
    assert rec != ref and rec != fields
    try:
        hash(fields)
    except TypeError:  # a record holding a dict is no more hashable
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(fields) == hash(ref)
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("cls, args, kwargs, fields", CASES, ids=IDS)
def test_record_refuses_what_a_dataclass_refuses(cls, args, kwargs, fields):
    # too many positional arguments, an unknown keyword, a field given
    # both ways and a missing field without a default
    slots = cls.__slots__
    bad = [(fields + (None,), {}), (fields, {"extra": None})]
    if slots:
        bad += [(fields, {slots[0]: fields[0]}),
                ((), dict(zip(slots[1:], fields[1:])))]
    for make in (cls, _reference_class(cls)):
        for bad_args, bad_kwargs in bad:
            with pytest.raises(TypeError):
                make(*bad_args, **bad_kwargs)


@pytest.mark.parametrize("cls, args, kwargs, fields", CASES, ids=IDS)
def test_record_is_immutable(cls, args, kwargs, fields):
    rec = cls(*args, **kwargs)
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(AttributeError, match=f"assign to field '{name}'"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match=f"delete field '{name}'"):
            delattr(rec, name)
    assert tuple(getattr(rec, f) for f in cls.__slots__) == fields


@pytest.mark.parametrize("cls, args, kwargs, fields", CASES, ids=IDS)
def test_only_statements_sort(cls, args, kwargs, fields):
    rec = cls(*args, **kwargs)
    if cls is Statement:
        assert rec <= rec and rec >= rec and not rec < rec
        return
    for compare in (lambda a, b: a < b, lambda a, b: a <= b,
                    lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(TypeError):
            compare(rec, rec)


def test_statements_sort_as_their_field_tuples():
    stmts = [Statement("X", "Y", ("Z",)), Statement("A", "Y", ()),
             Statement("X", "Y", ()), Statement("X", "B", ("Z", "W"))]
    ref = _reference_class(Statement)
    refs = [ref(s.x, s.y, s.given) for s in stmts]
    assert ([(s.x, s.y, s.given) for s in sorted(stmts)]
            == [(r.x, r.y, r.given) for r in sorted(refs)])
    with pytest.raises(TypeError):
        Statement("X", "Y", ()) < ("X", "Y", ())


@pytest.mark.parametrize("build, error, message", [
    (lambda: Sum((), P("Y")), ExprError,
     "sum needs at least one bound variable"),
    (lambda: Sum(("Z", "Z"), P("Y")), ExprError, "repeated bound variable"),
    (lambda: Product((P("Y"),)), ExprError,
     "product needs at least two factors"),
    (lambda: ProbTerm(()), ExprError,
     "a probability term needs at least one target"),
    (lambda: ProbTerm(("Y",), ("Y",)), ExprError,
     "repeated variable Y in term"),
    (lambda: ProbTerm(("Y", "X'"), ("X'",)), ExprError,
     "repeated variable X' in term"),
    (lambda: ProbTerm(("Y",), ("Y'", "X")), ExprError,
     r"term mentions Y twice \(primes included\): Y, Y'"),
    (lambda: DerivationStep("rule9", None, P("Y"), P("Y")), ExprError,
     "unknown rule tag 'rule9'"),
    (lambda: Query(G, ("X",), ()), GraphError,
     "treatment and outcome must be nonempty"),
    (lambda: Query(G, ("X",), ("X",)), GraphError,
     "treatment and outcome must be disjoint"),
    (lambda: Query(G, ("U",), ("Y",)), GraphError,
     r"treatment/outcome must be observed: \['U'\]"),
    (lambda: Query(G, ("Q",), ("Y",)), GraphError, "unknown variable 'Q'"),
    (lambda: IdentificationResult(IDENTIFIED, None, (), 1), AssertionError,
     None),
    (lambda: IdentificationResult(IDENTIFIED, P("Y", do="X"), (), 1),
     AssertionError, None),
    (lambda: Path(("X",), ()), GraphError, "a path needs at least one edge"),
    (lambda: Path(("X", "Y", "X"), (True, True)), GraphError,
     "a path may not repeat a node"),
    (lambda: Path(("X", "Y"), ()), GraphError,
     "malformed path: direction per edge required"),
    (lambda: PartiallyDirectedGraph((), (("X", "Y"),), (("Y", "X"),)),
     GraphError, "an edge cannot be both directed and undirected"),
], ids=["sum-empty", "sum-repeat", "product-one-factor", "term-no-target",
        "term-repeat", "term-repeat-primed", "term-prime-twice", "rule-tag",
        "query-empty", "query-overlap", "query-latent", "query-unknown",
        "identified-without-formula", "identified-with-do", "path-short",
        "path-repeat", "path-directions", "pattern-both"])
def test_record_validation(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_an_unidentified_result_needs_no_formula():
    res = IdentificationResult(NOT_WITHIN_BUDGET, None, (), 16)
    assert res.formula is None


def test_import_generates_no_record_code():
    # the records are plain classes: importing the package and its CLI
    # loads neither `dataclasses` nor what it pulls in for code generation
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import causalid, causalid.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-I", "-c", code, SRC],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
