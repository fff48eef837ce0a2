import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalid import (ParseError, graph_to_dsl, graph_to_json, model_to_dsl,
                      parse_graph, parse_model, random_model)
from causalid.dsl import parse_fraction

from conftest import binary_confounder_model, random_dag

LOYALTY = """\
# retention campaign
var U latent
var Z
var X
var Y
edge U -> Z
edge Z -> X
edge X -> Y
edge U -> Y
"""


def test_parse_graph_basic():
    g = parse_graph(LOYALTY)
    assert g.names == ("U", "Z", "X", "Y")
    assert g.latent_names == {"U"}
    assert g.has_edge("Z", "X")


def test_parse_graph_arc_expansion():
    g = parse_graph("var A\nvar B\narc A <-> B\n")
    assert g.latent_names == {"U_A_B"}
    # a repeated arc gets a second fresh parent, also when the first ends in _
    g = parse_graph("var A\nvar B_\narc A <-> B_\narc A <-> B_\n")
    assert g.latent_names == {"U_A_B_", "U_A_B_2"}
    # an arc file is the projection of the explicit-latent bow
    bow = parse_graph("var U latent\nvar X\nvar Y\n"
                      "edge U -> X\nedge U -> Y\nedge X -> Y\n")
    arcs = parse_graph("var X\nvar Y\nedge X -> Y\narc X <-> Y\n")
    assert arcs == bow.projection()


@given(st.integers(0, 5000))
def test_arc_file_of_a_projection_parses_back_to_it(seed):
    # the projection written with one ``arc`` per fresh latent parent
    rng = random.Random(seed)
    P = random_dag(rng, n=rng.randint(3, 8), p=rng.uniform(0.2, 0.6),
                   latent=rng.uniform(0.1, 0.5)).projection()
    text = [f"var {n}" for n in P.observed_names]
    text += [f"edge {t} -> {h}" for t, h in P.edges
             if t not in P.latent_names]
    text += ["arc {} <-> {}".format(*P.ordered(P.children(u)))
             for u in P.names if u in P.latent_names]
    assert parse_graph("\n".join(text)) == P


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("var A\nedge A ->\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("var A\nvar B\nfrobnicate A B\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("var A latent extra\n")
    err = None
    try:
        parse_graph("var A\nvar B\nedge A -> C\n")
    except ParseError as exc:
        err = exc
    assert err is not None and "'C'" in str(err)


def test_graph_dsl_round_trip():
    for seed in range(12):
        g = random_dag(random.Random(seed), 6, 0.4, latent=0.3)
        assert parse_graph(graph_to_dsl(g)) == g
        assert parse_graph(graph_to_json(g)) == g


def test_v_structures_stable_across_round_trip():
    for seed in range(12):
        g = random_dag(random.Random(seed), 6, 0.5)
        assert parse_graph(graph_to_dsl(g)).v_structures() == \
            g.v_structures()
        assert parse_graph(graph_to_json(g)).v_structures() == \
            g.v_structures()


def test_json_detection_and_errors():
    with pytest.raises(ParseError, match="bad JSON"):
        parse_graph("{not json")
    with pytest.raises(ParseError) as info:
        parse_graph('{"vars": [{"latent": true}]}')
    assert str(info.value) == "line 1: bad graph JSON structure: 'name'"
    with pytest.raises(ParseError) as info:
        parse_graph('{"vars": [{"name": "A"}], "edges": [["A", "B"]]}')
    assert str(info.value) == "line 1: unknown variable 'B' in edge A->B"


@pytest.mark.parametrize("doc, message", [
    ('{"vars": [{"name": "X"}, {"name": "Y"}], "edges": [["X", "Y", "Z"]]}',
     'edge ["X", "Y", "Z"] is not a pair of names'),
    ('{"vars": [{"name": "X"}, {"name": "Y"}], "edges": ["XY"]}',
     'edge "XY" is not a pair of names'),
    ('{"vars": [{"name": "X", "latent": "false"}]}',
     'variable {"name": "X", "latent": "false"} needs a string name and a '
     'boolean latent flag'),
    ('{"vars": [{"name": 5}]}',
     'variable {"name": 5} needs a string name and a boolean latent flag'),
], ids=["three-names", "string-edge", "string-latent", "number-name"])
def test_json_graph_shape_is_checked(doc, message):
    with pytest.raises(ParseError) as info:
        parse_graph(doc)
    assert str(info.value) == f"line 1: bad graph JSON structure: {message}"


MODEL = """\
var Z
var X
var Y
edge Z -> X
edge Z -> Y
edge X -> Y
domain Z 0 1
domain X 0 1
domain Y 0 1
cpt Z | : 1/2 1/2
cpt X | Z=0 : 0.75 0.25
cpt X | Z=1 : 1/4 3/4
cpt Y | Z=0 X=0 : 9/10 1/10
cpt Y | Z=0 X=1 : 1/2 1/2
cpt Y | Z=1 X=0 : 2/3 1/3
cpt Y | Z=1 X=1 : 1/10 9/10
"""


def test_parse_model_matches_programmatic():
    m = parse_model(MODEL)
    want = binary_confounder_model()
    # domains come out as strings from the DSL
    assert m.domains == {n: ("0", "1") for n in ("Z", "X", "Y")}
    got = m.do_marginal({"X": "1"}, ("Y",))
    assert got.p({"Y": "1"}) == Fraction(7, 10)
    assert want.do_marginal({"X": 1}, ("Y",)).p({"Y": 1}) == Fraction(7, 10)


def test_decimal_literals_parse_exactly():
    assert parse_fraction("0.75") == Fraction(3, 4)
    assert parse_fraction("2/6") == Fraction(1, 3)
    with pytest.raises(ParseError):
        parse_fraction("x")


def test_model_round_trip():
    m = parse_model(MODEL)
    again = parse_model(model_to_dsl(m))
    assert again.joint() == m.joint()


@given(st.integers(0, 5000))
def test_random_model_round_trip(seed):
    # a model file names each value by its text, so the joint comes back
    # over the values' strings
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(1, 6), p=rng.uniform(0.2, 0.6),
                   latent=rng.uniform(0.0, 0.4))
    m = random_model(g, rng, cards=(2, 3))
    again = parse_model(model_to_dsl(m))
    assert again.graph == g
    assert again.joint().probs == {tuple(map(str, cell)): pr for cell, pr
                                   in m.joint().probs.items()}


def test_model_errors():
    with pytest.raises(ParseError, match="sums to"):
        parse_model("var A\ndomain A 0 1\ncpt A | : 1/2 1/3\n")
    with pytest.raises(ParseError, match="no domain"):
        parse_model("var A\nvar B\ndomain A 0 1\ncpt A | : 1/2 1/2\n")
    with pytest.raises(ParseError, match="has no row"):
        parse_model("var A\nvar B\nedge A -> B\n"
                    "domain A 0 1\ndomain B 0 1\n"
                    "cpt A | : 1/2 1/2\ncpt B | A=0 : 1 0\n")
    with pytest.raises(ParseError, match="duplicate cpt row"):
        parse_model("var A\ndomain A 0 1\n"
                    "cpt A | : 1/2 1/2\ncpt A | : 1/2 1/2\n")
    with pytest.raises(ParseError, match="exactly its parents"):
        parse_model("var A\nvar B\nedge A -> B\n"
                    "domain A 0 1\ndomain B 0 1\n"
                    "cpt A | : 1/2 1/2\ncpt B | : 1/2 1/2\n")


TWO_NODE = """\
var A
var B
edge A -> B
domain A 0 1
domain B 0 1
cpt A | : 1/2 1/2
cpt B | A=0 : 1/3 2/3
cpt B | A=1 : 3/4 1/4
"""


@pytest.mark.parametrize("old, new, message", [
    ("A=0 :", "A0 :", "line 7: bad parent assignment token 'A0'"),
    ("A=0 :", "A= :", "line 7: bad parent assignment token 'A='"),
    ("A=0 :", "A=0 A=1 :", "line 7: parent 'A' assigned twice"),
    ("cpt B | A=1", "frob A\ncpt B | A=1", "line 8: unknown directive "
     "'frob'"),
    ("domain B 0 1", "domain B 0", "line 5: domain of 'B' needs at least 2 "
     "values"),
    ("domain B 0 1", "domain B 0 1\ndomain Q 0 1",
     "line 6: unknown variable 'Q'"),
    ("domain B 0 1", "domain B 0 1\ndomain A 0 1",
     "line 6: duplicate domain for 'A'"),
    ("domain B 0 1", "domain B 0 0", "line 5: repeated value in domain of "
     "'B'"),
    ("cpt A | :", "cpt\ncpt A | :", "line 6: bad cpt directive"),
    ("cpt A | :", "cpt Q | : 1\ncpt A | :", "line 6: unknown variable 'Q'"),
    ("cpt A | :", "cpt A |", "line 6: cpt needs a ':' before the "
     "probabilities"),
    ("A=1 :", "A=2 :", "line 8: mechanism for 'B' has a row for ('2',), "
     "which is no assignment of its parents ('A',)"),
    ("cpt A | : 1/2 1/2", "cpt A | : 1", "line 6: row () for 'A' has 1 "
     "probabilities, domain has 2 values"),
], ids=["parent-without-equals", "parent-without-value",
        "parent-assigned-twice", "unknown-directive", "short-domain",
        "domain-of-unknown", "domain-twice", "domain-repeats-value",
        "bare-cpt", "cpt-of-unknown", "cpt-without-colon",
        "parent-value-outside-domain", "probability-count"])
def test_model_errors_name_their_line(old, new, message):
    with pytest.raises(ParseError) as info:
        parse_model(TWO_NODE.replace(old, new, 1))
    assert str(info.value) == message


SPREAD_MODEL = """\
var A
# the domains may come before the edges
domain A 0 1
domain B 0 1
edge A -> B
cpt A | : 1/2 1/2
cpt B | A=0 : 1/3 2/3
cpt B | A=1 : 3/4 1/4
var B
"""


def test_model_graph_errors_name_their_own_line():
    # graph directives are reported at their line in the model text, not
    # at their position among the graph lines alone
    bad_edge = SPREAD_MODEL.replace("edge A -> B", "edge A => B")
    with pytest.raises(ParseError, match="line 5: bad edge"):
        parse_model(bad_edge)
    bad_arc = SPREAD_MODEL.replace("edge A -> B", "arc A <> B")
    with pytest.raises(ParseError, match="line 5: bad arc"):
        parse_model(bad_arc)
    # a directed cycle is reported at the edge that closes it
    cyclic = SPREAD_MODEL.replace("edge A -> B",
                                  "edge A -> B\nedge B -> A\narc A <-> B")
    with pytest.raises(ParseError, match="line 6: graph contains a directed "
                       "cycle"):
        parse_model(cyclic)


@pytest.mark.parametrize("text, where", [
    ("var A\nvar B\n\nedge A -> Q\n", "line 4: unknown variable 'Q'"),
    ("var A\nvar B\narc A <-> B\nedge A -> Q\n",
     "line 4: unknown variable 'Q'"),
    ("var A\nvar B\narc A <-> B\narc A <-> Q\n",
     "line 4: unknown variable 'Q'"),
    ("var A\nvar B\nvar A\n", "line 3: duplicate variable 'A'"),
    ("var A\nvar B\nedge A -> B\nedge A -> B\n",
     "line 4: duplicate edge"),
    ("var A\nvar B\nedge A -> A\n", "line 3: self-loop on 'A'"),
    ("var A\nvar B-C\n", "line 2: invalid variable name 'B-C'"),
    ("var A\nvar B\nedge A -> B\nedge B -> A\n",
     "line 4: graph contains a directed cycle"),
    ("var A\nvar B\nvar C\narc A <-> C\nedge A -> B\nedge B -> A\n",
     "line 6: graph contains a directed cycle"),
    ("var A\nvar B\nvar C\nedge B -> C\nedge A -> B\nedge A -> C\n"
     "edge C -> A\nedge B -> A\n",
     "line 7: graph contains a directed cycle"),
    ("var A\ndomain A 0 1\n",
     "line 2: 'domain' belongs to the model format; this parser reads "
     "plain graphs"),
], ids=["edge-after-blank", "edge-after-arc", "arc", "repeated-var",
        "repeated-edge", "self-loop", "invalid-name",
        "cycle", "cycle-after-arc", "cycle-through-a-path",
        "domain-in-graph"])
def test_graph_errors_name_their_own_line(text, where):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value).startswith(where)


@pytest.mark.parametrize("text, where", [
    # a directive's shape is checked first, at every line
    ("var A\nedge A -> A\nedge A => B\n", "line 3: bad edge"),
    # then the variables, whatever their line
    ("var A\nedge A -> A\nvar B-C\n", "line 3: invalid variable name"),
    # then the edges, then the arcs
    ("var A\nvar B\narc A <-> A\nedge A -> Q\n",
     "line 4: unknown variable 'Q' in edge A->Q"),
    # each edge's own checks before the next edge's
    ("var A\nvar B\nedge A -> B\nedge A -> B\nedge B -> Q\n",
     "line 4: duplicate edge"),
    # a cycle last
    ("var A\nvar B\nedge A -> B\nedge B -> A\narc A <-> Q\n",
     "line 5: unknown variable 'Q' in arc A<->Q"),
], ids=["shape-first", "variables-next", "edges-before-arcs",
        "edge-by-edge", "cycle-last"])
def test_graph_file_with_two_errors_names_the_first_checked(text, where):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value).startswith(where)


@pytest.mark.parametrize("edits, where", [
    # a directive's shape is checked first, at every line
    ([("cpt A | : 1/2 1/2", "cpt A | : 1/2 1/3"), ("A=1 :", "A1 :")],
     "line 8: bad parent assignment token 'A1'"),
    # then a domain for an unknown variable, whatever its line
    ([("domain B 0 1", "domain B 0 0"), ("3/4 1/4", "3/4 1/4\ndomain Q 0 1")],
     "line 9: unknown variable 'Q'"),
    # then every domain, in var order, before any row
    ([("domain B 0 1\n", ""), ("cpt A | : 1/2 1/2", "cpt A | : 1/2 1/3"),
      ("3/4 1/4", "3/4 1/4\ndomain B 0 0")],
     "line 8: repeated value in domain of 'B'"),
    # then the mechanisms in var order, whatever the line order
    ([("cpt A | : 1/2 1/2\ncpt B | A=0 : 1/3 2/3",
       "cpt B | A=0 : 1/3 1/3\ncpt A | : 1/2 1/3")],
     "line 7: row () for 'A' sums to 5/6, not 1"),
    # a row for no parent assignment before a missing row
    ([("A=1 :", "A=2 :")], "line 8: mechanism for 'B' has a row for ('2',)"),
    # then the rows in parent-assignment order
    ([("cpt B | A=0 : 1/3 2/3\ncpt B | A=1 : 3/4 1/4",
       "cpt B | A=1 : 3/4 3/4\ncpt B | A=0 : 1/3 1/3")],
     "line 8: row ('0',) for 'B' sums to 2/3, not 1"),
], ids=["shape-first", "unknown-domain-next", "domains-before-rows",
        "mechanisms-in-var-order", "surplus-before-missing",
        "rows-in-assignment-order"])
def test_model_file_with_two_errors_names_the_first_checked(edits, where):
    text = TWO_NODE
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    with pytest.raises(ParseError) as info:
        parse_model(text)
    assert str(info.value).startswith(where)


def test_edges_may_precede_their_variables():
    g = parse_graph("edge A -> B\narc A <-> B\nvar A\nvar B\n")
    assert g.has_edge("A", "B") and g.latent_names == {"U_A_B"}


def test_negative_cpt_entry_names_its_line():
    text = ("var A\nvar B\nedge A -> B\ndomain A 0 1\ndomain B 0 1\n"
            "cpt A | : 1/2 1/2\ncpt B | A=0 : 3/2 -1/2\n"
            "cpt B | A=1 : 1/2 1/2\n")
    with pytest.raises(ParseError, match="line 7: negative probability"):
        parse_model(text)


def test_missing_domain_names_the_variables_line():
    # reported at B's var line; an arc's latent at the arc's line
    text = "var A\nvar B\ndomain A 0 1\ncpt A | : 1/2 1/2\n"
    with pytest.raises(ParseError) as info:
        parse_model(text)
    assert str(info.value) == "line 2: no domain declared for 'B'"
    arc = "var A\nvar B\ndomain A 0 1\ndomain B 0 1\narc A <-> B\n"
    with pytest.raises(ParseError) as info:
        parse_model(arc)
    assert str(info.value) == "line 5: no domain declared for 'U_A_B'"


def test_missing_cpt_row_names_the_variables_line():
    text = ("var A\nedge A -> B\ndomain A 0 1\ndomain B 0 1\n"
            "cpt A | : 1/2 1/2\ncpt B | A=0 : 1 0\nvar B\n")
    with pytest.raises(ParseError) as info:
        parse_model(text)
    assert str(info.value) == ("line 7: mechanism for 'B' has no row for "
                               "parent assignment ('1',)")


def test_model_graph_lines_anywhere():
    compact = ("var A\nvar B\nedge A -> B\ndomain A 0 1\ndomain B 0 1\n"
               "cpt A | : 1/2 1/2\ncpt B | A=0 : 1/3 2/3\n"
               "cpt B | A=1 : 3/4 1/4\n")
    m, want = parse_model(SPREAD_MODEL), parse_model(compact)
    assert m.graph == want.graph
    assert model_to_dsl(m) == model_to_dsl(want)
    assert m.joint() == want.joint()

