import random
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalid import (CausalGraph, Dataset, DiscreteModel, GraphError,
                      JointDistribution, Mechanism, ModelError,
                      PositivityError, ScaleError, StructuralEquationSpec,
                      compile_mechanism, dependence_gap, fit, graft_coin,
                      independent, random_model)
from causalid import scm
from causalid.dsl import parse_model
from conftest import binary_confounder_model, random_dag

DEMO = Path(__file__).resolve().parent.parent / "demo"


def fair_coin(name="X"):
    g = CausalGraph([name])
    return DiscreteModel.from_tables(
        g, {name: (0, 1)}, {name: {(): (F(1, 2), F(1, 2))}})


# -- structural equations compile to tables ---------------------------------

def test_compile_identity_copy():
    spec = StructuralEquationSpec(
        child="B", parents=("A",), parent_domains=((0, 1),),
        noise={0: F(1)}, f=lambda pa, eps: pa[0])
    mech = compile_mechanism(spec, (0, 1))
    assert mech.table == {(0,): (F(1), F(0)), (1,): (F(0), F(1))}


def test_compile_xor_fair_noise_is_uniform():
    spec = StructuralEquationSpec(
        child="B", parents=("A",), parent_domains=((0, 1),),
        noise={0: F(1, 2), 1: F(1, 2)}, f=lambda pa, eps: pa[0] ^ eps)
    mech = compile_mechanism(spec, (0, 1))
    assert all(row == (F(1, 2), F(1, 2)) for row in mech.table.values())


def test_compile_no_parents_copies_noise():
    spec = StructuralEquationSpec(
        child="A", parents=(), parent_domains=(),
        noise={0: F(1, 3), 1: F(2, 3)}, f=lambda pa, eps: eps)
    mech = compile_mechanism(spec, (0, 1))
    assert mech.table == {(): (F(1, 3), F(2, 3))}


def test_compile_rejects_partial_map():
    spec = StructuralEquationSpec(
        child="B", parents=("A",), parent_domains=((0, 1),),
        noise={0: F(1)}, f=lambda pa, eps: None if pa[0] else 0)
    with pytest.raises(ModelError, match="not total"):
        compile_mechanism(spec, (0, 1))
    bad = StructuralEquationSpec(
        child="B", parents=(), parent_domains=(),
        noise={0: F(1)}, f=lambda pa, eps: 7)
    with pytest.raises(ModelError, match="outside the child domain"):
        compile_mechanism(bad, (0, 1))


# -- joints -------------------------------------------------------------------

def test_joint_fair_coin():
    j = fair_coin().joint()
    assert j.probs == {(0,): F(1, 2), (1,): F(1, 2)}


def test_joint_independent_pair():
    g = CausalGraph(["A", "B"])
    m = DiscreteModel.from_tables(
        g, {"A": (0, 1), "B": (0, 1)},
        {"A": {(): (F(1, 2), F(1, 2))}, "B": {(): (F(1, 2), F(1, 2))}})
    assert all(p == F(1, 4) for p in m.joint().probs.values())


def test_loyalty_model_joint_matches_bruteforce():
    g = CausalGraph([("U", True), "Z", "X", "Y"],
                    [("U", "Z"), ("Z", "X"), ("X", "Y"), ("U", "Y")])
    m = DiscreteModel.from_tables(
        g, {n: (0, 1) for n in g.names},
        {"U": {(): (F(2, 5), F(3, 5))},
         "Z": {(0,): (F(1, 4), F(3, 4)), (1,): (F(4, 5), F(1, 5))},
         "X": {(0,): (F(1, 2), F(1, 2)), (1,): (F(1, 6), F(5, 6))},
         # parent order (U, X)
         "Y": {(0, 0): (F(3, 7), F(4, 7)), (0, 1): (F(1, 3), F(2, 3)),
               (1, 0): (F(1, 8), F(7, 8)), (1, 1): (F(5, 9), F(4, 9))}})
    j = m.joint()
    for u, z, x, y in product((0, 1), repeat=4):
        a = {"U": u, "Z": z, "X": x, "Y": y}
        want = (m.prob_given_parents("U", u, a)
                * m.prob_given_parents("Z", z, a)
                * m.prob_given_parents("X", x, a)
                * m.prob_given_parents("Y", y, a))
        assert j.probs.get((u, z, x, y), F(0)) == want


def test_joint_matches_bruteforce_enumeration():
    m = random_model(random_dag(random.Random(4), 4, 0.6),
                     random.Random(4), cards=(2, 3))
    j = m.joint()
    for cell in product(*[m.domains[n] for n in m.graph.names]):
        a = dict(zip(m.graph.names, cell))
        want = F(1)
        for n in m.graph.names:
            want *= m.prob_given_parents(n, a[n], a)
        assert j.probs.get(cell, F(0)) == want
    assert j.total() == 1


# -- marginals and conditionals -----------------------------------------------

def test_marginal_identity_and_point_mass(confounder_model):
    j = confounder_model.joint()
    assert j.marginal(("Z", "X", "Y")) == j
    point = j.conditional(("Y",), {"Z": 0, "X": 1, "Y": 1})
    assert point.probs == {(): F(1)}  # conditioning consumed every variable
    cond = j.conditional(("Y",), {"Z": 0, "X": 1})
    assert cond.p({"Y": 1}) == F(1, 2)


def test_fork_conditional_factorizes():
    g = CausalGraph(["Z", "X", "Y"], [("Z", "X"), ("Z", "Y")])
    m = random_model(g, random.Random(9))
    j = m.joint()
    for z in m.domains["Z"]:
        cond = j.conditional(("X", "Y"), {"Z": z})
        for x in m.domains["X"]:
            for y in m.domains["Y"]:
                assert cond.p({"X": x, "Y": y}) == \
                    cond.p({"X": x}) * cond.p({"Y": y})


def test_conditional_positivity_error():
    g = CausalGraph(["A", "B"], [("A", "B")])
    m = DiscreteModel.from_tables(
        g, {"A": (0, 1), "B": (0, 1)},
        {"A": {(): (F(1), F(0))},
         "B": {(0,): (F(1, 2), F(1, 2)), (1,): (F(1), F(0))}})
    with pytest.raises(PositivityError, match="A=1"):
        m.joint().conditional(("B",), {"A": 1})


def test_independent_cases(collider):
    g = CausalGraph(["A", "B"])
    m = DiscreteModel.from_tables(
        g, {"A": (0, 1), "B": (0, 1)},
        {"A": {(): (F(1, 3), F(2, 3))}, "B": {(): (F(1, 4), F(3, 4))}})
    assert independent(m.joint(), {"A"}, {"B"})

    gc = CausalGraph(["A", "B"], [("A", "B")])
    mc = DiscreteModel.from_tables(
        gc, {"A": (0, 1), "B": (0, 1)},
        {"A": {(): (F(1, 2), F(1, 2))},
         "B": {(0,): (F(1), F(0)), (1,): (F(0), F(1))}})
    assert not independent(mc.joint(), {"A"}, {"B"})

    # XOR collider: marginally independent, dependent given the collider
    xor = DiscreteModel.from_tables(
        collider, {"X": (0, 1), "Y": (0, 1), "Z": (0, 1)},
        {"X": {(): (F(1, 2), F(1, 2))},
         "Y": {(): (F(1, 2), F(1, 2))},
         "Z": {(x, y): (F(1 - (x ^ y)), F(x ^ y))
               for x in (0, 1) for y in (0, 1)}})
    j = xor.joint()
    assert independent(j, {"X"}, {"Y"})
    assert not independent(j, {"X"}, {"Y"}, {"Z"})


def test_dependence_gap_pairs_each_z_value_with_its_variable():
    # Y copies X only when A = 2, so X and Y are dependent given A and
    # B in whatever order Z lists them
    g = CausalGraph(["A", "B", "X", "Y"],
                    [("A", "X"), ("B", "X"), ("A", "Y"), ("X", "Y")])
    half = (F(1, 2), F(1, 2))
    m = DiscreteModel.from_tables(
        g, {"A": (0, 1, 2), "B": (0, 1), "X": (0, 1), "Y": (0, 1)},
        {"A": {(): (F(1, 3),) * 3},
         "B": {(): half},
         "X": {(a, b): half for a in range(3) for b in (0, 1)},
         "Y": {(a, x): (F(x == 0), F(x == 1)) if a == 2 else half
               for a in range(3) for x in (0, 1)}})
    j = m.joint()
    for zs in (("A", "B"), ("B", "A"), iter(["B", "A"])):
        assert dependence_gap(j, {"X"}, {"Y"}, zs) == F(1, 4)
    assert not independent(j, {"X"}, {"Y"}, ("B", "A"))
    assert dependence_gap(j, ("Y",), ("X",), ("B",)) == F(1, 12)


# -- interventions --------------------------------------------------------------

def test_truncated_parentless_equals_conditional():
    m = binary_confounder_model()
    t = m.truncated("Z", 1)
    c = m.joint().conditional(("Z", "X", "Y"), {"Z": 1})
    for cell, pr in t.probs.items():
        a = dict(zip(t.variables, cell))
        assert pr == c.p({k: v for k, v in a.items() if k != "Z"}) * 1
    assert t.marginal(("X", "Y")) == \
        m.joint().conditional(("X", "Y"), {"Z": 1})


def test_intervening_on_sink_preserves_rest():
    m = binary_confounder_model()
    before = m.joint().marginal(("Z", "X"))
    after = m.truncated("Y", 1).marginal(("Z", "X"))
    assert before == after


def test_truncated_equals_surgery(confounder_model):
    assert confounder_model.truncated("X", 1) == \
        confounder_model.intervene({"X": 1}).joint()


def test_truncated_equals_surgery_frontdoor(frontdoor_graph):
    m = random_model(frontdoor_graph, random.Random(2), cards=(2, 3))
    for v in ("X", "Z"):
        for val in m.domains[v]:
            assert m.truncated(v, val) == m.intervene({v: val}).joint()


def test_intervene_last_write_wins(confounder_model):
    twice = confounder_model.intervene({"X": 0}).intervene({"X": 1})
    assert twice.joint() == confounder_model.intervene({"X": 1}).joint()
    assert confounder_model.intervene({}) is confounder_model


def test_intervene_reuses_validated_rows(monkeypatch, confounder_model):
    # the surgered model checks no row again, yet equals the model the
    # validating constructor builds from the same parts
    import causalid.scm as scm
    checked = []
    check_row = scm._check_row

    def counting_check(name, pa, row, size):
        checked.append((name, pa))
        return check_row(name, pa, row, size)

    monkeypatch.setattr(scm, "_check_row", counting_check)
    m = confounder_model.intervene({"X": 1, "Z": 0})
    assert checked == []
    ref = DiscreteModel(m.graph, m.domains, m.mechanisms)
    assert checked
    assert m.graph.parents("X") == frozenset()
    assert m.mechanisms["X"].table == {(): (0, 1)}
    assert m.joint() == ref.joint()
    assert m.do_marginal({}, ["Y"]) == confounder_model.do_marginal(
        {"X": 1, "Z": 0}, ["Y"])
    with pytest.raises(GraphError, match="'Q'"):
        confounder_model.intervene({"Q": 0})
    with pytest.raises(ModelError, match="not in domain"):
        confounder_model.intervene({"X": 2})


def test_intervened_model_has_every_attribute(confounder_model):
    # a surgered model has the attributes of a built model, equal to
    # those of the same model built through the constructor, and not the
    # joint its parent may have cached
    before = confounder_model.joint()
    m = confounder_model.intervene({"X": 1})
    assert vars(m).keys() == vars(confounder_model).keys()
    assert vars(m) == vars(DiscreteModel(m.graph, m.domains, m.mechanisms))
    assert m.joint() == confounder_model.truncated("X", 1) != before
    assert confounder_model.joint() is before


def test_truncated_handles_zero_rows():
    # the deterministic mechanism has zero-probability rows; the product
    # form must not divide by them
    g = CausalGraph(["A", "B"], [("A", "B")])
    m = DiscreteModel.from_tables(
        g, {"A": (0, 1), "B": (0, 1)},
        {"A": {(): (F(1), F(0))},
         "B": {(0,): (F(1), F(0)), (1,): (F(1), F(0))}})
    t = m.truncated("A", 1)
    assert t.p({"A": 1}) == 1
    assert t == m.intervene({"A": 1}).joint()


def test_do_marginal_two_node():
    g = CausalGraph(["X", "Y"], [("X", "Y")])
    m = random_model(g, random.Random(8))
    for x in m.domains["X"]:
        got = m.do_marginal({"X": x}, ("Y",))
        want = m.joint().conditional(("Y",), {"X": x})
        assert all(got.p({"Y": y}) == want.p({"Y": y})
                   for y in m.domains["Y"])


def test_randomized_trial_truncation_equals_conditioning():
    # a coin as the only parent of the treatment makes intervening and
    # observing coincide, on the truncated route as well
    g = CausalGraph(["C", "X", "Z1", "Z2", "Y"],
                    [("C", "X"), ("X", "Y"), ("Z1", "Y"), ("Z2", "Y")])
    m = random_model(g, random.Random(31))
    j = m.joint()
    for xv in m.domains["X"]:
        got = m.truncated("X", xv).marginal(("Y",))
        want = j.conditional(("Y",), {"X": xv})
        for yv in m.domains["Y"]:
            assert got.p({"Y": yv}) / got.total() == want.p({"Y": yv})


def test_do_marginal_equals_direct_cause_adjustment():
    # identity over the model itself, so latent parents are fine
    rng = random.Random(21)
    done = 0
    while done < 60:
        g = random_dag(rng, n=rng.randint(3, 5), p=0.5, latent=0.3)
        m = random_model(g, rng)
        j = m.joint()
        x = rng.choice(g.names)
        pa = m.graph.ordered(m.graph.parents(x))
        others = [n for n in g.names if n != x and n not in pa]
        if not others:
            continue
        y = others[0]
        for xv in m.domains[x]:
            for yv in m.domains[y]:
                adj = F(0)
                for pav in product(*[m.domains[p] for p in pa]):
                    pa_assign = dict(zip(pa, pav))
                    adj += j.p(pa_assign) * \
                        j.conditional((y,), {**pa_assign, x: xv}).p({y: yv})
                assert m.do_marginal({x: xv}, (y,)).p({y: yv}) == adj
        done += 1


def test_worked_confounder_value(confounder_model):
    assert confounder_model.do_marginal({"X": 1}, ("Y",)).p({"Y": 1}) \
        == F(7, 10)


# -- sampling and fitting --------------------------------------------------------

def test_sample_deterministic_and_csv_round_trip():
    m = binary_confounder_model()
    d1 = m.sample(seed=42, n=50)
    d2 = m.sample(seed=42, n=50)
    assert d1 == d2
    assert Dataset.from_csv(d1.to_csv()).rows == \
        tuple(tuple(str(v) for v in r) for r in d1.rows)


def test_sample_frequency_close_to_half():
    m = fair_coin()
    n = 4000
    d = m.sample(seed=1, n=n)
    ones = sum(r[0] == 1 for r in d.rows)
    # 3 sigma binomial bound around n/2
    assert abs(ones - n / 2) <= 3 * (n ** 0.5) / 2


def test_fit_converges_in_total_variation():
    m = binary_confounder_model()
    exact = m.joint()
    tvs = []
    for n in (100, 1000, 10000):
        d = m.sample(seed=5, n=n)
        emp = fit(m.graph.names, m.domains, d)
        tvs.append(exact.total_variation(emp))
    assert tvs[0] >= tvs[1] >= tvs[2]


def test_fit_exact_frequencies():
    m = fair_coin("A")
    d = m.sample(seed=3, n=8)
    emp = fit(("A",), {"A": (0, 1)}, d)
    assert emp.total() == 1
    assert all(p.denominator <= 8 for p in emp.probs.values())


def test_fit_names_a_missing_column():
    d = Dataset(("A",), (("0",), ("1",)))
    with pytest.raises(ModelError, match="dataset has no column 'B'"):
        fit(("A", "B"), {"A": ("0", "1"), "B": ("0", "1")}, d)


def test_fit_names_a_value_outside_the_domain():
    d = Dataset(("A",), (("0",), ("2",), ("0",)))
    with pytest.raises(ModelError,
                       match=r"value '2' of 'A' in dataset row 2 is outside"):
        fit(("A",), {"A": ("0", "1")}, d)


def test_fit_refuses_a_dataset_without_rows():
    # a header alone has no frequencies to take, and says so up front
    d = Dataset.from_csv("A,B\n")
    assert d.rows == ()
    with pytest.raises(ModelError) as info:
        fit(("A", "B"), {"A": ("0", "1"), "B": ("0", "1")}, d)
    assert str(info.value) == "dataset has no rows"


def test_from_csv_names_a_short_row():
    assert Dataset.from_csv("A,B\n0,1\n").rows == (("0", "1"),)
    with pytest.raises(ModelError,
                       match="CSV line 3 has 1 value.* header's 2 columns"):
        Dataset.from_csv("A,B\n0,1\n1\n0,0\n")
    with pytest.raises(ModelError, match="empty dataset"):
        Dataset.from_csv("")


# -- randomized-trial grafting ----------------------------------------------------

def test_graft_coin_makes_do_equal_see():
    rng = random.Random(17)
    for _ in range(10):
        g = random_dag(rng, n=4, p=0.5)
        m = random_model(g, rng)
        x = rng.choice(g.names)
        ys = [n for n in g.names if n != x]
        y = rng.choice(ys)
        rm = graft_coin(m, x)
        assert rm.graph.parents(x) == {"C"}
        j = rm.joint()
        for xv in rm.domains[x]:
            want = j.conditional((y,), {x: xv})
            got = rm.do_marginal({x: xv}, (y,))
            for yv in rm.domains[y]:
                assert got.p({y: yv}) == want.p({y: yv})


def test_graft_coin_leaves_names_to_the_graph(confounder_model):
    with pytest.raises(GraphError, match="unknown variable 'Q'"):
        graft_coin(confounder_model, "Q")
    with pytest.raises(GraphError, match="duplicate variable 'Z'"):
        graft_coin(confounder_model, "X", coin="Z")


# -- exactness and guards ---------------------------------------------------------

def test_rational_mode_exact_normalization():
    for seed in range(5):
        m = random_model(random_dag(random.Random(seed), 5, 0.4),
                         random.Random(seed), cards=(2, 3))
        assert m.joint().total() == 1


def test_cell_budget_guard():
    g = CausalGraph([f"N{i}" for i in range(21)])
    mechs = {n: {(): (F(1, 2), F(1, 2))} for n in g.names}
    m = DiscreteModel.from_tables(
        g, {n: (0, 1) for n in g.names}, mechs)
    with pytest.raises(ScaleError, match="budget"):
        m.joint()


def test_mechanism_validation():
    g = CausalGraph(["A", "B"], [("A", "B")])
    with pytest.raises(ModelError, match="do not match graph parents"):
        DiscreteModel(g, {"A": (0, 1), "B": (0, 1)},
                      {"A": Mechanism("A", (), {(): (F(1, 2), F(1, 2))}),
                       "B": Mechanism("B", (), {(): (F(1, 2), F(1, 2))})})
    with pytest.raises(ModelError, match="sum"):
        DiscreteModel.from_tables(
            g, {"A": (0, 1), "B": (0, 1)},
            {"A": {(): (F(1, 2), F(1, 3))},
             "B": {(0,): (F(1), F(0)), (1,): (F(1), F(0))}})


@pytest.mark.parametrize("keys, message", [
    ((0,), r"mechanism for 'B' has no row for parent assignment \(1,\)$"),
    ((0, 1, 2), r"mechanism for 'B' has a row for \(2,\), which is no "
                r"assignment of its parents \('A',\)$"),
    # a row for no assignment is refused before a missing row
    ((0, 2), r"mechanism for 'B' has a row for \(2,\), which is no "
             r"assignment of its parents \('A',\)$"),
], ids=["missing", "surplus", "surplus-and-missing"])
def test_rows_must_be_keyed_by_the_parent_assignments(keys, message):
    # refused when the model is built, not when its joint is first asked for
    g = CausalGraph(["A", "B"], [("A", "B")])
    with pytest.raises(ModelError, match=message):
        DiscreteModel.from_tables(
            g, {"A": (0, 1), "B": (0, 1)},
            {"A": {(): (F(1, 2), F(1, 2))},
             "B": {k: (F(1, 2), F(1, 2)) for k in keys}})


def test_from_tables_refuses_a_float_row():
    g = CausalGraph(["A"])
    with pytest.raises(ModelError, match=r"row \(\) for 'A' sums to "):
        DiscreteModel.from_tables(g, {"A": (0, 1)}, {"A": {(): (0.1, 0.9)}})


def test_constructor_stores_exact_rows():
    # a float row that sums to exactly 1 in binary is kept as Fractions
    m = DiscreteModel(CausalGraph(["A"]), {"A": (0, 1)},
                      {"A": Mechanism("A", (), {(): (0.25, 0.75)})})
    assert m.mechanisms["A"].table == {(): (F(1, 4), F(3, 4))}
    probs = m.joint().probs
    assert probs == {(0,): F(1, 4), (1,): F(3, 4)}
    assert all(type(v) is F for v in probs.values())


def test_from_tables_checks_each_row_once(monkeypatch):
    calls = []
    check_row = scm._check_row

    def counting_check_row(name, pa, probs, size):
        calls.append((name, pa))
        return check_row(name, pa, probs, size)

    monkeypatch.setattr(scm, "_check_row", counting_check_row)
    g = CausalGraph(["A", "B"], [("A", "B")])
    DiscreteModel.from_tables(
        g, {"A": (0, 1), "B": (0, 1)},
        {"A": {(): (F(1, 2), F(1, 2))},
         "B": {0: (F(1, 3), F(2, 3)), 1: (F(1), F(0))}})
    assert calls == [("A", ()), ("B", (0,)), ("B", (1,))]


def test_missing_domain_is_model_error():
    g = CausalGraph(["A", "B"], [("A", "B")])
    with pytest.raises(ModelError, match="no domain"):
        DiscreteModel(g, {"A": (0, 1)}, {})


_HALF = (F(1, 2), F(1, 2))
_AB_DOMAINS = {"A": (0, 1), "B": (0, 1)}
_AB_TABLES = {"A": {(): _HALF}, "B": {(0,): _HALF, (1,): _HALF}}


def _ab_model(domains=(), tables=(), mechanisms=()):
    """The model A -> B with entries of its domains and tables replaced
    (None drops one) and extra mechanisms given as they are."""
    g = CausalGraph(["A", "B"], [("A", "B")])
    doms = {n: d for n, d in {**_AB_DOMAINS, **dict(domains)}.items()
            if d is not None}
    mechs = {n: Mechanism(n, g.ordered(g.parents(n)), t)
             for n, t in {**_AB_TABLES, **dict(tables)}.items()
             if t is not None}
    return DiscreteModel(g, doms, {**mechs, **dict(mechanisms)})


@pytest.mark.parametrize("parts, at, message", [
    ({"domains": {"Q": (0, 1)}}, ("domain", "Q"), "unknown variable 'Q'"),
    ({"mechanisms": {"Q": Mechanism("Q", (), {(): _HALF})}},
     ("mechanism", "Q"), "unknown variable 'Q'"),
    ({"domains": {"B": None}}, ("var", "B"), "no domain declared for 'B'"),
    ({"domains": {"A": (0,)}}, ("domain", "A"),
     "domain of 'A' needs at least 2 values"),
    ({"domains": {"A": (0, 0)}}, ("domain", "A"),
     "repeated value in domain of 'A'"),
    ({"tables": {"B": None}}, ("var", "B"), "no mechanism declared for 'B'"),
    ({"mechanisms": {"A": Mechanism("B", ("A",), _AB_TABLES["B"]),
                     "B": Mechanism("A", (), _AB_TABLES["A"])}},
     ("mechanism", "A"), "mechanism for 'B' is declared for 'A'"),
    ({"mechanisms": {"B": Mechanism("B", (), {(): _HALF})}}, ("var", "B"),
     "mechanism parents [] for 'B' do not match graph parents ['A']"),
    ({"tables": {"B": {(0,): _HALF, (1,): _HALF, (2,): _HALF}}},
     ("row", "B", (2,)), "mechanism for 'B' has a row for (2,), which is "
     "no assignment of its parents ('A',)"),
    ({"tables": {"B": {(0,): _HALF}}}, ("var", "B"),
     "mechanism for 'B' has no row for parent assignment (1,)"),
    ({"tables": {"B": {(0,): _HALF, (1,): (1,)}}}, ("row", "B", (1,)),
     "row (1,) for 'B' has 1 probabilities, domain has 2 values"),
    ({"tables": {"A": {(): (F(1, 2), F(1, 3))}}}, ("row", "A", ()),
     "row () for 'A' sums to 5/6, not 1"),
    ({"tables": {"A": {(): (F(3, 2), F(-1, 2))}}}, ("row", "A", ()),
     "negative probability in row () for 'A'"),
], ids=["unknown-domain", "unknown-mechanism", "missing-domain",
        "short-domain", "repeated-value", "missing-mechanism",
        "other-child", "other-parents", "surplus-row", "missing-row",
        "row-length", "row-sum", "row-sign"])
def test_constructor_refusals_name_their_input(parts, at, message):
    with pytest.raises(ModelError) as info:
        _ab_model(**parts)
    assert str(info.value) == message
    assert info.value.at == at


def test_from_tables_leaves_unknown_names_to_the_constructor():
    g = CausalGraph(["A", "B"], [("A", "B")])
    with pytest.raises(ModelError) as info:
        DiscreteModel.from_tables(g, _AB_DOMAINS,
                                  {**_AB_TABLES, "Q": {(): _HALF}})
    assert info.value.at == ("mechanism", "Q")


@pytest.mark.parametrize("parts, at", [
    # an unknown name first, the domain before the mechanism
    ({"domains": {"A": (0,), "Q": (0, 1)},
      "mechanisms": {"R": Mechanism("R", (), {(): _HALF})}}, ("domain", "Q")),
    ({"domains": {"B": (0,)},
      "mechanisms": {"R": Mechanism("R", (), {(): _HALF})}},
     ("mechanism", "R")),
    # then every domain, in declaration order, before any mechanism
    ({"domains": {"A": (0, 0), "B": (0,)}}, ("domain", "A")),
    ({"domains": {"B": (0,)}, "tables": {"A": {(): (1,)}}}, ("domain", "B")),
    # then the mechanisms in declaration order
    ({"tables": {"A": {(): (1,)}, "B": None}}, ("row", "A", ())),
    # a row for no assignment before a missing row, then the rows in
    # parent-assignment order
    ({"tables": {"B": {(0,): (1,), (2,): _HALF}}}, ("row", "B", (2,))),
    ({"tables": {"B": {(1,): (1,), (0,): (2, -1)}}}, ("row", "B", (0,))),
], ids=["unknown-domain-first", "unknown-mechanism-next", "domains-in-order",
        "domains-before-mechanisms", "mechanisms-in-order",
        "surplus-before-missing", "rows-in-assignment-order"])
def test_constructor_checks_in_one_order(parts, at):
    with pytest.raises(ModelError) as info:
        _ab_model(**parts)
    assert info.value.at == at


# -- shared-prefix products and summed lookups ---------------------------------

def _model_with_zeros(rng: random.Random) -> DiscreteModel:
    """Random model with latents, cardinalities 2-3 and rows holding exact
    zeros; ``random_dag`` declares variables out of topological order."""
    g = random_dag(rng, n=rng.randint(1, 6), p=0.45, latent=0.3)
    domains = {n: tuple(range(rng.choice((2, 3)))) for n in g.names}
    tables = {}
    for n in g.names:
        ps = g.ordered(g.parents(n))
        rows = {}
        for pa in product(*[domains[p] for p in ps]):
            w = [rng.choice((0, 0, 1, 2, 5)) for _ in domains[n]]
            if not any(w):
                w[rng.randrange(len(w))] = 1
            rows[pa] = tuple(F(x, sum(w)) for x in w)
        tables[n] = rows
    return DiscreteModel.from_tables(g, domains, tables)


def _per_cell_product(m: DiscreteModel, target=None, value=None) -> dict:
    """The exhaustive per-cell loop: every full assignment, every factor
    looked up again, zero cells dropped."""
    names = m.graph.names
    probs = {}
    for cell in product(*[m.domains[n] for n in names]):
        a = dict(zip(names, cell))
        if target is not None and a[target] != value:
            continue
        pr = 1
        for n in names:
            if n == target:
                continue
            pr = pr * m.prob_given_parents(n, a[n], a)
            if pr == 0:
                break
        if pr:
            probs[cell] = pr
    return probs


@given(st.integers(0, 10 ** 6))
def test_joint_and_truncated_equal_per_cell_product(seed):
    rng = random.Random(seed)
    m = _model_with_zeros(rng)
    assert m.joint().probs == _per_cell_product(m)
    t = rng.choice(m.graph.names)
    for v in m.domains[t]:
        assert m.truncated(t, v).probs == _per_cell_product(m, t, v)


@given(st.integers(0, 10 ** 6))
def test_random_model_tables_equal_per_cell_product(seed):
    # the oracle's tables: each cell, read as weight / denominator, is the
    # product of the model's conditional entries
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(1, 6), p=0.45, latent=0.3)
    m = random_model(g, rng, cards=(2, 3))
    j = m.joint()
    assert j.probs == _per_cell_product(m)
    assert sum(j.weights.values()) == j.denominator
    t = rng.choice(g.names)
    v = rng.choice(m.domains[t])
    assert m.truncated(t, v).probs == _per_cell_product(m, t, v)


@given(st.integers(0, 10 ** 6))
def test_p_equals_scan_over_cells(seed):
    rng = random.Random(seed)
    j = _model_with_zeros(rng).joint()
    assert j.p({}) == 1
    for _ in range(12):
        names = rng.sample(j.variables, rng.randint(0, len(j.variables)))
        a = {n: rng.choice(j.domains[j.variables.index(n)]) for n in names}
        want = sum((pr for cell, pr in j.probs.items()
                    if all(cell[j.variables.index(n)] == v
                           for n, v in a.items())), F(0))
        assert j.p(a) == want
        assert j.p(dict(reversed(list(a.items())))) == want
        assert j.p(a) == want
    with pytest.raises(GraphError, match="unknown variable"):
        j.p({"Nope": 0})


def test_joint_table_refuses_a_negative_entry():
    with pytest.raises(ModelError) as info:
        JointDistribution(["A"], [(0, 1)], {(0,): F(3, 2), (1,): F(-1, 2)})
    assert str(info.value) == ("negative probability at cell (1,) of the "
                               "joint table")


def test_p_absent_cell_is_exact_zero():
    g = CausalGraph(["A"])
    m = DiscreteModel.from_tables(g, {"A": (0, 1)}, {"A": {(): (F(1), F(0))}})
    j = m.joint()
    assert j.probs == {(0,): F(1)}
    assert j.p({"A": 1}) == 0 and isinstance(j.p({"A": 1}), F)


class _CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.scans = 0

    def items(self):
        self.scans += 1
        return super().items()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_shared_prefixes_and_one_scan_per_variable_set(monkeypatch):
    # joint: 1 + 2 + 4 + 8 rows for U, X, Z, Y (the per-cell loop looks
    # up 16 cells x 4 factors = 64); truncated: X pinned, so 1 + 2 + 4
    # (the per-cell loop: 8 cells x 3 factors = 24)
    m = parse_model((DEMO / "frontdoor.model").read_text())
    lookups = []
    row = Mechanism.row

    def counting_row(self, parent_values):
        lookups.append(self.child)
        return row(self, parent_values)

    monkeypatch.setattr(Mechanism, "row", counting_row)
    j = m.joint()
    assert len(lookups) == 15
    lookups.clear()
    m.truncated("X", "1")
    assert len(lookups) == 7
    # a zero entry drops its prefix with every extension: B's row for
    # A=1 is never read
    z = DiscreteModel.from_tables(
        CausalGraph(["B", "A"], [("A", "B")]), {"A": (0, 1), "B": (0, 1)},
        {"A": {(): (F(1), F(0))},
         "B": {(0,): (F(1, 2), F(1, 2)), (1,): (F(1, 3), F(2, 3))}})
    lookups.clear()
    assert z.joint().probs == {(0, 0): F(1, 2), (1, 0): F(1, 2)}
    assert lookups == ["A", "B"]
    j.weights = _CountingDict(j.weights)
    for a in ({"Y": "1"}, {"Y": "0"}, {"X": "1", "Y": "0"},
              {"Y": "1", "X": "0"}, {"X": "0", "Y": "1"}, {}, {}):
        j.p(a)
    assert j.weights.scans == 3


def test_marginal_reads_a_one_shot_iterator():
    j = binary_confounder_model().joint()
    assert j.marginal(iter(["Z", "Y"])).variables == ("Z", "Y")
    assert j.conditional(iter(["X", "Y"]), {"Z": 0}).variables == ("X", "Y")


def test_marginal_and_conditional_reject_unknown_names():
    m = binary_confounder_model()
    j = m.joint()
    with pytest.raises(GraphError, match="'Nope'"):
        j.marginal(["Y", "Nope"])
    with pytest.raises(GraphError, match="'Nope'"):
        j.conditional(["Nope"], {"Z": 0})
    with pytest.raises(GraphError, match="'Nope'"):
        m.do_marginal({"X": 0}, ["Nope"])


def test_total_variation_needs_same_variables():
    j = binary_confounder_model().joint()
    assert j.total_variation(j) == 0
    with pytest.raises(GraphError, match="same variables"):
        j.total_variation(j.marginal(["X", "Y"]))


@pytest.mark.parametrize("seed", range(6))
def test_marginal_equals_brute_force_sum(seed):
    # random sparse tables over 4 variables, exact and float entries; a
    # float is read exactly, as Fraction(float), so its sums are exact
    rng = random.Random(seed)
    names = ["A", "B", "C", "D"]
    doms = [tuple(range(rng.randint(2, 3))) for _ in names]
    cells = [c for c in product(*doms) if rng.random() < 0.7]
    weights = [rng.randint(1, 9) for _ in cells]
    exact = {c: F(w, sum(weights)) for c, w in zip(cells, weights)}
    floats = {c: float(p) for c, p in exact.items()}
    for probs in (exact, floats):
        j = JointDistribution(names, doms, probs, _validate=False)
        for r in range(len(names) + 1):
            for keep in combinations(names, r):
                pos = [names.index(n) for n in keep]
                want = {}
                for cell, pr in probs.items():
                    k = tuple(cell[i] for i in pos)
                    want[k] = want.get(k, 0) + F(pr)
                got = j.marginal(reversed(keep))
                assert got.variables == keep
                assert got.probs == want
                assert all(isinstance(v, F) for v in got.probs.values())


def test_p_and_marginal_share_one_scan():
    j = parse_model((DEMO / "frontdoor.model").read_text()).joint()
    j.weights = _CountingDict(j.weights)
    assert j.p({"Y": "1", "X": "0"}) == j.marginal(["X", "Y"]).p(
        {"X": "0", "Y": "1"})
    assert j.marginal(["Y", "X"]).probs == j.marginal(["X", "Y"]).probs
    assert j.weights.scans == 1


@st.composite
def sparse_tables(draw):
    """A sparse exact table over A..D, two with 2 values and two with 3,
    and its variable names in a shuffled order."""
    names = ("A", "B", "C", "D")
    doms = [tuple(range(n)) for n in draw(st.permutations((2, 2, 3, 3)))]
    cells = list(product(*doms))
    # weight 0 leaves a cell out of the table
    weights = draw(st.lists(st.integers(0, 9), min_size=len(cells),
                            max_size=len(cells)).filter(any))
    probs = {c: F(w, sum(weights)) for c, w in zip(cells, weights) if w}
    return JointDistribution(names, doms, probs), draw(st.permutations(names))


def _brute_p(j: JointDistribution, a: dict):
    return sum((pr for cell, pr in j.probs.items()
                if all(cell[j.variables.index(n)] == v
                       for n, v in a.items())), F(0))


def _brute_cells(j: JointDistribution, names) -> list[dict]:
    doms = [j.domains[j.variables.index(n)] for n in names]
    return [dict(zip(names, vals)) for vals in product(*doms)]


@given(sparse_tables())
def test_probs_rebuild_the_table(table):
    j, order = table
    assert JointDistribution(j.variables, j.domains, j.probs) == j
    nonzero = [c for c in product(*j.domains)
               if j.p(dict(zip(j.variables, c)))]
    assert len(j.probs) == len(nonzero)
    assert sorted(j.probs) == sorted(nonzero)
    # a marginal keeps its parent's denominator, a rebuilt table takes the
    # lcm of its entries' denominators; both hold the same probabilities
    m = j.marginal(order[:2])
    assert JointDistribution(m.variables, m.domains, m.probs) == m
    with pytest.raises(TypeError):
        j.probs[nonzero[0]] = F(0)


@given(sparse_tables(), st.data())
def test_conditional_equals_brute_force_sums(table, data):
    j, order = table
    k = data.draw(st.integers(0, len(order)))
    names, rest = order[:k], order[k:]
    given_names = rest[:data.draw(st.integers(0, len(rest)))]
    given = data.draw(st.sampled_from(_brute_cells(j, given_names)))
    norm = _brute_p(j, given)
    if norm == 0:
        with pytest.raises(PositivityError, match="probability zero"):
            j.conditional(names, given)
        return
    c = j.conditional(names, given)
    assert c.variables == tuple(n for n in j.variables if n in names)
    for a in _brute_cells(j, c.variables):
        assert c.p(a) == _brute_p(j, {**a, **given}) / norm


@given(sparse_tables(), st.data())
def test_dependence_gap_equals_brute_force_sums(table, data):
    j, order = table
    k = data.draw(st.integers(0, 2))
    i = data.draw(st.integers(k + 1, 3))
    zs, xs, ys = order[:k], order[k:i], order[i:]
    want = F(0)
    for z in _brute_cells(j, zs):
        pz = _brute_p(j, z)
        if pz == 0:
            continue
        for x in _brute_cells(j, xs):
            for y in _brute_cells(j, ys):
                lhs = _brute_p(j, {**x, **y, **z}) / pz
                rhs = (_brute_p(j, {**x, **z}) / pz
                       * _brute_p(j, {**y, **z}) / pz)
                want = max(want, abs(lhs - rhs))
    assert dependence_gap(j, xs, ys, zs) == want
    assert independent(j, xs, ys, zs) == (want == 0)
