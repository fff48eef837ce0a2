import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalid import (CausalGraph, GraphError, Path, ScaleError, Statement,
                      d_separated, d_separated_exhaustive, dependence_gap,
                      implied_independencies, observationally_equivalent,
                      path_blocked, pattern, random_model)
from causalid.dsep import connecting_path, equivalence_class

from conftest import disjoint_sets, random_dag


# -- per-path blocking ---------------------------------------------------

def test_fork_conditioned_blocks(blocked_fork_graph):
    p = Path.from_nodes(blocked_fork_graph, ["X", "A", "C", "Y"])
    assert path_blocked(blocked_fork_graph, p, {"C"})


def test_collider_with_observed_descendant_open(blocked_fork_graph):
    # conditioning on B, a descendant of the collider A, keeps the path
    # open; the fork C is unconditioned
    p = Path.from_nodes(blocked_fork_graph, ["X", "A", "C", "Y"])
    assert not path_blocked(blocked_fork_graph, p, {"B"})


def test_bare_collider_blocks(collider):
    p = Path.from_nodes(collider, ["X", "Z", "Y"])
    assert path_blocked(collider, p, set())


def test_endpoint_in_conditioning_set_rejected(chain):
    p = Path.from_nodes(chain, ["X", "Z", "Y"])
    with pytest.raises(GraphError, match="endpoint"):
        path_blocked(chain, p, {"X"})


# -- set-level separation --------------------------------------------------

def test_chain_separated(chain):
    assert d_separated(chain, {"X"}, {"Y"}, {"Z"})
    assert not d_separated(chain, {"X"}, {"Y"}, set())


def test_adjustment_example_separations():
    from causalid.catalog import get_entry
    g = get_entry("adjustment-example").graph
    cut = g.mutilate(cut_outgoing={"X"})
    assert d_separated(cut, {"X"}, {"Y"}, {"Z3", "Z4"})
    assert not d_separated(cut, {"X"}, {"Y"}, {"Z4"})


def test_frontdoor_z_vs_u(frontdoor_graph):
    assert d_separated(frontdoor_graph, {"Z"}, {"U"}, {"X"})


def test_collider_conditioning_flips_verdict(collider):
    assert d_separated(collider, {"X"}, {"Y"}, set())
    assert not d_separated(collider, {"X"}, {"Y"}, {"Z"})


def test_query_validation(chain):
    with pytest.raises(GraphError, match="disjoint"):
        d_separated(chain, {"X"}, {"X"}, set())
    with pytest.raises(GraphError, match="nonempty"):
        d_separated(chain, set(), {"Y"}, set())
    with pytest.raises(GraphError, match="'Q'"):
        d_separated(chain, {"X"}, {"Q"}, set())


def test_witness_path(collider, chain):
    assert connecting_path(chain, {"X"}, {"Y"}, {"Z"}) is None
    p = connecting_path(collider, {"X"}, {"Y"}, {"Z"})
    assert p.render() == "X -> Z <- Y"
    q = connecting_path(chain, {"X"}, {"Y"}, set())
    assert q.render() == "X -> Z -> Y"


@given(st.integers(0, 5000))
def test_witness_is_open_simple_path(seed):
    # the witness is the sweep's predecessor trail: a simple path (Path
    # rejects a repeated node) from X to Y that Z leaves open
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(3, 10), p=rng.uniform(0.2, 0.6),
                   latent=rng.choice((0.0, 0.3)))
    x, y, z = disjoint_sets(rng, g.names)
    p = connecting_path(g, x, y, z)
    if d_separated(g, x, y, z):
        assert p is None
        return
    assert p.nodes[0] in x and p.nodes[-1] in y
    assert not path_blocked(g, p, z)


@given(st.integers(0, 1500))
def test_reachability_matches_exhaustive(seed):
    rng = random.Random(seed)
    g = random_dag(rng, n=rng.randint(3, 8), p=rng.uniform(0.2, 0.6))
    x, y, z = disjoint_sets(rng, g.names)
    assert d_separated(g, x, y, z) == d_separated_exhaustive(g, x, y, z)


# -- implied independencies -------------------------------------------------

def test_implied_independencies_simple(chain, fork, collider):
    two = CausalGraph(["X", "Y"], [("X", "Y")])
    assert implied_independencies(two) == frozenset()
    assert implied_independencies(collider) == {Statement("X", "Y", ())}
    assert implied_independencies(fork) == {Statement("X", "Y", ("Z",))}
    assert implied_independencies(chain) == {Statement("X", "Y", ("Z",))}


def test_implied_independencies_observed_only():
    g = CausalGraph([("U", True), "A", "B"], [("U", "A"), ("U", "B")])
    assert implied_independencies(g, observed_only=True) == frozenset()
    assert Statement("A", "B", ("U",)) in implied_independencies(g)


def test_implied_independencies_guard():
    g = CausalGraph([f"N{i}" for i in range(17)])
    with pytest.raises(ScaleError):
        implied_independencies(g)


def test_statement_render():
    assert Statement("X", "Y", ("Z1", "Z2")).render() == "X _||_ Y | Z1,Z2"
    assert Statement("X", "Y", ()).render() == "X _||_ Y |"


# -- observational equivalence and patterns ----------------------------------

def test_equivalence_basic(chain, fork, collider):
    flipped = CausalGraph(["X", "Y"], [("Y", "X")])
    plain = CausalGraph(["X", "Y"], [("X", "Y")])
    assert observationally_equivalent(plain, flipped)
    assert observationally_equivalent(chain, fork)
    assert not observationally_equivalent(chain, collider)


def test_equivalence_requires_same_variables(chain):
    other = CausalGraph(["A", "B", "C"])
    with pytest.raises(GraphError):
        observationally_equivalent(chain, other)


def test_equivalence_is_equivalence_relation():
    rng = random.Random(5)
    graphs = [random_dag(random.Random(s), 4, 0.45) for s in range(12)]
    for g in graphs:
        assert observationally_equivalent(g, g)
    for a in graphs:
        for b in graphs:
            assert (observationally_equivalent(a, b)
                    == observationally_equivalent(b, a))
    for a in graphs:
        for b in graphs:
            for c in graphs:
                if (observationally_equivalent(a, b)
                        and observationally_equivalent(b, c)):
                    assert observationally_equivalent(a, c)
    del rng


def test_pattern_collider_fully_directed(collider):
    pat = pattern(collider)
    assert set(pat.directed) == {("X", "Z"), ("Y", "Z")}
    assert pat.undirected == ()


def test_pattern_chain_fully_undirected(chain):
    assert len(equivalence_class(chain)) == 3
    pat = pattern(chain)
    assert pat.directed == ()
    assert set(pat.undirected) == {("X", "Z"), ("Z", "Y")}


def test_pattern_single_edge():
    g = CausalGraph(["X", "Y"], [("X", "Y")])
    pat = pattern(g)
    assert pat.directed == () and pat.undirected == (("X", "Y"),)


def test_pattern_guard():
    g = CausalGraph([f"N{i}" for i in range(8)])
    with pytest.raises(ScaleError):
        pattern(g)


@given(st.integers(0, 200))
def test_pattern_invariant_across_class(seed):
    g = random_dag(random.Random(seed), 4, 0.5)
    for member in equivalence_class(g):
        assert observationally_equivalent(g, member)
        assert pattern(member) == pattern(g)


# -- bridge to the exact models ---------------------------------------------

def test_connected_pairs_show_dependence_with_resampling():
    # faithfulness holds for generic parameters; resample on threshold
    # failure since razor-thin dependence can occur for unlucky draws
    rng = random.Random(11)
    threshold = 1e-9
    for _ in range(20):
        g = random_dag(rng, n=4, p=0.5)
        for x in g.names:
            for y in g.names:
                if x == y or d_separated(g, {x}, {y}, set()):
                    continue
                ok = False
                for attempt in range(6):
                    m = random_model(g, random.Random(rng.randint(0, 10**6)))
                    if dependence_gap(m.joint(), {x}, {y}, ()) >= threshold:
                        ok = True
                        break
                assert ok, f"{x} and {y} d-connected but no dependence"


def test_collider_conditioning_opens_dependence(collider):
    m = random_model(collider, random.Random(3))
    j = m.joint()
    assert dependence_gap(j, {"X"}, {"Y"}, ()) == 0
    assert dependence_gap(j, {"X"}, {"Y"}, {"Z"}) > 0
