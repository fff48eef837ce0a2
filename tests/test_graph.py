import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalid import CausalGraph, GraphError, Path, ScaleError, d_separated

from conftest import SRC, disjoint_sets, random_dag


def test_topological_order_chain(chain):
    assert [v.name for v in chain.topological_order()] == ["X", "Z", "Y"]


def test_topological_order_declaration_ties():
    g = CausalGraph(["B", "A"])
    assert [v.name for v in g.topological_order()] == ["B", "A"]


def test_topological_order_frontdoor(frontdoor_graph):
    order = [v.name for v in frontdoor_graph.topological_order()]
    assert order.index("U") < order.index("X") < order.index("Z")
    assert order.index("Z") < order.index("Y")


def test_cycle_rejected():
    with pytest.raises(GraphError, match="cycle"):
        CausalGraph(["A", "B"], [("A", "B"), ("B", "A")])


def test_self_loop_and_duplicates_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        CausalGraph(["A"], [("A", "A")])
    with pytest.raises(GraphError, match="duplicate edge"):
        CausalGraph(["A", "B"], [("A", "B"), ("A", "B")])
    with pytest.raises(GraphError, match="duplicate variable"):
        CausalGraph(["A", "A"])


def test_unknown_edge_endpoint_named():
    with pytest.raises(GraphError, match="'Q'"):
        CausalGraph(["A"], [("A", "Q")])


@pytest.mark.parametrize("variables, edges, arcs, message, at", [
    (["A", "B-C"], [], [], "invalid variable name 'B-C'", ("var", 1)),
    (["A", "B", "A"], [], [], "duplicate variable 'A'", ("var", 2)),
    (["A", "B"], [("A", "B"), ("Q", "B")], [],
     "unknown variable 'Q' in edge Q->B", ("edge", 1)),
    (["A", "B"], [("A", "B"), ("B", "B")], [], "self-loop on 'B'",
     ("edge", 1)),
    (["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "B")], [],
     "duplicate edge", ("edge", 2)),
    # an arc is named as written, not by the latent it expands to
    (["A", "B"], [], [("A", "Q")], "unknown variable 'Q' in arc A<->Q",
     ("arc", 0)),
    (["A", "B"], [], [("A", "A")], "self-loop on 'A'", ("arc", 0)),
    (["A", "B"], [("A", "B")], [("A", "B"), ("Q", "A")],
     "unknown variable 'Q' in arc Q<->A", ("arc", 1)),
    (["A", "B", "C"], [("B", "C"), ("A", "B"), ("A", "C"), ("C", "A"),
                       ("B", "A")], [("A", "B")],
     "graph contains a directed cycle", ("edge", 3)),
    # an edge may not name the latent an arc expands to
    (["A", "B"], [("U_A_B", "A")], [("A", "B")],
     "unknown variable 'U_A_B' in edge U_A_B->A", ("edge", 0)),
    # variables, then edges, then arcs, then cycles
    (["A", "A"], [("A", "Q")], [], "duplicate variable 'A'", ("var", 1)),
    (["A", "B"], [("B", "A"), ("A", "B"), ("A", "Q")], [("A", "A")],
     "unknown variable 'Q' in edge A->Q", ("edge", 2)),
    (["A", "B"], [("B", "A"), ("A", "B")], [("A", "A")],
     "self-loop on 'A'", ("arc", 0)),
], ids=["invalid-name", "duplicate-variable", "unknown-edge-endpoint",
        "edge-self-loop", "duplicate-edge", "unknown-arc-endpoint",
        "arc-self-loop", "second-arc", "cycle", "edge-to-arc-latent",
        "variables-first", "edges-before-arcs", "arcs-before-cycles"])
def test_constructor_refusals_name_their_argument(variables, edges, arcs,
                                                   message, at):
    with pytest.raises(GraphError) as info:
        CausalGraph(variables, edges, arcs)
    assert str(info.value) == message
    assert info.value.at == at


def test_parents_and_closures(chain):
    assert chain.parents("Y") == {"Z"}
    assert chain.descendants({"X"}) == {"Z", "Y"}
    assert chain.ancestors({"Y"}) == {"X", "Z"}
    with pytest.raises(GraphError, match="'W'"):
        chain.parents("W")


def test_loyalty_ancestors(loyalty_graph):
    assert loyalty_graph.ancestors({"Y"}) == {"U", "Z", "X"}


def test_closures_exclude_seed(chain):
    assert "X" not in chain.descendants({"X"})
    assert "Y" not in chain.ancestors({"Y"})


def test_skeleton(collider, frontdoor_graph):
    assert CausalGraph(["X", "Y"], [("X", "Y")]).skeleton() == {("X", "Y")}
    assert collider.skeleton() == {("X", "Z"), ("Z", "Y")}
    assert frontdoor_graph.skeleton() == {
        ("U", "X"), ("U", "Y"), ("X", "Z"), ("Z", "Y")}


def test_v_structures(chain, collider):
    assert collider.v_structures() == {("X", "Z", "Y")}
    assert chain.v_structures() == frozenset()
    triangle = CausalGraph(["X", "Z", "Y"],
                           [("X", "Z"), ("Y", "Z"), ("X", "Y")])
    assert triangle.v_structures() == frozenset()


def test_v_structures_among_three_parents():
    g = CausalGraph(["A", "B", "C", "M"],
                    [("A", "M"), ("B", "M"), ("C", "M"), ("A", "B")])
    assert g.v_structures() == {("A", "M", "C"), ("B", "M", "C")}


def test_mutilate_chain(chain):
    cut = chain.mutilate(cut_incoming={"Z"})
    assert cut.edges == (("Z", "Y"),)
    assert chain.edges == (("X", "Z"), ("Z", "Y"))  # original untouched


def test_mutilate_frontdoor_outgoing(frontdoor_graph):
    cut = frontdoor_graph.mutilate(cut_outgoing={"X"})
    assert set(cut.edges) == {("U", "X"), ("U", "Y"), ("Z", "Y")}


def test_mutilate_both_sides_isolates():
    g = CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
    cut = g.mutilate(cut_incoming={"Y"}, cut_outgoing={"Y"})
    assert cut.edges == ()
    with pytest.raises(GraphError):
        g.mutilate(cut_incoming={"nope"})


def test_mutilate_idempotent(loyalty_graph):
    once = loyalty_graph.mutilate(cut_incoming={"X"}, cut_outgoing={"Z"})
    twice = once.mutilate(cut_incoming={"X"}, cut_outgoing={"Z"})
    assert once == twice


def test_z_hat():
    g = CausalGraph(["Z", "W"], [("Z", "W")])
    assert g.z_hat((), {"Z"}, {"W"}) == frozenset()
    assert g.z_hat((), {"Z"}, ()) == {"Z"}
    with pytest.raises(GraphError, match="disjoint"):
        g.z_hat({"Z"}, {"Z"}, ())


def test_z_hat_frontdoor(frontdoor_graph):
    assert frontdoor_graph.z_hat({"X"}, {"Z"}, ()) == {"Z"}


def test_projection_frontdoor(frontdoor_graph):
    P = frontdoor_graph.projection()
    assert P.names == ("X", "Z", "Y", "U_X_Y")
    assert P.latent_names == {"U_X_Y"}
    assert P == CausalGraph(["X", "Z", "Y"], [("X", "Z"), ("Z", "Y")],
                            bidirected=[("X", "Y")])


def test_projection_fully_observed(chain):
    assert chain.projection() == chain


def test_projection_two_latents():
    g = CausalGraph([("U1", True), ("U2", True), "X", "Y"],
                    [("U1", "X"), ("U1", "U2"), ("U2", "Y")])
    assert g.projection() == CausalGraph(["X", "Y"], bidirected=[("X", "Y")])


def _random_latent_dag(seed):
    rng = random.Random(seed)
    return rng, random_dag(rng, n=rng.randint(3, 8), p=rng.uniform(0.2, 0.6),
                           latent=rng.uniform(0.1, 0.5))


def _pairs_by_enumeration(g):
    # endpoint pairs of the collider-free paths between observed nodes
    # whose interior is latent: a directed pair when the path is directed,
    # a bidirected pair when it has a fork
    directed, bidirected = set(), set()
    obs = g.observed_names
    for i, a in enumerate(obs):
        for b in obs[i + 1:]:
            for p in g.paths_between(a, b):
                if any(p.nodes[k] in g.observed_names
                       or p.junction(k) == "collider"
                       for k in range(1, len(p.nodes) - 1)):
                    continue
                if all(p.forward):
                    directed.add((a, b))
                elif not any(p.forward):
                    directed.add((b, a))
                else:
                    bidirected.add((a, b))
    return directed, bidirected


@given(st.integers(0, 5000))
def test_projection_pairs_match_path_enumeration(seed):
    _, g = _random_latent_dag(seed)
    P = g.projection()
    assert P.observed_names == g.observed_names
    arcs = set()
    for u in P.latent_names:
        assert not P.parents(u) and len(P.children(u)) == 2
        arcs.add(P.ordered(P.children(u)))
    assert len(arcs) == len(P.latent_names)
    directed = {e for e in P.edges if e[0] not in P.latent_names}
    assert (directed, arcs) == _pairs_by_enumeration(g)


@given(st.integers(0, 5000))
def test_projection_keeps_observed_separation(seed):
    rng, g = _random_latent_dag(seed)
    if len(g.observed_names) < 2:
        return
    x, y, z = disjoint_sets(rng, g.observed_names)
    assert d_separated(g, x, y, z) == d_separated(g.projection(), x, y, z)


@given(st.integers(0, 5000))
def test_projection_is_a_fixed_point(seed):
    P = _random_latent_dag(seed)[1].projection()
    assert P.projection() == P


def test_bidirected_arc_expansion():
    g = CausalGraph(["A", "B"], bidirected=[("A", "B")])
    assert g.latent_names == {"U_A_B"}
    assert set(g.edges) == {("U_A_B", "A"), ("U_A_B", "B")}
    # collision with an existing name bumps the suffix
    g2 = CausalGraph(["A", "B", "U_A_B"], bidirected=[("A", "B")])
    assert "U_A_B_2" in g2.latent_names
    # any name free of collisions is kept as built, __ included
    g3 = CausalGraph(["A", "_1"], bidirected=[("A", "_1")])
    assert g3.latent_names == {"U_A__1"}
    assert CausalGraph([("U", True), "A", "_1"], [("U", "A"), ("U", "_1")]
                       ).projection() == g3
    # a taken name ending in _ bumps to one _ before the digits
    g4 = CausalGraph([("U", True), "A", "B_", "U_A_B_"],
                     [("U", "A"), ("U", "B_")]).projection()
    assert g4.latent_names == {"U_A_B_2"}


def test_path_junctions(blocked_fork_graph):
    p = Path.from_nodes(blocked_fork_graph, ["X", "A", "C", "Y"])
    assert p.junction(1) == "collider"
    assert p.junction(2) == "fork"
    assert p.render() == "X -> A <- C -> Y"


def test_path_validation(chain):
    with pytest.raises(GraphError):
        Path.from_nodes(chain, ["X", "Y"])  # not adjacent
    with pytest.raises(GraphError):
        Path(("X",), ())
    with pytest.raises(GraphError):
        Path(("X", "Z", "X"), (True, False))


def test_paths_between_guard():
    g = random_dag(__import__("random").Random(0), 17, p=0.2)
    a, b = g.names[0], g.names[1]
    with pytest.raises(ScaleError):
        list(g.paths_between(a, b))


def test_splice_and_with_edge(chain):
    g = chain.splice("X", "Z", "M")
    assert g.has_edge("X", "M") and g.has_edge("M", "Z")
    assert not g.has_edge("X", "Z")
    g2 = chain.with_edge("X", "Y")
    assert g2.has_edge("X", "Y")


@given(st.integers(0, 400))
def test_ancestor_descendant_duality(seed):
    import random as _r
    g = random_dag(_r.Random(seed), n=6, p=0.35)
    for x in g.names:
        for y in g.names:
            if x == y:
                continue
            assert (y in g.descendants({x})) == (x in g.ancestors({y}))


@given(st.integers(0, 400))
def test_topological_order_respects_edges(seed):
    import random as _r
    g = random_dag(_r.Random(seed), n=7, p=0.4)
    order = [v.name for v in g.topological_order()]
    assert sorted(order) == sorted(g.names)
    pos = {n: i for i, n in enumerate(order)}
    assert all(pos[t] < pos[h] for t, h in g.edges)


@given(st.integers(0, 400))
def test_mutilated_skeleton_shrinks(seed):
    import random as _r
    rng = _r.Random(seed)
    g = random_dag(rng, n=6, p=0.4)
    cut_in = {n for n in g.names if rng.random() < 0.3}
    cut_out = {n for n in g.names if rng.random() < 0.3}
    h = g.mutilate(cut_in, cut_out)
    assert h.skeleton() <= g.skeleton()


# -- memoized surgery --------------------------------------------------------

@st.composite
def dags(draw):
    """A random DAG with latents; declaration order, topological order
    and edge order are drawn independently."""
    n = draw(st.integers(1, 7))
    names = draw(st.permutations([f"V{i}" for i in range(n)]))
    order = draw(st.permutations(names))
    edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())]
    latent = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return CausalGraph(list(zip(names, latent)), draw(st.permutations(edges)))


def cut_sets(g):
    return st.sets(st.sampled_from(g.names))


def _kept(g, cut_in, cut_out):
    return [(t, h) for t, h in g.edges if h not in cut_in and t not in cut_out]


def _assert_same_graph(h, ref):
    assert h == ref and hash(h) == hash(ref)
    assert h.edges == ref.edges
    assert repr(h) == repr(ref)
    assert h.topological_order() == ref.topological_order()
    assert h.latent_names == ref.latent_names
    assert h.observed_names == ref.observed_names
    for n in ref.names:
        assert h.parents(n) == ref.parents(n)
        assert h.children(n) == ref.children(n)
        assert h.ancestors({n}) == ref.ancestors({n})
        assert h.descendants({n}) == ref.descendants({n})


@given(st.data())
def test_cut_graph_equals_full_construction(data):
    g = data.draw(dags())
    cut_in, cut_out = data.draw(cut_sets(g)), data.draw(cut_sets(g))
    edges = g.edges
    h = g.mutilate(cut_in, cut_out)
    _assert_same_graph(h, CausalGraph(g.variables, _kept(g, cut_in, cut_out)))
    assert g.edges == edges  # the original is untouched


@given(st.data())
def test_mutilate_memo_returns_identical_graph(data):
    g = data.draw(dags())
    cut_in, cut_out = data.draw(cut_sets(g)), data.draw(cut_sets(g))
    first = g.mutilate(sorted(cut_in), sorted(cut_out))
    assert g.mutilate(set(cut_in), frozenset(cut_out)) is first
    assert g.mutilate(sorted(cut_in, reverse=True),
                      sorted(cut_out, reverse=True)) is first
    assert g.mutilate(cut_incoming=tuple(cut_in),
                      cut_outgoing=list(cut_out)) is first


@given(st.data())
def test_mutilate_rejects_unknown_names_after_caching(data):
    g = data.draw(dags())
    cut_in, cut_out = data.draw(cut_sets(g)), data.draw(cut_sets(g))
    g.mutilate(cut_in, cut_out)
    for _ in range(2):
        with pytest.raises(GraphError, match="'Q'"):
            g.mutilate(cut_in | {"Q"}, cut_out)
        with pytest.raises(GraphError, match="'Q'"):
            g.mutilate(cut_in, cut_out | {"Q"})


@given(st.data())
def test_cut_graph_has_every_attribute(data):
    # cut and ancestral graphs have the attributes of a built graph,
    # equal to those of the same graph built through the constructor
    g = data.draw(dags())
    cut = g.mutilate(data.draw(cut_sets(g)), data.draw(cut_sets(g)))
    sub = g.ancestral(data.draw(cut_sets(g)))
    for h in (cut, sub):
        built = CausalGraph(h.variables, h.edges)
        assert vars(h).keys() == vars(g).keys() == vars(built).keys()
        if h is not g:  # an ancestral graph of every node is g itself
            h.topological_order()  # the order a built graph computes
            assert vars(h) == vars(built)
            assert h._cuts is not g._cuts


@given(st.data())
def test_cut_graph_shares_what_the_cut_leaves_unchanged(data):
    # the node tables are the parent's own, and so is every parent or
    # child set that no dropped edge touches
    g = data.draw(dags())
    cut = g.mutilate(data.draw(cut_sets(g)), data.draw(cut_sets(g)))
    for name in ("variables", "names", "_index", "latent_names",
                 "observed_names"):
        assert getattr(cut, name) is getattr(g, name)
    dropped = set(g.edges) - set(cut.edges)
    for n in g.names:
        if all(h != n for _, h in dropped):
            assert cut._parents[n] is g._parents[n]
        if all(t != n for t, _ in dropped):
            assert cut._children[n] is g._children[n]


def test_unknown_names_repeat_across_hash_seeds():
    # every check names the least unknown name, so the message is the
    # same in every process, whatever its string-hash seed
    code = """if True:
        import sys
        sys.path.insert(0, sys.argv[1])
        from causalid import (CausalGraph, GraphError, Path, Query,
                              d_separated, parse_model)
        from causalid.dsep import (connecting_path, d_separated_exhaustive,
                                   path_blocked)
        g = CausalGraph(["X", "Y"], [("X", "Y")])
        bad = ("Qa", "Rb", "Sc")
        for check in (lambda: Query(g, bad, ("Y",)),
                      lambda: d_separated(g, ("X",), ("Y",), bad),
                      lambda: connecting_path(g, bad, ("Y",)),
                      lambda: d_separated_exhaustive(g, ("X",), bad),
                      lambda: g.mutilate(("X",), bad),
                      lambda: g.ancestors(bad),
                      lambda: g.descendants(bad),
                      lambda: g.ancestral(bad + ("X",)),
                      lambda: g.z_hat(("X",), bad, ()),
                      lambda: path_blocked(
                          g, Path.from_nodes(g, ("X", "Y")), set(bad))):
            try:
                check()
            except GraphError as exc:
                print(exc)
        with open(sys.argv[2]) as f:
            m = parse_model(f.read())
        j = m.joint()
        for check in (lambda: j.marginal(set(bad)),
                      lambda: j.conditional(set(bad), {"X": "1"}),
                      lambda: m.do_marginal({"X": "1"}, set(bad))):
            try:
                check()
            except GraphError as exc:
                print(exc)
        """
    model = os.path.join(SRC, os.pardir, "demo", "confounder.model")
    runs = {subprocess.run([sys.executable, "-c", code, SRC, model],
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": str(seed)}
                           ).stdout
            for seed in range(1, 5)}
    assert runs == {"unknown variable 'Qa'\n" * 10
                    + "unknown variable 'Qa' in distribution\n" * 3}


@given(st.data())
def test_cut_of_cut_graph(data):
    g = data.draw(dags())
    in1, out1 = data.draw(cut_sets(g)), data.draw(cut_sets(g))
    in2, out2 = data.draw(cut_sets(g)), data.draw(cut_sets(g))
    h = g.mutilate(in1, out1).mutilate(in2, out2)
    _assert_same_graph(h, CausalGraph(g.variables,
                                      _kept(g, in1 | in2, out1 | out2)))
    assert h == g.mutilate(in1 | in2, out1 | out2)


def test_mutilate_memo_shared_across_threads():
    import random as _r
    import sys
    import threading
    g = random_dag(_r.Random(3), n=8, p=0.4, latent=0.25)
    rng = _r.Random(4)
    cuts = [(frozenset(rng.sample(g.names, rng.randint(0, 3))),
             frozenset(rng.sample(g.names, rng.randint(0, 3))))
            for _ in range(12)]
    refs = [CausalGraph(g.variables, _kept(g, ci, co)) for ci, co in cuts]
    bad = []

    def work():
        for _ in range(30):
            for (ci, co), ref in zip(cuts, refs):
                h = g.mutilate(ci, co)
                if (h != ref or
                        h.topological_order() != ref.topological_order()):
                    bad.append((ci, co))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
    assert all(g.mutilate(ci, co) is g.mutilate(set(ci), set(co))
               for ci, co in cuts)


# -- ancestral subgraph --------------------------------------------------------

def test_ancestral_keeps_order_latents_and_edges():
    # W is declared first and is a leaf of X; Z's ancestors keep their
    # declaration order, U stays latent, and edges out of the kept set
    # drop out
    g = CausalGraph(["W", ("U", True), "X", "Z", "Y", "L"],
                    [("X", "W"), ("U", "X"), ("U", "Y"), ("X", "Z"),
                     ("Z", "Y"), ("Z", "L")])
    h = g.ancestral({"Z"})
    assert h.names == ("U", "X", "Z")
    assert h.latent_names == frozenset({"U"})
    assert h.observed_names == ("X", "Z")
    assert h.edges == (("U", "X"), ("X", "Z"))
    assert h.children("X") == frozenset({"Z"})
    _assert_same_graph(h, CausalGraph([("U", True), "X", "Z"],
                                      [("U", "X"), ("X", "Z")]))
    assert g.ancestral(["Y", "W"]) == CausalGraph(
        ["W", ("U", True), "X", "Z", "Y"],
        [("X", "W"), ("U", "X"), ("U", "Y"), ("X", "Z"), ("Z", "Y")])


def test_ancestral_of_a_closed_set_is_the_graph(frontdoor_graph, collider):
    assert frontdoor_graph.ancestral({"Y"}) is frontdoor_graph
    assert collider.ancestral(["Z"]) is collider
    assert collider.ancestral(collider.names) is collider


def test_ancestral_rejects_unknown_names(chain):
    with pytest.raises(GraphError, match="'Q'"):
        chain.ancestral({"X", "Q"})


def test_ancestral_builds_no_graph_through_the_constructor(monkeypatch,
                                                           chain):
    built = []
    init = CausalGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CausalGraph, "__init__", counting_init)
    assert chain.ancestral({"Z"}).names == ("X", "Z")
    assert built == []


@given(st.data())
def test_ancestral_equals_full_construction(data):
    g = data.draw(dags())
    seeds = data.draw(st.sets(st.sampled_from(g.names)))
    keep = seeds | g.ancestors(seeds)
    h = g.ancestral(seeds)
    _assert_same_graph(h, CausalGraph(
        [v for v in g.variables if v.name in keep],
        [(t, u) for t, u in g.edges if t in keep and u in keep]))
    assert (h is g) == (keep == set(g.names))
    assert h.ancestral(seeds) is h
    # cut graphs of the subgraph are its own
    cut_in = data.draw(st.sets(st.sampled_from(h.names))) if h.names \
        else set()
    _assert_same_graph(h.mutilate(cut_in), CausalGraph(
        h.variables, [(t, u) for t, u in h.edges if u not in cut_in]))
