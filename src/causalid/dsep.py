"""d-separation, observational equivalence, and equivalence-class patterns.

The production separation test is a linear-time reachability sweep over
(node, arrival-direction) states that encodes the chain/fork/collider
blocking rules; the exponential all-paths decision is kept only as an
oracle for tests.
"""

from __future__ import annotations

from collections import deque
from functools import total_ordering
from itertools import combinations, product
from typing import Iterable

from .graph import (PATH_ENUM_GUARD, CausalGraph, GraphError, Path,
                    PartiallyDirectedGraph, ScaleError, _Record)

PATTERN_GUARD = 7  # brute-force orientation enumeration scale


def path_blocked(g: CausalGraph, path: Path, Z: Iterable[str]) -> bool:
    """Is this path blocked by the conditioning set Z?

    Blocked iff some junction is a chain or fork whose middle node is in
    Z, or a collider whose middle node and all of its descendants are
    outside Z.
    """
    path.validate(g)
    zs = frozenset(Z)
    g.check_known(zs)
    if path.nodes[0] in zs or path.nodes[-1] in zs:
        raise GraphError("path endpoints may not be conditioned on")
    for i in range(1, len(path.nodes) - 1):
        m = path.nodes[i]
        kind = path.junction(i)
        if kind in ("chain", "fork"):
            if m in zs:
                return True
        else:  # collider
            if m not in zs and not (g.descendants(m) & zs):
                return True
    return False


def _validate_sep_query(g: CausalGraph, X, Y, Z):
    xs, ys, zs = frozenset(X), frozenset(Y), frozenset(Z)
    g.check_known(xs | ys | zs)
    if not xs or not ys:
        raise GraphError("separation query needs nonempty X and Y")
    if xs & ys or xs & zs or ys & zs:
        raise GraphError("separation query needs pairwise disjoint sets")
    return xs, ys, zs


def _reach_states(g: CausalGraph, xs: frozenset[str], zs: frozenset[str]):
    """BFS over (node, arrived-via-incoming-edge) states.

    Arriving at m along an edge into m ("in") may continue to children
    when m is unobserved (chain) or bounce to parents when m or a
    descendant is observed (collider).  Arriving against an edge ("out")
    may continue to children (fork) or parents (chain) when m is
    unobserved.  Yields states with predecessors for witness recovery.
    """
    anc_z = zs | g.ancestors(zs) if zs else frozenset()
    pred: dict[tuple[str, str], tuple[str, str]] = {}
    queue: deque[tuple[str, str]] = deque()
    # the query is validated, so walk the adjacency tables directly in
    # declaration order instead of re-checking every visited name
    order = g._index.__getitem__
    children, parents = g._children, g._parents

    def push(state, from_state):
        if state not in pred:
            pred[state] = from_state
            queue.append(state)

    for x in sorted(xs, key=order):
        for c in sorted(children[x], key=order):
            push((c, "in"), (x, "start"))
        for p in sorted(parents[x], key=order):
            push((p, "out"), (x, "start"))

    while queue:
        v, how = queue.popleft()
        yield (v, how), pred
        if how == "in":
            if v not in zs:
                for c in sorted(children[v], key=order):
                    push((c, "in"), (v, how))
            if v in anc_z:
                for p in sorted(parents[v], key=order):
                    push((p, "out"), (v, how))
        else:
            if v not in zs:
                for c in sorted(children[v], key=order):
                    push((c, "in"), (v, how))
                for p in sorted(parents[v], key=order):
                    push((p, "out"), (v, how))


def d_separated(g: CausalGraph, X: Iterable[str], Y: Iterable[str],
                Z: Iterable[str] = ()) -> bool:
    """True iff Z blocks every path between X and Y."""
    xs, ys, zs = _validate_sep_query(g, X, Y, Z)
    for (v, _), _pred in _reach_states(g, xs, zs):
        if v in ys:
            return False
    return True


def connecting_path(g: CausalGraph, X: Iterable[str], Y: Iterable[str],
                    Z: Iterable[str] = ()) -> Path | None:
    """An open path witnessing d-connection, or None when separated.

    The witness is the sweep's shortest trail to the first Y state
    reached, read back through the BFS predecessors.  It never repeats a
    node: a later state of a node already on the trail has no successor
    the earlier state lacks (a start state has them all; arriving "in"
    and later leaving "out" needs a bounce below the node, which puts it
    in anc(Z); and "out" continues wherever "in" does for a node outside
    Z), so the trail could have been shortcut, contradicting BFS depth.
    """
    xs, ys, zs = _validate_sep_query(g, X, Y, Z)
    for (v, how), pred in _reach_states(g, xs, zs):
        if v in ys:
            break
    else:
        return None
    trail = [v]
    cur = pred[(v, how)]
    while cur[1] != "start":
        trail.append(cur[0])
        cur = pred[cur]
    trail.append(cur[0])
    trail.reverse()
    return Path.from_nodes(g, trail)


def d_separated_exhaustive(g: CausalGraph, X: Iterable[str],
                           Y: Iterable[str], Z: Iterable[str] = ()) -> bool:
    """Oracle-scale separation check: enumerate every path and test each
    with the per-path blocking rule."""
    xs, ys, zs = _validate_sep_query(g, X, Y, Z)
    for x in sorted(xs, key=g.index):
        for y in sorted(ys, key=g.index):
            for path in g.paths_between(x, y):
                if set(path.nodes[1:-1]) & (xs | ys):
                    # a path grazing another endpoint is covered by the
                    # shorter path it contains
                    continue
                if not path_blocked(g, path, zs):
                    return False
    return True


@total_ordering
class Statement(_Record):
    """A conditional-independence statement X _||_ Y | Z; statements
    sort by their fields in order."""

    __slots__ = ("x", "y", "given")

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) < other._key(other)
        return NotImplemented

    def render(self) -> str:
        tail = f" {','.join(self.given)}" if self.given else ""
        return f"{self.x} _||_ {self.y} |{tail}"


def implied_independencies(g: CausalGraph, observed_only: bool = False
                           ) -> frozenset[Statement]:
    """All singleton-pair separations implied by the graph topology, with
    the conditioning set ranging over subsets of the remaining
    (optionally observed-only) variables."""
    if len(g.names) > PATH_ENUM_GUARD:
        raise ScaleError(
            f"independence enumeration limited to {PATH_ENUM_GUARD} nodes; "
            "intended for oracle-scale graphs")
    pool = g.observed_names if observed_only else g.names
    out = set()
    for x, y in combinations(pool, 2):
        if g.adjacent(x, y):
            continue
        rest = [v for v in pool if v not in (x, y)]
        for r in range(len(rest) + 1):
            for zs in combinations(rest, r):
                if d_separated(g, {x}, {y}, zs):
                    out.add(Statement(x, y, g.ordered(zs)))
    return frozenset(out)


def observationally_equivalent(g1: CausalGraph, g2: CausalGraph) -> bool:
    """Same skeleton and same v-structures."""
    if set(g1.names) != set(g2.names):
        raise GraphError("graphs are over different variable sets")
    return (g1.skeleton() == g2.skeleton()
            and g1.v_structures() == g2.v_structures())


def equivalence_class(g: CausalGraph) -> tuple[CausalGraph, ...]:
    """Every DAG orientation of the skeleton with the same v-structures."""
    if len(g.names) > PATTERN_GUARD:
        raise ScaleError(
            f"pattern enumeration limited to {PATTERN_GUARD} nodes")
    skel = sorted(g.skeleton(), key=lambda e: (g.index(e[0]), g.index(e[1])))
    target = g.v_structures()
    members = []
    for orientation in product((True, False), repeat=len(skel)):
        edges = [(a, b) if fwd else (b, a)
                 for (a, b), fwd in zip(skel, orientation)]
        try:
            cand = CausalGraph(g.variables, edges)
        except GraphError:
            continue  # cyclic orientation
        if cand.v_structures() == target:
            members.append(cand)
    return tuple(members)


def pattern(g: CausalGraph) -> PartiallyDirectedGraph:
    """Equivalence-class pattern: an edge is directed iff it is oriented
    the same way in every member of the class."""
    members = equivalence_class(g)
    directed, undirected = [], []
    for a, b in sorted(g.skeleton(),
                       key=lambda e: (g.index(e[0]), g.index(e[1]))):
        orients = {m.has_edge(a, b) for m in members}
        if orients == {True}:
            directed.append((a, b))
        elif orients == {False}:
            directed.append((b, a))
        else:
            undirected.append((a, b))
    return PartiallyDirectedGraph(g.variables, tuple(directed),
                                  tuple(undirected))
