"""Directed acyclic graphs over named random variables.

Nodes are partitioned into observed and latent variables.  Latent
confounders are ordinary latent nodes; a declared bidirected arc
``A <-> B`` is expanded into a fresh latent parent of both endpoints, so
one graph type serves every criterion, and the latent projection
(``CausalGraph.projection``) returns that same type.

The constructor alone decides whether a graph is valid, and names the
argument it refused (``GraphError.at``).  Built, cut and ancestral
graphs all get their tables from ``CausalGraph._build``.

Graphs are immutable after construction and all operations are pure, so
values can be shared freely across threads.  Each graph memoizes the cut
graphs ``mutilate`` returns, keyed by the cut sets.  That stays safe to
share: the memo only ever maps a key to equal immutable graphs, so a
lost race between two threads costs one redundant build, never a wrong
answer.
"""

from __future__ import annotations

import re
from itertools import combinations, count
from operator import attrgetter
from typing import Iterable, Iterator

# a variable name: one or more of A-Z, a-z, 0-9 and _, none reserved
NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")

# Node-count ceiling for exhaustive path enumeration; the enumerator is
# meant for oracles and tests, production queries use reachability.
PATH_ENUM_GUARD = 16


class GraphError(Exception):
    """Invalid graph construction, or a query naming an unknown variable.

    ``at`` is ``(kind, i)`` when the ``CausalGraph`` constructor refused
    its i-th ``"var"``, ``"edge"`` or ``"arc"`` argument, counted from 0
    in the order given, and None otherwise.
    """

    def __init__(self, message: str, at: tuple[str, int] | None = None):
        super().__init__(message)
        self.at = at


class ScaleError(Exception):
    """An exhaustive operation was asked to run beyond its size guard."""


class _Record:
    """Base of the package's immutable value records.

    A subclass lists its fields, in order, in ``__slots__`` and may map
    its trailing fields to default values in ``_defaults``; it then
    takes the arguments a dataclass of those fields would.  A record
    that validates or normalizes its arguments ends its own
    ``__init__`` with ``super().__init__`` on the fields.  Two records
    are equal when they have the same type and equal fields, a record
    hashes as the tuple of its fields, and its repr is
    ``Name(field=value, ...)``; no record can be assigned to after
    construction, and a copy or unpickled record is rebuilt through
    ``__init__``.  All of it is plain methods, so importing a record
    class generates no code.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        if len(fields) > 1:
            key = attrgetter(*fields)
        elif fields:  # attrgetter of one name returns the bare value
            get = attrgetter(*fields)
            key = lambda obj: (get(obj),)
        else:
            key = lambda obj: ()
        cls._key = staticmethod(key)
        cls.__match_args__ = fields
        # each slot's own setter, which __setattr__ cannot intercept
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """Every field's value, in order, from the arguments and defaults."""
        fields, name = cls.__slots__, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() has only {len(fields)} fields")
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() has no field {field!r}")
            if fields.index(field) < len(args):
                raise TypeError(f"{name}() got field {field!r} twice")
        values = cls._defaults | dict(zip(fields, args)) | kwargs
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing field {field!r}")
        return tuple(values[f] for f in fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in
                           zip(self.__slots__, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)


class Variable(_Record):
    __slots__ = ("name", "latent")
    _defaults = {"latent": False}

    @property
    def observed(self) -> bool:
        return not self.latent


def _as_variable(spec) -> Variable:
    if isinstance(spec, Variable):
        return spec
    if isinstance(spec, str):
        return Variable(spec)
    name, latent = spec
    return Variable(name, bool(latent))


class CausalGraph:
    """A DAG with observed/latent node labels.

    ``variables`` fixes the declaration order used for every
    deterministic ordering downstream.  ``edges`` are (tail, head)
    pairs; ``bidirected`` pairs expand into fresh latent common causes.
    """

    def __init__(self, variables: Iterable, edges: Iterable = (),
                 bidirected: Iterable = ()):
        # check every argument, in the order given, before arcs expand
        vs = [_as_variable(v) for v in variables]
        es = [tuple(e) for e in edges]
        arcs = [tuple(e) for e in bidirected]
        position: dict[str, int] = {}
        for i, v in enumerate(vs):
            if not NAME_RE.match(v.name):
                raise GraphError(f"invalid variable name {v.name!r}",
                                 ("var", i))
            if v.name in position:
                raise GraphError(f"duplicate variable {v.name!r}", ("var", i))
            position[v.name] = i
        seen: set[tuple[str, str]] = set()
        for kind, arrow, pairs in (("edge", "->", es), ("arc", "<->", arcs)):
            for i, (a, b) in enumerate(pairs):
                for n in (a, b):
                    if n not in position:
                        raise GraphError(f"unknown variable {n!r} in {kind} "
                                         f"{a}{arrow}{b}", (kind, i))
                if a == b:
                    raise GraphError(f"self-loop on {a!r}", (kind, i))
                if kind == "edge" and (a, b) in seen:
                    raise GraphError("duplicate edge", (kind, i))
                seen.add((a, b))
        spokes = []
        for a, b in arcs:
            u = f"U_{a}_{b}"  # then U_a_b_2, U_a_b_3, ...
            fresh = map((u.rstrip("_") + "_{}").format, count(2))
            while u in position:
                u = next(fresh)
            position[u] = len(vs)
            vs.append(Variable(u, latent=True))
            spokes += [(u, a), (u, b)]
        self._build(vs, sorted(es + spokes, key=lambda e: (position[e[0]],
                                                            position[e[1]])))
        self._topo = self._topological_names()  # the cycle check
        if len(self._topo) < len(self.names):
            # an arc only adds a fresh latent parent, so it closes no cycle
            raise GraphError("graph contains a directed cycle",
                             ("edge", _closing_edge(es)))

    def _build(self, variables: Iterable[Variable],
               edges: Iterable[tuple[str, str]],
               like: CausalGraph | None = None) -> CausalGraph:
        """Set every table from variables and edges already known to form
        a DAG, the edges in declaration order, and return the graph.  The
        topological order is left to its first use; the cut memo is empty.
        ``like``, a graph over the same variables with more edges, lends
        its node tables and every parent or child set left unchanged."""
        self.edges: tuple[tuple[str, str], ...] = tuple(edges)
        if like is not None:
            self.variables, self.names, self._index = (
                like.variables, like.names, like._index)
            self.latent_names = like.latent_names
            self.observed_names = like.observed_names
            pa, ch = dict(like._parents), dict(like._children)
            for t, h in set(like.edges).difference(self.edges):
                pa[h], ch[t] = pa[h] - {t}, ch[t] - {h}
            self._parents, self._children = pa, ch
        else:
            self.variables: tuple[Variable, ...] = tuple(variables)
            self.names: tuple[str, ...] = tuple(v.name for v in self.variables)
            self._index = {n: i for i, n in enumerate(self.names)}
            self.latent_names: frozenset[str] = frozenset(
                v.name for v in self.variables if v.latent)
            self.observed_names: tuple[str, ...] = tuple(
                v.name for v in self.variables if not v.latent)
            pa: dict[str, set[str]] = {n: set() for n in self.names}
            ch: dict[str, set[str]] = {n: set() for n in self.names}
            for t, h in self.edges:
                pa[h].add(t)
                ch[t].add(h)
            self._parents = {n: frozenset(s) for n, s in pa.items()}
            self._children = {n: frozenset(s) for n, s in ch.items()}
        self._topo: tuple[str, ...] | None = None
        self._cuts: dict[tuple[frozenset[str], frozenset[str]],
                         CausalGraph] = {}
        return self

    # -- basic queries ------------------------------------------------

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphError(f"unknown variable {name!r}") from None

    def check_known(self, names: Iterable[str]) -> None:
        """Raise GraphError naming the least unknown name, by sort order."""
        unknown = frozenset(names).difference(self._index)
        if unknown:
            raise GraphError(f"unknown variable {min(unknown)!r}")

    def ordered(self, names: Iterable[str]) -> tuple[str, ...]:
        """Sort names by declaration order (the canonical output order)."""
        return tuple(sorted(names, key=self.index))

    def has_edge(self, tail: str, head: str) -> bool:
        return tail in self._parents.get(head, frozenset())

    def adjacent(self, a: str, b: str) -> bool:
        return self.has_edge(a, b) or self.has_edge(b, a)

    def parents(self, v: str) -> frozenset[str]:
        self.index(v)
        return self._parents[v]

    def children(self, v: str) -> frozenset[str]:
        self.index(v)
        return self._children[v]

    def _closure(self, seed, step) -> frozenset[str]:
        seeds = {seed} if isinstance(seed, str) else set(seed)
        self.check_known(seeds)
        out: set[str] = set()
        stack = list(seeds)
        while stack:
            v = stack.pop()
            for w in step(v):
                if w not in out:
                    out.add(w)
                    stack.append(w)
        return frozenset(out - seeds)

    def ancestors(self, seed) -> frozenset[str]:
        """Proper ancestors of the seed set (the seeds are excluded)."""
        return self._closure(seed, lambda v: self._parents[v])

    def descendants(self, seed) -> frozenset[str]:
        """Proper descendants of the seed set (the seeds are excluded)."""
        return self._closure(seed, lambda v: self._children[v])

    def _topological_names(self) -> tuple[str, ...]:
        """The topological order, ties broken by declaration order; on a
        cycle, only the nodes placed before it."""
        indeg = {n: len(self._parents[n]) for n in self.names}
        order: list[str] = []
        placed: set[str] = set()
        while len(order) < len(self.names):
            ready = [n for n in self.names
                     if n not in placed and indeg[n] == 0]
            if not ready:
                break
            v = ready[0]
            placed.add(v)
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
        return tuple(order)

    def topological_order(self) -> tuple[Variable, ...]:
        if self._topo is None:
            self._topo = self._topological_names()
        return tuple(self.variables[self._index[n]] for n in self._topo)

    def skeleton(self) -> frozenset[tuple[str, str]]:
        """Undirected edge set; each pair in declaration order."""
        return frozenset(tuple(self.ordered(e)) for e in self.edges)

    def v_structures(self) -> frozenset[tuple[str, str, str]]:
        """Colliders i->m<-j whose tails i, j are nonadjacent.

        Triples are canonicalized with i before j in declaration order.
        """
        out = set()
        for m in self.names:
            ps = self.ordered(self._parents[m])
            for i in range(len(ps)):
                for j in range(i + 1, len(ps)):
                    if not self.adjacent(ps[i], ps[j]):
                        out.add((ps[i], m, ps[j]))
        return frozenset(out)

    # -- surgery ------------------------------------------------------

    def mutilate(self, cut_incoming: Iterable[str] = (),
                 cut_outgoing: Iterable[str] = ()) -> CausalGraph:
        """Drop edges into ``cut_incoming`` nodes and out of ``cut_outgoing``.

        A node may appear in both sets.  The original graph is unchanged.
        Each distinct cut is built once per graph and then returned from
        the graph's memo.
        """
        ci = frozenset(cut_incoming)
        co = frozenset(cut_outgoing)
        self.check_known(ci | co)
        key = (ci, co)
        cut = self._cuts.get(key)
        if cut is None:
            cut = self._cuts[key] = self._cut(ci, co)
        return cut

    def _cut(self, ci: frozenset[str], co: frozenset[str]) -> CausalGraph:
        """The cut graph, built without revalidating: a subgraph of a
        valid DAG over the same variables is itself a valid DAG.  It
        shares this graph's node tables and every parent and child set
        the cut leaves unchanged."""
        return object.__new__(CausalGraph)._build(
            self.variables,
            [(t, h) for t, h in self.edges if h not in ci and t not in co],
            like=self)

    def ancestral(self, names: Iterable[str]) -> CausalGraph:
        """The subgraph induced on ``names`` and their ancestors, latents
        included, with declaration order and latent flags kept; ``self``
        when that is every node.

        An ancestral set keeps every parent of its members, so the
        induced subgraph of a valid DAG is a valid DAG and is built
        without revalidating."""
        seeds = frozenset(names)
        keep = seeds | self.ancestors(seeds)
        if len(keep) == len(self.names):
            return self
        # the tail of an edge into a kept node is kept
        return object.__new__(CausalGraph)._build(
            [v for v in self.variables if v.name in keep],
            [e for e in self.edges if e[1] in keep])

    def projection(self) -> CausalGraph:
        """The latent projection onto the observed nodes, in declaration
        order: ``a -> b`` when a directed path from a to b has only latent
        interior nodes, and ``a <-> b`` (the fresh latent parent ``U_a_b``)
        when one latent reaches both a and b along such paths."""
        reach: dict[str, frozenset[str]] = {}  # observed ends of such paths
        for v in reversed(self.topological_order()):  # children first
            reach[v.name] = frozenset().union(*(
                reach[c] if c in self.latent_names else (c,)
                for c in self._children[v.name]))
        arcs = {pair for u in self.latent_names
                for pair in combinations(self.ordered(reach[u]), 2)}
        return CausalGraph(
            [v for v in self.variables if v.observed],
            [(a, b) for a in self.observed_names for b in reach[a]],
            sorted(arcs, key=lambda e: tuple(map(self.index, e))))

    def with_edge(self, tail: str, head: str) -> CausalGraph:
        self.index(tail)
        self.index(head)
        return CausalGraph(self.variables, self.edges + ((tail, head),))

    def splice(self, tail: str, head: str, name: str,
               latent: bool = False) -> CausalGraph:
        """Replace the edge tail->head by tail->name->head."""
        if not self.has_edge(tail, head):
            raise GraphError(f"no edge {tail}->{head}")
        kept = [e for e in self.edges if e != (tail, head)]
        kept += [(tail, name), (name, head)]
        return CausalGraph(self.variables + (Variable(name, latent),), kept)

    def z_hat(self, X: Iterable[str], Z: Iterable[str],
              W: Iterable[str]) -> frozenset[str]:
        """Z-nodes that are not ancestors of any W-node once edges into X
        are cut."""
        xs, zs, ws = frozenset(X), frozenset(Z), frozenset(W)
        self.check_known(xs | zs | ws)
        if xs & zs or xs & ws or zs & ws:
            raise GraphError("X, Z, W must be pairwise disjoint")
        g = self.mutilate(cut_incoming=xs)
        anc_w = g.ancestors(ws) if ws else frozenset()
        return frozenset(z for z in zs if z not in anc_w)

    # -- path enumeration (oracle scale) --------------------------------

    def paths_between(self, a: str, b: str) -> Iterator[Path]:
        """Yield every path between two distinct nodes, depth first.

        Exponential in graph size; guarded by ``PATH_ENUM_GUARD`` because
        it exists for oracle comparisons, not production queries.
        """
        self.index(a)
        self.index(b)
        if a == b:
            raise GraphError("path endpoints must be distinct")
        if len(self.names) > PATH_ENUM_GUARD:
            raise ScaleError(
                f"path enumeration limited to {PATH_ENUM_GUARD} nodes "
                f"(graph has {len(self.names)})")
        yield from _paths_on(self, b, (a,), ())

    # -- equality / repr ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, CausalGraph)
                and self.variables == other.variables
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.variables, self.edges))

    def __repr__(self) -> str:
        es = ", ".join(f"{t}->{h}" for t, h in self.edges)
        return f"CausalGraph({'.'.join(self.names)}; {es})"


def _closing_edge(edges: list[tuple[str, str]]) -> int | None:
    """Position of the first edge whose head already reaches its tail
    through the edges before it: the edge that closes a cycle."""
    reach: dict[str, set[str]] = {}  # each node and all it reaches
    for i, (a, b) in enumerate(edges):
        below = reach.setdefault(b, {b})
        if a in below:
            return i
        reach.setdefault(a, {a})
        for r in reach.values():
            if a in r:
                r |= below
    return None


def _paths_on(g: CausalGraph, b: str, nodes: tuple, dirs: tuple):
    """Paths to ``b`` extending the partial path ``nodes``, children
    before parents, each in declaration order.  A module-level function,
    not a self-calling closure, so a walk leaves no reference cycle."""
    v = nodes[-1]
    steps = ([(w, True) for w in g.ordered(g._children[v])]
             + [(w, False) for w in g.ordered(g._parents[v])])
    for w, forward in steps:
        if w in nodes:
            continue
        nd, dd = nodes + (w,), dirs + (forward,)
        if w == b:
            yield Path(nd, dd)
        else:
            yield from _paths_on(g, b, nd, dd)


class Path(_Record):
    """A sequence of consecutive edges traversed in either direction.

    ``forward[i]`` is True when the i-th edge points nodes[i]->nodes[i+1].
    Paths have at least one edge and never repeat a node.
    """

    __slots__ = ("nodes", "forward")

    def __init__(self, nodes: tuple[str, ...], forward: tuple[bool, ...]):
        if len(nodes) < 2:
            raise GraphError("a path needs at least one edge")
        if len(set(nodes)) != len(nodes):
            raise GraphError("a path may not repeat a node")
        if len(forward) != len(nodes) - 1:
            raise GraphError("malformed path: direction per edge required")
        super().__init__(nodes, forward)

    @classmethod
    def from_nodes(cls, g: CausalGraph, nodes: Iterable[str]) -> Path:
        ns = tuple(nodes)
        dirs = []
        for a, b in zip(ns, ns[1:]):
            if g.has_edge(a, b):
                dirs.append(True)
            elif g.has_edge(b, a):
                dirs.append(False)
            else:
                raise GraphError(f"no edge between {a!r} and {b!r}")
        return cls(ns, tuple(dirs))

    def validate(self, g: CausalGraph) -> None:
        for (a, b), fwd in zip(zip(self.nodes, self.nodes[1:]), self.forward):
            t, h = (a, b) if fwd else (b, a)
            if not g.has_edge(t, h):
                raise GraphError(f"edge {t}->{h} not in graph")

    def junction(self, i: int) -> str:
        """Junction type at interior node i: chain, fork or collider."""
        if not 0 < i < len(self.nodes) - 1:
            raise GraphError(f"node {i} is not interior")
        into_left = self.forward[i - 1]      # arrow points into nodes[i]
        out_right = self.forward[i]          # arrow leaves nodes[i]
        if into_left and not out_right:
            return "collider"
        if not into_left and out_right:
            return "fork"
        return "chain"

    def render(self) -> str:
        parts = [self.nodes[0]]
        for fwd, n in zip(self.forward, self.nodes[1:]):
            parts.append("->" if fwd else "<-")
            parts.append(n)
        return " ".join(parts)


class PartiallyDirectedGraph(_Record):
    """Mixed graph: some edges oriented, some left undirected."""

    __slots__ = ("variables", "directed", "undirected")

    def __init__(self, variables: tuple[Variable, ...],
                 directed: tuple[tuple[str, str], ...],
                 undirected: tuple[tuple[str, str], ...]):
        und = {frozenset(e) for e in undirected}
        dire = {frozenset(e) for e in directed}
        if und & dire:
            raise GraphError("an edge cannot be both directed and undirected")
        super().__init__(variables, directed, undirected)
