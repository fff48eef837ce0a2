"""Exact discrete structural causal models.

Mechanisms are conditional probability tables with exact rational
entries; a structural-equation form (deterministic map plus independent
noise) compiles losslessly into such a table.  The model generates the
full joint by multiplying the tables in topological order, performs
interventions by graph surgery, and is the ground-truth oracle that
every identification formula is verified against.

``joint`` and ``truncated`` share one depth-first product: cells that
agree on a prefix of the topological order share its product, computed
once, and a zero entry drops the prefix with all its extensions.

Mechanism rows hold ``fractions.Fraction`` entries, so correctness
checks are exact equalities: every conditional row must sum to exactly
1.  A ``JointDistribution`` holds one denominator per table and an
integer weight per nonzero cell, so its sums, marginals, conditionals
and comparisons add and multiply Python ints; an answer leaves the
table as a reduced ``Fraction``, the same value a table of fractions
would give.  ``JointDistribution.p`` and ``marginal`` sum the weights
onto each queried set of variables once and answer later queries on
that set by lookup, so a table is read-only after construction;
``conditional``, ``dependence_gap`` and ``independent`` read the same
summed weights.

The ``DiscreteModel`` constructor alone decides whether a model is
valid, checking names, then domains, then mechanisms, and names the
input it refused (``ModelError.at``).  Built and intervened models both
get their attributes from ``DiscreteModel._build``.
"""

from __future__ import annotations

import csv
import io
import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import product
from math import lcm
from operator import itemgetter

from .graph import CausalGraph, GraphError, ScaleError, Variable, _Record

# Joint tables are materialized only up to this many cells; beyond that,
# operations refuse rather than silently approximate.
CELL_BUDGET = 2 ** 20

# random_model draws each conditional row from integer weights 1..MAX_WEIGHT
MAX_WEIGHT = 9

Value = object  # domain values are opaque hashables (str in the DSL)


class PositivityError(Exception):
    """A conditioning event has probability zero; never a silent 0/0."""


class ModelError(Exception):
    """Invalid mechanism or model construction.

    ``at`` is what the ``DiscreteModel`` constructor refused: the
    ``("domain", name)`` or ``("mechanism", name)`` given, one ``("row",
    name, parent values)``, or ``("var", name)`` for a missing domain,
    mechanism or row or a mechanism's parents; otherwise None.
    """

    def __init__(self, message: str, at: tuple | None = None):
        super().__init__(message)
        self.at = at


def _check_row(name: str, pa: tuple, probs: Sequence, size: int) -> tuple:
    """Row ``pa`` of ``name``'s mechanism as exact fractions, or a refusal."""
    where, at = f"row {pa!r} for {name!r}", ("row", name, pa)
    row = tuple(Fraction(p) for p in probs)
    if len(row) != size:
        raise ModelError(f"{where} has {len(row)} probabilities, domain "
                         f"has {size} values", at)
    if sum(row) != 1:
        raise ModelError(f"{where} sums to {sum(row)}, not 1", at)
    if any(p < 0 for p in row):
        raise ModelError(f"negative probability in {where}", at)
    return row


class Mechanism(_Record):
    """Conditional table for one child: parent assignment -> distribution
    over the child's domain (one probability per domain value, in order).
    """

    __slots__ = ("child", "parents", "table")

    def row(self, parent_values: tuple) -> tuple:
        try:
            return self.table[parent_values]
        except KeyError:
            raise ModelError(
                f"mechanism for {self.child!r} has no row for parent "
                f"assignment {parent_values!r}") from None


class StructuralEquationSpec(_Record):
    """Child = f(parent values, noise), noise with an exact distribution.

    ``noise`` maps each noise value to its probability; ``f(parent
    values, noise value)`` gives the child's value and must be total
    over parent-domain x noise-domain combinations.
    """

    __slots__ = ("child", "parents", "parent_domains", "noise", "f")


def compile_mechanism(spec: StructuralEquationSpec,
                      child_domain: Sequence) -> Mechanism:
    """Fold the noise distribution through the deterministic map into a
    conditional table: P(child=v | pa) = sum of noise masses with
    f(pa, eps) = v."""
    noise = {e: Fraction(p) for e, p in spec.noise.items()}
    if sum(noise.values()) != 1:
        raise ModelError(f"noise distribution for {spec.child!r} "
                         "does not sum to 1")
    dom = tuple(child_domain)
    table = {}
    for pa in product(*spec.parent_domains):
        acc = {v: Fraction(0) for v in dom}
        for eps, mass in noise.items():
            try:
                v = spec.f(pa, eps)
            except Exception as exc:
                raise ModelError(
                    f"structural map for {spec.child!r} failed at "
                    f"(pa={pa!r}, noise={eps!r}): {exc}") from exc
            if v is None:
                raise ModelError(
                    f"structural map for {spec.child!r} is not total: "
                    f"missing cell (pa={pa!r}, noise={eps!r})")
            if v not in acc:
                raise ModelError(
                    f"structural map for {spec.child!r} returned {v!r} "
                    f"outside the child domain at (pa={pa!r}, noise={eps!r})")
            acc[v] += mass
        table[pa] = tuple(acc[v] for v in dom)
    return Mechanism(spec.child, spec.parents, table)


def _projector(pos: Sequence[int]) -> Callable[[Sequence], tuple]:
    """Map a cell to the tuple of its entries at ``pos``."""
    if len(pos) > 1:
        return itemgetter(*pos)
    if pos:
        i, = pos
        return lambda cell: (cell[i],)
    return lambda cell: ()


class _CellProbabilities(Mapping):
    """Read-only view of a table's nonzero cells as reduced fractions,
    each built when read, so ``len`` builds none."""

    __slots__ = ("_weights", "_denominator")

    def __init__(self, weights: dict[tuple, int], denominator: int):
        self._weights = weights
        self._denominator = denominator

    def __getitem__(self, cell: tuple) -> Fraction:
        return Fraction(self._weights[cell], self._denominator)

    def __iter__(self):
        return iter(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class JointDistribution:
    """Exact table over full assignments of a fixed variable order.

    The table is integer ``weights`` over one common ``denominator``:
    cell -> weight, only nonzero cells kept, so a cell's probability is
    ``weights[cell] / denominator``.  Sums, marginals, conditionals and
    comparisons run on the ints; an answer becomes a reduced
    ``Fraction`` only as it leaves the table.  ``probs`` shows the same
    cells as ``Fraction``s.  The table is read-only after construction:
    ``p`` keeps the sums it computes from it.
    """

    def __init__(self, variables: Sequence[str],
                 domains: Sequence[Sequence],
                 probs: Mapping[tuple, object], *, _validate: bool = True):
        # each entry read exactly, as a row is; the denominator is the
        # lcm of the entries' denominators
        entries = []
        for cell, v in probs.items():
            if not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            n = v.numerator
            if n:
                if n < 0:
                    raise ModelError(
                        f"negative probability at cell {cell!r} of the "
                        "joint table")
                entries.append((cell, n, v.denominator))
        den = lcm(*{d for _, _, d in entries})
        weights = {cell: n * (den // d) for cell, n, d in entries}
        if _validate:
            total = sum(weights.values())
            if total != den:
                raise ModelError(f"joint table sums to "
                                 f"{Fraction(total, den)}, not 1")
        self._build(variables, domains, weights, den)

    def _build(self, variables: Iterable[str], domains: Iterable[Sequence],
               weights: dict[tuple, int],
               denominator: int) -> JointDistribution:
        """Set every attribute from positive integer weights."""
        self.variables = tuple(variables)
        self.domains = tuple(tuple(d) for d in domains)
        self.weights = weights
        self.denominator = denominator
        self._index = {n: i for i, n in enumerate(self.variables)}
        # sorted positions -> {their values: summed weight}
        self._sums: dict[tuple[int, ...], dict[tuple, int]] = {}
        return self

    @property
    def probs(self) -> Mapping[tuple, Fraction]:
        """The nonzero cells and their probabilities."""
        return _CellProbabilities(self.weights, self.denominator)

    def _positions(self, names: Iterable[str]) -> list[int]:
        """Positions of ``names`` in the caller's order; an unknown name
        raises, naming the least unknown name by sort order."""
        try:
            return [self._index[n] for n in names]
        except KeyError as exc:  # an iterator keeps the names after it
            unknown = set(names).difference(self._index) | {exc.args[0]}
        raise GraphError(f"unknown variable {min(unknown)!r} in distribution")

    def _kept(self, names: Iterable[str]) -> tuple[int, ...]:
        """Positions of ``names`` in table order; unknown names raise."""
        return tuple(sorted(set(self._positions(names))))

    def _summed(self, pos: tuple[int, ...]) -> dict[tuple, int]:
        """``weights`` summed onto the sorted positions ``pos``: one pass
        on the first call for a set, each key in ``weights`` order;
        later calls are lookups."""
        sums = self._sums.get(pos)
        if sums is None:
            key = _projector(pos)
            sums = {}
            for cell, w in self.weights.items():
                k = key(cell)
                sums[k] = sums.get(k, 0) + w
            self._sums[pos] = sums
        return sums

    def _weight(self, assignment: Mapping[str, Value]) -> int:
        """Summed weight of a (possibly partial) assignment."""
        pos = self._kept(assignment)
        return self._summed(pos).get(
            tuple(assignment[self.variables[i]] for i in pos), 0)

    def p(self, assignment: Mapping[str, Value]) -> Fraction:
        """Probability of a (possibly partial) assignment."""
        return Fraction(self._weight(assignment), self.denominator)

    def marginal(self, names: Iterable[str]) -> JointDistribution:
        """The table summed onto ``names``, over the same denominator."""
        pos = self._kept(names)
        return object.__new__(JointDistribution)._build(
            [self.variables[i] for i in pos], [self.domains[i] for i in pos],
            self._summed(pos), self.denominator)

    def conditional(self, names: Iterable[str],
                    given: Mapping[str, Value]) -> JointDistribution:
        """Exact renormalized distribution of ``names`` given a partial
        assignment: the weights summed onto ``names`` and ``given`` at
        the given values, over the summed weight of ``given``; a zero
        ``p(given)`` raises."""
        gpos = self._positions(given)
        kpos = [i for i in self._kept(names)
                if self.variables[i] not in given]
        norm = self._weight(given)
        if norm == 0:
            ev = ",".join(f"{n}={v!r}" for n, v in given.items())
            raise PositivityError(f"conditioning event ({ev}) "
                                  "has probability zero")
        pos = tuple(sorted(gpos + kpos))
        at = {i: k for k, i in enumerate(pos)}
        match = _projector([at[i] for i in gpos])
        key = _projector([at[i] for i in kpos])
        want = tuple(given.values())
        out = {key(k): w for k, w in self._summed(pos).items()
               if match(k) == want}
        return object.__new__(JointDistribution)._build(
            [self.variables[i] for i in kpos],
            [self.domains[i] for i in kpos], out, norm)

    def total(self) -> Fraction:
        return Fraction(sum(self.weights.values()), self.denominator)

    def total_variation(self, other: JointDistribution) -> Fraction:
        if self.variables != other.variables:
            raise GraphError(
                f"total variation needs tables over the same variables, "
                f"got ({','.join(self.variables)}) and "
                f"({','.join(other.variables)})")
        a, b = self.weights, other.weights
        da, db = self.denominator, other.denominator
        diff = sum(abs(a.get(k, 0) * db - b.get(k, 0) * da)
                   for k in a.keys() | b.keys())
        return Fraction(diff, 2 * da * db)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, JointDistribution)
                and self.variables == other.variables
                and self.weights.keys() == other.weights.keys()):
            return False
        da, db = self.denominator, other.denominator
        return all(w * db == other.weights[k] * da
                   for k, w in self.weights.items())

    def __repr__(self) -> str:
        return (f"JointDistribution({','.join(self.variables)}; "
                f"{len(self.weights)} nonzero cells)")


def dependence_gap(j: JointDistribution, X: Iterable[str], Y: Iterable[str],
                   Z: Iterable[str] = ()) -> Fraction:
    """Largest violation of p(x,y|z) = p(x|z) p(y|z) over assignments with
    positive p(z), read by name on the summed weights w as
    |w(x,y,z) w(z) - w(x,z) w(y,z)| / w(z)^2 (the denominator cancels).
    Zero iff X and Y are independent given Z."""
    xs, ys, zs = tuple(X), tuple(Y), tuple(Z)
    if set(xs) & set(ys) or set(xs) & set(zs) or set(ys) & set(zs):
        raise GraphError("independence query needs disjoint sets")

    def cells(names: tuple[str, ...]) -> list[dict[str, Value]]:
        doms = [j.domains[i] for i in j._positions(names)]
        return [dict(zip(names, vals)) for vals in product(*doms)]

    xcells, ycells = cells(xs), cells(ys)
    w = j._weight
    worst = Fraction(0)
    for z in cells(zs):
        wz = w(z)
        if wz == 0:
            continue
        most = 0
        for x in xcells:
            xz = {**x, **z}
            wxz = w(xz)
            for y in ycells:
                most = max(most, abs(w({**xz, **y}) * wz
                                     - wxz * w({**y, **z})))
        worst = max(worst, Fraction(most, wz * wz))
    return worst


def independent(j: JointDistribution, X: Iterable[str], Y: Iterable[str],
                Z: Iterable[str] = ()) -> bool:
    """Exact conditional-independence check on a joint table: the
    factorization must hold exactly."""
    return dependence_gap(j, X, Y, Z) == 0


class Dataset(_Record):
    """Rows of values, each a tuple in the order of ``variables``."""

    __slots__ = ("variables", "rows")

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.variables)
        w.writerows(self.rows)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> Dataset:
        """A header line, then one row per line; a short or long row raises."""
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None:
            raise ModelError("empty dataset")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ModelError(
                    f"CSV line {reader.line_num} has {len(row)} value(s) "
                    f"for the header's {len(header)} columns")
            rows.append(tuple(row))
        return cls(tuple(header), tuple(rows))


def _extend(steps: list, depth: int, vals: list, pr, out: dict) -> None:
    """Extend the assignment prefix ``vals`` (probability ``pr``) through
    ``steps[depth:]`` depth-first, storing each nonzero full cell in
    ``out``.  A step is ``(position, domain, mechanism, parent
    positions)``; a pinned step has a one-value domain and no mechanism,
    so its factor is 1.

    A module-level function rather than a self-calling closure: such a
    closure forms a reference cycle that keeps ``out`` alive until the
    cyclic garbage collector runs.
    """
    pos, dom, mech, parents = steps[depth]
    row = ((1,) if mech is None
           else mech.row(tuple([vals[i] for i in parents])))
    last = depth + 1 == len(steps)
    for v, f in zip(dom, row):
        q = pr * f
        if q:
            vals[pos] = v
            if last:
                out[tuple(vals)] = q
            else:
                _extend(steps, depth + 1, vals, q, out)


class DiscreteModel:
    """A causal graph, per-variable finite domains, and one mechanism per
    variable (latent variables carry mechanisms too)."""

    def __init__(self, graph: CausalGraph,
                 domains: Mapping[str, Sequence],
                 mechanisms: Mapping[str, Mechanism]):
        # names, then domains, then mechanisms in declaration order: the
        # child, the parents, a row for no parent assignment, then each
        # row (missing, length, sum, sign)
        known = set(graph.names)
        for kind, given in (("domain", domains), ("mechanism", mechanisms)):
            for n in given:
                if n not in known:
                    raise ModelError(f"unknown variable {n!r}", (kind, n))
        doms: dict[str, tuple] = {}
        for n in graph.names:
            if n not in domains:
                raise ModelError(f"no domain declared for {n!r}", ("var", n))
            dom = doms[n] = tuple(domains[n])
            if len(dom) < 2:
                raise ModelError(f"domain of {n!r} needs at least 2 values",
                                 ("domain", n))
            if len(set(dom)) != len(dom):
                raise ModelError(f"repeated value in domain of {n!r}",
                                 ("domain", n))
        mechs: dict[str, Mechanism] = {}
        for n in graph.names:
            m = mechanisms.get(n)
            if m is None:
                raise ModelError(f"no mechanism declared for {n!r}",
                                 ("var", n))
            if m.child != n:
                raise ModelError(f"mechanism for {m.child!r} is declared "
                                 f"for {n!r}", ("mechanism", n))
            if set(m.parents) != graph.parents(n):
                raise ModelError(
                    f"mechanism parents {sorted(m.parents)} for {n!r} do not "
                    f"match graph parents {sorted(graph.parents(n))}",
                    ("var", n))
            table = dict.fromkeys(product(*(doms[p] for p in m.parents)))
            for pa in m.table:
                if pa not in table:
                    raise ModelError(
                        f"mechanism for {n!r} has a row for {pa!r}, which is "
                        f"no assignment of its parents {m.parents!r}",
                        ("row", n, pa))
            for pa in table:
                if pa not in m.table:
                    raise ModelError(f"mechanism for {n!r} has no row for "
                                     f"parent assignment {pa!r}", ("var", n))
                table[pa] = _check_row(n, pa, m.table[pa], len(doms[n]))
            mechs[n] = Mechanism(n, m.parents, table)
        self._build(graph, doms, mechs)

    def _build(self, graph: CausalGraph, domains: dict[str, tuple],
               mechanisms: dict[str, Mechanism]) -> DiscreteModel:
        """Set every attribute from parts known to form a valid model."""
        self.graph = graph
        self.domains = domains
        self.mechanisms = mechanisms
        self._joint: JointDistribution | None = None
        return self

    # -- construction helpers -----------------------------------------

    @classmethod
    def from_tables(cls, graph: CausalGraph,
                    domains: Mapping[str, Sequence],
                    tables: Mapping[str, Mapping[tuple, Sequence]]
                    ) -> DiscreteModel:
        """Build from raw row dictionaries keyed by parent values in
        declaration order; the constructor checks every name and row."""
        mechs = {}
        for n, rows in tables.items():
            mechs[n] = Mechanism(n, graph.ordered(graph._parents.get(n, ())), {
                k if isinstance(k, tuple) else (k,): v
                for k, v in rows.items()})
        return cls(graph, domains, mechs)

    def cells(self) -> int:
        total = 1
        for n in self.graph.names:
            total *= len(self.domains[n])
        return total

    def _budget_check(self):
        if self.cells() > CELL_BUDGET:
            raise ScaleError(
                f"joint table would need {self.cells()} cells, over the "
                f"{CELL_BUDGET}-cell budget; refusing to materialize")

    def prob_given_parents(self, name: str, value: Value,
                           assignment: Mapping[str, Value]):
        m = self.mechanisms[name]
        pa = tuple(assignment[p] for p in m.parents)
        return m.row(pa)[self.domains[name].index(value)]

    # -- core operations ------------------------------------------------

    def _product(self, target: str | None = None,
                 value: Value = None) -> dict[tuple, object]:
        """Nonzero cells of the product of the conditional tables, keyed
        in declaration order.  With a ``target``, that variable is pinned
        to ``value`` and its own factor left out (the truncated product).

        The variables are walked depth-first in topological order, so
        each prefix product is computed once and a zero entry drops the
        prefix with all its extensions.
        """
        self._budget_check()
        steps = []
        for var in self.graph.topological_order():
            n, dom = var.name, self.domains[var.name]
            if n == target:
                steps.append((self.graph.index(n), (dom[dom.index(value)],),
                              None, ()))
                continue
            m = self.mechanisms[n]
            steps.append((self.graph.index(n), dom, m,
                          tuple(self.graph.index(p) for p in m.parents)))
        cells: dict[tuple, object] = {}
        if steps:
            _extend(steps, 0, [None] * len(steps), 1, cells)
        else:
            cells[()] = 1
        return cells

    def joint(self) -> JointDistribution:
        """Full joint table: product of the conditional tables, built
        once per model (shared prefix products, see ``_product``)."""
        if self._joint is None:
            names = self.graph.names
            self._joint = JointDistribution(
                names, [self.domains[n] for n in names], self._product())
        return self._joint

    def truncated(self, target: str, value: Value) -> JointDistribution:
        """Post-intervention joint via the truncated product: drop the
        target's own factor, zero out assignments with target != value.

        The product form sidesteps division by zero-probability rows.
        It shares ``_product`` with ``joint``.
        """
        self.graph.index(target)
        if value not in self.domains[target]:
            raise ModelError(f"{value!r} not in domain of {target!r}")
        names = self.graph.names
        return JointDistribution(names, [self.domains[n] for n in names],
                                 self._product(target, value))

    def intervene(self, assignments: Mapping[str, Value]) -> DiscreteModel:
        """Graph surgery: cut edges into the assigned variables and pin
        their mechanisms to point masses.  Repeated intervention on the
        same variable keeps the last value.

        The surgered model is built without revalidating: every kept row
        was validated when ``self`` was built, and a point-mass row is
        exact by construction."""
        for n, v in assignments.items():
            self.graph.index(n)
            if v not in self.domains[n]:
                raise ModelError(f"{v!r} not in domain of {n!r}")
        if not assignments:
            return self
        mechs = dict(self.mechanisms)
        for n, v in assignments.items():
            point = tuple(Fraction(d == v) for d in self.domains[n])
            mechs[n] = Mechanism(n, (), {(): point})
        return object.__new__(DiscreteModel)._build(
            self.graph.mutilate(cut_incoming=assignments), self.domains, mechs)

    def do_marginal(self, do: Mapping[str, Value],
                    targets: Iterable[str]) -> JointDistribution:
        """Interventional marginal p(targets | do(...)), by surgery.

        This is the oracle every identification formula is checked
        against.
        """
        return self.intervene(do).joint().marginal(targets)

    # -- sampling --------------------------------------------------------

    def sample(self, seed: int, n: int) -> Dataset:
        """Forward ancestral sampling; deterministic for a given seed."""
        if n < 1:
            raise ModelError("need at least one sample")
        rng = random.Random(seed)
        order = [v.name for v in self.graph.topological_order()]
        rows = []
        for _ in range(n):
            a: dict[str, Value] = {}
            for name in order:
                m = self.mechanisms[name]
                row = m.row(tuple(a[p] for p in m.parents))
                r = rng.random()
                acc = 0.0
                val = self.domains[name][-1]
                for v, p in zip(self.domains[name], row):
                    acc += float(p)
                    if r < acc:
                        val = v
                        break
                a[name] = val
            rows.append(tuple(a[x] for x in self.graph.names))
        return Dataset(self.graph.names, tuple(rows))

    def __repr__(self) -> str:
        return f"DiscreteModel({self.graph!r})"


def fit(variables: Sequence[str], domains: Mapping[str, Sequence],
        data: Dataset) -> JointDistribution:
    """Empirical joint: the counts over n rows as weights over n; no
    rows, a missing column or a value outside its declared domain raises."""
    if not data.rows:
        raise ModelError("dataset has no rows")
    for v in variables:
        if v not in data.variables:
            raise ModelError(f"dataset has no column {v!r}")
    pos = [data.variables.index(v) for v in variables]
    doms = [tuple(domains[v]) for v in variables]
    counts: dict[tuple, int] = {}
    for r, row in enumerate(data.rows, 1):
        key = tuple(row[i] for i in pos)
        for v, x, dom in zip(variables, key, doms):
            if x not in dom:
                raise ModelError(f"value {x!r} of {v!r} in dataset row "
                                 f"{r} is outside its domain {dom!r}")
        counts[key] = counts.get(key, 0) + 1
    return object.__new__(JointDistribution)._build(variables, doms, counts,
                                                    len(data.rows))


def graft_coin(model: DiscreteModel, treatment: str,
               coin: str = "C") -> DiscreteModel:
    """Randomize a treatment: add a uniform coin node as the treatment's
    only parent and make the treatment copy it, as a trial randomizer
    would.  The coin's domain mirrors the treatment's; the graph refuses
    an unknown treatment or a coin name already in use."""
    g = model.graph
    kept = g.mutilate(cut_incoming=(treatment,)).edges
    g2 = CausalGraph(g.variables + (Variable(coin),),
                     kept + ((coin, treatment),))
    dom = model.domains[treatment]
    doms = dict(model.domains)
    doms[coin] = dom
    mechs = dict(model.mechanisms)
    uniform = tuple(Fraction(1, len(dom)) for _ in dom)
    mechs[coin] = Mechanism(coin, (), {(): uniform})
    mechs[treatment] = Mechanism(treatment, (coin,), {
        (c,): tuple(Fraction(d == c) for d in dom) for c in dom})
    return DiscreteModel(g2, doms, mechs)


def random_model(graph: CausalGraph, rng: random.Random,
                 cards: Sequence[int] = (2,)) -> DiscreteModel:
    """Random strictly positive rational model over a graph.

    Every conditional row is drawn from integer weights in
    [1, MAX_WEIGHT], so all events have positive probability and all
    arithmetic stays exact.
    """
    domains = {n: tuple(range(rng.choice(list(cards))))
               for n in graph.names}
    mechs = {}
    for n in graph.names:
        ps = graph.ordered(graph.parents(n))
        table = {}
        for pa in product(*[domains[p] for p in ps]):
            w = [rng.randint(1, MAX_WEIGHT) for _ in domains[n]]
            s = sum(w)
            table[pa] = tuple(Fraction(x, s) for x in w)
        mechs[n] = Mechanism(n, ps, table)
    return DiscreteModel(graph, domains, mechs)
