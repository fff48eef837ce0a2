"""Layer tracing from outside the package.

``Tracer.install`` replaces each traced function of ``causalid`` with a
wrapper that records a span around the call: its duration, its self
time (duration minus the time covered by child spans), the op it
belongs to and, through the span stack, its parent.  Spans are folded
into per-op and per-pass counters as they close, because one leafy
search op opens up to about 10^5 of them.

Several modules bind names at import time (``identify`` binds
``d_separated``, ``evaluate`` and ``random_model``; ``cli`` binds
``identify``, ``evaluate`` and ``parse_model``; ``catalog`` binds
``identify``), so every module attribute that is the original function
is rebound, not just the defining one.  Methods are patched on their
class, which every binding shares.

``Sampler`` charges time to modules rather than to wrapped functions:
time in a helper that no span wraps (``graph``'s ancestor walks,
``dsep``'s private sweep) belongs to the module that defines the helper,
not to whichever wrapped caller from another module is on the stack.
"""

from __future__ import annotations

import functools
import importlib
import os
import signal
import sys
from time import perf_counter

PACKAGE = "causalid"
MODULES = ("graph", "dsep", "identify", "expr", "scm", "dsl", "cli")


def _truth(args, result, pre):
    return (1 if result else 0), 0


def _cells(model) -> int:
    total = 1
    for dom in model.domains.values():
        total *= len(dom)
    return total


def _joint_pre(args):
    # cells are enumerated only when the cached joint is absent
    return getattr(args[0], "_joint", None) is None


def _joint_post(args, result, building):
    return 0, (_cells(args[0]) if building else 0)


def _truncated_post(args, result, pre):
    return 0, _cells(args[0])


def _scanned_post(args, result, pre):
    return 0, len(getattr(args[0], "probs", ()))


# (module, attribute path, counter key, pre hook, post hook); a post
# hook returns (true count, cells) increments for a successful call.
TARGETS = (
    ("graph", "CausalGraph.__init__", "graph.CausalGraph", None, None),
    ("graph", "CausalGraph.mutilate", "graph.mutilate", None, None),
    ("graph", "CausalGraph.z_hat", "graph.z_hat", None, None),
    ("dsep", "d_separated", "dsep.d_separated", None, _truth),
    ("identify", "identify", "identify.identify", None, None),
    ("identify", "rule1_applicable", "identify.rule1_applicable", None,
     _truth),
    ("identify", "rule2_applicable", "identify.rule2_applicable", None,
     _truth),
    ("identify", "rule3_applicable", "identify.rule3_applicable", None,
     _truth),
    ("identify", "backdoor_admissible", "identify.backdoor_admissible",
     None, _truth),
    ("identify", "frontdoor_admissible", "identify.frontdoor_admissible",
     None, _truth),
    ("identify", "find_backdoor_sets", "identify.find_backdoor_sets",
     None, None),
    ("identify", "find_frontdoor_sets", "identify.find_frontdoor_sets",
     None, None),
    ("identify", "matches_non_identifiable_catalog",
     "identify.matches_non_identifiable_catalog", None, None),
    ("expr", "GuardFact.verify", "expr.GuardFact.verify", None, None),
    ("expr", "evaluate", "expr.evaluate", None, None),
    ("expr", "parse", "expr.parse", None, None),
    ("expr", "render", "expr.render", None, None),
    ("scm", "DiscreteModel.joint", "scm.DiscreteModel.joint", _joint_pre,
     _joint_post),
    ("scm", "DiscreteModel.truncated", "scm.DiscreteModel.truncated", None,
     _truncated_post),
    ("scm", "DiscreteModel.do_marginal", "scm.DiscreteModel.do_marginal",
     None, None),
    ("scm", "JointDistribution.p", "scm.JointDistribution.p", None,
     _scanned_post),
    ("scm", "JointDistribution.marginal", "scm.JointDistribution.marginal",
     None, None),
    ("scm", "random_model", "scm.random_model", None, None),
    ("dsl", "parse_graph", "dsl.parse_graph", None, None),
    ("dsl", "parse_model", "dsl.parse_model", None, None),
    ("cli", "main", "cli.main", None, None),
)

# counter slots: calls, self seconds, true results, cells
CALLS, SELF, TRUE, CELLS = range(4)


def _bump(table: dict, key: str, self_s: float, true: int, cells: int):
    s = table.get(key)
    if s is None:
        s = table[key] = [0, 0.0, 0, 0]
    s[CALLS] += 1
    s[SELF] += self_s
    s[TRUE] += true
    s[CELLS] += cells


class Tracer:
    """Span recorder; counters go to ``self.op`` and ``self.run``, the
    tables the caller points at the current op and pass."""

    def __init__(self):
        self.stack: list[list] = []   # open spans: [module, child seconds]
        self.op: dict = {}
        self.run: dict = {}
        self.missing: list[str] = []
        self._undo: list = []

    def _wrap(self, module: str, key: str, fn, pre, post):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [module, 0.0]
            stack.append(frame)
            ctx = pre(args) if pre is not None else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, key, perf_counter() - t0, 0, 0)
                if parent is None or parent[0] != module:
                    _bump(tracer.op, module + ".raised", 0.0, 0, 0)
                    _bump(tracer.run, module + ".raised", 0.0, 0, 0)
                raise
            dt = perf_counter() - t0
            true, cells = (post(args, result, ctx) if post is not None
                           else (0, 0))
            tracer._close(frame, parent, key, dt, true, cells)
            return result

        return span

    def _close(self, frame, parent, key, dt, true, cells) -> None:
        self.stack.pop()
        if parent is not None:
            parent[1] += dt
        self_s = dt - frame[1]
        _bump(self.op, key, self_s, true, cells)
        _bump(self.run, key, self_s, true, cells)

    def install(self) -> None:
        self.missing = []
        pkg_mods = [m for name, m in list(sys.modules.items())
                    if m is not None and (name == PACKAGE or
                                          name.startswith(PACKAGE + "."))]
        for module, path, key, pre, post in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if original is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                setattr(cls, meth, self._wrap(module, key, original, pre,
                                              post))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, path, None)
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            wrapper = self._wrap(module, key, original, pre, post)
            for m in pkg_mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Sampler:
    """Statistical profile by module.  Every ``INTERVAL`` seconds of
    process CPU time a profiling signal finds the innermost frame of
    ``causalid`` code on the stack and counts one sample for the module
    that defines it.  Library code (``fractions``, ``itertools``, the
    tracer's own wrappers) is charged to the package frame that called
    it; a signal with no package frame on the stack counts nothing."""

    INTERVAL = 0.001  # seconds of CPU time between samples

    def __init__(self):
        self.samples: dict[str, int] = {}
        pkg = importlib.import_module(PACKAGE)
        self._prefix = os.path.dirname(pkg.__file__) + os.sep
        self._old = None

    def _hit(self, signum, frame) -> None:
        prefix = self._prefix
        while frame is not None:
            path = frame.f_code.co_filename
            if path.startswith(prefix):
                module = path[len(prefix):].removesuffix(".py")
                self.samples[module] = self.samples.get(module, 0) + 1
                return
            frame = frame.f_back

    def start(self) -> None:
        self._old = signal.signal(signal.SIGPROF, self._hit)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
