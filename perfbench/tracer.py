"""In-memory span tracer installed from outside the program.

The tracer replaces module-level functions (and a few methods) of the
``lti2mpc`` package with thin wrappers that record one span per call:
name, start, end, parent span and repetition id.  Nothing in the package
is edited; the wrappers are installed by name and removed again by
``uninstall``.  A name that no longer exists (after a refactor) is
recorded as absent instead of raising.

A function imported into other modules with ``from .x import f`` is bound
there as well; every attribute of a loaded ``lti2mpc`` module that is the
very same object gets the wrapper too, so calls through any import path
are seen.

Self time of a span is its duration minus the durations of its direct
children.  Inclusive time of a name counts only its outermost spans, so a
function that calls itself through another traced function (for example
``spectral_radius`` inside ``h2_norm`` inside ``score_realisation``) is not
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

__all__ = ["Tracer", "percentile"]


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty sequence (q in 0..100)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.rep: list = []
        self.rep_id = 0
        self._stack: list = []
        self._patched: list = []  # (holder, attribute, original)
        self.absent: list = []
        # span name -> [(span index, args, kwargs, result)] for kept spans
        self.records: dict = {}
        self.signatures: dict = {}

    # -- installation ------------------------------------------------------

    def install(self, targets, keep_calls=()):
        """Wrap each (span name, module, dotted attribute) target.

        ``keep_calls`` names the spans whose arguments and results are kept
        in ``records`` for checks made after the run.
        """
        keep = set(keep_calls)
        self.absent = []
        for span_name, module_name, attr_path in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(span_name)
                continue
            *owner_path, attr = attr_path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, original, span_name in keep)
            self.signatures[span_name] = inspect.signature(original)
            if owner is module:
                bindings = [(m, key) for name, m in list(sys.modules.items())
                            if m is not None and name.split(".")[0] == "lti2mpc"
                            for key, value in list(vars(m).items()) if value is original]
            else:
                bindings = [(owner, attr)]
            for holder, key in bindings:
                setattr(holder, key, wrapper)
                self._patched.append((holder, key, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, keep):
        names, start, end, parent, rep, stack = (
            self.names, self.start, self.end, self.parent, self.rep, self._stack)
        records = self.records.setdefault(name, []) if keep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            rep.append(self.rep_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if records is not None:
                records.append((idx, args, kwargs, out))
            return out

        return wrapper

    # -- analysis ------------------------------------------------------------

    def arguments(self, name, args, kwargs):
        """Arguments of a kept call by parameter name, defaults filled in."""
        bound = self.signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def spans_of(self, rep_id):
        return [i for i, r in enumerate(self.rep) if r == rep_id]

    def summary(self, rep_id):
        """Per span name: calls, inclusive seconds, self seconds, and the
        list of per-call durations (seconds), for one repetition."""
        idx = self.spans_of(rep_id)
        dur = {i: (self.end[i] - self.start[i]) * 1e-9 for i in idx}
        child = dict.fromkeys(idx, 0.0)
        for i in idx:
            p = self.parent[i]
            if p in child:
                child[p] += dur[i]
        out: dict = {}
        for i in idx:
            name = self.names[i]
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            s["durations"].append(dur[i])
            if not self._has_ancestor_named(i, name):
                s["s"] += dur[i]
        return out

    def _has_ancestor_named(self, i, name):
        p = self.parent[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parent[p]
        return False

    def ancestor_named(self, i, name):
        """Index of the nearest enclosing span called ``name``, or -1."""
        p = self.parent[i]
        while p >= 0 and self.names[p] != name:
            p = self.parent[p]
        return p

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("span,rep,parent,name,start_ns,end_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.rep[i]},{self.parent[i]},{name},"
                         f"{self.start[i]},{self.end[i]}\n")
