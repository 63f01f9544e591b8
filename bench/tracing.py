"""Span tracing of the package's layers, installed from outside the package.

The package binds names directly (``from .problem import jacobian``), so a
layer function can be reached through several module globals. ``Tracer``
replaces every global of every ``gnflow`` module that is bound to a listed
function with one wrapper, records a span per call, and puts the originals
back on exit. Counted methods get a call counter and no span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

#: Layer functions traced with spans, as (module, function).
SPAN_FUNCTIONS = (
    ("hilbert", "as_vector"),
    ("hilbert", "as_operator"),
    ("hilbert", "op_norm"),
    ("hilbert", "solve_regularized"),
    ("problem", "eval_F"),
    ("problem", "jacobian"),
    ("problem", "fd_jacobian"),
    ("problem", "estimate_bounds"),
    ("flow", "coupled_rhs"),
    ("flow", "direct_rhs"),
    ("flow", "diagnostics"),
    ("flow", "initial_inverse"),
    ("integrator", "integrate"),
    ("integrator", "step"),
    ("theory", "certify_with_canonical_R"),
    ("theory", "certify"),
    ("theory", "solve_source"),
    ("theory", "gronwall_check"),
    ("gallery", "compliant_instance"),
    ("gallery", "get_entry"),
)

#: Methods whose calls are only counted, as (module, class, method).
COUNTED_METHODS = (("schedule", "PowerSchedule", "eps"),)

#: The traced package.
PACKAGE = "gnflow"

_MARK = "__bench_traced__"


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def find_wrappers() -> list:
    """Names of every tracing wrapper still bound in the package."""
    found = []
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, _MARK):
                found.append(f"{mod.__name__}.{attr}")
    for mod_name, cls_name, meth in COUNTED_METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
        if hasattr(vars(cls)[meth], _MARK):
            found.append(f"{PACKAGE}.{mod_name}.{cls_name}.{meth}")
    return found


def require_untraced() -> None:
    """Raise if any tracing wrapper is still installed."""
    left = find_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left}")


class Tracer:
    """Context manager that records a span per layer call.

    Spans are kept in flat arrays: name index, parent span (-1 at the top),
    job id (set ``tracer.job`` before each job; -1 is set-up), start and end
    in nanoseconds of ``time.perf_counter_ns``.
    """

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in SPAN_FUNCTIONS]
        self.name_idx = array("i")
        self.parent = array("q")
        self.job_ids = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = {f"{m}.{c}.{f}": 0 for m, c, f in COUNTED_METHODS}
        self.job = -1
        self._stack = []
        self._patched = []

    def _span(self, idx: int, fn):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_idx.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.job_ids.append(self.job)
            self.end.append(0)
            stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def __enter__(self):
        require_untraced()
        wrappers = {}
        for idx, (mod_name, fn_name) in enumerate(SPAN_FUNCTIONS):
            fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrappers[id(fn)] = (fn, self._span(idx, fn))
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, meth in COUNTED_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            fn = vars(cls)[meth]
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self._counter(f"{mod_name}.{cls_name}.{meth}", fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        require_untraced()
        return False

    def spans(self):
        """Rows (id, parent, job, name, start_ns, end_ns) of every span."""
        for i in range(len(self.start)):
            yield (i, self.parent[i], self.job_ids[i], self.names[self.name_idx[i]],
                   self.start[i], self.end[i])

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,job,name,start_ns,end_ns\n")
            for row in self.spans():
                fh.write(",".join(map(str, row)) + "\n")

    def layer_stats(self) -> dict:
        """Per traced function: calls, total_ms and self_ms."""
        selfs = self_times(self.start, self.end, self.parent)
        stats = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in self.names}
        for i, idx in enumerate(self.name_idx):
            s = stats[self.names[idx]]
            s["calls"] += 1
            s["total_ms"] += (self.end[i] - self.start[i]) / 1e6
            s["self_ms"] += selfs[i] / 1e6
        return stats


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it that its child spans cover.

    Children are the spans whose ``parent`` is the span's index. Their
    intervals are clipped to the parent's and merged, so overlapping or
    protruding children are not counted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            cs, ce = max(start[c], s), min(end[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out
