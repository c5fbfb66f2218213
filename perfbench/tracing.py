"""In-memory spans around the public functions of the dhymgeo modules.

``instrument`` wraps every public function of the layer modules and
rebinds the wrapper under every name a dhymgeo module binds to the
original, so ``from .angles import phi_lifted_usc_batch`` in
``geodesic`` is caught as well as ``angles.phi_lifted_usc_batch``.
Private names (leading underscore) are never touched: the sweep kernel
stays inside the self time of ``geodesic.solve``.

Spans are kept in flat arrays (about 40 bytes each) and written out once
at the end of a run.  A span's self time is its duration minus the part
of its interval that its direct child spans cover, counting overlapping
children once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from contextlib import contextmanager

LAYER_MODULES = ("linalg", "angles", "subequations", "geometry", "geodesic", "config", "cli")

# Work counted at the span boundary, so per-item ratios are measured where
# the work happens: matrices in a batch call, grid points of a field.
def _stack_count(args, kwargs):
    shape = getattr(args[0], "shape", ())
    count = 1
    for s in shape[:-2]:
        count *= int(s)
    return count


def _field_points(args, kwargs):
    return int(getattr(args[1], "size", 0))


WORK_COUNTERS = {
    "angles.phi_lifted_usc_batch": _stack_count,
    "angles.phi_lifted_lsc_batch": _stack_count,
    "angles.theta_batch": _stack_count,
    "geometry.complex_hessian": _field_points,
}

class Tracer:
    """Span store: name, start, end, parent index, work count, op id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("q")
        self.op = array("i")
        self.current_op = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def __len__(self):
        return len(self.start)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name, work=0):
        """Start a span in the calling thread; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.start)
            self.name_id.append(self._intern(name))
            self.parent.append(parent)
            self.work.append(work)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.start.append(self.clock())
        stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self._stack().pop()

    @contextmanager
    def span(self, name, work=0):
        idx = self.open(name, work)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name, fn):
        counter = WORK_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, counter(args, kwargs) if counter is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def records(self):
        """Spans as a list of dicts (name, start, end, parent, work, op)."""
        return [
            {
                "name": self.names[self.name_id[i]],
                "start": self.start[i],
                "end": self.end[i],
                "parent": self.parent[i],
                "work": self.work[i],
                "op": self.op[i],
            }
            for i in range(len(self.start))
        ]

    def self_times(self):
        """Per-span self time: duration minus the union of direct children."""
        n = len(self.start)
        children = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = [self.end[i] - self.start[i] for i in range(n)]
        for p, kids in children.items():
            lo, hi = self.start[p], self.end[p]
            ivs = sorted(
                (max(self.start[k], lo), min(self.end[k], hi)) for k in kids
            )
            covered = 0.0
            cur_lo, cur_hi = None, None
            for a, b in ivs:
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                elif b > cur_hi:
                    cur_hi = b
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[p] -= covered
        return out

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


def public_functions(module):
    """Public functions defined in ``module`` itself, by name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


@contextmanager
def instrument(tracer):
    """Wrap the public functions of the dhymgeo layer modules for the duration.

    Every binding of an original function in any loaded dhymgeo module
    (the package itself included) is replaced by its wrapper and restored
    on exit.
    """
    originals = {}
    for layer in LAYER_MODULES:
        mod = importlib.import_module(f"dhymgeo.{layer}")
        for name, fn in public_functions(mod).items():
            originals[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "dhymgeo" or modname.startswith("dhymgeo.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


class Aggregate:
    """Per-name totals over a tracer's spans, with ancestry queries.

    With ``ops_only`` only spans opened inside a timed operation count.
    ``self_t`` reuses the self times another Aggregate of the tracer computed.
    """

    def __init__(self, tracer, ops_only=False, self_t=None):
        self.tracer = tracer
        self.self_t = tracer.self_times() if self_t is None else self_t
        self.by_name = {}
        for i in range(len(tracer)):
            if ops_only and tracer.op[i] < 0:
                continue
            self.by_name.setdefault(tracer.names[tracer.name_id[i]], []).append(i)

    def spans(self, name):
        return self.by_name.get(name, [])

    def calls(self, name):
        return len(self.spans(name))

    def total(self, name):
        t = self.tracer
        return sum(t.end[i] - t.start[i] for i in self.spans(name))

    def self_total(self, name):
        return sum(self.self_t[i] for i in self.spans(name))

    def work(self, name):
        return sum(self.tracer.work[i] for i in self.spans(name))

    def has_ancestor(self, idx, name):
        t = self.tracer
        p = t.parent[idx]
        while p >= 0:
            if t.names[t.name_id[p]] == name:
                return True
            p = t.parent[p]
        return False

    def under(self, name, ancestor):
        """Spans called ``name`` nested (at any depth) in an ``ancestor`` span."""
        return [i for i in self.spans(name) if self.has_ancestor(i, ancestor)]

    def total_under(self, name, ancestor):
        t = self.tracer
        return sum(t.end[i] - t.start[i] for i in self.under(name, ancestor))

    def table(self):
        """Rows (name, calls, self seconds, share of all self time), largest first."""
        rows = [
            (name, len(idx), sum(self.self_t[i] for i in idx))
            for name, idx in self.by_name.items()
        ]
        rows.sort(key=lambda r: -r[2])
        grand = sum(r[2] for r in rows) or 1.0
        return [(name, calls, s, s / grand) for name, calls, s in rows]
