"""In-memory span tracer for the benchmark.

Spans are recorded from the benchmark's own files: public mhdkit functions
and methods are replaced, for the duration of a traced repetition, by
wrappers that record (name, start, end, parent).  Nothing in `src/` is
edited.  A module-level function is replaced in every mhdkit module whose
namespace holds it, because callers look it up there (`cell_matrix` as
imported into `mhdkit.models.standard`, for example); a method is replaced
on the class that defines it.
"""

import contextlib
import functools
import sys
import time

PACKAGE = "mhdkit"


class Patcher:
    """Replaces attributes of classes and modules and puts them back."""

    def __init__(self):
        self._patched = []

    def replace(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap_method(self, cls, attr, wrapper):
        """Replace `cls.attr`, defined on `cls` itself, by
        `wrapper(original)`."""
        self.replace(cls, attr, wrapper(vars(cls)[attr]))

    def wrap_function(self, original, wrapper):
        """Replace `original` by `wrapper(original)` in every loaded module
        of PACKAGE whose namespace holds it."""
        new = wrapper(original)
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.replace(mod, attr, new)
                    hits += 1
        if not hits:
            raise LookupError(f"{original.__qualname__} is not bound in any "
                              f"{PACKAGE} module")

    def restore(self):
        """Put every replaced attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class Tracer:
    """Nested spans kept in memory as [name, start, end, parent index]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.clock(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name):
        """`fn` with a span around each call; the return value is passed
        through unchanged."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def wrapper(self, name):
        """`wrap` with the span name bound, for `Patcher.wrap_*`."""
        return lambda fn: self.wrap(fn, name)

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, roots):
    """name -> (total self time, calls) over the spans that are named in
    `roots` or lie below such a span; spans outside them (untimed work
    between the phases) are left out.  A span's self time is its duration
    minus the part of its interval covered by its child spans."""
    inside = []
    for name, _, _, parent in spans:  # a parent is recorded before its child
        inside.append(name in roots or (parent >= 0 and inside[parent]))
    children = {}
    for i, (_, s, e, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((s, e))
    out = {}
    for i, (name, s, e, _) in enumerate(spans):
        if not inside[i]:
            continue
        own = (e - s) - _covered(children.get(i, ()), s, e)
        tot, calls = out.get(name, (0.0, 0))
        out[name] = (tot + own, calls + 1)
    return out


def count_within(spans, name, ancestor):
    """Number of `name` spans that have an `ancestor` span above them."""
    n = 0
    for rec in spans:
        if rec[0] != name:
            continue
        p = rec[3]
        while p >= 0:
            if spans[p][0] == ancestor:
                n += 1
                break
            p = spans[p][3]
    return n
