"""Spans and counters recorded from outside the program.

The tracer replaces public functions of randflight's modules (and
methods of the law instances the benchmark builds) with wrappers that
record a span per call: name, start, end, parent span and op id.  The
program's files are not touched; ``restore`` puts the originals back.
Spans stay in memory until the run ends.  Calls made from worker
threads take the innermost open span of the thread that opened the op
as their parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "sid name start end parent op")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)   # (op, name) -> count
        self.op = None                           # id of the op being traced
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list = []
        self._lock = threading.Lock()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op) -> None:
        self.op = op
        self._op_stack = self._stack()

    def end_op(self) -> None:
        self.op = None

    def add(self, op, name: str, amount: float) -> None:
        with self._lock:
            self.counts[(op, name)] += amount

    def wrap(self, owner, attr: str, name: str, span: bool = True,
             counters: dict | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``counters`` maps a counter name to ``f(arguments, result)``,
        where ``arguments`` are the call's bound arguments with defaults
        applied.  With ``span=False`` only the call count is kept.
        """
        orig = getattr(owner, attr)
        sig = inspect.signature(orig) if counters else None
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return orig(*args, **kwargs)
            if not span:
                tracer.add(op, name, 1)
                return orig(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._op_stack[-1] if tracer._op_stack else None)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, op))
            if counters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for cname, f in counters.items():
                    tracer.add(op, cname, f(bound.arguments, result))
            return result

        self._patches.append((owner, attr, orig, attr in vars(owner)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, orig, own in reversed(self._patches):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- derived quantities ------------------------------------------------

    def by_op(self, name: str) -> dict:
        """op -> spans of ``name`` in start order."""
        out = defaultdict(list)
        for s in sorted(self.spans, key=lambda s: s.start):
            if s.name == name:
                out[s.op].append(s)
        return out

    def self_times(self) -> dict:
        """sid -> span duration minus the time its children cover."""
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for a, b in sorted(children.get(s.sid, ())):
                a, b = max(a, reach), min(b, s.end)
                if b > a:
                    covered += b - a
                    reach = b
            out[s.sid] = (s.end - s.start) - covered
        return out
