"""Spans and counts around the calls into the program's layers.

The tracer replaces a function at every module attribute through which the
program calls it with a wrapper that times the call.  Functions called a
handful of times per operation (the CLI commands, the solvers, the extremal
integration, the certificate, the exporters) are recorded as spans
``(id, name, start, end, parent, operation)`` kept in memory and written out
when the run ends.  Functions on the integrator's hot path (the Hamiltonian
methods, the problem's callbacks) are called hundreds of thousands of times
per operation; they are aggregated into (calls, total, self) per operation
instead, which keeps the trace small.  Both kinds sit on the same per-thread
stack, so self times subtract the callbacks' time from the Hamiltonian and
so on.  A span's self time subtracts only children on its own thread: the
sweep's worker threads overlap ``cmd_sweep`` instead of consuming it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class _ThreadState:
    def __init__(self):
        self.stack = []                                   # frames, see _call
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])     # calls, total, self
        self.counts = defaultdict(float)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._main = self._state()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    def count(self, name: str, value: float = 1.0) -> None:
        self._state().counts[name] += value

    def wrap(self, name: str, fn, span: bool = True, name_of=None):
        """Timed stand-in for ``fn``.  ``name_of(parent_name)``, when given,
        chooses the recorded name from the caller's name."""
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack:
                parent_name, parent_id = stack[-1][0], stack[-1][2]
            else:
                parent_name = None
                main = tracer._main.stack
                parent_id = main[-1][2] if (main and st is not tracer._main) else None
            label = name_of(parent_name) if name_of else name
            frame = [label, 0.0, next(tracer._ids) if span else parent_id]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                rec = st.agg[label]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if span:
                    tracer.spans.append((frame[2], label, t0, t1, parent_id,
                                         tracer.op))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owners, attr: str, name: str, span: bool = True,
              name_of=None, around=None):
        """Wrap ``owner.attr`` once and install the wrapper on every owner.

        ``around(original)``, when given, is what the wrapper times."""
        original = getattr(owners[0], attr)
        target = around(original) if around else original
        traced = self.wrap(name, target, span=span, name_of=name_of)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the function "
                                   f"{name} calls through")
            setattr(owner, attr, traced)
        return traced

    def take(self):
        """Merge and reset every thread's aggregates: (agg, counts)."""
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(float)
        with self._lock:
            for st in self._states:
                for name, rec in st.agg.items():
                    out = agg[name]
                    for i in range(3):
                        out[i] += rec[i]
                for name, value in st.counts.items():
                    counts[name] += value
                st.agg.clear()
                st.counts.clear()
        return agg, counts

    def write(self, path, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op})
                         + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")
