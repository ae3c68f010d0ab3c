"""In-memory tracer for the ledger's traced pass.

The program under test is never edited: the tracer swaps public callables
for timing wrappers at runtime (:meth:`Tracer.patch_attr` for methods,
:meth:`Tracer.patch_function` for module-level functions that other modules
imported by name) and swaps them back in :meth:`Tracer.uninstall`.

Two kinds of record:

- a **span** (name, start, end, parent span, op id, self time) for calls that
  happen a handful of times per op -- a trainer run, a policy solve, a cell;
- an **aggregate** (count, total, self time, summed value) per
  ``(enclosing span, name)`` for calls that happen once per simulated event
  -- link queries, gradient evaluations, consensus steps -- where one span
  each would cost more than the call it times.

Self time is a record's duration minus the durations of the wrapped calls
made directly beneath it, so self times over all names add up to the
duration of the root spans. Stacks are per thread (the ``sweep-service``
traced pass runs one queue worker on a thread next to the coordinator).
"""

import contextlib
import functools
import itertools
import sys
import threading
import time


class Tracer:
    def __init__(self):
        # (id, name, parent id, op, start, end, self_s, value)
        self.spans = []
        # (enclosing span id, name) -> [count, total_s, self_s, value]
        self.aggregates = {}
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches = []

    # Each stack frame is [seconds spent in wrapped callees, enclosing span
    # id] (a span's frame also keeps the op to restore when it closes); the
    # bottom frame stands for the thread itself.
    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [[0.0, None]]
            self._local.op = None
            return self._local.stack

    def set_op(self, op):
        """Tag the spans this thread opens from now on with ``op``."""
        self._stack()
        self._local.op = op

    @contextlib.contextmanager
    def span(self, name, op=None):
        """Record one span around a block of ledger code."""
        stack, frame, parent = self._open(op)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, stack, frame, parent, start, time.perf_counter(), None)

    def _open(self, op):
        stack = self._stack()
        frame = [0.0, next(self._ids), self._local.op]
        if op is not None:
            self._local.op = op
        parent = stack[-1][1]
        stack.append(frame)
        return stack, frame, parent

    def _close(self, name, stack, frame, parent, start, end, value):
        stack.pop()
        elapsed = end - start
        stack[-1][0] += elapsed
        self.spans.append((
            frame[1], name, parent, self._local.op,
            start - self.origin, end - self.origin, elapsed - frame[0], value,
        ))
        self._local.op = frame[2]

    def wrap_span(self, name, func, op_from=None, value_from=None):
        """``func`` timed as one span per call.

        ``op_from(*args)`` names the op the call belongs to (inherited by
        every span beneath it); ``value_from(args, result)`` attaches a
        number read after the call (an event count, say).
        """
        perf = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            op = op_from(*args) if op_from is not None else None
            stack, frame, parent = self._open(op)
            value = None
            start = perf()
            try:
                result = func(*args, **kwargs)
                if value_from is not None:
                    value = value_from(args, result)
                return result
            finally:
                self._close(name, stack, frame, parent, start, perf(), value)

        return wrapper

    def wrap_aggregate(self, name, func, value_from=None):
        """``func`` timed into one (count, total, self) cell per enclosing span.

        ``value_from(args)`` is summed alongside (bytes per transfer, say).
        """
        perf = time.perf_counter
        aggregates = self.aggregates
        get_stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = get_stack()
            enclosing = stack[-1][1]
            frame = [0.0, enclosing]
            stack.append(frame)
            start = perf()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                stack[-1][0] += elapsed
                key = (enclosing, name)
                cell = aggregates.get(key)
                if cell is None:
                    cell = aggregates[key] = [0, 0.0, 0.0, 0.0]
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - frame[0]
                if value_from is not None:
                    cell[3] += value_from(args)

        return wrapper

    # -- installing wrappers ---------------------------------------------------

    def patch_attr(self, owner, attr, wrapper_for):
        """Replace ``owner.attr`` by ``wrapper_for(original)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, wrapper_for(original))
        self._patches.append((owner, attr, original))

    def patch_function(self, func, wrapper_for, prefix="repro"):
        """Replace a module-level function in every loaded ``prefix`` module
        that holds a reference to it (``from x import f`` copies the binding,
        so patching the defining module alone would miss those callers)."""
        wrapper = wrapper_for(func)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == prefix or module_name.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, func))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading the trace -----------------------------------------------------

    def self_seconds_by_name(self):
        """``name -> [count, total_s, self_s, value]`` over spans and aggregates."""
        totals = {}
        for _, name, _, _, start, end, self_s, value in self.spans:
            cell = totals.setdefault(name, [0, 0.0, 0.0, 0.0])
            cell[0] += 1
            cell[1] += end - start
            cell[2] += self_s
            cell[3] += value or 0.0
        for (_, name), (count, total, self_s, value) in self.aggregates.items():
            cell = totals.setdefault(name, [0, 0.0, 0.0, 0.0])
            cell[0] += count
            cell[1] += total
            cell[2] += self_s
            cell[3] += value
        return totals

    def payload(self):
        """JSON-able dump: every span, every aggregate cell."""
        return {
            "span_fields": ["id", "name", "parent", "op", "start_s", "end_s",
                            "self_s", "value"],
            "spans": [list(span) for span in self.spans],
            "aggregate_fields": ["span", "name", "count", "total_s", "self_s",
                                 "value"],
            "aggregates": [
                [span, name, *cell]
                for (span, name), cell in self.aggregates.items()
            ],
        }

