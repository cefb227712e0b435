"""Span recorder for traced benchmark runs.

Spans are recorded from outside the program: :meth:`Recorder.wrap`
replaces a name binding the pipeline calls (a module function, a class
method, a classmethod) with a wrapper that opens a span around the call.
Each span keeps its name, start, end, parent span and operation id in
memory; self time (duration minus the time child spans cover) and call
counts are accumulated per span name as spans close.  At the end of a
run the spans are written as Chrome trace-event JSON, which Perfetto
and ``chrome://tracing`` open.

Measured runs never install the wrappers; a traced run is a separate
run of the same workload.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, op, tid)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op: Any = None
        self.op_covered_ns: dict[Any, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []
        self.t0 = time.perf_counter_ns()

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        frame = [next(self._ids), name, time.perf_counter_ns(), 0,
                 stack[-1][0] if stack else None]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> tuple[int, int]:
        """Close ``frame``; return its (start, end) in ns."""
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        sid, name, start, child_ns, parent = frame
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        if stack:
            stack[-1][3] += duration
        else:
            self.op_covered_ns[self.op] += duration
        self.spans.append(
            (sid, name, start, end, parent, self.op, threading.get_ident())
        )
        return start, end

    def record(self, name: str, start_ns: int, end_ns: int, op: Any = None,
               covers_op: bool = False) -> None:
        """Add a span measured elsewhere (e.g. across ``await`` points,
        where a per-thread stack cannot follow); it has no parent and no
        children."""
        self.self_ns[name] += end_ns - start_ns
        self.calls[name] += 1
        if covers_op:
            self.op_covered_ns[op] += end_ns - start_ns
        self.spans.append(
            (next(self._ids), name, start_ns, end_ns, None, op, 0)
        )

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # -- wrapping name bindings -------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, *,
             iterate: bool = False,
             on_call: Callable[..., None] | None = None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``iterate``: the callable returns an iterator whose work happens
        lazily; each ``next`` becomes its own span.  ``on_call`` sees the
        call's arguments (for counts such as candidates per call).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        recorder = self

        if iterate:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                return recorder._iterate(name, func(*args, **kwargs))
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                frame = recorder.begin(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    recorder.end(frame)

        self._patched.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def _iterate(self, name: str, iterator):
        iterator = iter(iterator)
        while True:
            frame = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(frame)
            yield item

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- output -----------------------------------------------------------
    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e6

    def untraced_ms(self, op_wall_ns: dict[Any, int]) -> float:
        """Wall time of the operations that no top-level span covers."""
        return sum(
            wall - self.op_covered_ns.get(op, 0)
            for op, wall in op_wall_ns.items()
        ) / 1e6

    def write_chrome(self, path: Path) -> None:
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - self.t0) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": {"id": sid, "parent": parent, "op": op},
            }
            for sid, name, start, end, parent, op, tid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))

    def table(self) -> str:
        """Per span name: calls and self time, largest first."""
        rows = sorted(self.self_ns.items(), key=lambda kv: -kv[1])
        lines = [f"{'span':<24} {'calls':>8} {'self ms':>12}"]
        for name, ns in rows:
            lines.append(f"{name:<24} {self.calls[name]:>8} {ns / 1e6:>12.1f}")
        for name, value in sorted(self.counts.items()):
            lines.append(f"{name:<24} {value:>21g}")
        return "\n".join(lines)

