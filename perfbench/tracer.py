"""In-memory span tracer that wraps the program's public functions.

Spans are recorded only from outside the program: :meth:`Tracer.install`
replaces public functions and methods with timing wrappers (in every
module namespace that bound them by name) and :meth:`Tracer.uninstall`
puts the originals back. Each span holds its name, start, end, parent
span and unit id. Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans
cover; the self times of a tree of spans therefore add up exactly to
the duration of its root.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

_NAME, _END = 0, 2


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans around wrapped callables; one instance per run."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, unit id]
        self.spans: list[list] = []
        self.unit: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][_END] = time.perf_counter()

    def wrapper(self, name: str, fn, *, skip_nested: bool = False):
        """``fn`` with a span named ``name`` around every call.

        ``skip_nested`` records only the outermost call of a recursive
        function, so a tree walk costs one span, not one per node.
        """
        tracer = self

        def traced(*args, **kwargs):
            if skip_nested and tracer._stack and (
                tracer.spans[tracer._stack[-1]][_NAME] == name
            ):
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------
    def install(self, targets) -> None:
        """Wrap every ``(owner, attr, span_name[, skip_nested])`` target.

        ``owner`` is a module or a class; a class attribute is read from
        the class ``__dict__`` so it is restored exactly.
        """
        for owner, attr, name, *rest in targets:
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            self._saved.append((owner, attr, original))
            setattr(
                owner,
                attr,
                self.wrapper(name, original, skip_nested=bool(rest and rest[0])),
            )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------
    def stats(self, first: int = 0) -> dict[str, SpanStats]:
        """Per span name: calls, total and self seconds of the spans from
        index ``first`` on (a parent before ``first`` counts as none)."""
        spans = self.spans[first:]
        child_s: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child_s[parent] += end - start
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for i, (name, start, end, _, _) in enumerate(spans, start=first):
            st = out[name]
            st.calls += 1
            st.total_s += end - start
            st.self_s += end - start - child_s.get(i, 0.0)
        return dict(out)

    def dump(self, path) -> None:
        """Write all spans as JSON lines (name, start, end, parent, unit)."""
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}) + "\n")
