"""Harness-side spans: recorded in memory, written once at exit.

A span is ``{name, start, end, parent, rep}`` in host seconds
(``perf_counter``).  Spans come from two places, both in the benchmark's
own files: ``with tracer.span(name)`` around a call the harness makes, and
:meth:`Tracer.patched`, which wraps a public function of the program for
the duration of one traced repetition so calls made *inside* an opaque
entry point (``run_dslam``, ``Farm.serve``, ``compile_network``) show up
as child spans.  Untraced repetitions run the unmodified functions.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self) -> None:
        self.enabled = False
        self.rep: int | str = "setup"
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "rep": self.rep,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patched(self, targets: Sequence[tuple[Any, str, str]]) -> Iterator[None]:
        """Wrap ``owner.attr`` in a span named ``name`` for each target.

        ``owner`` is a module or a class; the original attribute is put
        back on exit.  A no-op when tracing is off.
        """
        if not self.enabled:
            yield
            return
        originals = []
        for owner, attr, name in targets:
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def _wrap(self, function: Any, name: str) -> Any:
        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)

        return wrapper

    # -- reading the spans back --------------------------------------------

    def self_times(self, rep: int | str) -> dict[str, float]:
        """Self seconds per span name in one repetition: each span's
        duration minus the part its child spans cover."""
        child_total: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["rep"] == rep and span["parent"] is not None:
                child_total[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span["rep"] == rep:
                totals[span["name"]] += (
                    span["end"] - span["start"] - child_total[index]
                )
        return dict(totals)

    def durations(self, rep: int | str) -> dict[str, float]:
        """Total seconds per span name in one repetition."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span["rep"] == rep:
                totals[span["name"]] += span["end"] - span["start"]
        return dict(totals)

    def cost_share(self, rep: int | str) -> float:
        """Share of one repetition's root span spent recording its spans:
        their count times the cost of one span, timed here on the spot.
        A direct reading of the tracing cost, for when host noise swamps
        the traced-minus-untraced difference."""
        probe = Tracer()
        probe.enabled = True
        start = time.perf_counter()
        for _ in range(2000):
            with probe.span("probe"):
                pass
        per_span = (time.perf_counter() - start) / 2000
        spans = [span for span in self.spans if span["rep"] == rep]
        root = max(span["end"] - span["start"] for span in spans)
        return len(spans) * per_span / root

    def write(self, path: Path, header: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}) + "\n")
