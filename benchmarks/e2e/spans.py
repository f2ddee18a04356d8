"""The benchmark's own span recorder (layer-probe pass only).

Spans are recorded around the benchmark's calls into each layer — never
inside the program — kept in memory, and written out when the run ends.
A layer's *self* time is its span minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List


class SpanRecorder:
    """In-memory ``{name, start_ns, end_ns, parent, batch_id}`` spans."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, batch_id: int = -1) -> Iterator[None]:
        record = {
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
            "parent": self._open[-1] if self._open else -1,
            "batch_id": batch_id,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def total_ns(self) -> Dict[str, int]:
        """Summed span duration per name."""
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span["name"]] += span["end_ns"] - span["start_ns"]
        return totals

    def self_ns(self) -> Dict[str, int]:
        """Summed self time per name: duration minus direct children."""
        totals = self.total_ns()
        for span in self.spans:
            if span["parent"] >= 0:
                parent_name = self.spans[span["parent"]]["name"]
                totals[parent_name] -= span["end_ns"] - span["start_ns"]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)
