"""In-memory span tracer installed at skymimic's layer boundaries.

The program's modules bind their dependencies by name
(`from .nn import lstm_forward`), so a wrapper is installed on the
*consumer* module's binding: `features.lstm_forward` and
`stylenet.lstm_forward` are the same function seen from two callers,
which also separates the autoencoder shape from the style-net shape.

A site whose binding no longer exists is skipped and reported, so a
later change that removes a wrapped name makes its metrics absent
instead of stopping the benchmark.  Spans stay in memory until `dump`
writes them out; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Site:
    """A layer boundary: metric name, module attribute path, and an
    optional work counter `(args, kwargs, result) -> (suffix, value)`."""

    name: str
    module: str
    attr: str
    count: Callable | None = None


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, op id, raised]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------

    def install(self, sites, modules) -> None:
        """Wrap each site's binding; `modules` maps module name to the
        imported module object."""
        for site in sites:
            owner = _resolve(modules, site.module)
            target = getattr(owner, site.attr, None) if owner else None
            if target is None:
                if site.name not in self.missing:
                    print(f"perfbench: {site.module}.{site.attr} not found; "
                          f"metrics of {site.name} are omitted",
                          file=sys.stderr)
                self.missing.add(site.name)
                continue
            self._undo.append((owner, site.attr, target))
            setattr(owner, site.attr, self._wrap(site, target))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, target = self._undo.pop()
            setattr(owner, attr, target)

    def _wrap(self, site: Site, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [site.name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.op, True]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = False
            if site.count is not None:
                try:
                    suffix, value = site.count(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, KeyError):
                    pass  # the signature drifted; leave the counter out
                else:
                    key = f"{site.name}.{suffix}"
                    counts[key] = counts.get(key, 0.0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, in span order."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, names) -> dict[str, dict]:
        """Per name: calls, total self ms, median self ms per call, and
        calls that returned normally."""
        per: dict[str, list[float]] = {n: [] for n in names}
        ok: dict[str, int] = {n: 0 for n in names}
        for span, own in zip(self.spans, self.self_times()):
            if span[0] in per:
                per[span[0]].append(own * 1e3)
                ok[span[0]] += not span[5]
        return {n: {"calls": len(v), "ms": sum(v),
                    "ms_p50": statistics.median(v) if v else 0.0,
                    "returned": ok[n]}
                for n, v in per.items() if n not in self.missing}

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start and end
        (seconds on the perf counter), parent span, op id, raised."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _resolve(modules, dotted: str):
    head, _, rest = dotted.partition(".")
    obj = modules.get(head)
    for part in rest.split(".") if rest else []:
        obj = getattr(obj, part, None)
    return obj
