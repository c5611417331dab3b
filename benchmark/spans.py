"""In-memory spans recorded around calls into sheaflab's public functions.

A traced run replaces module attributes (for example `sheaflab.model.apply`)
with wrappers that record one span per call: name, start, end, parent span,
run id and optional counters. The package looks these names up at call
time, so its own internal calls are traced too. Spans stay in memory until
`write` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


class TraceError(RuntimeError):
    """A traced name is missing, or a traced layer recorded no calls."""


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "attrs": dict(attrs),
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn):
        """Run fn() inside a span called `name`."""
        span = self._open(name, {})
        try:
            return fn()
        finally:
            self._close(span)

    def install(self, patches) -> None:
        """Wrap each (module, attribute, span name, static attrs, counter) in place.

        `counter(args, kwargs, result)` returns extra span attributes. A
        missing attribute raises TraceError naming it, after undoing the
        patches already made.
        """
        for mod_name, attr, name, static, counter in patches:
            module = importlib.import_module(mod_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise TraceError(f"traced name {mod_name}.{attr} does not exist")
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, static, counter))
            self._patched.append((module, attr, original))

    def _wrap(self, fn, name, static, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, static)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span["attrs"].update(counter(args, kwargs, result))
            return result

        return traced

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def named(self, name: str, **match) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in match.items())
        ]

    def total(self, name: str, **match) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name, **match))

    def self_time(self, name: str, **match) -> float:
        """Total duration of the matching spans minus the time their children cover.

        Children of one span run one after another, so their intervals are disjoint.
        """
        ids = {s["id"] for s in self.named(name, **match)}
        child = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)
        return self.total(name, **match) - child

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"run": self.run_id, **s}) + "\n")
