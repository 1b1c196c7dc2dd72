"""In-memory span tracer that wraps grl's public functions from outside.

Every public function of the traced modules is replaced, on its defining
module and on every ``grl`` module that imported the name, by a wrapper that
records one span: name, parent span, start and busy seconds.  Generator
functions are timed across consumption: each resume adds to the span's busy
time, so a generator is charged for the work it does while being iterated,
not for the instant it takes to create it.  Self time is derived afterwards
from the parent links.  The tracer starts no thread and changes no output.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("semigroups", "rings", "groupoids", "gradings",
                  "constructions", "corpus", "jsonio", "cli")

# Predicates whose first argument is the structure; the tracer counts the
# distinct structures they see, so that calls_per_structure shows repeats.
PER_STRUCTURE = ("gradings.is_symmetric", "gradings.is_strong",
                 "gradings.is_epsilon_strong", "gradings.is_nearly_epsilon_strong",
                 "gradings.is_graded_vnr", "gradings.base_components_vnr")

# Generators whose yielded items are counted as well as their calls.
ITEM_COUNTED = {"semigroups.enumerate_semigroups": "tables"}


class Tracer:
    """Spans are lists [name, parent index or -1, start, busy, outermost]."""

    def __init__(self):
        self.spans: list[list] = []
        self.items: Counter = Counter()
        self.structures: dict[str, dict[int, object]] = defaultdict(dict)
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), 0.0, self._active[name] == 0])
        return idx

    def timed(self, name: str, fn):
        """Wrap a plain callable so that each call records one span."""
        spans, stack, active = self.spans, self._stack, self._active
        structures = self.structures[name] if name in PER_STRUCTURE else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if structures is not None and args:
                structures[id(args[0])] = args[0]
            idx = self._open(name)
            stack.append(idx)
            active[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = time.perf_counter() - start
                active[name] -= 1
                stack.pop()

        return wrapper

    def timed_generator(self, name: str, fn):
        """Wrap a generator function; busy time is the sum of its resumes."""
        spans, stack, active, items = self.spans, self._stack, self._active, self.items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = self._open(name)
            while True:
                stack.append(idx)
                active[name] += 1
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration as stop:
                    return stop.value
                finally:
                    spans[idx][3] += time.perf_counter() - start
                    active[name] -= 1
                    stack.pop()
                items[name] += 1
                yield item

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Patch every public function of TRACED_MODULES in all grl modules."""
        import grl.cli  # noqa: F401  (loads every traced module)

        grl_modules = [m for n, m in sorted(sys.modules.items())
                       if n == "grl" or n.startswith("grl.")]
        for short in TRACED_MODULES:
            module = sys.modules[f"grl.{short}"]
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapped = self.timed_generator(name, fn)
                else:
                    wrapped = self.timed(name, fn)
                for m in grl_modules:
                    if getattr(m, attr, None) is fn:
                        self._patched.append((m, attr, fn))
                        setattr(m, attr, wrapped)
        # Suites are not functions of their own: each corpus entry is a task
        # yielded by cli._suite_tasks, so each task gets a span per suite.
        cli = sys.modules["grl.cli"]
        suite_tasks = cli._suite_tasks

        def traced_suite_tasks(corpus, suite, opts):
            for entry_id, task in suite_tasks(corpus, suite, opts):
                yield entry_id, self.timed(f"cli.suite.{suite}", task)

        self._patched.append((cli, "_suite_tasks", suite_tasks))
        cli._suite_tasks = traced_suite_tasks

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def reset(self) -> None:
        """Drop the recorded spans; wrappers keep references to these
        containers, so they are emptied in place."""
        self.spans.clear()
        self.items.clear()
        for seen in self.structures.values():
            seen.clear()

    # -- derived figures -------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per span name: calls, busy_s (outermost spans only, so recursion
        is not counted twice), self_s, and the extra counters."""
        child_busy = _child_busy(self.spans)
        calls: Counter = Counter()
        busy_s: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, _, _, busy, outermost) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += busy - child_busy[i]
            if outermost:
                busy_s[name] += busy
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy_s[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, label in ITEM_COUNTED.items():
            out[f"{name}.{label}"] = self.items[name]
        for name in PER_STRUCTURE:
            seen = len(self.structures.get(name, ()))
            out[f"{name}.calls_per_structure"] = calls[name] / seen if seen else 0.0
        return out


def _child_busy(spans: list[list]) -> list[float]:
    """For each span, the busy time of its direct children."""
    out = [0.0] * len(spans)
    for _, parent, _, busy, _ in spans:
        if parent >= 0:
            out[parent] += busy
    return out


def write_spans(spans: list[list], path) -> None:
    """One JSON object per line: id, name, parent, start, busy, self."""
    child_busy = _child_busy(spans)
    origin = spans[0][2] if spans else 0.0
    with open(path, "w") as fh:
        for i, (name, parent, start, busy, _) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                 "start": round(start - origin, 9),
                                 "busy": round(busy, 9),
                                 "self": round(busy - child_busy[i], 9)}) + "\n")
