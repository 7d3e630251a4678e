"""Span tracer that wraps singlab's public layer functions from outside.

``Tracer.installed()`` replaces each function in ``LAYER_FUNCTIONS`` with a
timing wrapper and rebinds every name in every loaded ``singlab`` module
that refers to the original, so that calls between modules (``search``
calling ``configuration_invariants``, ``configuration`` calling
``hj_resolve``) are recorded too.  Nothing in the library changes: leaving
the context restores the original bindings.

A span is ``(id, parent_id, name, start, end, self_s)``; ``self_s`` is the
span's duration minus the durations of its direct child spans.  Spans stay in
memory until ``summary()`` aggregates them into calls and self time per
function plus the derived counts that the hooks collect.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (layer, function) pairs, named as the per-layer metrics are.
LAYER_FUNCTIONS = (
    "exact.mod_inverse",
    "exact.cf_eval_pair",
    "chains.hj_resolve",
    "chains.chain_to_quotient",
    "eta.eta_exact",
    "eta.eta_cotangent",
    "type_t.recognize_type_t",
    "type_t.enumerate_type_t",
    "invariants.artin_configuration",
    "invariants.configuration",
    "invariants.configuration_invariants",
    "invariants.find_type_t_substrings",
    "search.scan",
    "render.render_table",
    "render.render_json",
    "render.render_csv",
    "cli.main",
)


def _count_substring_sweep(tracer, args, result):
    k = len(args[0])
    tracer.counts["invariants.find_type_t_substrings.intervals"] += k * (k + 1) // 2
    tracer.counts["invariants.find_type_t_substrings.hits"] += len(result)


def _count_scan_pair(tracer, args, result):
    # Every pair a scan visits gets exactly one Artin configuration.
    if tracer.active["search.scan"]:
        tracer.counts["search.pairs"] += 1


def _count_scan_rows(tracer, args, result):
    artin = sum(1 for row in result if row.label == "artin")
    tracer.counts["search.rows.artin"] += artin
    tracer.counts["search.rows.contracted"] += len(result) - artin


def _count_rendered(tracer, args, result):
    # Rendered output is ASCII, so characters are bytes.
    tracer.counts["render.bytes"] += len(result)


_HOOKS = {
    "invariants.find_type_t_substrings": _count_substring_sweep,
    "invariants.artin_configuration": _count_scan_pair,
    "search.scan": _count_scan_rows,
    "render.render_table": _count_rendered,
    "render.render_json": _count_rendered,
    "render.render_csv": _count_rendered,
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._stack: list[list] = []  # [span id, summed child duration]

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        stack = self._stack
        spans = self.spans
        active = self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans) + len(stack), 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append(
                    (
                        frame[0],
                        -1 if parent is None else parent[0],
                        name,
                        start,
                        end,
                        duration - frame[1],
                    )
                )
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, names=LAYER_FUNCTIONS):
        """Wrap ``names`` in every loaded singlab module; restore on exit."""
        importlib.import_module("singlab")
        modules = [
            m for key, m in sys.modules.items() if key == "singlab" or key.startswith("singlab.")
        ]
        restore = []
        for name in names:
            layer, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"singlab.{layer}"), fn_name)
            wrapped = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        restore.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in restore:
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Calls and self seconds per wrapped function, plus hook counts."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for _id, _parent, name, _start, _end, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(self.counts)}
