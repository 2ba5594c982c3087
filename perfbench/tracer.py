"""Span tracing at the program's layer boundaries, installed from outside.

The program carries no timers of its own, so the traced run wraps each
boundary function in every ``cldp.*`` namespace that binds it (modules import
many of them by name, e.g. ``cldp.fedsim.training`` binds ``clip``,
``p_norm`` and ``encode_message``) and restores the originals afterwards.
A boundary whose function no longer exists is reported as not observed, so a
refactor that renames an internal cannot break the benchmark.

Each span records its name, start, end and parent. A boundary's self time is
its span time minus the time covered by its child spans. Aggregates are kept
for every traced step; the full span list is kept for the first traced step
only, which is enough to show the call tree without growing without bound.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, function, home module, attribute, families). A family-tagged
# boundary is reported once per mechanism family of the spec it was called
# with, as ``<layer>.<function>.<family>``.
FAMILIES = ("l1", "l2", "linf", "mix")
BOUNDARIES = (
    ("fedsim", "train", "cldp.fedsim.training", "train", None),
    ("fedsim", "batch_loss", "cldp.fedsim.tasks", "TASKS", None),
    ("fedsim", "sample_clients", "cldp.fedsim.training", "sample_clients", None),
    ("fedsim", "sample_data", "cldp.fedsim.training", "sample_data", None),
    ("fedsim", "shuffle", "cldp.fedsim.training", "shuffle", None),
    ("fedsim", "aggregate", "cldp.fedsim.training", "aggregate", None),
    ("mechanisms", "encode_message", "cldp.mechanisms", "encode_message", FAMILIES),
    ("mechanisms", "mean_estimate", "cldp.mechanisms", "mean_estimate", None),
    ("mechanisms", "mean_estimate_trials", "cldp.mechanisms", "mean_estimate_trials",
     ("l1", "l2", "linf")),
    ("linalg", "clip", "cldp.linalg", "clip", None),
    ("linalg", "p_norm", "cldp.linalg", "p_norm", None),
    ("linalg", "project_l2_ball", "cldp.linalg", "project_l2_ball", None),
    ("linalg", "fwht_normalized", "cldp.linalg", "fwht_normalized", None),
    ("linalg", "fwht_normalized_rows", "cldp.linalg", "fwht_normalized_rows", None),
    ("wire", "histogram_pack", "cldp.wire", "histogram_pack", None),
    ("wire", "histogram_unpack", "cldp.wire", "histogram_unpack", None),
    ("wire", "frame_message", "cldp.wire", "frame_message", None),
    ("wire", "frame_length", "cldp.wire", "frame_length", None),
    ("wire", "unframe_message", "cldp.wire", "unframe_message", None),
    ("wire", "client_payload_bits", "cldp.wire", "client_payload_bits", None),
    ("accountant", "end_to_end", "cldp.accountant", "end_to_end", None),
    ("bounds", "risk_upper", "cldp.bounds", "risk_upper", None),
    ("bounds", "risk_lower", "cldp.bounds", "risk_lower", None),
)
LAYERS = ("fedsim", "mechanisms", "linalg", "wire", "accountant", "bounds")


def span_names() -> list[str]:
    """Every boundary name the benchmark reports, family tags expanded."""
    names = []
    for layer, func, _home, _attr, families in BOUNDARIES:
        base = f"{layer}.{func}"
        names.extend([f"{base}.{f}" for f in families] if families else [base])
    return names


def spec_family(spec) -> str:
    """The mechanism family a spec addresses, read from its public fields."""
    try:
        if spec.mix_prob is not None:
            return "mix"
        p = spec.ball.p
    except AttributeError:
        return "other"
    if p == 1.0:
        return "l1"
    if p == 2.0:
        return "l2"
    return "linf" if math.isinf(p) else "other"


def _spec_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("spec")


class Tracer:
    """Collects spans while installed; aggregates per boundary name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.clip_shrunk = 0
        self.e2e_failed = 0
        self.spans: list[list] | None = None  # (name, start_s, end_s, parent index)
        self.recorded: list[list] = []  # the spans of the first recorded step
        self.observed: set[str] = set()  # boundaries found in the program
        self._stack: list[list] = []  # [name, child seconds, span index]
        self._t0 = 0.0
        self._patches = self._plan()

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, name_of, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            frame = [name, 0.0, -1]
            spans = tracer.spans
            if spans is not None:
                parent = tracer._stack[-1][2] if tracer._stack else -1
                frame[2] = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            tracer._stack.append(frame)
            start = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                if spans is not None:
                    spans[frame[2]][1:3] = [start - tracer._t0, end - tracer._t0]
                if after is not None:
                    after(args, out if ok else None, ok)
            return out

        return traced

    def _after_clip(self, args, out, ok):
        if ok and not np.array_equal(out, np.asarray(args[0], dtype=np.float64)):
            self.clip_shrunk += 1

    def _after_end_to_end(self, args, out, ok):
        eps = getattr(out, "epsilon", math.nan) if ok else math.nan
        if not math.isfinite(eps):
            self.e2e_failed += 1

    # -- installation -----------------------------------------------------

    def _plan(self) -> list[tuple]:
        """(container, key, original, wrapped, is_item) for every binding."""
        cldp_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "cldp" or n.startswith("cldp."))
        ]
        patches = []
        for layer, func, home, attr, families in BOUNDARIES:
            base = f"{layer}.{func}"
            try:
                original = getattr(importlib.import_module(home), attr)
            except (ImportError, AttributeError):
                continue
            if attr == "TASKS":
                patches.extend(self._plan_tasks(original, base))
                continue
            if not callable(original):
                continue
            if families:
                name_of = lambda a, k, base=base: f"{base}.{spec_family(_spec_arg(a, k))}"
            else:
                name_of = lambda a, k, base=base: base
            after = {"linalg.clip": self._after_clip,
                     "accountant.end_to_end": self._after_end_to_end}.get(base)
            wrapped = self._wrap(original, name_of, after)
            self.observed.add(base)
            for mod in cldp_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapped, False))
        return patches

    def _plan_tasks(self, tasks, base) -> list[tuple]:
        """Task objects are frozen records looked up by name at call time, so
        the registry entry is swapped for a copy with a traced batch_loss."""
        patches = []
        for key, task in dict(tasks).items():
            fn = getattr(task, "batch_loss", None)
            if fn is None or not dataclasses.is_dataclass(task):
                continue
            traced = dataclasses.replace(task, batch_loss=self._wrap(fn, lambda a, k: base))
            patches.append((tasks, key, task, traced, True))
            self.observed.add(base)
        return patches

    def _apply(self, which: int) -> None:
        for container, key, original, wrapped, is_item in self._patches:
            value = (original, wrapped)[which]
            if is_item:
                container[key] = value
            else:
                setattr(container, key, value)

    def run(self, fn, *args, record_spans: bool = False):
        """Call fn with every boundary traced; the originals are restored after."""
        self.spans = [] if record_spans else None
        self._t0 = time.perf_counter()
        self._apply(1)
        try:
            return fn(*args)
        finally:
            self._apply(0)
            self._stack.clear()
            if record_spans:
                self.recorded = self.spans
            self.spans = None

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start_us": round(s * 1e6, 1), "end_us": round(e * 1e6, 1), "parent": p}
            for n, s, e, p in self.recorded
        ]
