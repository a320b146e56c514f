"""Spans and counters recorded from outside the program.

A traced run replaces a few module attributes of ``ehdetect`` with wrappers,
on the names where callers look them up, so calls between layers open spans
without any change to the package. Spans stay in memory as flat lists and
are summarised (busy and self time per layer) when the run ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import time
import warnings

# (module, attribute, span name): the layer boundaries the program crosses on
# its own. Calls the benchmark makes directly get their spans in workloads.py.
PATCHES = (
    ("ehdetect.cli", "optimize_power_map", "optimizer.solve"),
    ("ehdetect.cli", "write_table", "cli.write_table"),
    ("ehdetect.cli", "load_scenario", "config.load_scenario"),
    ("ehdetect.optimizer", "steady_state_psi", "battery.fixed_point"),
    ("ehdetect.optimizer", "stationary_oracle", "battery.stationary"),
    ("ehdetect.optimizer", "stationarity_root", "optimizer.scalar_root"),
    ("ehdetect.battery", "battery_transition", "battery.chain_step"),
    ("ehdetect.simulator", "simulate_slots", "simulator.walk"),
    ("ehdetect.simulator", "fusion_llr", "simulator.fusion"),
)

SETUP, PROBE, MEASURE = "setup", "probe", "measure"


class NullTracer:
    """Untraced runs: direct calls, no records."""

    enabled = False

    def span(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value=1):
        pass

    def set_phase(self, phase, unit=None):
        pass


class Tracer:
    """Span and counter store for one traced run.

    A span is [name, start, end, parent index, unit id, phase]. The unit id
    is the index of the measured item the span belongs to (None in set-up and
    in the overhead probe). Counters are kept per phase.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {p: collections.Counter() for p in (SETUP, PROBE, MEASURE)}
        self.enabled = False
        self._stack: list[int] = []
        self._phase = SETUP
        self._unit = None
        self._saved: list[tuple] = []
        self._warnings = None

    # -- recording -------------------------------------------------------

    def set_phase(self, phase, unit=None):
        self._phase, self._unit = phase, unit

    def span(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self._unit, self._phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def count(self, name, value=1):
        if self.enabled:
            self.counts[self._phase][name] += value

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)

        if name == "battery.fixed_point":
            @functools.wraps(fn)
            def wrapper(chains, alpha_update, *args, **kwargs):
                inner = functools.partial(self.span, "optimizer.price_search", alpha_update)
                return self.span(name, fn, chains, inner, *args, **kwargs)
        elif name == "simulator.walk":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                slots = sig.bind(*args, **kwargs).arguments["slots"]
                self.count("simulator.walk.slots", slots)
                if self.inside("simulator.calibrate"):
                    self.count("simulator.calibrate.slots", slots)
                return self.span(name, fn, *args, **kwargs)
        elif name == "simulator.fusion":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                mode = bound.get("fc_knowledge") or bound["scenario"].network.fc_knowledge
                self.count("simulator.fusion.slots", bound["batch"].hypothesis.size)
                return self.span(f"{name}.{mode}", fn, *args, **kwargs)
        elif name == "cli.write_table":
            @functools.wraps(fn)
            def wrapper(path, comments, columns, rows):
                def counted(it):
                    for row in it:
                        self.count("cli.write_table.rows")
                        yield row
                return self.span(name, fn, path, comments, columns, counted(rows))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self):
        """Patch the program's lookup names and start counting warnings."""
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._on_warning
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        if self._warnings is not None:
            self._warnings.__exit__(None, None, None)
            self._warnings = None

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        # recorded, not printed: one counter per emitting module
        module = filename.replace("\\", "/").rsplit("/", 1)[-1].removesuffix(".py")
        self.count(f"{module}.warnings")

    # -- summary ---------------------------------------------------------

    def layers(self, phase):
        """Per span name: calls, busy seconds and self seconds in one phase.

        Busy time counts a span only when no enclosing span has the same
        name, so it is the time the layer was on the stack. Self time is a
        span's duration minus the durations of its direct children.
        """
        out: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        for i, (name, start, end, parent, _unit, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["busy_s"] += end - start
        return out
