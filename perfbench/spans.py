"""In-memory span recording around cavpuck's layer functions.

A span is one call into a layer: its name, start and end (``time.perf_counter``,
which is CLOCK_MONOTONIC on Linux and so comparable across processes), the
span that caused it, and the operation it belongs to.  Spans stay in memory
and are written out when the run ends.

Wrappers are installed at the names the callers bind, e.g.
``cavpuck.sweep.synthesize_s21`` and ``cavpuck.extract.q_three_db``; the
package itself is never edited.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from contextlib import contextmanager

# (module whose global is replaced, attribute, span name).  One entry per
# place a layer function is looked up at call time.
TARGETS = (
    ("cavpuck.cli", "bundled_scenario", "scenario.bundled_scenario"),
    ("cavpuck.cli", "coupled_eigenmodes", "cmt.coupled_eigenmodes"),
    ("cavpuck.cli", "on_resonance_modes", "cmt.on_resonance_modes"),
    ("cavpuck.cli", "synthesize_s21", "network.synthesize_s21"),
    ("cavpuck.cli", "find_peaks_and_notch", "network.find_peaks_and_notch"),
    ("cavpuck.cli", "write_spectrum_csv", "network.write_spectrum_csv"),
    ("cavpuck.cli", "read_spectrum_csv", "network.read_spectrum_csv"),
    ("cavpuck.cli", "q_three_db", "extract.q_three_db"),
    ("cavpuck.cli", "fit_lorentzian", "extract.fit_lorentzian"),
    ("cavpuck.cli", "q_phase_slope", "extract.q_phase_slope"),
    ("cavpuck.cli", "run_sweep", "sweep.run_sweep"),
    ("cavpuck.cli", "write_sweep_csv", "sweep.write_sweep_csv"),
    ("cavpuck.cli", "dfsto_dt", "sensitivity.dfsto_dt"),
    ("cavpuck.cli", "responsivity_report", "sensitivity.responsivity_report"),
    ("cavpuck.sweep", "run_sweep", "sweep.run_sweep"),
    ("cavpuck.sweep", "coupled_eigenmodes", "cmt.coupled_eigenmodes"),
    ("cavpuck.sweep", "synthesize_s21", "network.synthesize_s21"),
    ("cavpuck.sweep", "find_peaks_and_notch", "network.find_peaks_and_notch"),
    ("cavpuck.network", "coupled_eigenmodes", "cmt.coupled_eigenmodes"),
    ("cavpuck.extract", "q_three_db", "extract.q_three_db"),
    ("cavpuck.extract", "fit_lorentzian", "extract.fit_lorentzian"),
    ("cavpuck.extract", "q_phase_slope", "extract.q_phase_slope"),
    ("cavpuck.extract", "phase_derivative", "network.phase_derivative"),
    ("cavpuck.sensitivity", "coupled_eigenmodes", "cmt.coupled_eigenmodes"),
    ("cavpuck.sensitivity", "on_resonance_modes", "cmt.on_resonance_modes"),
)

LAYERS = ("cli", "scenario", "cmt", "network", "extract", "sweep", "sensitivity")


def _attrs_for(span_name, args, kwargs, result):
    """Sizes worth keeping beside a span: grid points, CSV bytes, workers."""
    if span_name == "network.synthesize_s21":
        return {"points": int(result.f_hz.size)}
    if span_name in ("network.write_spectrum_csv", "network.read_spectrum_csv"):
        return {"bytes": os.path.getsize(args[1] if len(args) > 1 else args[0])}
    if span_name == "sweep.run_sweep":
        workers = args[1] if len(args) > 1 else kwargs.get("workers")
        return {"workers": workers, "rows": len(result.rows)}
    return None


class Recorder:
    """Collects spans; one instance per process.

    Spans opened on a thread with no open span of its own (the sweep's pool
    workers) take the innermost open span of the thread that installed the
    wrappers as parent, so a sweep row's work nests under its ``run_sweep``.
    """

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {"id": sid, "parent": parent, "op": self.op_id, "name": name,
                 "start": start, "end": end, "attrs": attrs}
            )

    def adopt(self, spans):
        """Take spans recorded in a child process: ids are renumbered and the
        child's root spans nest under the innermost span open here."""
        parent = self._main_stack[-1] if self._main_stack else None
        ids = {s["id"]: next(self._ids) for s in spans}
        for s in spans:
            self.spans.append(dict(s, id=ids[s["id"]], parent=ids.get(s["parent"], parent),
                                   op=self.op_id))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                extra = _attrs_for(name, args, kwargs, result)
                if extra:
                    attrs.update(extra)
                return result

        return traced

    def install(self):
        """Replace every target with a span-recording wrapper."""
        if self._saved:
            return
        for mod_name, attr, span_name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span_name))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: duration minus the part of it covered by its children}.

    Children on two pool threads can overlap, so coverage is the length of
    the union of their intervals, not the sum of their durations.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }
