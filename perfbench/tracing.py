"""Span tracing of nlslab from outside the program.

Every public function of the traced layers is wrapped, and the wrapper is
rebound under each name that any ``nlslab`` module holds for it, so that a
call such as ``solvers`` -> ``core.free_propagate`` (imported by name) is
caught as well as a call through the defining module.  Each thread keeps its
own span stack: the threaded ``--parallel`` quadrature would otherwise charge
one thread's child spans to another thread's parent.  Spans stay in memory
until :meth:`Tracer.write` is called at the end of the run.

The numpy FFT entry points are wrapped with a counter only, so that
``core.fft_calls`` counts the transforms the program asks numpy for.
"""

import csv
import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from typing import NamedTuple

import numpy as np

LAYERS = ("core", "solvers", "born", "scattering", "transforms", "harness")

# The span whose first argument's grid shape is recorded, so that its
# per-call cost can be compared with a raw FFT pair on the same shape.
SHAPE_KEYED = "core.free_propagate"


class Span(NamedTuple):
    name: str
    thread: int
    depth: int
    start: float
    end: float
    self_s: float
    shape: tuple | None

    @property
    def total_s(self):
        return self.end - self.start


class Tracer:
    """Owns the span list, the FFT counter and the rebinding of names."""

    def __init__(self):
        self.spans = []
        self.fft_calls = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rebound = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter
        ident = threading.get_ident
        keyed = name == SHAPE_KEYED

        def traced(*args, **kwargs):
            stack = stack_of()
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                shape = args[0].grid.counts if keyed and args else None
                spans.append(Span(name, ident(), len(stack), start, end,
                                  duration - child[0], shape))

        return functools.wraps(fn)(traced)

    def _count_fft(self, fn):
        lock = self._lock

        def counted(*args, **kwargs):
            with lock:
                self.fft_calls += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def install(self):
        """Wrap the public functions of every traced layer and rebind them."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"nlslab.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "nlslab" or name.startswith("nlslab.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._rebound.append((module, attr, obj))
        for attr in dir(np.fft):
            obj = getattr(np.fft, attr)
            if ("fft" in attr and callable(obj) and not attr.startswith("_")
                    and "freq" not in attr and "shift" not in attr):
                setattr(np.fft, attr, self._count_fft(obj))
                self._rebound.append((np.fft, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._rebound):
            setattr(module, attr, obj)
        self._rebound.clear()

    def write(self, path):
        """Write every recorded span as one CSV row, in completion order."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "thread", "depth", "start_s", "end_s",
                          "self_s", "shape"])
            t0 = min((s.start for s in self.spans), default=0.0)
            for s in self.spans:
                out.writerow([s.name, s.thread, s.depth, repr(s.start - t0),
                              repr(s.end - t0), repr(s.self_s),
                              "x".join(map(str, s.shape)) if s.shape else ""])


def summarize(spans):
    """Per span name: calls, summed self time and summed total time."""
    table = {}
    for s in spans:
        row = table.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.self_s
        row[2] += s.total_s
    return table


def raw_fft_pair_s(shape, budget_s=0.3):
    """Median time of one raw ``np.fft.fftn`` + ``ifftn`` pair on a complex
    array of ``shape``: the floor a free-flow step cannot go below."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < 5 or (time.perf_counter() < deadline and len(times) < 2000):
        start = time.perf_counter()
        np.fft.ifftn(np.fft.fftn(a))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(tracer, setup_spans, setup_fft_calls, verdict_s):
    """The per-layer metrics of one traced run.

    ``setup_spans`` and ``setup_fft_calls`` mark where start-up ended; all
    metrics but ``harness.make_datum.ms`` cover the CLI calls only.
    ``verdict_s`` is the traced wall-clock of those calls.  Call after
    :meth:`Tracer.uninstall`, so the raw FFT pairs are neither counted nor
    traced.
    """
    spans = tracer.spans[setup_spans:]
    table = summarize(spans)

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def total_s(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    def self_per_call(name, scale):
        n = calls(name)
        return scale * self_s(name) / n if n else 0.0

    shapes = {}
    for s in spans:
        if s.name == "core.free_propagate":
            row = shapes.setdefault(s.shape, [0, 0.0])
            row[0] += 1
            row[1] += s.self_s
    by_shape = []
    for shape, (n, spent) in sorted(shapes.items()):
        pair = raw_fft_pair_s(shape)
        by_shape.append({"shape": list(shape), "calls": n,
                         "self_us_per_call": 1e6 * spent / n,
                         "raw_fft_pair_us": 1e6 * pair,
                         "gap_us": 1e6 * (spent / n - pair)})
    n_free = sum(row["calls"] for row in by_shape)
    gap = sum(row["calls"] * row["gap_us"] for row in by_shape) / n_free if n_free else 0.0

    make_datum = [s for s in tracer.spans[:setup_spans] if s.name == "harness.make_datum"]
    main = threading.main_thread().ident
    covered = sum(s.self_s for s in spans if s.thread == main)

    metrics = {
        "core.free_propagate.calls": (calls("core.free_propagate"), "count"),
        "core.free_propagate.self_us_per_call":
            (self_per_call("core.free_propagate", 1e6), "us"),
        "core.free_propagate.numpy_gap_us": (gap, "us"),
        "core.fft_calls": (tracer.fft_calls - setup_fft_calls, "count"),
        "core.resample.calls": (calls("core.resample"), "count"),
        "core.resample.self_ms_per_call": (self_per_call("core.resample", 1e3), "ms"),
        "core.quadratic_phase.self_us_per_call":
            (self_per_call("core.quadratic_phase", 1e6), "us"),
        "core.diagnostics.calls": (calls("core.diagnostics"), "count"),
        "core.diagnostics.self_us_per_call": (self_per_call("core.diagnostics", 1e6), "us"),
        "solvers.nls_step.calls": (calls("solvers.nls_step"), "count"),
        "solvers.nls_step.self_us_per_call": (self_per_call("solvers.nls_step", 1e6), "us"),
        "solvers.dnls_evolve.self_s": (self_s("solvers.dnls_evolve"), "s"),
        "solvers.dnls_evolve.total_s": (total_s("solvers.dnls_evolve"), "s"),
        "born.flow_integrand.calls": (calls("born.flow_integrand"), "count"),
        "born.flow_integrand.self_us_per_call":
            (self_per_call("born.flow_integrand", 1e6), "us"),
        "born.expansion_lhs_integrand.calls": (calls("born.expansion_lhs_integrand"), "count"),
        "born.expansion_lhs_integrand.self_us_per_call":
            (self_per_call("born.expansion_lhs_integrand", 1e6), "us"),
        "born.corollary2_sides.self_s": (self_s("born.corollary2_sides"), "s"),
        "scattering.wave_operator.total_s": (total_s("scattering.wave_operator"), "s"),
        "scattering.inverse_wave_operator.total_s":
            (total_s("scattering.inverse_wave_operator"), "s"),
        "transforms.gauge.self_us_per_call": (self_per_call("transforms.gauge", 1e6), "us"),
        "harness.make_datum.ms": (1e3 * sum(s.total_s for s in make_datum), "ms"),
        "harness.run.self_s": (self_s("harness.run"), "s"),
        "trace.verdict_s": (verdict_s, "s"),
        "trace.self_share": (covered / verdict_s, "ratio"),
    }
    return metrics, by_shape, {name: list(row) for name, row in table.items()}
