"""Spans and counters around the calls into each `wavedet` module.

The traced child process wraps module-level functions of the imported
package at run time; nothing under src/ is changed.  Spans are kept in
memory, tracked per thread (the CLI's worker pool evaluates lambdas
concurrently) and carry the id of the span that was open on the same
thread when they began; a lambda evaluated on a pool thread takes the span
of the command that submitted it as parent.  Counters are per thread and
summed at the end, so concurrent updates never race.

`layer_metrics` turns the spans and counters of one round into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time

# (module, attribute, span name).  Several attributes may share a span
# name; `_SpanSet.total` counts only the outermost span of a name, so a
# nested call (basis_from_roots inside system_basis, recursive
# _phase_step) is not counted twice.
SPAN_TARGETS = (
    ("cli", "_load_config", "cli.config"),
    ("cli", "_apply_overrides", "cli.config"),
    ("cli", "_render", "cli.render"),
    ("fredholm", "det1", "fredholm.det"),
    ("fredholm", "det2", "fredholm.det"),
    ("fredholm", "detp", "fredholm.det"),
    ("fredholm", "trace_scalar", "fredholm.trace"),
    ("fredholm", "trace_system", "fredholm.trace"),
    ("fredholm", "discretize_scalar", "fredholm.discretize_scalar"),
    ("fredholm", "discretize_system", "fredholm.discretize_system"),
    ("fredholm", "trace_power_scalar", "fredholm.trace_power"),
    ("fredholm", "trace_power_system", "fredholm.trace_power"),
    ("fredholm", "_lu_det", "fredholm.lu"),
    ("greens", "system_basis", "greens.basis"),
    ("greens", "matrix_basis", "greens.basis"),
    ("greens", "basis_from_roots", "greens.basis"),
    ("greens", "unperturbed_bases", "greens.basis"),
    ("greens", "scalar_core_branch", "greens.branch"),
    ("greens", "green_branch_blocks", "greens.branch"),
    ("greens", "scalar_core_matrix", "greens.core_matrix"),
    ("evans", "evans_function", "evans.evans_function"),
    ("evans", "swinton_matrix", "evans.swinton_matrix"),
    ("evans", "_propagate_columns", "evans.propagate"),
    ("evans", "_propagate_adjoint", "evans.propagate"),
    ("evans", "solve_ivp", "evans.solve_ivp"),
    ("locate", "locate_roots", "locate.locate_roots"),
    ("locate", "winding_number", "locate.winding"),
    ("locate", "_phase_step", "locate.bisection"),
    ("locate", "scan", "locate.scan"),
    ("locate", "refine_root", "locate.refine"),
)

# innermost enclosing locate span -> counter of the evaluation it made
_LOCATE_PHASES = {"locate.bisection": "locate.bisection_evals",
                  "locate.winding": "locate.contour_evals",
                  "locate.scan": "locate.scan_evals",
                  "locate.refine": "locate.refine_evals"}

COUNTERS = ("model.perturbation_calls", "model.potential_points",
            "greens.green_data_calls", "evans.rhs_evals", "locate.evals",
            "locate.contour_evals", "locate.bisection_evals",
            "locate.scan_evals", "locate.refine_evals")

PER_LAYER = (
    ("model.perturbation_calls", "count"),
    ("model.potential_points", "count"),
    ("greens.green_data_calls", "count"),
    ("greens.branch_calls", "count"),
    ("greens.branch_s", "s"),
    ("greens.core_matrix_s", "s"),
    ("greens.basis_s", "s"),
    ("fredholm.discretize_calls", "count"),
    ("fredholm.discretize_scalar_s", "s"),
    ("fredholm.discretize_system_s", "s"),
    ("fredholm.trace_power_calls", "count"),
    ("fredholm.trace_power_s", "s"),
    ("fredholm.lu_calls", "count"),
    ("fredholm.lu_s", "s"),
    ("fredholm.det_self_s", "s"),
    ("fredholm.matrix_mb", "MiB"),
    ("evans.propagations", "count"),
    ("evans.segments", "count"),
    ("evans.rhs_evals", "count"),
    ("evans.solve_ivp_s", "s"),
    ("evans.propagate_self_s", "s"),
    ("locate.evals", "count"),
    ("locate.contour_evals", "count"),
    ("locate.bisection_evals", "count"),
    ("locate.scan_evals", "count"),
    ("locate.refine_evals", "count"),
    ("locate.winding_s", "s"),
    ("locate.scan_s", "s"),
    ("locate.refine_s", "s"),
    ("cli.config_s", "s"),
    ("cli.render_s", "s"),
    ("cli.item_s", "s"),
)

# metrics that must read the same in every round of a run
EXACT = tuple(name for name, unit in PER_LAYER if unit in ("count", "MiB"))


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._thread_counts: list[dict] = []
        self.spans: list[tuple] = []   # (id, parent, thread, name, t0, t1)
        self.matrix_bytes = 0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, k: int = 1):
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._thread_counts.append(counts)
        counts[name] = counts.get(name, 0) + k

    def current(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    def wrap(self, name: str, fn, parent=None):
        """fn, recording a span per call.  `parent` is used when the
        calling thread has no open span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            par = stack[-1][0] if stack else parent
            stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((sid, par, threading.get_ident(),
                                         name, t0, t1))
        return traced

    def locate_phase(self) -> str | None:
        for _, name in reversed(self._stack()):
            if name in _LOCATE_PHASES:
                return _LOCATE_PHASES[name]
        return None

    def counters(self) -> dict:
        out = dict.fromkeys(COUNTERS, 0)
        with self._lock:
            for counts in self._thread_counts:
                for name, k in counts.items():
                    out[name] = out.get(name, 0) + k
        return out

    # -- instrumentation ---------------------------------------------------

    def instrument(self, package):
        """Wrap the functions named in SPAN_TARGETS plus the counting
        hooks.  A missing SPAN_TARGETS attribute is reported and skipped,
        so the metrics that need it read 0; a missing counting hook
        (greens.green_data, ScalarProblem.potential, SystemProblem,
        cli.Run) fails the traced run."""
        modules = {name: getattr(package, name)
                   for name in ("cli", "fredholm", "greens", "evans",
                                "locate", "model")}
        for mod_name, attr, span in SPAN_TARGETS:
            self._patch(modules[mod_name], attr, span)
        self._instrument_counters(modules)
        self._instrument_cli(modules["cli"])

    def _patch(self, owner, attr, span):
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"perfbench: {getattr(owner, '__name__', owner)}.{attr} "
                  "not found, not traced", file=sys.stderr)
            return
        wrapped = self.wrap(span, fn)
        if span in ("fredholm.discretize_scalar",
                    "fredholm.discretize_system"):
            wrapped = self._matrix_size(wrapped)
        elif span == "evans.solve_ivp":
            wrapped = self._nfev(wrapped)
        setattr(owner, attr, wrapped)

    def _matrix_size(self, fn):
        @functools.wraps(fn)
        def sized(*args, **kwargs):
            op = fn(*args, **kwargs)
            nbytes = int(op.matrix.nbytes)
            with self._lock:
                self.matrix_bytes = max(self.matrix_bytes, nbytes)
            return op
        return sized

    def _nfev(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.count("evans.rhs_evals", int(sol.nfev))
            return sol
        return counted

    def _instrument_counters(self, modules):
        tracer = self
        greens, model = modules["greens"], modules["model"]
        green_data = greens.green_data

        @functools.wraps(green_data)
        def counted_green_data(*args, **kwargs):
            tracer.count("greens.green_data_calls")
            return green_data(*args, **kwargs)
        greens.green_data = counted_green_data

        potential = model.ScalarProblem.potential

        @functools.wraps(potential)
        def counted_potential(self, x):
            tracer.count("model.potential_points", _size(x))
            return potential(self, x)
        model.ScalarProblem.potential = counted_potential

        post_init = model.SystemProblem.__post_init__

        @functools.wraps(post_init)
        def counting_post_init(self):
            post_init(self)
            perturbation = self.perturbation

            def counted_perturbation(x):
                tracer.count("model.perturbation_calls")
                return perturbation(x)
            self.perturbation = counted_perturbation
        model.SystemProblem.__post_init__ = counting_post_init

    def _instrument_cli(self, cli):
        tracer = self
        Run = cli.Run
        init, run_map, target = Run.__init__, Run.map, Run.target_function
        Run.__init__ = self.wrap("cli.config", init)

        @functools.wraps(run_map)
        def traced_map(run, fn, items):
            return run_map(run, tracer.wrap("cli.item", fn,
                                            parent=tracer.current()), items)
        Run.map = traced_map

        @functools.wraps(target)
        def counted_target(run):
            name, fn = target(run)

            def counted(lam):
                tracer.count("locate.evals")
                phase = tracer.locate_phase()
                if phase is not None:
                    tracer.count(phase)
                return fn(lam)
            return name, counted
        Run.target_function = counted_target

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counters": self.counters(),
                "matrix_bytes": self.matrix_bytes}


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


# ---------------------------------------------------------------------------
# metrics from recorded spans


class _SpanSet:
    """Spans of one or more child processes; ids are made unique by
    prefixing the invocation index."""

    def __init__(self, dumps):
        self.spans = {}
        for inv, dump in enumerate(dumps):
            for sid, parent, thread, name, t0, t1 in dump["spans"]:
                key = (inv, sid)
                self.spans[key] = (None if parent is None else (inv, parent),
                                   thread, name, t0, t1)
        self.children = {}
        for key, (parent, *_rest) in self.spans.items():
            if parent is not None:
                self.children.setdefault(parent, []).append(key)

    def named(self, name):
        return [k for k, s in self.spans.items() if s[2] == name]

    def _has_ancestor(self, key, name):
        parent = self.spans[key][0]
        while parent is not None and parent in self.spans:
            if self.spans[parent][2] == name:
                return True
            parent = self.spans[parent][0]
        return False

    def duration(self, key):
        _, _, _, t0, t1 = self.spans[key]
        return t1 - t0

    def total(self, name) -> float:
        """Summed duration of the outermost spans of a name."""
        return sum(self.duration(k) for k in self.named(name)
                   if not self._has_ancestor(k, name))

    def count(self, name) -> int:
        return len(self.named(name))

    def self_time(self, name) -> float:
        """Duration minus the part of it that child spans cover."""
        total = 0.0
        for key in self.named(name):
            _, _, _, t0, t1 = self.spans[key]
            cover = sorted((max(t0, self.spans[c][3]), min(t1, self.spans[c][4]))
                           for c in self.children.get(key, ()))
            covered, end = 0.0, t0
            for a, b in cover:
                a = max(a, end)
                if b > a:
                    covered += b - a
                    end = b
            total += (t1 - t0) - covered
        return total


def layer_metrics(dumps) -> dict:
    """Per-layer metrics of one round, from the dumps of its child
    processes.  cli.item_s is the median per-lambda latency; every other
    time is a total over the round."""
    spans = _SpanSet(dumps)
    counters = dict.fromkeys(COUNTERS, 0)
    for dump in dumps:
        for name, k in dump["counters"].items():
            counters[name] = counters.get(name, 0) + k
    items = [spans.duration(k) for k in spans.named("cli.item")]
    values = {
        "greens.branch_calls": spans.count("greens.branch"),
        "greens.branch_s": spans.total("greens.branch"),
        "greens.core_matrix_s": spans.total("greens.core_matrix"),
        "greens.basis_s": spans.total("greens.basis"),
        "fredholm.discretize_calls": (
            spans.count("fredholm.discretize_scalar")
            + spans.count("fredholm.discretize_system")),
        "fredholm.discretize_scalar_s":
            spans.total("fredholm.discretize_scalar"),
        "fredholm.discretize_system_s":
            spans.total("fredholm.discretize_system"),
        "fredholm.trace_power_calls": spans.count("fredholm.trace_power"),
        "fredholm.trace_power_s": spans.total("fredholm.trace_power"),
        "fredholm.lu_calls": spans.count("fredholm.lu"),
        "fredholm.lu_s": spans.total("fredholm.lu"),
        "fredholm.det_self_s": spans.self_time("fredholm.det"),
        "fredholm.matrix_mb": max((d["matrix_bytes"] for d in dumps),
                                  default=0) / 2.0 ** 20,
        "evans.propagations": spans.count("evans.propagate"),
        "evans.segments": spans.count("evans.solve_ivp"),
        "evans.solve_ivp_s": spans.total("evans.solve_ivp"),
        "evans.propagate_self_s": spans.self_time("evans.propagate"),
        "locate.winding_s": spans.total("locate.winding"),
        "locate.scan_s": spans.total("locate.scan"),
        "locate.refine_s": spans.total("locate.refine"),
        "cli.config_s": spans.total("cli.config"),
        "cli.render_s": spans.total("cli.render"),
        "cli.item_s": statistics.median(items) if items else 0.0,
    }
    values.update(counters)
    return {name: values[name] for name, _ in PER_LAYER}
