"""Outside-in tracing of the ctqrw layers.

``Tracer.install`` wraps every public function defined in the traced
modules and rebinds the wrapper under every name that holds the original in
any loaded ``ctqrw`` module, so calls through ``from .quantum import
apply_kraus`` are seen as well as calls through ``quantum.apply_kraus``.
``Tracer.restore`` puts the originals back.  Nothing inside ctqrw changes.

Each call records a span ``(id, name, start, end, parent id, job)`` in
memory; spans are written out only at the end.  A span's self time is its
duration minus the duration of its children; children run on the caller's
thread, so they never overlap.  Work counts come from arguments and return
values only.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "config", "engine", "kernels", "special", "laplace", "solvers",
          "quantum", "models", "seeding")


def _argument(fn, name: str):
    """Getter for parameter `name` of `fn` from a call's (args, kwargs)."""
    params = inspect.signature(fn).parameters
    param = params[name]
    index = list(params).index(name)
    default = None if param.default is inspect.Parameter.empty else param.default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[index] if index < len(args) else default

    return get


class Tracer:
    """Span recorder with per-function work counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self._distinct_kraus = set()
        self._lock = threading.Lock()
        # traced name -> (argument names passed to the counter, counter)
        self._counters = {
            "kernels.sample_waiting": (("size",), self._count_draws),
            "engine.draw_event_times": ((), self._count_events),
            "models.wigner_ctrw": ((), self._count_walkers),
            "quantum.apply_kraus": (("emap", "rho"), self._count_kraus),
            "special.mittag_leffler": (("x",), self._count_points),
            "kernels.waiting_survival": (("t",), self._count_points),
            "laplace.invert": (("t",), self._count_points),
            "engine.renewal_probabilities": ((), self._count_rows),
            "solvers.volterra_solve": (("grid",), self._count_steps),
            "solvers.cp_defect_over_time": ((), self._count_result_points),
            "cli.write_csv": (("columns",), self._count_csv_rows),
        }

    # -- counters: called as counter(name, result, *arguments) ------------------

    def _count_draws(self, name, result, size):
        self.counts[name + ".draws"] += 1 if size is None else int(size)

    def _count_events(self, name, result):
        self.counts["engine.events"] += len(result)
        self.counts["events_used"] += len(result)

    def _count_walkers(self, name, result):
        n_walkers = result.positions.shape[1]
        self.counts[name + ".walkers"] += n_walkers
        # mean count at the last grid point times walkers = events used
        self.counts["events_used"] += float(result.mean_counts[-1]) * n_walkers

    def _count_kraus(self, name, result, emap, rho):
        self._distinct_kraus.add((self.job, id(emap), np.asarray(rho).tobytes()))

    def _count_points(self, name, result, points):
        self.counts[name + ".points"] += np.size(points)

    def _count_rows(self, name, result):
        self.counts[name + ".rows"] += result.table.shape[0]

    def _count_steps(self, name, result, grid):
        self.counts[name + ".steps"] += np.size(grid) - 1

    def _count_result_points(self, name, result):
        self.counts[name + ".points"] += np.size(result)

    def _count_csv_rows(self, name, result, columns):
        self.counts[name + ".rows"] += len(columns[0])

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` and return its result."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.job))

    def _wrap(self, name: str, fn):
        arg_names, counter = self._counters.get(name, ((), None))
        getters = [_argument(fn, arg) for arg in arg_names]

        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter:
                with self._lock:
                    counter(name, result, *(get(args, kwargs) for get in getters))
            return result

        return functools.update_wrapper(traced, fn)

    # -- install / restore -------------------------------------------------------

    def targets(self) -> dict:
        """``{original function: traced name}`` for the public functions
        defined in each traced module."""
        found = {}
        for layer in LAYERS:
            module = sys.modules[f"ctqrw.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    found[value] = f"{layer}.{attr}"
        return found

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ctqrw" or mod_name.startswith("ctqrw.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    # -- reduction -----------------------------------------------------------------

    def self_times(self) -> dict:
        """``{name: (calls, self seconds)}`` over all recorded spans."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for span_id, name, start, end, _, _ in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[span_id]
        return {name: tuple(v) for name, v in totals.items()}

    def layer_metrics(self) -> dict:
        """Flat ``{metric: value}``: ``<fn>.calls``, ``<fn>.s`` (self time),
        the work counts, and the derived ratios."""
        out = {}
        for name, (calls, self_s) in self.self_times().items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = self_s
        out.update((k, v) for k, v in self.counts.items() if k != "events_used")
        draws = self.counts.get("kernels.sample_waiting.draws", 0)
        out["kernels.draws_used_frac"] = self.counts["events_used"] / draws if draws else 0.0
        kraus_calls = out.get("quantum.apply_kraus.calls", 0)
        out["quantum.apply_kraus.distinct_frac"] = (
            len(self._distinct_kraus) / kraus_calls if kraus_calls else 0.0)
        points = out.get("special.mittag_leffler.points", 0)
        out["special.mittag_leffler.us_per_point"] = (
            1e6 * out["special.mittag_leffler.s"] / points if points else 0.0)
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,job\n")
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent},{job}\n")
