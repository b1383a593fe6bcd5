"""In-memory span tracing of the solver's layers, installed from outside.

``Tracer.install`` replaces the public names that ``afpg.harness`` and
``afpg.timestep`` call (``rhs_1d``, ``step``, ...) with wrappers that
record one span per call: name, start, end, parent span and run id.
Spans stay in a list until ``write`` dumps them as JSON at the end of
the run.  A layer's self time is its span time minus the time of its
direct children; the metric names use the module that defines the
wrapped function (``semidiscrete.rhs_1d``), not the module that calls it.
"""

from __future__ import annotations

import json
import os
import time

HARNESS_NAMES = ("rhs_1d", "rhs_2d", "advance", "project_initial", "error_norms",
                 "write_state_csv", "total_mass", "build_element", "build_element_2d",
                 "run_simulation")
TIMESTEP_NAMES = ("step", "compute_dt")


def state_dofs(state):
    """Number of stored degrees of freedom of a 1-d or 2-d state."""
    if hasattr(state, "averages"):
        return state.averages.size + state.edge_x.size + state.edge_y.size + state.nodes.size
    return state.points.size + state.moments.size


def _rhs_work(args):
    return state_dofs(args[0])


def _csv_work(args):
    return os.path.getsize(args[2])


# work counted per call: dofs for the right-hand sides, bytes for CSV output
_WORK = {"rhs_1d": _rhs_work, "rhs_2d": _rhs_work, "write_state_csv": _csv_work}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # span: [layer, start_ns, end_ns, parent index or -1, work]
        self.spans = []
        self._stack = []
        self._originals = []

    def _wrap(self, fn, name):
        layer = f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"
        work_fn = _WORK.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, clock(), 0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work_fn is not None:
                span[4] = work_fn(args)
            return result

        return traced

    def install(self, harness, timestep):
        for module, names in ((harness, HARNESS_NAMES), (timestep, TIMESTEP_NAMES)):
            for name in names:
                original = getattr(module, name)
                self._originals.append((module, name, original))
                setattr(module, name, self._wrap(original, name))

    def uninstall(self):
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def layers(self, start_ns=None, end_ns=None):
        """Per layer: calls, total and self time (ns) and work.

        Also returns the time covered by top-level spans that lie inside
        [start_ns, end_ns] (the whole run when not given).
        """
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = {}
        covered = 0
        for i, (name, t0, t1, parent, work) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0})
            row["calls"] += 1
            row["total_ns"] += t1 - t0
            row["self_ns"] += t1 - t0 - child_ns[i]
            row["work"] += work
            inside = (start_ns is None or t0 >= start_ns) and (end_ns is None or t1 <= end_ns)
            if parent < 0 and inside:
                covered += t1 - t0
        return out, covered

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["run_id", "name", "start_ns", "end_ns", "parent", "work"],
                       "spans": [[self.run_id, *span] for span in self.spans]}, fh)
