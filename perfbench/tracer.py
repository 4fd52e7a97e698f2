"""In-memory tracing of periodyn's layers, installed from outside the package.

Public functions are wrapped by rebinding every module-level name that
refers to them, because callers look functions up by the name they
imported (``cli`` calls its own ``find_weights``, ``certify`` its own
``linprog``, ``integrate`` its own ``density_quadrature``).  Each wrapped
call records a span (operation id, span id, parent span id, name, start,
end, self time); the self time is the duration minus the time covered by
child spans and by the leaf calls below.  The two hottest leaves,
``HistoryBuffer.lookup_scalar`` (over a million calls in one run of the
distributed workload) and ``PeriodicExpr.eval``, are recorded as counts and
aggregate time instead of one span per call.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter

# (module, function) pairs traced as spans, grouped by the layer they belong to
SPAN_TARGETS = (
    ("periodyn.cli", ("cmd_certify", "cmd_simulate", "cmd_find_period", "cmd_compare",
                      "parse_config", "run_ensemble", "ensemble_instance")),
    ("periodyn.model", ("validate",)),
    ("periodyn.certify", ("find_weights", "mmatrix_weights", "find_decay_rate",
                          "compute_bounds", "check_row_dominance", "pointwise_report",
                          "search_split_sup_criterion", "search_sup_criterion",
                          "check_period_scaled_criterion", "random_discrete_delay_model",
                          "linprog")),
    ("periodyn.kernels", ("density_quadrature",)),
    ("periodyn.integrate", ("simulate", "write_states_csv")),
    ("periodyn.periodic", ("find_periodic_orbit", "verify_periodicity",
                           "estimate_decay_rate", "period_map")),
)


@dataclass
class Span:
    op: int
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float
    lookups: int
    note: object = None


@dataclass
class Tracer:
    op: int = 0
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    # [calls, seconds, served by the initial history, past the newest node]
    lookup: list = field(default_factory=lambda: [0, 0.0, 0, 0])
    # [calls, seconds]
    expr_eval: list = field(default_factory=lambda: [0, 0.0])
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _next_id: int = 0

    # --- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, note=None):
        tracer = self
        stack = self._stack
        lookup = self.lookup

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            lookups0 = lookup[0]
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append(Span(
                    tracer.op, sid, parent, name, start, end, dur - frame[1],
                    lookup[0] - lookups0,
                    note(args, kwargs, result) if note is not None else None))

        return traced

    def _leaf(self, fn, counters):
        stack = self._stack

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                counters[0] += 1
                counters[1] += dur
                if stack:
                    stack[-1][1] += dur

        return leaf

    def _lookup_leaf(self, fn):
        stack = self._stack
        counters = self.lookup

        @functools.wraps(fn)
        def lookup_scalar(buf, t, j):
            start = perf_counter()
            try:
                return fn(buf, t, j)
            finally:
                dur = perf_counter() - start
                counters[0] += 1
                counters[1] += dur
                if t <= buf.start_time:
                    counters[2] += 1
                elif t > buf.start_time + (buf.count - 1) * buf.h:
                    counters[3] += 1
                if stack:
                    stack[-1][1] += dur

        return lookup_scalar

    # --- install / remove -----------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "periodyn" or mod_name.startswith("periodyn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        notes = {
            "simulate": lambda a, k, traj: int(traj.times.size - 1) if traj is not None else 0,
            "linprog": _lp_size,
            "write_states_csv": _csv_size,
        }
        for mod_name, names in SPAN_TARGETS:
            mod = sys.modules.get(mod_name)
            for name in names:
                original = getattr(mod, name, None) if mod is not None else None
                if original is None:
                    self.missing.append(f"{mod_name}.{name}")
                    continue
                label = f"{mod_name.split('.')[-1]}.{name}"
                self._rebind_everywhere(original, self._span(label, original, notes.get(name)))
        integrate = sys.modules["periodyn.integrate"]
        expressions = sys.modules["periodyn.expressions"]
        for owner, attr, make in (
                (integrate.HistoryBuffer, "lookup_scalar", self._lookup_leaf),
                (expressions.PeriodicExpr, "eval",
                 lambda fn: self._leaf(fn, self.expr_eval))):
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))
        if self.missing:
            print("perfbench: not traced (missing): " + ", ".join(self.missing),
                  file=sys.stderr)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- summaries ------------------------------------------------------------

    def by_name(self) -> dict:
        """name -> {calls, self_s, total_s, lookups, notes}."""
        out: dict = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                          "lookups": 0, "notes": []})
            row["calls"] += 1
            row["self_s"] += s.self_s
            row["total_s"] += s.end - s.start
            row["lookups"] += s.lookups
            if s.note is not None:
                row["notes"].append(s.note)
        return out

    def write(self, path) -> None:
        doc = {
            "fields": ["op", "id", "parent", "name", "start", "end", "self_s", "lookups",
                       "note"],
            "spans": [[s.op, s.sid, s.parent, s.name, s.start, s.end, s.self_s, s.lookups,
                       s.note] for s in sorted(self.spans, key=lambda s: s.sid)],
            "lookup_scalar": dict(zip(("calls", "seconds", "initial_history",
                                       "past_newest_node"), self.lookup)),
            "expr_eval": dict(zip(("calls", "seconds"), self.expr_eval)),
            "missing": self.missing,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


def _lp_size(args, kwargs, result):
    a_ub = kwargs.get("A_ub")
    if a_ub is None and len(args) > 1:
        a_ub = args[1]
    if a_ub is None:
        return [0, 0]
    return [int(a_ub.shape[0]), int(a_ub.nbytes)]


def _csv_size(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
