"""Span tracer that wraps chainent's public functions from outside the package.

Each traced function is replaced, in every chainent module namespace that
holds it, by a wrapper that records a span (name, start, end, parent,
run id, work) in memory.  Replacing it where its callers look it up matters:
`entanglement` calls `lag_count_array` through its own module globals, not
through `chainent.blocks`.  A function the package no longer has is skipped
and reads as zero calls.

A span's self time is its duration minus the time its child spans cover.
"""

import functools
import gzip
import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _pairs(args, kwargs):
    x = args[0] if len(args) > 0 else kwargs["x"]
    y = args[1] if len(args) > 1 else kwargs["y"]
    return len(x) * len(y)


#: (span name, home module, attribute, work counter or None)
TRACED = (
    ("cli.main", "chainent.cli", "main", None),
    ("cli.render", "chainent.cli", "render_csv", None),
    ("cli.render", "chainent.cli", "render_json", None),
    ("cli.emit", "chainent.cli", "_emit", None),
    ("correlations.correlation_table", "chainent.correlations",
     "correlation_table", None),
    ("correlations.hyp2f1", "chainent.correlations", "hyp2f1", None),
    ("correlations.finite_correlation_table", "chainent.correlations",
     "finite_correlation_table", None),
    ("kernels.hyp2f1_series", "chainent.kernels", "hyp2f1_series", None),
    ("blocks.lag_count_array", "chainent.blocks", "lag_count_array", _pairs),
    ("blocks.block_indices", "chainent.blocks", "block_indices", None),
    ("entanglement.covariance_of_blocks", "chainent.entanglement",
     "covariance_of_blocks", None),
    ("entanglement.negativity", "chainent.entanglement", "negativity", None),
    ("entanglement.approx_negativity", "chainent.entanglement",
     "approx_negativity", None),
    ("entanglement.collective_symplectic", "chainent.entanglement",
     "collective_symplectic", None),
    ("field.d_phi", "chainent.field", "d_phi", None),
    ("field.d_pi", "chainent.field", "d_pi", None),
    ("field.field_negativity", "chainent.field", "field_negativity", None),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "run", "work")
SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TRACED))
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))
#: span names whose work counter is reported, and the counter's name
WORK_COUNTERS = {"blocks.lag_count_array": "pairs"}


class Tracer:
    """Collects spans while active; `summary` folds them into layer metrics."""

    def __init__(self):
        self.spans = []     # tuples of SPAN_FIELDS
        self.runs = 0
        self._stack = []
        self._run_id = -1

    def _wrap(self, name, func, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._run_id,
                                work(args, kwargs) if work else 0)
        return traced

    @contextmanager
    def run(self):
        """Trace one pass: install the wrappers, then restore the originals."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "chainent" or key.startswith("chainent.")]
        patched = []
        for name, home, attr, work in TRACED:
            func = getattr(sys.modules.get(home), attr, None)
            if func is None:
                continue
            wrapper = self._wrap(name, func, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, func))
        self._run_id = self.runs
        self.runs += 1
        try:
            yield
        finally:
            for mod, key, func in reversed(patched):
                setattr(mod, key, func)

    def summary(self):
        """Per traced pass: self time, calls and work of every span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0.0, 0, 0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _, work) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += (end - start) - child[i]
            entry[1] += 1
            entry[2] += work
        runs = max(self.runs, 1)
        out = {}
        for name, (self_s, calls, work) in totals.items():
            out[f"{name}.self_s"] = self_s / runs
            out[f"{name}.calls"] = calls / runs
            if name in WORK_COUNTERS:
                out[f"{name}.{WORK_COUNTERS[name]}"] = work / runs
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                totals[name][0] for name in SPAN_NAMES
                if name.split(".")[0] == layer) / runs
        return out

    def write(self, path):
        """Write every span as a JSON array, one per line, gzip-compressed.

        The first line names the fields.  A traced pass of the chain
        workload makes about 58,000 spans, hence the compact form.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
