"""Span tracing of the ncho layers, installed from outside the package.

The traced run replaces each public function listed in TRACED by a
wrapper in every ncho module namespace that holds it (so that
`ncho.report.spectral_data` and `ncho.separability.spectral_data` are
both traced), and each listed method on its class.  A wrapper records
one span: name, start, end, parent span and request id.  Spans stay in
memory, in flat arrays, until the run ends.

A span's self time is its duration minus the time its direct children
cover.  Calls run on one thread, so siblings never overlap and the
covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# module -> public functions and Class.method names wrapped in the traced run
TRACED = {
    "params": ["validate", "to_commutative", "effective_planck"],
    "symplectic": ["spectral_data", "assemble_eigensystem"],
    "gaussian": ["ground_state", "covariance", "rs_min_eigenvalue", "variance_products"],
    "separability": ["ppt_oracle", "simon_report", "classify", "scan", "ScanResult.csv_text"],
    "report": ["analyze", "AnalysisReport.json_obj", "AnalysisReport.json_text"],
    "wigner": [
        "wigner_form",
        "evaluate",
        "project",
        "marginal_position",
        "save_grid",
        "WignerGrid.csv_text",
    ],
    "szilard": ["extractable_work", "conditional_covariance"],
}

def _count_eigenvectors(counts, args, kwargs, out):
    counts["symplectic.eigenvectors_built"] += len(out.used_fallback)
    counts["symplectic.fallback_eigenvectors"] += sum(out.used_fallback)


def _count_evaluated(counts, args, kwargs, out):
    z = args[1] if len(args) > 1 else kwargs["z"]
    counts["wigner.evaluate.bytes_computed"] += np.asarray(z).nbytes + out.nbytes


def _count_written(counts, args, kwargs, out):
    counts["wigner.bytes_written"] += sum(os.path.getsize(p) for p in out)


def _count_rows(counts, args, kwargs, out):
    c = out.counts()
    counts["separability.scan.degenerate_rows"] += c["degenerate"]
    counts["separability.scan.separable_rows"] += c["separable"]


# span name -> counter updated from the call's result, at the span boundary
HOOKS = {
    "symplectic.assemble_eigensystem": _count_eigenvectors,
    "wigner.evaluate": _count_evaluated,
    "wigner.save_grid": _count_written,
    "separability.scan": _count_rows,
}


class Tracer:
    """In-memory span recorder for one traced run on one thread."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = Counter()
        self.counts = Counter()
        self.active = False
        self.request_id = 0
        self._stack = []
        self._undo = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """fn with a span named `name` around each call made while active."""
        hook = HOOKS.get(name)
        nchoerror = sys.modules["ncho.errors"].NchoError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except nchoerror as e:
                # count a typed error once, in the innermost traced layer
                if not getattr(e, "_bench_counted", False):
                    e._bench_counted = True
                    self.raised[name] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out

        return traced

    def request_span(self):
        """Start the root span of the next request; returns its index."""
        self.request_id += 1
        return self._open("request")

    def end_request(self, idx: int):
        self._close(idx)

    def install(self):
        """Wrap every TRACED name in each loaded ncho module."""
        modules = [m for n, m in sys.modules.items() if n == "ncho" or n.startswith("ncho.")]
        for mod_name, names in TRACED.items():
            home = sys.modules[f"ncho.{mod_name}"]
            for name in names:
                span = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(span, orig))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(home, name)
                wrapped = self.wrap(span, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    def arrays(self):
        """(names, name_id, parent, start, end, request) as numpy arrays."""
        return (
            self.names,
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.request, dtype=np.int32),
        )

    def write(self, path: str):
        """Spans as tab-separated name, start_ns, end_ns, parent, request."""
        rows = zip(self.name_id, self.start, self.end, self.parent, self.request)
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for nid, start, end, parent, req in rows:
                f.write(f"{self.names[nid]}\t{start}\t{end}\t{parent}\t{req}\n")


def covered_time(parent, start, end):
    """(duration, time covered by direct children) for every span.

    parent[i] is the index of span i's parent, -1 for a root.
    """
    parent = np.asarray(parent)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur, covered


def span_stats(names, name_id, parent, start, end) -> dict:
    """Per span name: calls, total and self time (ns), child coverage, durations."""
    dur, covered = covered_time(parent, start, end)
    out = {}
    for i, name in enumerate(names):
        mask = name_id == i
        d = dur[mask]
        c = covered[mask]
        total = float(d.sum())
        out[name] = {
            "calls": int(mask.sum()),
            "total_ns": total,
            "self_ns": total - float(c.sum()),
            "coverage": float(c.sum()) / total if total > 0 else 0.0,
            "durations_ns": d,
        }
    return out
