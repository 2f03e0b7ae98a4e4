"""Spans around the package's public functions, recorded from outside.

:meth:`Tracer.install` rebinds each traced function under every name
its callers look up: each ``hskahler`` module attribute that holds the
function object, or the class attribute for a method.  Nothing in the
package itself changes.  A span is ``{id, name, start, end, parent,
op_id, thread}`` plus a few counts.  Spans stay in memory on a
thread-local stack, so ``batch`` worker threads nest under the
operation that started them, and :meth:`Tracer.dump` writes them out
at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass

# span name -> (module, attribute path); a dotted path names a method
TARGETS = {
    "cli.run_command": ("hskahler.cli", "run_command"),
    "documents.load": ("hskahler.documents", "load"),
    "analysis.run_analysis": ("hskahler.analysis", "run_analysis"),
    "analysis.run_hs": ("hskahler.analysis", "run_hs"),
    "analysis.run_kahlerize": ("hskahler.analysis", "run_kahlerize"),
    "analysis.to_dict": ("hskahler.analysis", "AnalysisReport.to_dict"),
    "analysis.to_text": ("hskahler.analysis", "AnalysisReport.to_text"),
    "algebra.realify": ("hskahler.algebra", "realify"),
    "algebra.change_frame": ("hskahler.algebra", "change_frame"),
    "algebra.complexify_and_extract": ("hskahler.algebra", "complexify_and_extract"),
    "algebra.reconstruction_residual": ("hskahler.algebra", "reconstruction_residual"),
    "algebra.canonical_frame": ("hskahler.algebra", "canonical_frame"),
    "algebra.integrability_residual": ("hskahler.algebra", "integrability_residual"),
    "algebra.bianchi_residuals": ("hskahler.algebra", "StructureConstants.bianchi_residuals"),
    "algebra.solvable_profile": ("hskahler.algebra", "solvable_profile"),
    "forms.dd_residual": ("hskahler.forms", "dd_residual"),
    "forms.InvariantForm.d": ("hskahler.forms", "InvariantForm.d"),
    "forms.InvariantForm.wedge": ("hskahler.forms", "InvariantForm.wedge"),
    "metrics.kahler_check": ("hskahler.metrics", "kahler_check"),
    "metrics.pluriclosed_check": ("hskahler.metrics", "pluriclosed_check"),
    "metrics.balanced_check": ("hskahler.metrics", "balanced_check"),
    "metrics.frame_metric_from_real": ("hskahler.metrics", "frame_metric_from_real"),
    "metrics.hs_decide": ("hskahler.metrics", "hs_decide"),
    "metrics.chern_torsion": ("hskahler.metrics", "chern_torsion"),
    "metrics.hs_metric_search": ("hskahler.metrics", "hs_metric_search"),
    "solvable.admissible_from_frame": ("hskahler.solvable", "admissible_from_frame"),
    "solvable.build_admissible_frame": ("hskahler.solvable", "build_admissible_frame"),
    "solvable.verify_restrictions": ("hskahler.solvable", "verify_restrictions"),
    "solvable.verify_bianchi_blocks": ("hskahler.solvable", "verify_bianchi_blocks"),
    "solvable.verify_hs_blocks": ("hskahler.solvable", "verify_hs_blocks"),
    "kahler.kahlerize": ("hskahler.kahler", "kahlerize"),
    "kahler.claims_pipeline": ("hskahler.kahler", "claims_pipeline"),
    "kahler.simultaneous_diagonalize": ("hskahler.kahler", "simultaneous_diagonalize"),
}


# counts taken from a call's arguments or result, by span name
MEASURES = {
    "documents.load": lambda args, kwargs, out: {"bytes": os.path.getsize(args[0])},
    "forms.InvariantForm.d": lambda args, kwargs, out: {"terms_out": len(out.terms)},
    "metrics.hs_metric_search": lambda args, kwargs, out: {"evals": out.evals, "found": bool(out.found)},
}

# per-layer metrics: (name, unit), each derived from the spans in summarize()
MS = ("algebra.realify", "algebra.change_frame", "algebra.complexify_and_extract",
      "algebra.reconstruction_residual", "algebra.canonical_frame",
      "algebra.integrability_residual", "algebra.bianchi_residuals", "algebra.solvable_profile",
      "forms.dd_residual", "forms.InvariantForm.d", "forms.InvariantForm.wedge",
      "metrics.kahler_check", "metrics.pluriclosed_check", "metrics.balanced_check",
      "metrics.frame_metric_from_real", "metrics.hs_decide", "metrics.hs_metric_search",
      "solvable.admissible_from_frame", "solvable.build_admissible_frame",
      "solvable.verify_restrictions", "solvable.verify_bianchi_blocks", "solvable.verify_hs_blocks",
      "kahler.kahlerize", "kahler.claims_pipeline", "kahler.simultaneous_diagonalize",
      "documents.load", "analysis.to_dict", "analysis.to_text", "cli.run_command")
CALLS = ("algebra.realify", "forms.InvariantForm.d", "forms.InvariantForm.wedge",
         "metrics.hs_decide", "metrics.chern_torsion")
PER_LAYER = (
    [(f"{name}.ms", "ms") for name in MS]
    + [(f"{name}.calls", "count") for name in CALLS]
    + [("analysis.pipeline.ms", "ms"),
       ("forms.InvariantForm.d.terms_out", "count"),
       ("documents.load.bytes", "bytes"),
       ("metrics.hs_metric_search.evals", "count"),
       ("metrics.hs_metric_search.found_frac", "ratio"),
       ("solvable.admissible_from_frame.fallback_frac", "ratio"),
       ("cli.batch.busy_frac", "ratio"),
       ("cli.batch.queue_wait_ms", "ms"),
       ("trace.overhead_ratio", "ratio"),
       ("trace.self_over_wall_max", "ratio")]
)


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None
    thread: int
    error: str | None = None
    counts: dict | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def begin_op(self, op_id: int) -> None:
        self.op_id, self._root = op_id, None

    def wrap(self, name: str, fn):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if parent is None:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                self._close(stack, Span(sid, name, start, time.perf_counter(), parent,
                                        self.op_id, threading.get_ident(), type(e).__name__))
                raise
            span = Span(sid, name, start, time.perf_counter(), parent, self.op_id,
                        threading.get_ident())
            if measure is not None:
                span.counts = measure(args, kwargs, out)
            self._close(stack, span)
            return out

        return traced

    def _close(self, stack: list, span: Span) -> None:
        stack.pop()
        self.spans.append(span)

    def install(self) -> None:
        """Rebind every traced function wherever a caller looks it up."""
        modules = [m for k, m in sys.modules.items() if k == "hskahler" or k.startswith("hskahler.")]
        for name, (module, path) in TARGETS.items():
            owner = sys.modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._rebind(owner, attr, self.wrap(name, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, traced)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# ----------------------------------------------------------- aggregation


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(spans: list[Span], batch_ops: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    ``<name>.ms`` is the median, over the operations that called the
    function, of its summed self time in that operation; ``.calls`` is
    calls per operation over all operations.  ``batch_ops`` maps each
    batch operation's id to its ``--jobs``.
    """
    selfs = self_times(spans)
    by_op: dict[int, list[Span]] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_op.setdefault(s.op_id, []).append(s)
        by_name.setdefault(s.name, []).append(s)
    n_ops = max(1, len(by_op))

    def ms(*names: str) -> float:
        per_op: dict[int, float] = {}
        for name in names:
            for s in by_name.get(name, []):
                per_op[s.op_id] = per_op.get(s.op_id, 0.0) + selfs[s.id]
        return 1000.0 * _median(list(per_op.values()))

    def counts(name: str, key: str) -> list:
        return [s.counts[key] for s in by_name.get(name, []) if s.counts]

    out = {f"{name}.ms": ms(name) for name in MS}
    out.update({f"{name}.calls": len(by_name.get(name, [])) / n_ops for name in CALLS})
    out["analysis.pipeline.ms"] = ms("analysis.run_analysis", "analysis.run_hs",
                                     "analysis.run_kahlerize")
    out["forms.InvariantForm.d.terms_out"] = sum(counts("forms.InvariantForm.d", "terms_out")) / n_ops
    out["documents.load.bytes"] = _mean(counts("documents.load", "bytes"))
    out["metrics.hs_metric_search.evals"] = _mean(counts("metrics.hs_metric_search", "evals"))
    out["metrics.hs_metric_search.found_frac"] = _mean(
        [float(f) for f in counts("metrics.hs_metric_search", "found")])
    out["solvable.admissible_from_frame.fallback_frac"] = _mean(
        [float(s.error == "StructureError") for s in by_name.get("solvable.admissible_from_frame", [])])
    busy, waits = [], []
    for op_id, jobs in batch_ops.items():
        op_spans = by_op.get(op_id, [])
        root = next(s for s in op_spans if s.parent is None)
        wall = root.end - root.start
        busy.append(sum(s.end - s.start for s in op_spans if s.name == "analysis.run_analysis")
                    / (jobs * wall))
        waits += [s.start - root.start for s in op_spans
                  if s.name == "documents.load" and s.parent == root.id]
    out["cli.batch.busy_frac"] = _median(busy)
    out["cli.batch.queue_wait_ms"] = 1000.0 * _mean(waits)
    out["trace.self_over_wall_max"] = self_over_wall_max(by_op, selfs)
    return out


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def self_over_wall_max(by_op: dict[int, list[Span]], selfs: dict[int, float]) -> float:
    """Largest, over operations and threads, summed self time / op wall."""
    worst = 0.0
    for op_spans in by_op.values():
        root = next(s for s in op_spans if s.parent is None)
        per_thread: dict[int, float] = {}
        for s in op_spans:
            per_thread[s.thread] = per_thread.get(s.thread, 0.0) + selfs[s.id]
        worst = max(worst, max(per_thread.values()) / max(root.end - root.start, 1e-12))
    return worst
