"""Per-layer tracing of gradefactor from outside the package.

`Tracer.installed()` replaces selected module attributes of the imported
gradefactor package with timing wrappers and puts every original back on
exit.  A function is replaced wherever a gradefactor module holds a
reference to it (`from .links import hazard` makes `mle.hazard` a second
reference), so calls through any import path are seen.

Each call records a span: name, thread, start, end, parent span and any
counters the layer defines.  Spans stay in memory; `layer_metrics` turns
them into per-layer numbers after the run and `write_spans` dumps them.

Self time is the part of a span's interval not covered by a wrapped
child.  Spans opened on a worker thread with no enclosing span on that
thread are children of the span open on the main thread at the time
(fit_ml runs its restarts on a thread pool).  When several threads are
busy at once, each busy span is charged an equal share of the elapsed
time, so the self times of a run add up to at most its wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import threading
import time

import numpy as np


def _first_size(args, kwargs, result):
    return int(np.size(args[0]))


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _cols_kept(args, kwargs, result):
    # _phase_c(C, ...) returns the new C; an unchanged column was rejected
    # by the accept-if-improved guard (or did not move at all)
    return int(np.all(result == args[0], axis=0).sum())


def _rows_kept(args, kwargs, result):
    return int(np.all(result == args[0], axis=1).sum())


def _path_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (metric prefix, module, attribute, {counter name: counter(args, kwargs, result)})
WRAPPED = [
    ("links.hazard", "links", "hazard", {"elems": _first_size}),
    ("links.log_inv_link", "links", "log_inv_link", {"elems": _first_size}),
    ("mle.phase_c", "mle", "_phase_c", {"cols_kept": _cols_kept}),
    ("mle.phase_w", "mle", "_phase_w", {"rows_kept": _rows_kept}),
    ("mle.objective_value", "mle", "objective_value", {}),
    ("mle.fit_ml", "mle", "fit_ml", {}),
    ("mle.bic_select_lambda", "mle", "bic_select_lambda", {}),
    ("model.log_likelihood", "model", "log_likelihood", {}),
    ("bayes.step_slack", "bayes", "step_slack", {}),
    ("bayes.step_difficulty", "bayes", "step_difficulty", {}),
    ("bayes.step_knowledge", "bayes", "step_knowledge", {}),
    ("bayes.step_covariance", "bayes", "step_covariance", {}),
    ("bayes.step_weights", "bayes", "step_weights", {}),
    ("bayes.step_rates", "bayes", "step_rates", {}),
    ("bayes.step_inclusion", "bayes", "step_inclusion", {}),
    ("bayes._resolve", "bayes", "_resolve", {}),
    ("bayes.sample_truncnorm", "bayes", "sample_truncnorm", {"elems": _result_size}),
    ("ksvd.nn_omp", "ksvd", "nn_omp", {}),
    ("ksvd.dict_update_rank1", "ksvd", "dict_update_rank1", {}),
    ("ksvd.fit_ksvd", "ksvd", "fit_ksvd", {}),
    ("tags.solve_bpdn_plus", "tags", "solve_bpdn_plus", {}),
    ("tags.fit_tag_map", "tags", "fit_tag_map", {}),
    ("evaluate.eval_metrics", "evaluate", "eval_metrics", {}),
    ("evaluate.predict_heldout", "evaluate", "predict_heldout", {}),
    ("io_formats.read_response_csv", "io_formats", "read_response_csv",
     {"bytes": _path_bytes}),
    ("io_formats.write_model_json", "io_formats", "write_model_json",
     {"bytes": _path_bytes}),
    ("io_formats.read_model_json", "io_formats", "read_model_json", {}),
    ("io_formats.write_manifest", "io_formats", "write_manifest", {}),
    ("synth.generate_synthetic", "synth", "generate_synthetic", {}),
    ("cli.main", "cli", "main", {}),
]

# metrics reported per traced operation; each name is <prefix>.<field>
REPORTED = {
    "links.hazard": ("calls", "self_s", "elems", "useful_ratio"),
    "links.log_inv_link": ("calls", "self_s", "elems", "useful_ratio"),
    "mle.phase_c": ("calls", "self_s", "cols_kept"),
    "mle.phase_w": ("calls", "self_s", "rows_kept"),
    "mle.objective_value": ("calls", "self_s"),
    "mle.fit_ml": ("calls", "self_s"),
    "mle.bic_select_lambda": ("self_s",),
    "model.log_likelihood": ("calls", "self_s"),
    "bayes.step_slack": ("self_s",),
    "bayes.step_difficulty": ("self_s",),
    "bayes.step_knowledge": ("self_s",),
    "bayes.step_covariance": ("self_s",),
    "bayes.step_weights": ("self_s",),
    "bayes.step_rates": ("self_s",),
    "bayes.step_inclusion": ("self_s",),
    "bayes._resolve": ("calls", "self_s"),
    "bayes.sample_truncnorm": ("calls", "elems", "self_s"),
    "ksvd.nn_omp": ("calls", "self_s"),
    "ksvd.dict_update_rank1": ("calls", "self_s"),
    "ksvd.fit_ksvd": ("self_s",),
    "tags.solve_bpdn_plus": ("calls", "self_s"),
    "tags.fit_tag_map": ("self_s",),
    "evaluate.eval_metrics": ("self_s",),
    "evaluate.predict_heldout": ("self_s",),
    "io_formats.read_response_csv": ("self_s", "bytes"),
    "io_formats.write_model_json": ("self_s", "bytes"),
    "io_formats.read_model_json": ("self_s",),
    "io_formats.write_manifest": ("self_s",),
    "synth.generate_synthetic": ("self_s",),
    "cli.main": ("calls", "self_s"),
}

UNITS = {"calls": "count", "self_s": "s", "elems": "count", "bytes": "B",
         "useful_ratio": "ratio", "cols_kept": "count", "rows_kept": "count"}


PACKAGE = "gradefactor"


def package_modules():
    """Every imported module of the package, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Collects spans from wrapped gradefactor functions."""

    def __init__(self):
        self.spans = []  # [name, thread id, start, end, parent, counters, phase]
        # "setup" spans count once in layer_metrics, "op" spans per operation
        self.phase = "op"
        self._lock = threading.Lock()
        self._stacks = {}  # thread id -> list of open span indices
        self._main = threading.main_thread().ident

    def _wrap(self, name, fn, counters):
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            with self._lock:
                if stack:
                    parent = stack[-1]
                else:
                    main = self._stacks.get(self._main)
                    parent = main[-1] if main and tid != self._main else -1
                index = len(self.spans)
                record = [name, tid, 0.0, 0.0, parent, {}, self.phase]
                self.spans.append(record)
            stack.append(index)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            for field, count in counters.items():
                record[5][field] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the package while the block runs; restore it on exit."""
        owners = [importlib.import_module(f"{PACKAGE}.{mod_name}")
                  for _, mod_name, _, _ in WRAPPED]
        modules = package_modules()
        patched = []  # (module, attribute, original)
        try:
            for (prefix, _, attr, counters), owner in zip(WRAPPED, owners):
                original = getattr(owner, attr)
                wrapper = self._wrap(prefix, original, counters)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, name, original))
                            setattr(mod, name, wrapper)
            yield self
        finally:
            for mod, name, original in reversed(patched):
                setattr(mod, name, original)

    def self_times(self):
        """Self time of each span, aligned with `self.spans`."""
        spans = self.spans
        events = []
        for i, (_, _, start, end, *_) in enumerate(spans):
            events.append((start, 1, i))
            events.append((end, 0, i))
        events.sort()
        out = [0.0] * len(spans)
        open_by_thread = {}
        last = events[0][0] if events else 0.0
        for t, is_start, i in events:
            dt = t - last
            last = t
            if dt > 0 and open_by_thread:
                tops = {stack[-1] for stack in open_by_thread.values()}
                waiting = set()
                for top in tops:
                    p = spans[top][4]
                    while p >= 0:
                        waiting.add(p)
                        p = spans[p][4]
                busy = tops - waiting
                for b in busy:
                    out[b] += dt / len(busy)
            tid = spans[i][1]
            if is_start:
                open_by_thread.setdefault(tid, []).append(i)
            else:
                stack = open_by_thread[tid]
                stack.remove(i)
                if not stack:
                    del open_by_thread[tid]
        return out

    def layer_metrics(self, n_ops, n_observed):
        """Per-layer metrics: "op" spans averaged over `n_ops` traced
        operations, plus the "setup" spans of one set-up pass.

        useful_ratio is calls * n_observed / elems: the share of the cells
        a link kernel evaluated that hold an observed response.
        """
        selfs = self.self_times()
        totals = {prefix: {"calls": 0.0, "self_s": 0.0} for prefix in REPORTED}
        for (name, _, _, _, _, counters, phase), self_s in zip(self.spans, selfs):
            weight = 1.0 if phase == "setup" else 1.0 / n_ops
            total = totals[name]
            total["calls"] += weight
            total["self_s"] += weight * self_s
            for field, value in counters.items():
                total[field] = total.get(field, 0.0) + weight * value
        metrics = {}
        for prefix, fields in REPORTED.items():
            total = totals[prefix]
            for field in fields:
                if field == "useful_ratio":
                    elems = total.get("elems", 0)
                    value = total["calls"] * n_observed / elems if elems else 0.0
                else:
                    value = total.get(field, 0.0)
                metrics[f"{prefix}.{field}"] = {"value": value, "unit": UNITS[field]}
        return metrics

    def write_spans(self, path):
        """Dump every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, tid, start, end, parent, counters, phase in self.spans:
                fh.write(json.dumps({"name": name, "thread": tid, "start": start,
                                     "end": end, "parent": parent, "phase": phase,
                                     **counters}))
                fh.write("\n")
