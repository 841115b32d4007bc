"""Spans around public symcanon functions, installed from outside the package.

A trace point names a module, a public attribute of it and a span name.
`Tracer.install` replaces each attribute, in the namespace where callers
look it up, by a wrapper that records one span per call: id, name, start,
end, parent span, operation id, process id and counts taken from the
arguments and the result.  Spans stay in memory until `dump` writes them
as JSON lines.  A trace point whose module or attribute does not exist is
returned as absent instead of raising, so the benchmark keeps running
when a later version of the package renames or removes a function.

Standard library only; symcanon is imported when `install` runs.
"""

import functools
import importlib
import json
import os
import time


def _pk(args, result):
    return {"p": args[0].p, "k": args[1]}


def _strata_counts(args, result):
    """Exact work of the layered search: candidates = sum |S_r| * G over the
    expanded layers r >= 1, fresh = sum |S_{r+1}|."""
    sizes = result.stratum_sizes()
    g = len(result.generator_vectors)
    return {**_pk(args, result), "candidates": sum(sizes[1:]) * g, "fresh": sum(sizes[2:])}


def _stack_counts(args, result):
    return {**_pk(args, result), "bytes": int(result.nbytes)}


def _classify_counts(args, result):
    return {**_pk(args, result), "orbits": len(result.all_records())}


def _general_counts(args, result):
    return {**_pk(args, result), "sizes": list(result.sizes)}


def _emit_counts(args, result):
    return {"p": args[0].p, "k": args[0].order, "bytes": len(result.encode())}


def _report_counts(args, result):
    return {"p": args[0].p, "k": args[0].order}


def _fixture_counts(args, result):
    return {"p": args[0], "k": args[1]}


# (module, public attribute, span name, counts); the module is the one the
# caller looks the name up in, so the wrapper sees every call it makes.
TRACE_POINTS = (
    ("symcanon", "classify", "classify", _classify_counts),
    ("symcanon", "general_rank_strata", "general_rank_strata", _general_counts),
    ("symcanon.classify", "symmetric_rank_strata", "symmetric_rank_strata", _strata_counts),
    ("symcanon.classify", "action_stack", "action_stack", _stack_counts),
    ("symcanon.report", "emit", "emit", _emit_counts),
    ("symcanon.report", "diff", "diff", _report_counts),
    ("symcanon.report", "load_fixture", "load_fixture", _fixture_counts),
    ("symcanon.cli", "symmetric_rank_strata", "symmetric_rank_strata", _strata_counts),
    ("symcanon.cli", "symmetric_rank", "symmetric_rank", None),
    ("symcanon.cli", "decompose", "decompose", None),
    ("symcanon.cli", "orbit", "orbit", None),
    ("symcanon.cli", "stabilizer_size", "stabilizer_size", None),
    # the CLI imports canonical_form from group_action at call time
    ("symcanon.group_action", "canonical_form", "canonical_form", None),
    ("symcanon.group_action", "action_stack", "action_stack", _stack_counts),
)


class Tracer:
    """Records spans of wrapped calls made by one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.op = None  # operation id stamped on every span
        self._open = []
        self._next_id = 0

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "op": self.op, "pid": os.getpid(),
                "counts": _safe_counts(counts, args, result),
            })
            return result

        return traced

    def install(self, points=TRACE_POINTS):
        """Wrap every trace point; returns the absent ones as 'module.attr'."""
        absent = []
        for module_name, attr, name, counts in points:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, counts))
        return absent

    def dump(self, path, absent=()):
        """Write the spans as JSON lines; a leading line lists absent points."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": list(absent)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _safe_counts(counts, args, result):
    if counts is None:
        return {}
    try:
        return counts(args, result)
    except (AttributeError, IndexError, TypeError) as exc:
        # a changed signature or result type loses the counts, not the span
        return {"lost": type(exc).__name__}


def load_spans(path):
    """(spans, absent) from a file written by Tracer.dump."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    return lines[1:], lines[0]["absent"]
