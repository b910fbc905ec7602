"""Spans around calls into hbq's modules, recorded from outside the package.

hbq's modules import each other by name (``from .grouping import
quantize_lines``), so a function is hooked by replacing the attribute in the
module that *calls* it, not where it is defined. Each hook names a layer
label and the ``module:attribute`` targets to patch. A target that no longer
exists is skipped; a label none of whose targets exists is reported as
absent, so a refactor that renames or deletes a function leaves the run
going.

Spans stay in memory while the run goes and are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _count_plan_lines(counts, args, _out):
    lines, ranks0, ranks1 = args[0], args[2], args[3]
    counts["kernels.plan_lines.lines"] += lines.shape[0]
    counts["kernels.plan_lines.values"] += lines.size
    # one evaluation per candidate threshold, per band, per line
    counts["kernels.plan_lines.candidate_evals"] += lines.shape[0] * (
        len(ranks0) + len(ranks1)
    )


def _count_k_trials(counts, _args, out):
    counts["salient.k_trials.trials"] += len(out[2])  # per-K error dict


@dataclass(frozen=True)
class Hook:
    label: str
    targets: tuple[str, ...]
    count: Callable | None = None


HOOKS = (
    Hook("kernels.plan_lines", ("hbq.grouping:plan_lines",), _count_plan_lines),
    Hook("grouping.quantize_lines", ("hbq.pipeline:quantize_lines",)),
    Hook("salient.k_trials", ("hbq.pipeline:_select_salient_full",), _count_k_trials),
    Hook("salient.column_scores", ("hbq.pipeline:column_scores",)),
    Hook("calib.saliency_matrix", ("hbq.pipeline:saliency_matrix",)),
    Hook(
        "calib.build_calib_stats",
        ("hbq.pipeline:build_calib_stats", "hbq.cli:build_calib_stats"),
    ),
    Hook("pipeline.compensate", ("hbq.pipeline:compensate",)),
    Hook("pipeline.reconstruct_block", ("hbq.pipeline:reconstruct_block",)),
    Hook("haar.haar_matrix", ("hbq.pipeline:haar_matrix",)),
    Hook("haar.inverse_haar_matrix", ("hbq.pipeline:inverse_haar_matrix",)),
    Hook(
        "pipeline.hbllm_quantize",
        ("hbq.pipeline:hbllm_quantize", "hbq.cli:hbllm_quantize"),
    ),
    Hook("formats.encode_layer", ("hbq.formats:encode_layer", "hbq.cli:encode_layer")),
    Hook("formats.decode_layer", ("hbq.formats:decode_layer", "hbq.cli:decode_layer")),
    Hook(
        "pipeline.dequantize_layer",
        ("hbq.pipeline:dequantize_layer", "hbq.cli:dequantize_layer"),
    ),
    Hook("formats.bit_report", ("hbq.formats:bit_report", "hbq.cli:bit_report")),
    Hook("cli.read_tensor", ("hbq.cli:read_tensor",)),
    Hook("cli.write_tensor", ("hbq.cli:write_tensor",)),
)


class Tracer:
    """Records (id, root, parent, name, start, end) spans and call counts."""

    def __init__(self):
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.count_errors: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0

    def absent(self) -> list[str]:
        """Labels none of whose targets resolve to a callable."""
        return [h.label for h in HOOKS if not any(_resolve(t) for t in h.targets)]

    @contextmanager
    def installed(self):
        """Patch every resolvable target for the duration of the block."""
        undo = []
        try:
            for hook in HOOKS:
                for target in hook.targets:
                    found = _resolve(target)
                    if found:
                        mod, attr, fn = found
                        setattr(mod, attr, self._wrap(hook, fn))
                        undo.append((mod, attr, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else sid
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, root, parent, name, t0, t1))

    def _wrap(self, hook: Hook, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(hook.label):
                out = fn(*args, **kwargs)
            if hook.count is not None:
                try:
                    hook.count(self.counts, args, out)
                except (TypeError, IndexError, AttributeError, KeyError):
                    # the function's signature or result changed shape
                    self.count_errors.add(hook.label)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, root, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "root": root, "parent": parent, "name": name,
                         "start": t0, "end": t1}
                    )
                    + "\n"
                )


def _resolve(target: str):
    modname, attr = target.split(":")
    try:
        mod = importlib.import_module(modname)
    except ImportError:
        return None
    fn = getattr(mod, attr, None)
    return (mod, attr, fn) if callable(fn) else None


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per-name total self seconds (span minus its child spans) and calls."""
    child_time: defaultdict[int, float] = defaultdict(float)
    for _sid, _root, parent, _name, t0, t1 in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    out: dict[str, dict[str, float]] = {}
    for sid, _root, _parent, name, t0, t1 in spans:
        agg = out.setdefault(name, {"s": 0.0, "calls": 0})
        agg["s"] += (t1 - t0) - child_time[sid]
        agg["calls"] += 1
    return out


def root_wall(spans) -> float:
    """Total duration of the spans that have no parent."""
    return sum(t1 - t0 for _s, _r, parent, _n, t0, t1 in spans if parent is None)
