"""Spans recorded around the public functions each layer exposes.

The tracer wraps module attributes of the package from the outside and
puts the originals back afterwards; nothing under ``src/`` changes.  A
span is ``[name, start, end, parent, op, leaves, bars, value]``, kept in
memory and written out as JSON lines at the end.

Calls of about a microsecond (``pair_cost``, ``deletion_cost``,
``pair_path``) would cost more as spans than they do as work: one
halfopen operation makes tens of thousands of them.  They are folded
into their parent span as ``leaves[name] = [calls, seconds, finite]``,
without a record per call.  A leaf's seconds cover only the wrapped
call; the wrapper's own work around it (the second clock read, the
lookups and the counts) falls in the parent's self time, so
``matching.part_self_ms`` carries that cost once per ``pair_cost`` and
``deletion_cost`` call.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, LEAVES, BARS, VALUE = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = [["root", 0.0, 0.0, -1, None, {}, 0, None]]
        self.stack = [0]
        self.op: int | None = None

    def span(self, name: str, fn, bars=None, value=None):
        """Wrap ``fn`` so each call records a span; ``bars`` and ``value``
        read a count and a value off ``(args, result)``."""
        clock, spans, stack = time.perf_counter, self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.op, {}, 0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if bars is not None:
                rec[BARS] = bars(args, out)
            if value is not None:
                rec[VALUE] = value(args, out)
            return out

        return wrapper

    def leaf(self, name: str, fn, finite: bool = False):
        """Wrap a leaf call; its count and time go to the enclosing span."""
        clock, spans, stack = time.perf_counter, self.spans, self.stack

        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            leaves = spans[stack[-1]][LEAVES]
            rec = leaves.get(name)
            if rec is None:
                rec = leaves[name] = [0, 0.0, 0]
            rec[0] += 1
            rec[1] += dt
            if finite and out < math.inf:
                rec[2] += 1
            return out

        return wrapper

    @contextmanager
    def installed(self, sd):
        """Patch the layer boundaries of the modules in ``sd``."""
        slot_bars = lambda args, out: max(len(args[0]), len(args[1]))
        part_value = lambda args, out: out[0]
        size = lambda args, out: len(out)
        patches = [
            (sd.barcode, "parse_barcode", self.span("barcode.parse", sd.barcode.parse_barcode, size)),
            (sd.barcode, "format_barcode", self.span("barcode.format", sd.barcode.format_barcode)),
            (sd.matching, "distance_with_matching",
             self.span("matching.dwm", sd.matching.distance_with_matching)),
            (sd.matching, "split_clr", self.span("barcode.split_clr", sd.matching.split_clr)),
            (sd.matching, "part_bottleneck",
             self.span("matching.part", sd.matching.part_bottleneck, slot_bars, part_value)),
            (sd.matching, "pair_cost", self.leaf("costs.pair", sd.matching.pair_cost, finite=True)),
            (sd.matching, "deletion_cost", self.leaf("costs.deletion", sd.matching.deletion_cost)),
            (sd.interpolate, "interpolate", self.span("interpolate", sd.interpolate.interpolate)),
            (sd.interpolate, "pair_path", self.leaf("interpolate.pair_path", sd.interpolate.pair_path)),
            (sd.convolve, "convolve_barcode",
             self.span("convolve", sd.convolve.convolve_barcode, size)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans[1:]:
                value = rec[VALUE]
                if value is not None and not math.isfinite(value):
                    value = str(value)
                fh.write(json.dumps([*rec[:VALUE], value]) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics over every span recorded."""
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        bars: dict[str, int] = {}
        selfs: dict[str, float] = {}
        leaf: dict[str, list] = {}
        inf_slots = slot_max = 0
        child = [0.0] * len(self.spans)
        for rec in self.spans[1:]:
            dur = rec[END] - rec[START]
            child[rec[PARENT]] += dur
            total[rec[NAME]] = total.get(rec[NAME], 0.0) + dur
            count[rec[NAME]] = count.get(rec[NAME], 0) + 1
            bars[rec[NAME]] = bars.get(rec[NAME], 0) + rec[BARS]
            if rec[NAME] == "matching.part":
                slot_max = max(slot_max, rec[BARS])
                inf_slots += rec[VALUE] == math.inf
        for i, rec in enumerate(self.spans):
            own = sum(v[1] for v in rec[LEAVES].values())
            for name, (calls, secs, finite) in rec[LEAVES].items():
                acc = leaf.setdefault(name, [0, 0.0, 0])
                acc[0] += calls
                acc[1] += secs
                acc[2] += finite
            if i:
                dur = rec[END] - rec[START]
                selfs[rec[NAME]] = selfs.get(rec[NAME], 0.0) + dur - child[i] - own
        pair = leaf.get("costs.pair", [0, 0.0, 0])
        dele = leaf.get("costs.deletion", [0, 0.0, 0])
        per_op = lambda x: x / ops
        ms = lambda name: per_op(1000.0 * total.get(name, 0.0))
        return {
            "barcode.parse_ms": (ms("barcode.parse"), "ms/op"),
            "barcode.format_ms": (ms("barcode.format"), "ms/op"),
            "barcode.split_clr_ms": (ms("barcode.split_clr"), "ms/op"),
            "barcode.bars_parsed": (per_op(bars.get("barcode.parse", 0)), "count/op"),
            "costs.pair_calls": (per_op(pair[0]), "count/op"),
            "costs.pair_ms": (per_op(1000.0 * pair[1]), "ms/op"),
            "costs.pair_finite_ratio": (pair[2] / pair[0] if pair[0] else 0.0, "ratio"),
            "costs.deletion_calls": (per_op(dele[0]), "count/op"),
            "costs.deletion_ms": (per_op(1000.0 * dele[1]), "ms/op"),
            "matching.slots": (per_op(count.get("matching.part", 0)), "count/op"),
            "matching.slot_bars_max": (slot_max, "bars"),
            "matching.inf_slots": (per_op(inf_slots), "count/op"),
            "matching.part_self_ms": (per_op(1000.0 * selfs.get("matching.part", 0.0)), "ms/op"),
            "matching.dwm_self_ms": (per_op(1000.0 * selfs.get("matching.dwm", 0.0)), "ms/op"),
            "interpolate.ms": (ms("interpolate"), "ms/op"),
            "interpolate.pair_path_calls": (
                per_op(leaf.get("interpolate.pair_path", [0])[0]), "count/op"),
            "convolve.ms": (ms("convolve"), "ms/op"),
            "convolve.bars": (per_op(bars.get("convolve", 0)), "count/op"),
        }
