"""Traced run: timing wrappers around the library's module-level names.

A wrapper replaces a function in the namespace its callers look it up in
(`pseudoknots.wereset.smoothing_loops`, `pseudoknots.cli.wereset`, ...) and
records one span per call: name, start, end, parent span and op id.  Spans
are kept in flat arrays in memory and written out when the run ends.  A
layer's self time is its spans' duration minus the time covered by its
wrapped children.  Every wrapper is removed again when `installed` exits.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

SITE_SEARCH = "moves.site_search"

# (module, attribute, span name).  The same function can be bound under
# several modules (cli imports `wereset` and `load_table` by name), so each
# binding a caller uses is wrapped.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_pd", "diagram.parse_pd"),
    ("cli", "load_table", "tables.load_table"),
    ("cli", "wereset", "wereset.wereset"),
    ("tables", "load_table", "tables.load_table"),
    ("wereset", "wereset", "wereset.wereset"),
    ("wereset", "smoothing_loops", "bracket.smoothing_loops"),
    ("wereset", "bracket_to_jones", "bracket.bracket_to_jones"),
    ("wereset", "classify_jones", "bracket.classify_jones"),
    ("bracket", "jones", "bracket.jones"),
    ("flype", "enumerate_flype_sites", "flype.enumerate_flype_sites"),
    ("flype", "shadow_flype_pd", "flype.shadow_flype_pd"),
    ("gauss", "pd_to_gauss", "gauss.pd_to_gauss"),
    ("invariant", "compute_i", "invariant.compute_i"),
    ("chords", "canonical_form", "chords.canonical_form"),
    ("moves", "scramble", "moves.scramble"),
    ("moves", "apply_move", "moves.apply_move"),
    ("moves", "removable_kinks", SITE_SEARCH),
    ("moves", "removable_r2_pairs", SITE_SEARCH),
    ("moves", "pr2_sites", SITE_SEARCH),
    ("moves", "triangle_sites", SITE_SEARCH),
)

# Span names whose self time is reported, under the metric name given.
SELF_TIMES = {
    "cli.main": "cli.self_s",
    "diagram.parse_pd": "diagram.parse_pd_s",
    "tables.load_table": "tables.load_table_s",
    "wereset.wereset": "wereset.self_s",
    "bracket.smoothing_loops": "bracket.smoothing_loops_s",
    "bracket.bracket_to_jones": "bracket.bracket_to_jones_s",
    "bracket.classify_jones": "bracket.classify_jones_s",
    "bracket.jones": "bracket.jones_s",
    "flype.enumerate_flype_sites": "flype.enumerate_flype_sites_s",
    "flype.shadow_flype_pd": "flype.shadow_flype_pd_s",
    "gauss.pd_to_gauss": "gauss.pd_to_gauss_s",
    "invariant.compute_i": "invariant.compute_i_s",
    "chords.canonical_form": "chords.canonical_form_s",
    "moves.apply_move": "moves.apply_move_s",
    SITE_SEARCH: "moves.site_search_s",
}

CALL_COUNTS = {
    "bracket.smoothing_loops": "bracket.smoothing_loops_calls",
    "bracket.bracket_to_jones": "bracket.bracket_to_jones_calls",
    "bracket.classify_jones": "bracket.classify_jones_calls",
    "invariant.compute_i": "invariant.compute_i_calls",
    "moves.apply_move": "moves.apply_move_calls",
}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.span_names: list[str] = []
        self.op_labels: list[str] = []
        self.op_speed: list[float] = []  # scale factor of each op's times
        self.op = -1
        self.stack: list[int] = []
        self.parents = array("q")
        self.ops = array("q")
        self.names = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.returned = bytearray()  # 1 if the call returned, 0 if it raised
        self.counts: Counter = Counter()

    def begin_op(self, label: str) -> None:
        self.op_labels.append(label)
        self.op_speed.append(1.0)
        self.op = len(self.op_labels) - 1

    def end_op(self, speed: float) -> None:
        """Scale the current op's spans by `speed` (see workloads.SpeedProbe)."""
        self.op_speed[self.op] = speed

    def _name_index(self, name: str) -> int:
        if name not in self.span_names:
            self.span_names.append(name)
        return self.span_names.index(name)

    def wrap(self, fn, span_name: str, on_result=None):
        index = self._name_index(span_name)
        tracer, stack = self, self.stack
        parents, ops, names = self.parents, self.ops, self.names
        starts, ends, returned = self.starts, self.ends, self.returned
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            names.append(index)
            ends.append(0.0)
            returned.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            returned[sid] = 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def installed(self, pk):
        """Wrap every name in WRAPPED, and count `LaurentPolynomial`s built."""
        counts = self.counts
        unknown = pk.bracket.Unknown

        def on_wereset(ws):
            counts["wereset.resolutions"] += ws.total
            # the table maps names to Jones polynomials one to one, so each
            # entry and each unknown bucket is one distinct polynomial
            counts["wereset.distinct_jones"] += len(ws.entries) + len(ws.unknown)

        def on_classify(named):
            counts["named"] += not isinstance(named, unknown)

        def on_sites(sites):
            counts["flype.sites"] += len(sites)

        hooks = {
            "wereset.wereset": on_wereset,
            "bracket.classify_jones": on_classify,
            "flype.enumerate_flype_sites": on_sites,
        }
        poly = pk.laurent.LaurentPolynomial
        plain_init = poly.__init__

        def counting_init(obj, *args, **kwargs):
            counts["laurent.polys_created"] += 1
            plain_init(obj, *args, **kwargs)

        saved = []
        try:
            for module_name, attr, span_name in WRAPPED:
                module = getattr(pk, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span_name, hooks.get(span_name)))
            saved.append((poly, "__init__", plain_init))
            poly.__init__ = counting_init
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _scaled(self, sid: int) -> float:
        return (self.ends[sid] - self.starts[sid]) * self.op_speed[self.ops[sid]]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and ratios of the recorded spans.

        Durations are scaled by their op's speed factor, like op times."""
        total: defaultdict[int, float] = defaultdict(float)
        self_time: defaultdict[int, float] = defaultdict(float)
        calls: Counter = Counter()
        returned: Counter = Counter()
        names, parents = self.names, self.parents
        for sid in range(len(self.starts)):
            seconds = self._scaled(sid)
            name = names[sid]
            total[name] += seconds
            self_time[name] += seconds
            calls[name] += 1
            returned[name] += self.returned[sid]
            if parents[sid] >= 0:
                self_time[names[parents[sid]]] -= seconds

        def by_name(table, span_name):
            if span_name not in self.span_names:
                return 0
            return table[self.span_names.index(span_name)]

        out: dict[str, float] = {}
        for span_name, metric in SELF_TIMES.items():
            out[metric] = by_name(self_time, span_name)
        for span_name, metric in CALL_COUNTS.items():
            out[metric] = by_name(calls, span_name)
        out["wereset.span_s"] = by_name(total, "wereset.wereset")
        for key in ("laurent.polys_created", "wereset.resolutions",
                    "wereset.distinct_jones", "flype.sites"):
            out[key] = self.counts[key]
        classified = by_name(calls, "bracket.classify_jones")
        out["wereset.named_ratio"] = self.counts["named"] / classified if classified else 0.0
        moves = by_name(calls, "moves.apply_move")
        out["moves.apply_move_ok_ratio"] = (
            by_name(returned, "moves.apply_move") / moves if moves else 0.0
        )
        return out

    def child_sum(self, span_name: str) -> float:
        """Total time of the spans directly below spans named `span_name`."""
        if span_name not in self.span_names:
            return 0.0
        index = self.span_names.index(span_name)
        return sum(
            self._scaled(sid)
            for sid in range(len(self.starts))
            if self.parents[sid] >= 0 and self.names[self.parents[sid]] == index
        )

    def write(self, path: Path) -> None:
        """One line per span (tab-separated), after the op labels as comments."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op, label in enumerate(self.op_labels):
                fh.write(f"# op {op} {label}\n")
            fh.write("# times are unscaled; op_speed scales them to the reference speed\n")
            for op, speed in enumerate(self.op_speed):
                fh.write(f"# op_speed {op} {speed!r}\n")
            fh.write("span\tparent\top\tname\tstart_s\tend_s\treturned\n")
            for sid in range(len(self.starts)):
                fh.write(
                    f"{sid}\t{self.parents[sid]}\t{self.ops[sid]}\t"
                    f"{self.span_names[self.names[sid]]}\t{self.starts[sid]!r}\t"
                    f"{self.ends[sid]!r}\t{self.returned[sid]}\n"
                )
