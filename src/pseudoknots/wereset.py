"""Signed weighted resolution sets (were-sets) of pseudodiagrams.

The were-set of a pseudodiagram with k precrossings classifies all 2^k
resolutions by Jones polynomial and aggregates them with exact
probabilities count / 2^k.

The loop count of a smoothing depends only on which planar pairing is
chosen at each vertex, never on crossing information, so the 2^n loop
table is built once per diagram, in one numpy pass (`bracket.loop_table`).
`bracket.state_sums` turns it into every resolution's bracket with one
Yates transform (one butterfly pass per vertex, n * 2^n integer adds).
Resolutions are then grouped by (writhe, bracket), and each distinct group
is normalised to a Jones polynomial and looked up in the table once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bracket import (
    KnotName,
    KnotTable,
    Unknown,
    bracket_to_jones,
    check_state_sum_size,
    classify_jones,
    loop_table,
    row_polynomial,
    state_sums,
)
from .diagram import PseudoPD, positive_over_is_strand_two
from .laurent import LaurentPolynomial

# The traced benchmark run (`perfbench/tracing.py`) wraps this name, so it
# must stay resolvable; nothing calls it, so its traced time and calls read
# 0.  Delete it together with that entry of the tracer.
smoothing_loops = loop_table


@dataclass(frozen=True)
class WereSet:
    """Map from knot type to (count, exact probability with 2^k denominator)."""

    precrossings: int
    entries: dict[KnotName, int] = field(default_factory=dict)
    unknown: dict[LaurentPolynomial, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return 1 << self.precrossings

    def count_sum(self) -> int:
        return sum(self.entries.values()) + sum(self.unknown.values())

    def probability(self, name: KnotName) -> Fraction:
        return Fraction(self.entries.get(name, 0), self.total)

    def probability_map(self) -> dict:
        out: dict = {name: Fraction(c, self.total) for name, c in self.entries.items()}
        for poly, c in self.unknown.items():
            out[("unknown", poly)] = Fraction(c, self.total)
        return out

    def mirrored(self) -> "WereSet":
        flipped: dict[KnotName, int] = {}
        for name, c in self.entries.items():
            flipped[name.mirror()] = flipped.get(name.mirror(), 0) + c
        return WereSet(
            self.precrossings,
            flipped,
            {p.invert_variable(): c for p, c in self.unknown.items()},
        )

    def sorted_entries(self) -> list[tuple[KnotName, int]]:
        return sorted(
            self.entries.items(),
            key=lambda kv: (kv[0].crossing_number, kv[0].index, kv[0].sign),
        )

    def paper_style(self) -> str:
        """Brace rendering like `{{0_1,72},{-3_1,10},...}`."""
        parts = [f"{{{name},{count}}}" for name, count in self.sorted_entries()]
        parts.extend(
            f"{{unknown[{p.pretty()}],{c}}}"
            for p, c in sorted(self.unknown.items(), key=lambda kv: kv[0].items())
        )
        return "{" + ",".join(parts) + "}"

    def to_json_dict(self) -> dict:
        return {
            "precrossings": self.precrossings,
            "total": self.total,
            "entries": [
                {
                    "knot": str(name),
                    "count": count,
                    "probability": f"{Fraction(count, self.total)}",
                }
                for name, count in self.sorted_entries()
            ],
            "unknown": [
                {
                    "jones": p.to_pairs_string(),
                    "count": c,
                    "probability": f"{Fraction(c, self.total)}",
                }
                for p, c in sorted(self.unknown.items(), key=lambda kv: kv[0].items())
            ],
        }


def wereset_equal(a: WereSet, b: WereSet) -> bool:
    """True iff the name -> probability maps agree exactly."""
    return a.probability_map() == b.probability_map()


def wereset(d: PseudoPD, table: KnotTable, simplify: bool = False) -> WereSet:
    """Exhaustive were-set of `d`: classify all 2^k resolutions.

    `simplify` switches to the per-resolution path with Reidemeister
    reduction before the bracket; the default shares the smoothing loop
    table across resolutions, which is much faster and exactly equivalent.
    Raises DiagramTooLargeError before allocating when `d` has too many
    vertices for the state sum.
    """
    k = len(d.precrossing_ids())
    if simplify:
        return _wereset_simplify(d, table)
    n = d.n
    check_state_sum_size(n)
    loops = loop_table(d)
    keep = [not v.is_classical() for v in d.vertices]
    rows = state_sums(loops, keep)

    # Row m flips precrossing j's A-smoothing to the odd pairing when bit j
    # is set.  The +1 resolution takes the even pairing exactly when its
    # over-strand is strand two, so choice bits (set = resolve to -1) are m
    # XOR `odd_positive`.
    pre_order = [vi for vi, is_pre in enumerate(keep) if is_pre]
    odd_positive = sum(
        1 << j for j, vi in enumerate(pre_order) if not positive_over_is_strand_two(d, vi)
    )
    classical_writhe = sum(v.sign for v in d.vertices if v.is_classical())
    minus = np.bitwise_count(np.arange(1 << k, dtype=np.uint64) ^ np.uint64(odd_positive))
    writhes = (classical_writhe + k - 2 * minus.astype(np.int64)).tolist()

    groups = Counter(zip(writhes, (row.tobytes() for row in rows)))
    entries: dict[KnotName, int] = {}
    unknown: dict[LaurentPolynomial, int] = {}
    for (w, key), count in groups.items():
        bracket = row_polynomial(np.frombuffer(key, dtype=rows.dtype), n)
        named = classify_jones(bracket_to_jones(bracket, w), table)
        if isinstance(named, Unknown):
            unknown[named.jones] = unknown.get(named.jones, 0) + count
        else:
            entries[named] = entries.get(named, 0) + count
    ws = WereSet(k, entries, unknown)
    if ws.count_sum() != ws.total:
        raise AssertionError("resolution counts do not sum to 2^k")
    return ws


def _wereset_simplify(d: PseudoPD, table: KnotTable) -> WereSet:
    from .diagram import resolve
    from .pdmoves import pd_reduce

    pre_ids = d.precrossing_ids()
    k = len(pre_ids)
    entries: dict[KnotName, int] = {}
    unknown: dict[LaurentPolynomial, int] = {}
    from .bracket import classify

    for bits in range(1 << k):
        choice = {
            pid: (-1 if (bits >> j) & 1 else 1) for j, pid in enumerate(pre_ids)
        }
        resolved = pd_reduce(resolve(d, choice))
        named = classify(resolved, table)
        if isinstance(named, Unknown):
            unknown[named.jones] = unknown.get(named.jones, 0) + 1
        else:
            entries[named] = entries.get(named, 0) + 1
    ws = WereSet(k, entries, unknown)
    if ws.count_sum() != ws.total:
        raise AssertionError("resolution counts do not sum to 2^k")
    return ws
