"""Reference diagrams and the bundled knot table.

Standard diagrams for the prime knots through 7 crossings are generated
from their rational (Conway) twist codes: all of these knots are 2-bridge,
so each is the numerator closure of an alternating twist tangle.  Names are
assigned by two classical integer invariants that identify every knot in
this range uniquely once the crossing number is fixed:

  * crossing number = Jones span (reduced alternating diagrams), and
  * determinant     = |V(-1)|.

Both are asserted at build time, so a wrong twist code cannot silently
mislabel an entry.

Twist tangles are built on arcs, the strand pieces that reach the four open
ends of the tangle: a twist takes the arcs at two ends into a new crossing
and opens two new arcs there, and two arcs merge into one only where their
open ends meet, when a tangle is grafted onto another or closed up.

This module alone decides chirality in the table (`rebuild_table`):

  * A knot whose Jones polynomial is symmetric under t -> 1/t is
    amphichiral: one entry, unsigned name.  Through 7 crossings these are
    exactly 0_1, 4_1 and 6_3; every other knot in range has an
    asymmetric Jones polynomial.
  * A chiral knot has two entries.  The base name (sign +1, printed
    without a prefix) goes to the chirality whose Jones polynomial leans
    toward negative exponents (min degree + max degree < 0), and the
    mirror, with the inverted-variable polynomial, gets the `-` prefix.

Each reference diagram is the alternating resolution of its twist shadow
(`alternating_resolution`), read off the shadow's crossing records.  The
bundled file `data/knot_table.txt` is `rebuild_table().to_text()`, and
`load_table` reads it back.
"""

from __future__ import annotations

import functools
import os

from .bracket import KnotName, KnotTable, TableEntry, jones
from .diagram import PseudoPD, ResolvedPD, _build, make_pd, mirror, resolve

# name -> (twist code, determinant)
RATIONAL_KNOTS: dict[str, tuple[tuple[int, ...], int]] = {
    "3_1": ((3,), 3),
    "4_1": ((2, 2), 5),
    "5_1": ((5,), 5),
    "5_2": ((3, 2), 7),
    "6_1": ((4, 2), 9),
    "6_2": ((3, 1, 2), 11),
    "6_3": ((2, 1, 1, 2), 13),
    "7_1": ((7,), 7),
    "7_2": ((5, 2), 11),
    "7_3": ((4, 3), 13),
    "7_4": ((3, 1, 3), 15),
    "7_5": ((3, 2, 2), 17),
    "7_6": ((2, 2, 1, 2), 19),
    "7_7": ((2, 1, 1, 1, 2), 21),
}


class _TangleBuilder:
    """Open 4-ended tangle assembled from east/south twist operations.

    The strand pieces are arcs: the list of crossing darts (4 * crossing
    index + slot, slots NE, NW, SW, SE in ccw order) at the arc's ends, so
    an arc that reaches an open end NW, NE, SW or SE of the tangle holds
    fewer than two.  `ends` maps each open end to its arc (NW and NE share
    one at the start, SW and SE another), and `arcs` lists every arc made.
    """

    def __init__(self):
        self.n = 0
        self.ends = {"NW": [], "SW": []}
        self.ends.update(NE=self.ends["NW"], SE=self.ends["SW"])
        self.arcs = [self.ends["NW"], self.ends["SW"]]

    def _twist(self, end: str, out: int) -> None:
        """Twist the `end` and SE ends around each other once.  The arc at
        `end` enters the new crossing at slot NW and the arc at SE at slot
        2 - `out`; the new arcs leave it at slot `out`, now `end`, and SE."""
        d = 4 * self.n
        self.n += 1
        self.ends[end].append(d + 1)
        self.ends["SE"].append(d + 2 - out)
        self.ends[end], self.ends["SE"] = [d + out], [d + 3]
        self.arcs += (self.ends[end], self.ends["SE"])

    def twist_east(self) -> None:
        """Twist the NE and SE ends around each other once."""
        self._twist("NE", 0)

    def twist_south(self) -> None:
        """Twist the SW and SE ends around each other once."""
        self._twist("SW", 2)

    def _join(self, arc: list[int], absorbed: list[int]) -> None:
        """Merge `absorbed` into `arc` where an open end of each meets."""
        if arc is absorbed:
            raise ValueError("closure produced a crossingless loop")
        arc += absorbed
        absorbed.clear()
        for end, held in self.ends.items():
            if held is absorbed:
                self.ends[end] = arc

    def attach_east(self, other: "_TangleBuilder") -> None:
        """Graft another open tangle, which this consumes, onto the east
        side of this one."""
        for arc in other.arcs:
            arc[:] = [d + 4 * self.n for d in arc]
        self.n += other.n
        self.arcs += other.arcs
        ne, se = self.ends["NE"], self.ends["SE"]
        self.ends["NE"], self.ends["SE"] = other.ends["NE"], other.ends["SE"]
        self._join(ne, other.ends["NW"])
        self._join(se, other.ends["SW"])

    def close(self, kind: str) -> PseudoPD:
        """Close the tangle: `numerator` joins NW-NE and SW-SE, `denominator`
        joins NW-SW and NE-SE; returns the resulting precrossing shadow,
        whose edges are numbered by their first dart."""
        if kind == "numerator":
            joins = (("NW", "NE"), ("SW", "SE"))
        elif kind == "denominator":
            joins = (("NW", "SW"), ("NE", "SE"))
        else:
            raise ValueError(f"unknown closure {kind!r}")
        for end, partner in joins:
            self._join(self.ends[end], self.ends[partner])
        edges = [0] * (4 * self.n)
        for label, (a, b) in enumerate(sorted(sorted(arc) for arc in self.arcs if arc), 1):
            edges[a] = edges[b] = label
        return _build(range(self.n), [None] * self.n, edges)


def twist_shadow(code: tuple[int, ...]) -> PseudoPD:
    """Closure of the alternating twist tangle for a rational code.

    Entries alternate between east twist regions (first entry) and south
    regions.  East twists act on the tangle fraction as F -> F + 1 and
    south twists as F -> 1/(1/F + 1), so an odd-length code needs the
    numerator closure and an even-length code the denominator closure to
    produce the knot with odd fraction numerator.
    """
    if not code or any(a < 1 for a in code):
        raise ValueError("twist code entries must be positive")
    t = _TangleBuilder()
    for i, a in enumerate(code):
        op = t.twist_east if i % 2 == 0 else t.twist_south
        for _ in range(a):
            op()
    return t.close("numerator" if len(code) % 2 else "denominator")


def alternating_resolution(shadow: PseudoPD) -> ResolvedPD:
    """One of the two alternating resolutions of a knot shadow.

    Along the traversal the strand alternates over, under, over, ...; the
    Gauss parity of planar shadows guarantees the two visits to a vertex
    land on opposite parities.  Edges are labelled in traversal order, so
    the +1 resolution, whose over-strand enters at slot 3 of the crossing
    record, puts the vertex over at an even position when that edge is odd.
    """
    if not shadow.is_shadow():
        raise ValueError("alternating_resolution expects an all-precrossing shadow")
    if any((edges[0] - edges[3]) % 2 == 0 for edges, _ in shadow.crossings):
        raise ValueError("shadow violates Gauss parity (not planar?)")
    return resolve(shadow, {
        i: 1 if edges[3] % 2 else -1 for i, (edges, _) in zip(shadow.ids, shadow.crossings)
    })


def standard_diagrams() -> list[tuple[str, ResolvedPD]]:
    """Named reference diagrams: the unknot plus the 14 knots through 7 crossings.

    Crossing number (Jones span) and determinant (|V(-1)|) are asserted per
    entry; the returned diagram carries the base chirality convention.
    """
    out: list[tuple[str, ResolvedPD]] = [("0_1", make_pd([]))]
    for name, (code, det) in RATIONAL_KNOTS.items():
        shadow = twist_shadow(code)
        d = alternating_resolution(shadow)
        v = jones(d)
        cn = int(name.split("_")[0])
        if v.span() != cn:
            raise ValueError(f"{name}: Jones span {v.span()} != crossing number {cn}")
        if abs(v.evaluate_at_unit(-1)) != det:
            raise ValueError(f"{name}: determinant {abs(v.evaluate_at_unit(-1))} != {det}")
        if v.min_degree + v.max_degree > 0:
            d = mirror(d)
        out.append((name, d))
    return out


def rebuild_table() -> KnotTable:
    """Recompute the full 27-entry table from the reference diagrams, by
    the chirality rule in the module docstring."""
    entries: list[TableEntry] = []
    for name_s, diagram in standard_diagrams():
        name = KnotName.parse(name_s)
        v = jones(diagram)
        if v == v.invert_variable():
            entries.append(TableEntry(name, True, v))
        else:
            base = KnotName(name.crossing_number, name.index, 1)
            entries.append(TableEntry(base, False, v))
            entries.append(TableEntry(base.mirror(), False, v.invert_variable()))
    return KnotTable(entries)


@functools.cache
def load_table() -> KnotTable:
    """The bundled table shipped as a data file, parsed once per process.

    Every call returns the same `KnotTable`.  Its entries are a tuple of
    frozen records, so no caller can change it for the next one.  The file
    is read from next to this module, which spares a call the import of
    `importlib.resources`.
    """
    path = os.path.join(os.path.dirname(__file__), "data", "knot_table.txt")
    with open(path, encoding="utf-8") as fh:
        return KnotTable.from_text(fh.read())
