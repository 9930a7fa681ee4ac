"""Planar-diagram (PD) codes for pseudodiagrams of knots.

A pseudodiagram is a 4-valent planar diagram whose vertices are either
classical crossings (with a sign) or precrossings (over/under undetermined).
The PD text grammar is whitespace-separated terms

    X+(a,b,c,d)   classical positive crossing
    X-(a,b,c,d)   classical negative crossing
    P(a,b,c,d)    precrossing

where a,b,c,d are edge labels in counterclockwise order around the vertex.
For a classical crossing, slot 0 (label `a`) is the incoming under-strand
edge.  For a precrossing, slot 0 is the incoming edge of one of the two
strands; the positive resolution of a precrossing is the over/under choice
whose resulting crossing has sign +1.

The diagram with no crossings, a round circle, has no terms; its text form
is the word `unknot` (`EMPTY_CODE`), as in the Gauss layer, and the empty
string is refused.

Parsing validates: every edge label appears exactly twice, the strand
traversal closes into a single component (knots only), declared signs
agree with the orientation induced by the traversal, and the diagram is
planar (Euler's formula).  Edge labels are normalized to 1..2n in
traversal order.

Every diagram is built by `make_pd` from `Vertex` records, and each vertex
keeps the id its record carries: `parse_pd` numbers its terms 0..n-1, and
`resolve`, `mirror`, the shadow flype and the PD Reidemeister moves the
tests check the Gauss moves against keep the id of every vertex they carry
over.  A vertex a move creates takes the largest id in the diagram plus
one, so ids can have gaps after a removal.

A `PseudoPD` owns its incidence structure: the strand traversal, each
edge's two ends, the dart partner and the id -> vertex index are built
from the vertices once, on first use, and kept on the instance; every
module that walks darts reads these indexes, and callers never modify
them.  Validation itself builds none of them but the traversal, which it
walks anyway: it pairs the darts, numbered 4 * vertex index + slot, in one
`mate` list, walks the strand and counts the faces for the planarity
check on that list, and keeps the walk's entry darts as the traversal.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from functools import cached_property

CLASSICAL = "X"
PRECROSSING = "P"


class PDError(ValueError):
    """Invalid PD text or PD structure."""


# Text form of the diagram with no crossings, in PD and Gauss code alike.
EMPTY_CODE = "unknot"


@dataclass(frozen=True)
class Vertex:
    """One 4-valent vertex: kind is `X` (classical, signed) or `P`."""

    id: int
    kind: str
    sign: int | None
    edges: tuple[int, int, int, int]

    def is_classical(self) -> bool:
        return self.kind == CLASSICAL


Dart = tuple[int, int]  # (vertex index, slot)


@dataclass(frozen=True)
class PseudoPD:
    """Validated, oriented pseudodiagram.

    `vertices` are stored in input order.  Edge labels are 1..2n in the
    order the (single) strand traversal first uses each edge.  `in_slots`
    gives, per vertex, the pair of slots at which the traversal enters.

    The indexes below are built on first use and kept on the instance
    (`make_pd` keeps the traversal its strand walk found); they are not
    dataclass fields, so equality and hashing still compare
    vertices and in-slots only.  Read them, never modify them.
    """

    vertices: tuple[Vertex, ...]
    in_slots: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def traversal(self) -> tuple[Dart, ...]:
        """The 2n entry darts in traversal order from edge 1.

        Labels are 1..2n in traversal order, so edge e runs into its head
        vertex at `traversal[e - 1]`.
        """
        out: list[Dart] = [(0, 0)] * (2 * self.n)
        for vi, (v, ins) in enumerate(zip(self.vertices, self.in_slots)):
            for slot in ins:
                out[v.edges[slot] - 1] = (vi, slot)
        return tuple(out)

    @cached_property
    def edge_ends(self) -> dict[int, tuple[Dart, Dart]]:
        """Edge label -> (tail, head): the dart where the strand leaves on
        the edge and the dart where it enters the next vertex."""
        traversal = self.traversal
        out = {}
        for e, head in enumerate(traversal, 1):
            vi, slot = traversal[e - 2]  # entered on edge e - 1 (2n for e = 1), left on e
            out[e] = ((vi, (slot + 2) % 4), head)
        return out

    @cached_property
    def partner(self) -> dict[Dart, Dart]:
        """The edge involution: each dart to the other end of its edge."""
        out = {}
        for tail, head in self.edge_ends.values():
            out[tail] = head
            out[head] = tail
        return out

    @cached_property
    def vertex_index(self) -> dict[int, int]:
        """Vertex id -> its index in `vertices`."""
        return {v.id: vi for vi, v in enumerate(self.vertices)}

    def precrossing_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vertices if not v.is_classical())

    def classical_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vertices if v.is_classical())

    def is_resolved(self) -> bool:
        return all(v.is_classical() for v in self.vertices)

    def is_shadow(self) -> bool:
        return all(not v.is_classical() for v in self.vertices)

    # -- text / JSON forms -------------------------------------------------

    def to_text(self) -> str:
        terms = []
        for v in self.vertices:
            args = ",".join(str(e) for e in v.edges)
            if v.is_classical():
                terms.append(f"X{'+' if v.sign > 0 else '-'}({args})")
            else:
                terms.append(f"P({args})")
        return " ".join(terms) or EMPTY_CODE

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {
                    "id": v.id,
                    "kind": "classical" if v.is_classical() else "precrossing",
                    **({"sign": v.sign} if v.is_classical() else {}),
                    "edges": list(v.edges),
                }
                for v in self.vertices
            ]
        }


ResolvedPD = PseudoPD  # a PseudoPD whose vertices are all classical


# After optional whitespace, one term, or else the first character of
# whatever stands there instead (group 6), where parsing stops.
_TOKEN_RE = re.compile(r"\s*(?:(X\+|X-|X−|P)\((\d+),(\d+),(\d+),(\d+)\)|(\S))")
_SIGNS = {"X+": 1, "X-": -1, "X−": -1, "P": None}


def parse_pd(text: str) -> PseudoPD:
    """Parse and validate PD text, or `EMPTY_CODE`; see the module
    docstring for the grammar."""
    if text.strip() == EMPTY_CODE:
        return unknot()
    raw: list[Vertex] = []
    for m in _TOKEN_RE.finditer(text):
        head, a, b, c, d, bad = m.groups()
        if bad is not None:
            pos = m.start(6)
            raise PDError(f"syntax error at position {pos}: {text[pos:pos + 16]!r}")
        sign = _SIGNS[head]
        raw.append(Vertex(len(raw), PRECROSSING if sign is None else CLASSICAL, sign,
                          (int(a), int(b), int(c), int(d))))
    if not raw:
        raise PDError("empty PD code")
    return make_pd(raw)


def unknot() -> ResolvedPD:
    """The 0-crossing unknot diagram."""
    return PseudoPD(vertices=(), in_slots=())


def make_pd(vertices: Sequence[Vertex]) -> PseudoPD:
    """Build a PseudoPD from vertex records, with full validation.

    Each vertex keeps its record's id; edge labels are renumbered 1..2n in
    traversal order.
    """
    if not vertices:
        return unknot()
    ids = [v.id for v in vertices]
    if len(set(ids)) != len(ids):
        raise PDError(f"repeated vertex id {min(i for i in ids if ids.count(i) > 1)}")
    return _build(vertices)


def relabeled(d: PseudoPD, labels: dict[Dart, int], drop: Collection[int] = ()) -> list[Vertex]:
    """`d`'s vertices, each dart in `labels` carrying its new edge label.

    Vertices whose index is in `drop` are left out; every other vertex keeps
    its id, kind and sign.  A move that rewires a diagram passes the result,
    plus the vertices it creates, to `make_pd`.
    """
    return [
        Vertex(v.id, v.kind, v.sign, tuple(labels.get((vi, s), e) for s, e in enumerate(v.edges)))
        for vi, v in enumerate(d.vertices)
        if vi not in drop
    ]


def _is_sign(x) -> bool:
    """Whether `x` is the int +1 or -1 (a bool or a float is not)."""
    return type(x) is int and x in (1, -1)


def _build(raw: Sequence[Vertex], allow_reverse: bool = True) -> PseudoPD:
    # Darts are ints, 4 * vertex index + slot, so slot + 2 is dart ^ 2;
    # mate[d] is the other dart of d's edge, first[e] the first dart of edge e.
    labels = [e for v in raw for e in v.edges]
    first: dict[int, int] = {}
    mate = [0] * len(labels)
    for d, e in enumerate(labels):
        o = first.setdefault(e, d)
        mate[d], mate[o] = o, d
    # every label twice exactly when there are half as many labels as darts
    # and none is seen once (a dart that is its own mate)
    if 2 * len(first) != len(labels) or not all(map(int.__ne__, mate, range(len(labels)))):
        counts: dict[int, int] = {}
        for e in labels:
            counts[e] = counts.get(e, 0) + 1
        e, k = next((e, k) for e, k in counts.items() if k != 2)
        raise PDError(f"edge {e} appears {k} times (must be exactly 2)")

    # Traverse the strand: enter a vertex at slot k, leave at slot k + 2.
    # Start on the smallest edge label, entering at its first dart; this
    # makes the orientation deterministic.  d -> mate[d ^ 2] is a
    # permutation that mate turns into its inverse, so the walk is back at
    # its start before it could run an edge a second time, either way.
    start = first[min(first)]
    order = [start]  # entry darts; the edge entered at order[i] becomes i + 1
    d = mate[start ^ 2]
    while d != start:
        order.append(d)
        d = mate[d ^ 2]
    if len(order) != len(first):
        raise PDError(
            f"diagram has more than one component "
            f"({len(order)} of {len(first)} edges on the first strand)"
        )
    # the walk enters each vertex at one slot of each opposite pair
    entered = bytearray(len(labels))
    new_label = [0] * len(labels)
    for i, d in enumerate(order, 1):
        entered[d] = 1
        new_label[d] = new_label[mate[d]] = i

    # The text fixes an orientation only up to reversal: slot 0 of a
    # classical term is the incoming under-edge for one of the two strand
    # directions.  If every classical vertex is consistent with the
    # reversed direction instead, rotate all tuples by two (the same
    # geometric diagram encoded for the reversed traversal) and rebuild.
    classical = [4 * vi for vi, v in enumerate(raw) if v.kind == CLASSICAL]
    if classical and allow_reverse and not any(entered[base] for base in classical):
        flipped = [Vertex(v.id, v.kind, v.sign, v.edges[2:] + v.edges[:2]) for v in raw]
        return _build(flipped, allow_reverse=False)

    vertices: list[Vertex] = []
    in_slots: list[tuple[int, int]] = []
    for base, v in zip(range(0, len(labels), 4), raw):
        new_edges = tuple(new_label[base:base + 4])
        if v.kind == CLASSICAL:
            if not _is_sign(v.sign):
                raise PDError(f"vertex {v.id}: sign must be +1 or -1, got {v.sign!r}")
            if not entered[base]:
                raise PDError(
                    f"vertex {v.id}: slot 0 is not the incoming under-strand "
                    f"(sign inconsistent with orientation)"
                )
            over_in = 3 if entered[base + 3] else 1
            derived = 1 if over_in == 3 else -1
            if derived != v.sign:
                raise PDError(
                    f"vertex {v.id}: declared sign {v.sign:+d} inconsistent with "
                    f"orientation (derived {derived:+d})"
                )
            vertices.append(Vertex(v.id, CLASSICAL, v.sign, new_edges))
            in_slots.append((0, over_in))
        elif entered[base]:
            vertices.append(Vertex(v.id, PRECROSSING, None, new_edges))
            in_slots.append((0, 3 if entered[base + 3] else 1))
        else:
            # rotate by two so that slot 0 is an incoming slot (strand one)
            vertices.append(Vertex(v.id, PRECROSSING, None, new_edges[2:] + new_edges[:2]))
            in_slots.append((0, 3 if entered[base + 1] else 1))

    # Euler's formula: a connected 4-valent map on n vertices is planar
    # exactly when it has n + 2 faces.  A face is an orbit of the dart
    # d -> the next slot counterclockwise after mate[d], at the same vertex.
    faces = 0
    seen = bytearray(len(labels))
    for face in range(len(labels)):
        if not seen[face]:
            faces += 1
            d = face
            while not seen[d]:
                seen[d] = 1
                d = mate[d]
                d = d - 3 if d & 3 == 3 else d + 1
    if faces != len(raw) + 2:
        raise PDError("diagram is not planar (Euler check failed)")

    out = PseudoPD(vertices=tuple(vertices), in_slots=tuple(in_slots))
    # the walk's entry darts, in the slots of the rotated precrossings
    vars(out)["traversal"] = tuple([(d >> 2, (d & 3) if entered[d & ~3] else (d & 3) ^ 2)
                                    for d in order])
    return out


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def positive_over_is_strand_two(d: PseudoPD, vi: int) -> bool:
    """Whether the +1 resolution of precrossing `vi` puts strand two on top.

    Strand two is the one through slots 1 and 3.  The crossing sign is +1
    exactly when the over-strand comes in at the slot 90 degrees clockwise
    of the incoming under-strand, so the +1 choice is determined by where
    strand two enters.
    """
    _, s2_in = d.in_slots[vi]
    return s2_in == 3


def resolve(d: PseudoPD, choice: dict[int, int]) -> ResolvedPD:
    """Resolve every precrossing of `d` per `choice` (+1 or -1 by vertex id).

    A +1 entry picks the resolution whose classical crossing has sign +1.
    Classical crossings are unchanged.
    """
    pre_ids = set(d.precrossing_ids())
    if set(choice) != pre_ids:
        missing = pre_ids - set(choice)
        extra = set(choice) - pre_ids
        raise PDError(f"choice ids mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
    vertices = []
    for vi, v in enumerate(d.vertices):
        if v.is_classical():
            vertices.append(v)
            continue
        c = choice[v.id]
        if not _is_sign(c):
            raise PDError(f"choice for precrossing {v.id} must be +1 or -1, got {c}")
        s1_in, s2_in = d.in_slots[vi]
        over_two = positive_over_is_strand_two(d, vi) == (c == 1)
        if over_two:
            under_in = s1_in  # strand one stays under; slot 0 already incoming
        else:
            under_in = s2_in
        e = v.edges
        rotated = tuple(e[(j + under_in) % 4] for j in range(4))
        vertices.append(Vertex(v.id, CLASSICAL, c, rotated))
    return make_pd(vertices)


def writhe(d: ResolvedPD) -> int:
    """Sum of crossing signs of a resolved diagram."""
    if not d.is_resolved():
        raise PDError("writhe is defined for resolved diagrams only")
    return sum(v.sign for v in d.vertices)


def mirror(d: PseudoPD) -> PseudoPD:
    """Mirror image: every classical sign flips; precrossings are unchanged."""
    vertices = []
    for vi, v in enumerate(d.vertices):
        if not v.is_classical():
            vertices.append(v)
            continue
        _, over_in = d.in_slots[vi]
        e = v.edges
        rotated = tuple(e[(j + over_in) % 4] for j in range(4))
        vertices.append(Vertex(v.id, CLASSICAL, -v.sign, rotated))
    return make_pd(vertices)
