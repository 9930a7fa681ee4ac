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
traversal closes into a single component (knots only), and declared signs
agree with the orientation induced by the traversal.  Edge labels are
normalized to 1..2n in traversal order.

Every diagram is built by `make_pd` from `Vertex` records, and each vertex
keeps the id its record carries: `parse_pd` numbers its terms 0..n-1, and
`resolve`, `mirror`, the shadow flype and the PD Reidemeister moves the
tests check the Gauss moves against keep the id of every vertex they carry
over.  A vertex a move creates takes the largest id in the diagram plus
one, so ids can have gaps after a removal.

A `PseudoPD` owns its incidence structure: the strand traversal, each
edge's two ends, the dart partner, the faces and the id -> vertex index are
built from the vertices once, on first use, and kept on the instance (the
faces on every built diagram, by the planarity check).  Every module
that walks darts reads these indexes; callers never modify them.
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

    The indexes below are built on first use and kept on the instance;
    they are not dataclass fields, so equality and hashing still compare
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
    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Faces of the planar map as dart cycles.

        A face is an orbit of dart -> rotate_ccw(partner(dart)): its boundary
        leaves vertex v along slot k at the dart (v, k), which stands for
        the face's corner between slots k - 1 and k at v.  Euler's formula
        (faces = n + 2 for a connected 4-valent knot diagram) holds for
        every valid PseudoPD; `make_pd` checks it.
        """
        partner = self.partner
        remaining = set(partner)
        out = []
        while remaining:
            start = min(remaining)
            cycle = []
            dart = start
            while True:
                cycle.append(dart)
                remaining.discard(dart)
                vi, slot = partner[dart]
                dart = (vi, (slot + 1) % 4)
                if dart == start:
                    break
            out.append(tuple(cycle))
        return tuple(out)

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


_TERM_RE = re.compile(r"(X\+|X-|X−|P)\((\d+),(\d+),(\d+),(\d+)\)")


def parse_pd(text: str) -> PseudoPD:
    """Parse and validate PD text, or `EMPTY_CODE`; see the module
    docstring for the grammar."""
    if text.strip() == EMPTY_CODE:
        return unknot()
    raw: list[Vertex] = []
    pos = 0
    n_chars = len(text)
    while pos < n_chars:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TERM_RE.match(text, pos)
        if not m:
            raise PDError(f"syntax error at position {pos}: {text[pos:pos + 16]!r}")
        head = m.group(1)
        edges = tuple(int(m.group(i)) for i in range(2, 6))
        if head == "P":
            raw.append(Vertex(len(raw), PRECROSSING, None, edges))
        else:
            raw.append(Vertex(len(raw), CLASSICAL, 1 if head == "X+" else -1, edges))
        pos = m.end()
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
    # edge label -> list of (vertex index, slot)
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for vi, v in enumerate(raw):
        for slot, e in enumerate(v.edges):
            occurrences.setdefault(e, []).append((vi, slot))
    for e, occ in occurrences.items():
        if len(occ) != 2:
            raise PDError(f"edge {e} appears {len(occ)} times (must be exactly 2)")

    # Traverse the strand: enter a vertex at slot k, leave at slot (k+2)%4.
    # Start on the smallest edge label, entering at its lexicographically
    # smaller occurrence; this makes the orientation deterministic.
    start_edge = min(occurrences)
    start_dart = min(occurrences[start_edge])
    order: list[tuple[int, int]] = []  # darts (vertex index, entry slot)
    edge_order: list[int] = []
    seen_edges: set[int] = set()
    edge, dart = start_edge, start_dart
    while True:
        if edge in seen_edges:
            raise PDError("strand traversal revisits an edge (inconsistent code)")
        seen_edges.add(edge)
        edge_order.append(edge)
        order.append(dart)
        vi, slot = dart
        out_slot = (slot + 2) % 4
        out_edge = raw[vi].edges[out_slot]
        a, b = occurrences[out_edge]
        nxt = b if a == (vi, out_slot) else a
        if out_edge == start_edge and nxt == start_dart:
            break
        edge, dart = out_edge, nxt
    if len(seen_edges) != len(occurrences):
        raise PDError(
            f"diagram has more than one component "
            f"({len(seen_edges)} of {len(occurrences)} edges on the first strand)"
        )

    relabel = {e: i + 1 for i, e in enumerate(edge_order)}
    in_slots_map: dict[int, list[int]] = {vi: [] for vi in range(len(raw))}
    for vi, slot in order:
        in_slots_map[vi].append(slot)

    # The text fixes an orientation only up to reversal: slot 0 of a
    # classical term is the incoming under-edge for one of the two strand
    # directions.  If every classical vertex is consistent with the
    # reversed direction instead, rotate all tuples by two (the same
    # geometric diagram encoded for the reversed traversal) and rebuild.
    classical_idx = [vi for vi, v in enumerate(raw) if v.kind == CLASSICAL]
    if classical_idx and allow_reverse:
        forward_ok = all(0 in in_slots_map[vi] for vi in classical_idx)
        backward_ok = all(2 in in_slots_map[vi] for vi in classical_idx)
        if not forward_ok and backward_ok:
            flipped = [Vertex(v.id, v.kind, v.sign, v.edges[2:] + v.edges[:2]) for v in raw]
            return _build(flipped, allow_reverse=False)

    vertices: list[Vertex] = []
    in_slots: list[tuple[int, int]] = []
    for vi, v in enumerate(raw):
        entries = in_slots_map[vi]
        if len(entries) != 2:
            raise PDError(f"vertex {v.id} is not visited exactly twice")
        new_edges = tuple(relabel[e] for e in v.edges)
        ins = set(entries)
        if v.kind == CLASSICAL:
            if not _is_sign(v.sign):
                raise PDError(f"vertex {v.id}: sign must be +1 or -1, got {v.sign!r}")
            if 0 not in ins:
                raise PDError(
                    f"vertex {v.id}: slot 0 is not the incoming under-strand "
                    f"(sign inconsistent with orientation)"
                )
            over_in = 3 if 3 in ins else 1
            derived = 1 if over_in == 3 else -1
            if derived != v.sign:
                raise PDError(
                    f"vertex {v.id}: declared sign {v.sign:+d} inconsistent with "
                    f"orientation (derived {derived:+d})"
                )
            vertices.append(Vertex(v.id, CLASSICAL, v.sign, new_edges))
            in_slots.append((0, over_in))
        else:
            # Normalize so slot 0 is an incoming slot (strand-one designation).
            if 0 not in ins:
                new_edges = new_edges[2:] + new_edges[:2]
                ins = {(s + 2) % 4 for s in ins}
            other_in = 3 if 3 in ins else 1
            vertices.append(Vertex(v.id, PRECROSSING, None, new_edges))
            in_slots.append((0, other_in))
    out = PseudoPD(vertices=tuple(vertices), in_slots=tuple(in_slots))
    if out.n and len(out.faces) != out.n + 2:
        raise PDError("diagram is not planar (Euler check failed)")
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
