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

Validation happens once, at the boundary.  Every diagram comes from flat
arrays: the vertex ids, their signs, and the 4n edge labels of the darts
(a dart, one end of an edge, is the int 4 * vertex index + slot), and a
`PseudoPD` keeps those arrays, the labels normalised.  The public
constructors, `parse_pd`, `make_pd` (an adapter for `Vertex` records
`(id, sign, edges)`) and `PseudoPD` itself, validate everything through
`_build`, and so does the twist-tangle builder, whose closure can have
two components.
`resolve`, `mirror` and the shadow flype build from a diagram that was
valid already, through the trusted constructor `_trusted_build`, which
checks nothing; each one's docstring says why its input proves every
check.  `_build` is the checks followed by the assembly (`_assemble`)
that `_trusted_build` ends in, so both build the same diagram, and the
checks read the one walk direction (`_orient`) that the assembly reads.
A vertex is classical exactly when it has a sign, the int +1 or -1; a
precrossing's sign is None, and any other sign is refused.  An id is a non-negative int, as in Gauss code.  Each vertex
keeps the id it is given: `parse_pd` numbers its terms 0..n-1, and
`resolve`, `mirror`, the shadow flype and the PD Reidemeister moves the
tests check the Gauss moves against keep the id of every vertex they
carry over.  A vertex a move creates takes the largest id in the diagram
plus one, so ids can have gaps after a removal.

A `PseudoPD` holds one crossing record per vertex, which `_assemble`
makes with the labels; it makes the orientation decision (which way a
precrossing's +1 resolution goes) in one place, and `resolve` and
`mirror` re-sign vertices by one route that reads it, `_resigned`.  The
diagram also owns `mate`, each dart to the other dart of its edge, the
id -> vertex index and the `Vertex` records, each built on first use and
kept on the instance.  Every module that needs them reads these, and
callers never modify them.  Building makes no index: it pairs the given
labels' darts with `_pair_darts`, which builds `mate` too, walks the
strand on that list and, to check planarity, the faces by `_ccw`.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from functools import cached_property
from operator import attrgetter


class PDError(ValueError):
    """Invalid PD text or PD structure."""


# The Gauss and flype layers' errors are defined here, beside PDError, so
# that the CLI can turn every library error into exit 2 without importing
# those layers; `gauss` and `flype` re-export them.
class GaussError(ValueError):
    """Invalid Gauss code text or structure."""


class FlypeError(ValueError):
    """The site does not satisfy the shadow-flype preconditions."""


# Text form of the diagram with no crossings, in PD and Gauss code alike.
EMPTY_CODE = "unknot"

_set = object.__setattr__  # how a record's `__init__` writes its fields


class Record:
    """Base of the library's immutable records.

    A record's fields are the names its class body annotates, in order.
    Its `__init__` writes them with `_set` (`object.__setattr__`, never
    the instance `__dict__`, which once read makes every later attribute
    read slower); after that, assigning or deleting any attribute raises
    AttributeError.  Two records are equal when they are of the same class
    and their fields are, they hash as the tuple of their fields, and the
    repr is `Class(field=value, ...)`.  Values built on first use, such as
    a `functools.cached_property`, live in the instance `__dict__` apart
    from the fields, and take no part in any of this.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"


class Vertex(Record):
    """One 4-valent vertex: a classical crossing of sign +1 or -1, or a
    precrossing, whose sign is None; `_build` refuses any other sign."""

    id: int
    sign: int | None
    edges: tuple[int, int, int, int]

    def __init__(self, id: int, sign: int | None, edges: tuple[int, int, int, int]):
        _set(self, "id", id)
        _set(self, "sign", sign)
        _set(self, "edges", edges)

    def is_classical(self) -> bool:
        return self.sign is not None


Crossing = tuple[tuple[int, int, int, int], int | None]  # (edges, sign), see PseudoPD


class PseudoPD(Record):
    """Validated, oriented pseudodiagram.

    Vertex i has id `ids[i]`, sign `signs[i]` and edge labels
    `labels[4i:4i + 4]`, in input order.  Edge labels are 1..2n in the
    order the (single) strand traversal first uses each edge, and every
    vertex is entered at slot 0.

    `crossings` holds one (edges, sign) record per vertex, in vertex order,
    built with the diagram.  The edges start at the under-strand's entry,
    so `bracket.A_PAIRS` is the A pairing.  A classical vertex keeps its
    labels and sign.  A precrossing gets sign None, and its edges start
    where the under-strand of its +1 resolution enters: that resolution is
    the record read as a classical +1 crossing, its over-strand in at slot
    3.  The records follow from the labels and signs, so two diagrams are
    equal, and hash alike, exactly when their arrays are.

    The constructor validates its arrays through `_build`, and raises
    PDError naming the first vertex whose labels or crossing record are
    not the ones `_build` makes; the library builds its diagrams through
    `_trusted`, which checks nothing.  The indexes below (`vertices`,
    `mate`, `vertex_index`) are built on first use and kept on the
    instance, apart from the four fields.  Read them, never modify them.
    """

    ids: tuple[int, ...]
    signs: tuple[int | None, ...]
    labels: tuple[int, ...]
    crossings: tuple[Crossing, ...]

    def __init__(self, ids: tuple[int, ...], signs: tuple[int | None, ...],
                 labels: tuple[int, ...], crossings: tuple[Crossing, ...]):
        if not len(ids) == len(signs) == len(crossings) or len(labels) != 4 * len(ids):
            raise PDError(f"{len(ids)} ids, {len(signs)} signs, {len(labels)} labels and "
                          f"{len(crossings)} crossing records are not one vertex each")
        d = _build(ids, signs, labels)
        for vi, i in enumerate(d.ids):
            given, normal = tuple(labels[4 * vi:4 * vi + 4]), d.labels[4 * vi:4 * vi + 4]
            if given != normal:
                raise PDError(f"vertex {i}: labels {given} are not the normal form {normal}")
            if crossings[vi] != d.crossings[vi]:
                raise PDError(f"vertex {i}: crossing record {crossings[vi]!r} is not the "
                              f"normal form {d.crossings[vi]!r}")
        for name in self._fields:
            _set(self, name, getattr(d, name))

    @classmethod
    def _trusted(cls, ids: tuple[int, ...], signs: tuple[int | None, ...],
                 labels: tuple[int, ...], crossings: tuple[Crossing, ...]) -> PseudoPD:
        """The diagram of arrays already in normal form, for `_assemble` and
        `unknot`; nothing is checked."""
        d = object.__new__(cls)
        _set(d, "ids", ids)
        _set(d, "signs", signs)
        _set(d, "labels", labels)
        _set(d, "crossings", crossings)
        return d

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertices as `Vertex` records, for the text and JSON forms."""
        labels = self.labels
        return tuple(Vertex(i, sign, labels[base:base + 4])
                     for base, i, sign in zip(range(0, len(labels), 4), self.ids, self.signs))

    @cached_property
    def mate(self) -> list[int]:
        """The edge involution on darts 4 * vertex index + slot: each dart
        to the other dart of its edge."""
        return _pair_darts(self.labels)[0]

    @cached_property
    def vertex_index(self) -> dict[int, int]:
        """Vertex id -> its vertex index."""
        return {i: vi for vi, i in enumerate(self.ids)}

    def precrossing_ids(self) -> tuple[int, ...]:
        return tuple(i for i, sign in zip(self.ids, self.signs) if sign is None)

    def is_resolved(self) -> bool:
        return None not in self.signs

    def is_shadow(self) -> bool:
        return all(sign is None for sign in self.signs)

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
# whatever stands there instead (group 6), where parsing stops.  Labels
# are ASCII digits, as in the knot table.
_TOKEN_RE = re.compile(r"\s*(?:(X\+|X-|X−|P)\(([0-9]+),([0-9]+),([0-9]+),([0-9]+)\)|(\S))")
_SIGNS = {"X+": 1, "X-": -1, "X−": -1, "P": None}


def parse_pd(text: str) -> PseudoPD:
    """Parse and validate PD text, or `EMPTY_CODE`; see the module
    docstring for the grammar."""
    if text.strip() == EMPTY_CODE:
        return unknot()
    signs: list[int | None] = []
    labels: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        head, a, b, c, d, bad = m.groups()
        if bad is not None:
            pos = m.start(6)
            raise PDError(f"syntax error at position {pos}: {text[pos:pos + 16]!r}")
        try:
            labels += (int(a), int(b), int(c), int(d))
        except ValueError:  # more digits than int() converts
            digits = max(map(len, (a, b, c, d)))
            raise PDError(f"term at position {m.start(1)}: edge label too long "
                          f"({digits} digits)") from None
        signs.append(_SIGNS[head])
    if not signs:
        raise PDError("empty PD code")
    return _build(range(len(signs)), signs, labels)


def unknot() -> ResolvedPD:
    """The 0-crossing unknot diagram."""
    return PseudoPD._trusted((), (), (), ())


def make_pd(vertices: Sequence[Vertex]) -> PseudoPD:
    """Build a PseudoPD from vertex records, with full validation (`_build`)."""
    return _build([v.id for v in vertices], [v.sign for v in vertices],
                  [e for v in vertices for e in v.edges])


def _is_sign(x) -> bool:
    """Whether `x` is the int +1 or -1 (a bool or a float is not)."""
    return type(x) is int and x in (1, -1)


def _pair_darts(labels: Sequence[int]) -> tuple[list[int], dict[int, int]]:
    """(mate, first) for the darts 0, 1, ... that carry `labels`: mate[d] is
    the other dart of d's edge, first[e] the first dart of edge e."""
    first: dict[int, int] = {}
    mate = [0] * len(labels)
    for d, e in enumerate(labels):
        o = first.setdefault(e, d)
        mate[d], mate[o] = o, d
    return mate, first


def _ccw(d: int) -> int:
    """The dart one slot counterclockwise from `d` at the same vertex."""
    return d - 3 if d & 3 == 3 else d + 1


def _build(ids: Sequence[int], signs: Sequence[int | None], labels: Sequence[int]) -> PseudoPD:
    """Build a PseudoPD from flat arrays, with full validation: vertex i has
    id ids[i], sign signs[i] and edge labels labels[4i:4i + 4].

    Each vertex keeps its id, which must be a non-negative int; edge labels
    are renumbered 1..2n in traversal order (see `_assemble`).  The checks
    run in this order: ids, edge counts, one component, per vertex the sign
    and its orientation, then planarity; `_assemble` then builds the
    diagram from the pairing and the walk the checks made.
    """
    if not ids:
        return unknot()
    for i in ids:
        if type(i) is not int or i < 0:
            raise PDError(f"crossing id {i!r} is not a non-negative int")
    if len(set(ids)) != len(ids):
        raise PDError(f"repeated vertex id {min(i for i in ids if ids.count(i) > 1)}")
    mate, first = _pair_darts(labels)
    # every label twice exactly when there are half as many labels as darts
    # and none is seen once (a dart that is its own mate); before that
    # holds, the walk below need not come back to its start
    if 2 * len(first) != len(labels) or not all(map(int.__ne__, mate, range(len(labels)))):
        counts: dict[int, int] = {}
        for e in labels:
            counts[e] = counts.get(e, 0) + 1
        e, k = next((e, k) for e, k in counts.items() if k != 2)
        raise PDError(f"edge {e} appears {k} times (must be exactly 2)")
    order = _walk(mate, first)
    if len(order) != len(first):
        raise PDError(
            f"diagram has more than one component "
            f"({len(order)} of {len(first)} edges on the first strand)"
        )
    # each classical vertex's sign, then its slot 0 and sign in the
    # direction `_assemble` reads
    entered, new_labels = _orient(signs, mate, order)
    for base, i, sign in zip(range(0, len(labels), 4), ids, signs):
        if sign is None:
            continue
        if not _is_sign(sign):
            raise PDError(f"vertex {i}: sign must be +1 or -1, got {sign!r}")
        if not entered[base]:
            raise PDError(
                f"vertex {i}: slot 0 is not the incoming under-strand "
                f"(sign inconsistent with orientation)"
            )
        derived = 1 if entered[base + 3] else -1  # the over-strand in at slot 3 or 1
        if derived != sign:
            raise PDError(
                f"vertex {i}: declared sign {sign:+d} inconsistent with "
                f"orientation (derived {derived:+d})"
            )

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
                d = _ccw(mate[d])
    if faces != len(ids) + 2:
        raise PDError("diagram is not planar (Euler check failed)")

    return _assemble(ids, signs, entered, new_labels)


def _trusted_build(ids: Sequence[int], signs: Sequence[int | None],
                   labels: Sequence[int]) -> PseudoPD:
    """`_build` without its checks, for arrays that the library made from a
    valid diagram and that would pass every one of them; the caller says
    why.  It pairs the darts, walks the strand, orients and assembles."""
    if not ids:
        return unknot()
    mate, first = _pair_darts(labels)
    return _assemble(ids, signs, *_orient(signs, mate, _walk(mate, first)))


def _walk(mate: list[int], first: dict[int, int]) -> list[int]:
    """The entry darts of the strand walk, in order, from the first dart
    of the smallest edge label: enter a vertex at slot k, leave at slot
    k + 2.  The walk ends back at its start; on one component it has met
    every edge.

    Starting there makes the orientation deterministic.  When that edge
    is a kink, its two darts are slots s and s + 1 mod 4 of one vertex,
    and the walk enters at slot s, which a rotation of the term's slots
    (another choice of strand one at a precrossing) leaves in place; the
    first dart in text order differs from it only for slots 3 and 0.
    d -> mate[d ^ 2] is a permutation that mate turns into its inverse,
    so the walk is back at its start before it could run an edge a second
    time, either way.  (Darts are 4 * vertex index + slot, so slot + 2 is
    dart ^ 2.)

    So the walk takes at most one step per edge.  A pairing that is not an
    involution, which only a trusted build can pass, may never lead back;
    past that bound it raises AssertionError naming the broken pair.
    """
    start = first[min(first)]
    if start & 3 == 0 and mate[start] == start + 3:  # a kink on slots 3 and 0
        start += 3
    order = [start]
    d = mate[start ^ 2]
    for _ in range(len(mate) >> 1):
        if d == start:
            return order
        order.append(d)
        d = mate[d ^ 2]
    bad = next((d for d, e in enumerate(mate) if e == d or mate[e] != d), start)
    raise AssertionError(f"the strand walk does not close: the dart pairing is not an "
                         f"involution (dart {bad} -> {mate[bad]} -> {mate[mate[bad]]})")


def _orient(signs: Sequence[int | None], mate: list[int],
            order: list[int]) -> tuple[bytearray, list[int]]:
    """(entered, labels) in the reading direction of the strand walk whose
    entry darts are `order` (`_walk`): entered[d] is 1 when the reading
    enters dart d, and the edge the walk enters at order[i] gets label
    i + 1, on both its darts.

    The text fixes an orientation only up to reversal: slot 0 of a
    classical term is the incoming under-edge for one of the two strand
    directions.  If the walk enters no classical vertex at slot 0, the
    diagram is read in the reversed direction, which enters dart d ^ 2
    wherever the walk enters d: every tuple rotated by two.
    """
    entered = bytearray(len(mate))
    for d in order:
        entered[d] = 1
    classical = [4 * vi for vi, sign in enumerate(signs) if sign is not None]
    flip = 2 if classical and not any(entered[base] for base in classical) else 0
    if flip:
        entered = bytearray(entered[d ^ 2] for d in range(len(mate)))
    labels = [0] * len(mate)
    for i, d in enumerate(order, 1):
        labels[d ^ flip] = labels[mate[d] ^ flip] = i
    return entered, labels


def _assemble(ids: Sequence[int], signs: Sequence[int | None], entered: bytearray,
              labels: list[int]) -> PseudoPD:
    """The PseudoPD of a valid diagram, from the entered darts and labels
    that `_orient` reads off its strand walk; `labels` is used up.

    A precrossing's tuple is rotated by two if need be so that slot 0 is
    incoming, and its crossing record starts at the incoming slot whose
    clockwise neighbour the other strand enters at, as in a +1 crossing.
    """
    crossings: list[Crossing] = []
    for base, sign in zip(range(0, len(labels), 4), signs):
        e = tuple(labels[base:base + 4])
        if sign is not None:
            crossings.append((e, sign))
            continue
        s = 0 if entered[base] else 2
        if s:
            labels[base:base + 4] = e = e[2:] + e[:2]
        crossings.append((e if entered[base + (s + 3) % 4] else e[1:] + e[:1], None))
    return PseudoPD._trusted(tuple(ids), tuple(signs), tuple(labels), tuple(crossings))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def resolve(d: PseudoPD, choice: dict[int, int]) -> ResolvedPD:
    """Resolve every precrossing of `d` per `choice` (+1 or -1 by vertex id).

    A +1 entry picks the resolution whose classical crossing has sign +1.
    Classical crossings are unchanged.  The first bad choice in vertex
    order is named.  Built by `_resigned`, unchecked.
    """
    pre_ids = set(d.precrossing_ids())
    if set(choice) != pre_ids:
        missing = pre_ids - set(choice)
        extra = set(choice) - pre_ids
        raise PDError(f"choice ids mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
    signs = [choice[i] if sign is None else sign for i, sign in zip(d.ids, d.signs)]
    for i, sign, c in zip(d.ids, d.signs, signs):
        if sign is None and not _is_sign(c):
            raise PDError(f"choice for precrossing {i} must be +1 or -1, got {c}")
    return _resigned(d, signs)


def writhe(d: ResolvedPD) -> int:
    """Sum of crossing signs of a resolved diagram."""
    if not d.is_resolved():
        raise PDError("writhe is defined for resolved diagrams only")
    return sum(d.signs)


def mirror(d: PseudoPD) -> PseudoPD:
    """Mirror image: every classical sign flips; precrossings are unchanged.
    Built by `_resigned`, unchecked."""
    return _resigned(d, [None if sign is None else -sign for sign in d.signs])


def _resigned(d: PseudoPD, signs: Sequence[int | None]) -> PseudoPD:
    """`d` with vertex i given sign signs[i]: None only where `d` has a
    precrossing, whose term is copied unchanged.  A classical vertex's term
    is its record read from its new under-strand's entry: the record
    itself while the under-strand stays (a classical sign kept, or a
    precrossing resolved +1, the record's reading), else the over-strand's
    entry, slot 3 of a +1 or precrossing record and slot 1 of a -1 one.

    Built unchecked (`_trusted_build`): the ids, edges and cyclic order at
    each vertex are `d`'s, so the edge counts, the one component and
    planarity hold as in `d`; each classical term starts at its
    under-strand's entry in `d`'s orientation, with the sign derived
    there, as the classical terms of `d` do.
    """
    labels: list[int] = []
    for base, (e, sign), new in zip(range(0, len(d.labels), 4), d.crossings, signs):
        if new is None:
            labels += d.labels[base:base + 4]
        elif new == (sign or 1):
            labels += e
        else:
            over_in = 1 if sign == -1 else 3
            labels += e[over_in:] + e[:over_in]
    return _trusted_build(d.ids, signs, labels)
