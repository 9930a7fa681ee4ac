"""Kauffman bracket, Jones polynomial, and knot classification.

The brackets of all 2^k resolutions of a pseudodiagram come from one
vertex-at-a-time contraction (Bar-Natan, "Fast Khovanov homology
computations", J. Knot Theory Ramif. 16, 2007, applied to the Kauffman
bracket).  With u = A^2, a vertex contributes A^-1 (u [A pairing] +
[B pairing]) and a closed loop delta = -(u + u^-1).  The A^-n is restored
at the end, and the last vertex closes one loop fewer: the division by
delta behind <unknot> = 1.

After each vertex of the greedy plan (`contraction_plan`), a partial state
maps (writhe, vector) to a count of resolutions of the precrossings done.
A vector holds a polynomial in u for each matching of the open edges,
packed into one Python int as signed digits (Kronecker substitution, in
digits of the proven width `digit_bits`).  Resolutions with equal partial
brackets share one vector, so the 2^k resolutions collapse to a few
hundred groups.  A precrossing's two options reuse the same two glued
vectors, with writhe +1 and -1 and the A pairing swapped; a classical
vertex builds only the first.  A step's transition list (`_step`, built
from `_glue`) depends on the matchings and the vertex's slots, not on the
diagram, so both are cached for every call in the process.  Each final
group's coefficients are read with one shift and mask per digit from its
vector plus half in every digit, between the digits of its lowest and
highest set bits.

`resolution_histogram` is the seam between this engine and its readers:
it counts a pseudodiagram's resolutions by (writhe, bracket key) in Python
ints.  `kauffman_bracket`, `jones` and `classify` read a resolved
diagram's one-entry histogram.

The Jones polynomial is the writhe-normalized bracket under A = t^(-1/4),
read off a bracket key (`bracket_to_jones`) as a `LaurentPolynomial.key`;
a non-integer t-exponent, which a knot cannot have, raises.  Classification
is exact lookup of that key in a table of the prime knots through 7
crossings and their mirrors; a `LaurentPolynomial` is built only for a miss.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .diagram import PseudoPD, ResolvedPD, positive_over_is_strand_two
from .laurent import LaurentPolynomial, PolyKey

# (lowest A-exponent, coefficients of A^low, A^(low+2), ..., A^high): every
# bracket's exponents share one parity, and a knot's bracket is never 0.
BracketKey = tuple[int, tuple[int, ...]]

# Smoothings of a crossing stored with slot 0 = incoming under-strand:
# the A-smoothing pairs slots (0,1),(2,3); the B-smoothing (1,2),(3,0).
A_PAIRS = ((0, 1), (2, 3))
B_PAIRS = ((1, 2), (3, 0))

# Refuse a plan whose boundary ever has more open edges than this: a vector
# has a block per non-crossing matching of the boundary, at most Catalan(w/2)
# of them (1,430 at w = 16).  Twist shadows up to 10 crossings have width 4.
MAX_BOUNDARY_WIDTH = 16

# Slot signature entries: a boundary position is >= 0, a new open edge is
# NEW_EDGE, and slot j at the other end of a kink is KINK - j.
NEW_EDGE = -1
KINK = -2


class DiagramTooLargeError(ValueError):
    """The contraction plan's boundary is wider than MAX_BOUNDARY_WIDTH."""


def contraction_plan(d: PseudoPD) -> list[tuple[int, tuple[int, ...], int]]:
    """The (vertex index, slot signature, boundary width after it) of each
    step of `resolution_histogram`, in order.

    Greedy: next is the first vertex, by index, with the most edges on the
    open boundary.  Slot k of a step's signature is the boundary position
    of its edge, NEW_EDGE when the edge opens (it joins the boundary's end,
    in slot order, after the open edges that stay), or KINK - j when the
    edge runs back to slot j of the same vertex.
    """
    ends = d.edge_ends
    score = [0] * d.n
    todo = list(range(d.n))
    boundary: list[int] = []
    plan: list[tuple[int, tuple[int, ...], int]] = []
    while todo:
        vi = max(todo, key=score.__getitem__)
        todo.remove(vi)
        edges = d.vertices[vi].edges
        signature = []
        for k, e in enumerate(edges):
            (tail, _), (head, _) = ends[e]
            if e in boundary:
                signature.append(boundary.index(e))
            elif tail == head:
                signature.append(KINK - next(j for j in range(4) if edges[j] == e and j != k))
            else:
                signature.append(NEW_EDGE)
                score[head if tail == vi else tail] += 1
        boundary = [e for e in boundary if e not in edges]
        boundary += [e for e, s in zip(edges, signature) if s == NEW_EDGE]
        plan.append((vi, tuple(signature), len(boundary)))
    return plan


@lru_cache(maxsize=1 << 16)
def _glue(matching: tuple[int, ...], signature: tuple[int, ...],
          pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], int]:
    """Glue a vertex smoothed by `pairs` onto the boundary `matching`.

    `matching[p]` is the position its arcs join position p to.  Returns the
    matching of the new boundary (the open edges that stay, in order, then
    the new ones) and the number of loops closed.  Nodes 0..w-1 are the
    boundary positions and w + k the vertex's slot k; `arc` joins nodes by
    a smoothing arc, `link` by an edge inside the glued part (None: open).
    """
    w = len(matching)
    arc = list(matching) + [0] * 4
    for a, b in pairs:
        arc[w + a], arc[w + b] = w + b, w + a
    link: list[int | None] = [None] * (w + 4)
    for k, s in enumerate(signature):
        if s >= 0:
            link[s], link[w + k] = w + k, s
        elif s != NEW_EDGE:
            link[w + k] = w + KINK - s
    # the open ends: the positions that stay, then the new edges' slots
    seen = [end is None for end in link]
    opened = [node for node, is_open in enumerate(seen) if is_open]
    position = {node: p for p, node in enumerate(opened)}
    out = [0] * len(opened)
    for start in opened:
        node = arc[start]
        while link[node] is not None:
            seen[node] = seen[link[node]] = True
            node = arc[link[node]]
        out[position[start]] = position[node]
    loops = 0
    for start in range(w + 4):
        if not seen[start]:
            loops += 1
            node = start
            while not seen[node]:
                seen[node] = seen[link[node]] = True
                node = arc[link[node]]
    return tuple(out), loops


def digit_bits(n: int) -> int:
    """Bits per signed digit: a coefficient sums at most 2^n smoothings, each
    a binomial of at most 2^(closed loops) <= 2^(n+1), so its absolute value
    is at most 2^(2n+1), and a b-bit digit holds -2^(b-1) .. 2^(b-1) - 1.
    The top bit is spare, so a final vector's highest nonzero digit is
    digit bit_length // b, where `resolution_histogram` stops reading."""
    return 2 * n + 3


@lru_cache(maxsize=1 << 12)
def _step(matchings: tuple[tuple[int, ...], ...], signature: tuple[int, ...], last: bool,
          digits: int, bits: int, a_first: bool):
    """The transition list of one contraction step.

    Block i of a vector packs matching i's polynomial over u^lo (lo is the
    caller's) in `digits` digits.  Returns the new matchings, how far lo
    drops, the new digit count, the (bias, mask, half) that read block i of
    V as ((V + bias) >> shift & mask) - half, and terms (shift, f1, f2,
    offset) that add (block * f) << offset to the first and second glued
    vector.  The first takes A_PAIRS as its A pairing iff `a_first`.
    """
    index: dict[tuple[int, ...], int] = {}
    moves = [[(index.setdefault(new, len(index)), loops - last)
              for new, loops in (_glue(m, signature, pairs) for m in matchings)]
             for pairs in (A_PAIRS, B_PAIRS)]
    # l loops multiply by delta^l = u^-l (u delta)^l, the A role by u
    u_delta = -1 - (1 << 2 * bits)
    drop = max(loops for row in moves for _, loops in row)
    block, new_block = digits * bits, (digits + 2 * drop + 1) * bits
    half = 1 << (block - 1)
    lift = (sum(half << (i * block) for i in range(len(matchings))), (1 << block) - 1, half)
    ua = bits if a_first else 0
    terms = []
    for i, ((ja, la), (jb, lb)) in enumerate(zip(*moves)):
        # (factor, bit offset in the new vector, extra shift in the first
        # and the second vector) of the A_PAIRS part, then the B_PAIRS part
        parts = (
            (u_delta**la, (drop - la) * bits + ja * new_block, ua, bits - ua),
            (u_delta**lb, (drop - lb) * bits + jb * new_block, bits - ua, ua),
        )
        if ja == jb:  # one product, with a factor no longer than a block
            o = min(offset for _, offset, _, _ in parts)
            f1 = sum(f << (offset + s1 - o) for f, offset, s1, _ in parts)
            f2 = sum(f << (offset + s2 - o) for f, offset, _, s2 in parts)
            terms.append((i * block, f1, f2, o))
        else:
            terms.extend((i * block, f << s1, f << s2, offset) for f, offset, s1, s2 in parts)
    return tuple(index), drop, digits + 2 * drop + 1, lift, tuple(terms)


def resolution_histogram(d: PseudoPD) -> Counter[tuple[int, BracketKey]]:
    """Count the 2^k resolutions of `d` by (writhe, bracket key).

    Raises DiagramTooLargeError, before any polynomial is built, when the
    contraction plan's boundary is wider than MAX_BOUNDARY_WIDTH.
    """
    n = d.n
    if n == 0:
        return Counter({(0, (0, (1,))): 1})
    plan = contraction_plan(d)
    widest = max(width for _, _, width in plan)
    if widest > MAX_BOUNDARY_WIDTH:
        raise DiagramTooLargeError(f"{n} crossings: the contraction's boundary reaches "
                                   f"{widest} open edges (limit {MAX_BOUNDARY_WIDTH})")
    bits = digit_bits(n)
    matchings: tuple[tuple[int, ...], ...] = ((),)
    lo, digits = 0, 1
    states: dict[tuple[int, int], int] = {(0, 1): 1}
    for step, (vi, signature, _) in enumerate(plan):
        v = d.vertices[vi]
        # (writhe change, glued vector) of each option; a precrossing's +1
        # takes A_PAIRS as its A pairing exactly when it puts strand two
        # over, and a classical vertex builds only the first vector
        classical = v.is_classical()
        options = ((v.sign, 0),) if classical else ((1, 0), (-1, 1))
        a_first = classical or positive_over_is_strand_two(d, vi)
        matchings, drop, digits, (bias, mask, half), terms = _step(
            matchings, signature, step == n - 1, digits, bits, a_first
        )
        lo -= drop
        glued: dict[int, tuple[int, int]] = {}
        new_states: dict[tuple[int, int], int] = {}
        for (w, vector), count in states.items():
            pair = glued.get(vector)
            if pair is None:
                lifted = vector + bias
                first = second = 0
                if classical:
                    for shift, f1, _, offset in terms:
                        part = ((lifted >> shift) & mask) - half
                        if part:
                            first += part * f1 << offset
                else:
                    for shift, f1, f2, offset in terms:
                        part = ((lifted >> shift) & mask) - half
                        if part:
                            first += part * f1 << offset
                            second += part * f2 << offset
                pair = glued[vector] = (first, second)
            for dw, which in options:
                key = (w + dw, pair[which])
                new_states[key] = new_states.get(key, 0) + count
        states = new_states
    # One block is left, the bracket times A^n over u^lo.  Its lowest
    # nonzero digit holds the lowest set bit, and, as no coefficient reaches
    # the top bit of its digit (`digit_bits`), its highest is digit
    # bit_length // bits.  Each digit is one shift and mask of the vector
    # plus half in every digit; distinct vectors are distinct brackets.
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    bias = half * ((1 << digits * bits) - 1) // mask
    histogram: Counter[tuple[int, BracketKey]] = Counter()
    for (w, vector), count in states.items():
        low = ((vector & -vector).bit_length() - 1) // bits
        lifted = vector + bias
        shifts = range(low * bits, (vector.bit_length() // bits + 1) * bits, bits)
        coeffs = tuple([(lifted >> s & mask) - half for s in shifts])
        histogram[w, (2 * (lo + low) - n, coeffs)] = count
    return histogram


def _resolved_entry(d: ResolvedPD) -> tuple[int, BracketKey]:
    """The (writhe, bracket key) of a resolved diagram: its histogram's one entry."""
    if not d.is_resolved():
        raise ValueError("kauffman_bracket needs a resolved diagram")
    (entry,) = resolution_histogram(d)
    return entry


def kauffman_bracket(d: ResolvedPD) -> LaurentPolynomial:
    """Bracket polynomial in A, with <unknot> = 1."""
    _, (low, coeffs) = _resolved_entry(d)
    return LaurentPolynomial(zip(range(low, low + 2 * len(coeffs), 2), coeffs))


def bracket_to_jones(key: BracketKey, w: int) -> PolyKey:
    """The Jones polynomial, as its `LaurentPolynomial.key`, of the bracket
    with this key in a diagram of writhe w: the normalization (-A^3)^(-w),
    then A = t^(-1/4).  Coefficient i goes to t^((3w - low - 2i) / 4), so
    low - 3w must divide by 4 and the odd offsets must be zero.
    """
    low, coeffs = key
    shift = low - 3 * w
    if shift % 4 or any(coeffs[1::2]):
        e = next(e for e in (shift + 2 * i for i, c in enumerate(coeffs) if c) if e % 4)
        raise ValueError(f"non-integer t-exponent (A-exponent {e}); knot input expected")
    # a list, not a generator: tuple(genexpr) here let peak RSS creep up
    jones_coeffs = tuple([-c for c in coeffs[::-2]]) if w % 2 else coeffs[::-2]
    return -(shift + 2 * (len(coeffs) - 1)) // 4, jones_coeffs


def jones(d: ResolvedPD) -> LaurentPolynomial:
    """Jones polynomial in t of a resolved (knot) diagram."""
    w, key = _resolved_entry(d)
    return LaurentPolynomial.from_key(bracket_to_jones(key, w))


# ---------------------------------------------------------------------------
# Knot names and the lookup table
# ---------------------------------------------------------------------------


_KNOT_NAME = re.compile(r"([+-]?)([0-9]+)_([0-9]+)")
_CROSSING_NUMBER = re.compile(r"[0-9]+")


@dataclass(frozen=True, order=True)
class KnotName:
    """A Rolfsen-style name with chirality: sign is 0 for amphichiral/unknot."""

    crossing_number: int
    index: int
    sign: int  # +1, -1, or 0 when the name is unsigned

    def __str__(self) -> str:
        base = f"{self.crossing_number}_{self.index}"
        return f"-{base}" if self.sign < 0 else base

    @classmethod
    def parse(cls, text: str) -> "KnotName":
        """Read `[+-]?[0-9]+_[0-9]+`, ASCII digits only; anything else raises."""
        match = _KNOT_NAME.fullmatch(text)
        if match is None:
            raise ValueError(f"malformed knot name {text!r}")
        sign, cn, idx = match.groups()
        return cls(int(cn), int(idx), {"-": -1, "+": 1}.get(sign, 0))

    def mirror(self) -> "KnotName":
        return KnotName(self.crossing_number, self.index, -self.sign)


@dataclass(frozen=True)
class Unknown:
    """Classification miss: carries the computed Jones polynomial."""

    jones: LaurentPolynomial

    def __str__(self) -> str:
        return f"unknown[{self.jones.pretty()}]"


@dataclass(frozen=True)
class TableEntry:
    name: KnotName
    crossing_number: int
    amphichiral: bool
    jones: LaurentPolynomial


class KnotTableError(ValueError):
    pass


class KnotTable:
    """Jones-polynomial lookup table; mirrors are distinct entries."""

    def __init__(self, entries: Iterable[TableEntry]):
        self.entries = tuple(entries)
        # the one index: `LaurentPolynomial.key` of each entry's Jones
        self._by_key: dict[PolyKey, KnotName] = {}
        for e in self.entries:
            key = e.jones.key()
            if key in self._by_key:
                raise KnotTableError(f"duplicate Jones polynomial for {e.name}")
            self._by_key[key] = e.name
        self._validate()

    def _validate(self) -> None:
        by_name = {str(e.name): e for e in self.entries}
        for e in self.entries:
            if e.amphichiral or e.name.sign == 0:
                if not e.amphichiral and e.crossing_number != 0:
                    raise KnotTableError(f"{e.name}: unsigned chiral entry")
                if e.jones != e.jones.invert_variable():
                    raise KnotTableError(f"{e.name}: amphichiral entry with asymmetric Jones")
            else:
                partner = by_name.get(str(e.name.mirror()))
                if partner is None:
                    raise KnotTableError(f"{e.name}: mirror entry missing")
                if partner.jones != e.jones.invert_variable():
                    raise KnotTableError(f"{e.name}: mirror Jones mismatch")

    def lookup(self, poly: LaurentPolynomial) -> "KnotName | None":
        return self._by_key.get(poly.key())

    def lookup_key(self, key: PolyKey) -> "KnotName | None":
        """`lookup` of the polynomial whose `LaurentPolynomial.key` is `key`."""
        return self._by_key.get(key)

    # -- line-oriented file format ------------------------------------------
    # name crossing_number amphichiral exponent:coeff,exponent:coeff,...

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(
                f"{e.name} {e.crossing_number} "
                f"{'1' if e.amphichiral else '0'} {e.jones.to_pairs_string()}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "KnotTable":
        entries = []
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 4:
                raise KnotTableError(f"line {ln}: expected 4 fields, got {len(fields)}")
            name_s, cn_s, amph_s, poly_s = fields
            if amph_s not in ("0", "1"):
                raise KnotTableError(f"line {ln}: amphichiral flag must be 0 or 1, got {amph_s!r}")
            if not _CROSSING_NUMBER.fullmatch(cn_s):
                raise KnotTableError(f"line {ln}: invalid literal for a crossing number: {cn_s!r}")
            try:
                name = KnotName.parse(name_s)
                poly = LaurentPolynomial.from_pairs_string(poly_s)
            except ValueError as exc:
                raise KnotTableError(f"line {ln}: {exc}") from exc
            amph = amph_s == "1"
            if not amph and name.sign == 0:
                # chiral entries display the base chirality without a prefix
                name = KnotName(name.crossing_number, name.index, 1)
            entries.append(
                TableEntry(
                    name=name,
                    crossing_number=int(cn_s),
                    amphichiral=amph,
                    jones=poly,
                )
            )
        return cls(entries)


def classify(d: ResolvedPD, table: KnotTable) -> "KnotName | Unknown":
    """Name the knot type of `d` by exact Jones lookup; Unknown on a miss."""
    w, key = _resolved_entry(d)
    return classify_jones(bracket_to_jones(key, w), table)


def classify_jones(key: PolyKey, table: KnotTable) -> "KnotName | Unknown":
    """Name the Jones polynomial with this `LaurentPolynomial.key`; on a
    miss, Unknown carrying the polynomial, the only one built here."""
    name = table.lookup_key(key)
    return name if name is not None else Unknown(LaurentPolynomial.from_key(key))


def build_table(source: list[tuple[str, ResolvedPD]]) -> KnotTable:
    """Build the lookup table from named reference diagrams.

    Chiral knots contribute two entries: the diagram's Jones under the base
    name and the inverted-variable Jones under the mirror name.  Entries
    whose Jones is symmetric under t -> 1/t are amphichiral and unsigned.
    """
    if not source:
        raise KnotTableError("empty source diagram list")
    entries: list[TableEntry] = []
    for name_s, diagram in source:
        name = KnotName.parse(name_s)
        v = jones(diagram)
        amph = v == v.invert_variable()
        if amph:
            entries.append(TableEntry(name, name.crossing_number, True, v))
        else:
            base = KnotName(name.crossing_number, name.index, 1)
            entries.append(TableEntry(base, name.crossing_number, False, v))
            entries.append(
                TableEntry(base.mirror(), name.crossing_number, False, v.invert_variable())
            )
    return KnotTable(entries)
