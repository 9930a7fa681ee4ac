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
A vector is a tuple with one block per matching of the open edges: a
Python int packing the matching's polynomial in u as signed digits
(Kronecker substitution, in digits of the proven width `digit_bits`).
Resolutions with equal partial brackets share one vector, so the 2^k
resolutions collapse to a few hundred groups.  A step (`_step`, built from
`_glue`) depends on the matchings and the vertex's slots, not on the
diagram, and both are cached for every call in the process.  It gives one
kernel, a function compiled per pattern of which input block feeds which
output block (`_kernel`) with the step's factors bound as arguments, and
a step is one call of it: one compiled pass over the partial states that
reads each state's blocks once and keys its glued vectors, a precrossing's
two options, with writhe +1 and -1 and the A pairing swapped, or a
classical vertex's one.

Flipping every choice of a shadow mirrors the resolution, which negates
its writhe and takes its bracket from A to A^-1.  So a shadow keeps only
the states whose writhe the vertices left can still lift to 0 (a state at
that floor builds only its +1 vector), and its final groups all have
writhe w >= 0; a diagram with a classical crossing keeps every state.
The final groups are decoded from their blocks (`_decoded`): each one's
coefficients are read from its block shifted down to the digit of its
lowest set bit, plus half in every digit, with one mask and one running
shift per digit, up to the digit of its highest set bit.  The decode is a
function of the block and the digit width alone, and, like the Jones
normalisation of a group (`bracket_to_jones`), it is cached for every
call in the process: flype partners, and the shadows of one census, share
most of their final blocks.

The engine reads a diagram only through its crossing records
(`PseudoPD.crossings`), whose edges start at the under-strand's entry (of
the +1 resolution, for a precrossing): A_PAIRS is the first option's A pairing.

`resolution_groups` is the one seam between this engine and its readers:
the decoded final groups, (writhe, bracket key) -> count of resolutions,
in Python ints.  `kauffman_bracket`, `jones` and `classify` read a
resolved diagram's one group.  `wereset` reads a diagram's groups and
adds the mirror of each w > 0 group of a shadow itself, once, as a Jones
class; no bracket entry of a mirror is built.

The Jones polynomial is the writhe-normalized bracket under A = t^(-1/4),
read off a bracket key (`bracket_to_jones`) as a `LaurentPolynomial.key`;
a non-integer t-exponent, which a knot cannot have, raises.  Classification
is exact lookup of that key in a `KnotTable`, which reads a table's text
form, checks its names and mirror pairs, and indexes it by Jones key; a
`LaurentPolynomial` is built only for a miss.  The entries and their
chirality come from `tables`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .diagram import PDError, PseudoPD, ResolvedPD
from .laurent import LaurentPolynomial, PolyKey

# (lowest A-exponent, coefficients of A^low, A^(low+2), ..., A^high): every
# bracket's exponents share one parity, and a knot's bracket is never 0.
BracketKey = tuple[int, tuple[int, ...]]

# Smoothings of a crossing record, whose slot 0 is the incoming under-strand:
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
    contraction step of `resolution_groups`, in order.

    Greedy: next is the first vertex, by index, with the most edges on the
    open boundary.  Slot k of a step's signature is the boundary position
    of edge k of the vertex's crossing record, NEW_EDGE when the edge opens
    (it joins the boundary's end, in slot order, after the open edges that
    stay), or KINK - j when the edge runs back to slot j of the same vertex.
    """
    crossings = d.crossings
    # the two end vertices of each edge label, summed: the other end of e at
    # vertex vi is ends[e] - vi, and e is a kink when that is vi again
    ends = [0] * (2 * d.n + 1)
    for vi, (edges, _) in enumerate(crossings):
        for e in edges:
            ends[e] += vi
    # a taken vertex scores -1, below any vertex left, so the first index
    # of the highest score is the next vertex
    score = [0] * d.n
    boundary: list[int] = []
    plan: list[tuple[int, tuple[int, ...], int]] = []
    for _ in crossings:
        vi = score.index(max(score))
        score[vi] = -1
        edges = crossings[vi][0]
        signature = []
        closed = []
        opened = []
        for k, e in enumerate(edges):
            if e in boundary:
                signature.append(boundary.index(e))
                closed.append(e)
            elif ends[e] == 2 * vi:  # a kink, back to slot j
                j = edges.index(e)
                signature.append(KINK - (j if j != k else edges.index(e, k + 1)))
            else:
                signature.append(NEW_EDGE)
                opened.append(e)
                score[ends[e] - vi] += 1
        # the boundary changes only where edges close or open
        for e in closed:
            boundary.remove(e)
        boundary += opened
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
    digit bit_length // b, where `resolution_groups` stops reading."""
    return 2 * n + 3


@lru_cache(maxsize=1 << 12)
def _kernel(width: int, terms: tuple[tuple[int, int], ...], both: bool):
    """The step kernel of one term pattern, compiled once.

    Term k adds input block i, times its factor, to output block j, where
    (i, j) = terms[k].  Returns `bind`: `bind(*first, *second)` takes the
    factor of each term in the first glued vector and, if `both`, in the
    second, and returns the kernel `run(states, dw, floor)`, one pass over
    a step's partial states.  It reads each state's blocks once, keys its
    first glued vector at writhe w + dw and, if `both` and w > floor, builds
    its second at writhe w - 1, and returns the new states.  The factors
    are bound as arguments and the source depends on nothing but the
    pattern, so a new n or digit width compiles nothing.
    """
    factors = [[f"{name}{k}" for k in range(len(terms))] for name in ("f", "s")[:1 + both]]
    vectors = []
    for names in factors:
        sums: list[list[str]] = [[] for _ in range(width)]
        for (i, j), f in zip(terms, names):
            sums[j].append(f"v{i} * {f}")
        vectors.append("(" + "".join(" + ".join(s) + ", " for s in sums) + ")")
    blocks = "".join(f"v{i}, " for i in range(1 + max(i for i, _ in terms)))
    second = (f"            if w > floor:\n"
              f"                key = (w - 1, {vectors[1]})\n"
              f"                new[key] = get(key, 0) + count\n") if both else ""
    source = (f"def bind({', '.join(sum(factors, []))}):\n"
              f"    def run(states, dw, floor):\n"
              f"        new = {{}}\n"
              f"        get = new.get\n"
              f"        for (w, ({blocks})), count in states.items():\n"
              f"            key = (w + dw, {vectors[0]})\n"
              f"            new[key] = get(key, 0) + count\n"
              f"{second}"
              f"        return new\n"
              f"    return run\n")
    namespace: dict = {}
    exec(source, namespace)
    return namespace["bind"]


@lru_cache(maxsize=1 << 12)
def _step(matchings: tuple[tuple[int, ...], ...], signature: tuple[int, ...], last: bool,
          bits: int, both: bool):
    """One contraction step.

    A vector holds one block per matching: an int packing the matching's
    polynomial over u^lo (lo is the caller's) as signed `bits`-bit digits.
    Returns the new matchings, how far lo drops, and the kernel (`_kernel`)
    that runs the step over all partial states in one pass: the first
    glued vector takes A_PAIRS as its A pairing, and the second, built
    only if `both` and only for a state above the floor, takes B_PAIRS.
    """
    index: dict[tuple[int, ...], int] = {}
    moves = [[(index.setdefault(new, len(index)), loops - last)
              for new, loops in (_glue(m, signature, pairs) for m in matchings)]
             for pairs in (A_PAIRS, B_PAIRS)]
    # l loops multiply by delta^l = u^-l (u delta)^l, the A role by u
    u_delta = -1 - (1 << 2 * bits)
    drop = max(loops for row in moves for _, loops in row)
    terms = []
    for i, ((ja, la), (jb, lb)) in enumerate(zip(*moves)):
        # the A_PAIRS part is the first vector's A role, the B_PAIRS part
        # the second's: (input block, output block, factor in the first
        # vector, factor in the second)
        fa = u_delta**la << (drop - la) * bits
        fb = u_delta**lb << (drop - lb) * bits
        if ja == jb:  # one product
            terms.append((i, ja, (fa << bits) + fb, fa + (fb << bits)))
        else:
            terms += [(i, ja, fa << bits, fa), (i, jb, fb, fb << bits)]
    bind = _kernel(len(index), tuple((i, j) for i, j, _, _ in terms), both)
    first = [f1 for _, _, f1, _ in terms]
    second = [f2 for _, _, _, f2 in terms] if both else []
    return tuple(index), drop, bind(*first, *second)


def resolution_groups(d: PseudoPD) -> dict[tuple[int, BracketKey], int]:
    """The decoded final groups of the contraction: (writhe, bracket key)
    -> count of the resolutions of `d` with that writhe and bracket.

    Of a shadow it gives only the groups of writhe w >= 0.  Each w > 0
    group also stands for its mirror, of writhe -w at the same count, whose
    bracket is this one with A taken to A^-1; the reader adds the mirrors.
    Of any other diagram it gives every group.

    Raises DiagramTooLargeError, before any polynomial is built, when the
    contraction plan's boundary is wider than MAX_BOUNDARY_WIDTH.
    """
    n = d.n
    plan = contraction_plan(d)
    widest = max((width for _, _, width in plan), default=0)
    if widest > MAX_BOUNDARY_WIDTH:
        raise DiagramTooLargeError(f"{n} crossings: the contraction's boundary reaches "
                                   f"{widest} open edges (limit {MAX_BOUNDARY_WIDTH})")
    bits = digit_bits(n)
    # Flipping every choice of a shadow mirrors its resolution, so its
    # writhe -w groups are the mirrors of its writhe w groups: keep only the
    # states whose writhe the vertices left can still lift to 0.
    shadow = d.is_shadow()
    crossings = d.crossings
    matchings: tuple[tuple[int, ...], ...] = ((),)
    lo = 0
    states: dict[tuple[int, tuple[int, ...]], int] = {(0, (1,)): 1}
    for step, (vi, signature, _) in enumerate(plan):
        # a precrossing's +1 reads the first glued vector, which takes
        # A_PAIRS as its A pairing, and its -1 the second, built from a
        # state of writhe w only when w > floor; a classical vertex has one
        # option and builds only the first vector
        sign = crossings[vi][1]
        matchings, drop, kernel = _step(matchings, signature, step == n - 1, bits, sign is None)
        lo -= drop
        if sign is None:
            dw, floor = 1, (step + 1 - n if shadow else -n)
        else:
            dw, floor = sign, n
        states = kernel(states, dw, floor)
    # One block is left, the bracket times A^n over u^lo; distinct blocks
    # are distinct brackets.
    groups: dict[tuple[int, BracketKey], int] = {}
    for (w, (vector,)), count in states.items():
        low, digits = _decoded(vector, bits)
        groups[w, (2 * (lo + low) - n, digits)] = count
    return groups


@lru_cache(maxsize=1 << 12)
def _decoded(block: int, bits: int) -> tuple[int, tuple[int, ...]]:
    """The digit of a final block's lowest set bit, and its signed
    `bits`-bit digits from there up.

    As no coefficient reaches the top bit of its digit (`digit_bits`), the
    highest nonzero digit is digit bit_length // bits.  The block is shifted
    down to its lowest digit, then, plus half in each digit up to its
    highest, read one mask and one shift a digit.

    Final blocks recur across the were-sets of one process (flype partners
    share every group), so the decode is cached, and so is
    `bracket_to_jones`.  At n crossings a block holds at most 2n + 1 digits
    of 2n + 3 bits, which bounds each cache entry: 4,096 entries of random
    full-width blocks held 20 MB at n = 43 and 320 MB at n = 245, block and
    digits, and `bracket_to_jones`' cache up to half as much again.  Real
    coefficients are far narrower than the bound.
    """
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    low = ((block & -block).bit_length() - 1) // bits
    size = block.bit_length() // bits + 1 - low
    lifted = (block >> low * bits) + (((1 << size * bits) - 1) // mask << bits - 1)
    digits = []
    for _ in range(size):
        digits.append((lifted & mask) - half)
        lifted >>= bits
    return low, tuple(digits)


def _resolved_entry(d: ResolvedPD, caller: str) -> tuple[int, BracketKey]:
    """The (writhe, bracket key) of a resolved diagram: its one final
    group, which has no mirror to fold in.  A diagram with a precrossing
    raises `PDError` naming `caller`."""
    if not d.is_resolved():
        raise PDError(f"{caller} needs a resolved (all-classical) diagram")
    (entry,) = resolution_groups(d)
    return entry


def kauffman_bracket(d: ResolvedPD) -> LaurentPolynomial:
    """Bracket polynomial in A, with <unknot> = 1."""
    _, (low, coeffs) = _resolved_entry(d, "kauffman_bracket")
    return LaurentPolynomial(zip(range(low, low + 2 * len(coeffs), 2), coeffs))


@lru_cache(maxsize=1 << 12)
def bracket_to_jones(key: BracketKey, w: int) -> PolyKey:
    """The Jones polynomial, as its `LaurentPolynomial.key`, of the bracket
    with this key in a diagram of writhe w: the normalization (-A^3)^(-w),
    then A = t^(-1/4).  Coefficient i goes to t^((3w - low - 2i) / 4), so
    low - 3w must divide by 4 and the odd offsets must be zero.

    Cached like `_decoded`, whose blocks' groups recur; a raise is not
    cached, so the same key raises again.
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
    w, key = _resolved_entry(d, "jones")
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
        by_name: dict[str, TableEntry] = {}
        for e in self.entries:
            if by_name.setdefault(str(e.name), e) is not e:
                raise KnotTableError(f"{e.name}: repeated name")
        for e in self.entries:
            if e.amphichiral or e.name.sign == 0:
                if not e.amphichiral and e.name.crossing_number != 0:
                    raise KnotTableError(f"{e.name}: unsigned chiral entry")
                if e.name.sign:
                    raise KnotTableError(f"{e.name}: signed amphichiral entry")
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
                f"{e.name} {e.name.crossing_number} "
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
                crossing_number = int(cn_s)  # raises past int()'s digit limit
            except ValueError as exc:
                raise KnotTableError(f"line {ln}: {exc}") from exc
            if crossing_number != name.crossing_number:
                raise KnotTableError(f"line {ln}: crossing number {cn_s} does not match {name_s}")
            amph = amph_s == "1"
            if amph and name.sign:
                raise KnotTableError(f"line {ln}: amphichiral entry {name_s} has a sign")
            if not amph and name.sign == 0:
                # chiral entries display the base chirality without a prefix
                name = KnotName(name.crossing_number, name.index, 1)
            entries.append(TableEntry(name=name, amphichiral=amph, jones=poly))
        return cls(entries)


def classify(d: ResolvedPD, table: KnotTable) -> "KnotName | Unknown":
    """Name the knot type of `d` by exact Jones lookup; Unknown on a miss."""
    w, key = _resolved_entry(d, "classify")
    return classify_jones(bracket_to_jones(key, w), table)


def classify_jones(key: PolyKey, table: KnotTable) -> "KnotName | Unknown":
    """Name the Jones polynomial with this `LaurentPolynomial.key`; on a
    miss, Unknown carrying the polynomial, the only one built here."""
    name = table.lookup_key(key)
    return name if name is not None else Unknown(LaurentPolynomial.from_key(key))
