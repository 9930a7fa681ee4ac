"""Kauffman bracket, Jones polynomial, and knot classification.

The bracket is the 2^n state sum: each vertex is smoothed two ways, the
loops of all 2^n crossingless smoothings are counted at once (`loop_table`),
and each state contributes A^(#A - #B) * (-A^2 - A^-2)^(loops - 1).

The loop table is read off the checkerboard graph of the faces, the identity
behind Thistlethwaite's spanning-tree expansion of the Jones polynomial
(Topology 26, 1987).  Colour the faces black and white and let H_s be the
graph on the V_B black faces with one edge per vertex whose smoothing in s
opens a channel between its two black corners.  The loops of s bound the
black faces glued along those channels, so

    L(s) = 2 k(H_s) + |H_s| - V_B

with k(H) the number of components: by Euler's formula a plane component
with V_c vertices and E_c edges has E_c - V_c + 2 faces, one loop each.
The component labels of all 2^n graphs H_s are built by doubling over the
vertices, one numpy `where` per vertex.

`state_sums` evaluates that sum for every resolution of a pseudodiagram at
once.  The loop table does not depend on crossing information, and the
bracket of the resolution with flip-mask m is

    sum_s delta^(L(s)-1) * A^(n - 2*popcount(s XOR m)),

the loop table's delta-rows multiplied by the Kronecker product of n 2x2
kernels [[A, A^-1], [A^-1, A]].  Yates' algorithm (the fast Walsh-Hadamard
butterfly) applies that product one axis at a time: a classical vertex's
axis is contracted with (A, A^-1), a precrossing's axis gets the butterfly
pair A*x0 + A^-1*x1, A^-1*x0 + A*x1.  That is n * 2^n integer adds in place
of 4^n.  Powers of delta have even A-exponents and every pass shifts each
exponent by +-1, so after p passes all exponents share the parity of p and
the coefficient rows store only every second exponent.  Every entry, at
every pass, is a signed sum over states in which each state s contributes
at most one coefficient of delta^(L(s)-1), so its absolute value is at
most B = sum_s 2^(L(s)-1).  B is computed exactly from the loop table, and
the passes run in int32 when B < 2^31 and in int64 otherwise
(`state_sum_dtype`).

The Jones polynomial is the writhe-normalized bracket under A = t^(-1/4);
for knots all t-exponents are integers and we raise if not (that would
indicate a bug upstream).  `bracket_to_jones` reads it off a state-sum row
as an integer key, (lowest t-exponent, dense coefficient tuple), the form
of `LaurentPolynomial.key`.

Classification is exact lookup of that key in a table covering the prime
knots through 7 crossings and their mirrors; a `LaurentPolynomial` is built
only for a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

import numpy as np

from .diagram import PseudoPD, ResolvedPD, writhe
from .laurent import LaurentPolynomial, PolyKey

# Smoothings of a crossing stored with slot 0 = incoming under-strand:
# the A-smoothing pairs slots (0,1),(2,3); the B-smoothing (1,2),(3,0).
A_PAIRS = ((0, 1), (2, 3))
B_PAIRS = ((1, 2), (3, 0))

# Refuse diagrams whose state-sum arrays would need more than this (n <= 19).
MAX_STATE_SUM_BYTES = 1 << 30


class DiagramTooLargeError(ValueError):
    """The diagram has too many vertices for the 2^n state sum."""


def loop_table(d: PseudoPD) -> np.ndarray:
    """Loop count of every smoothing, as a length-2^n int64 array.

    Entry s counts the loops when vertex i takes B_PAIRS if bit i of s is
    set and A_PAIRS otherwise.  Works for precrossings too: the two
    smoothings of a 4-valent vertex do not depend on its crossing
    information.  The crossingless diagram is one loop.

    The faces of the planar map are 2-coloured, and the class with fewer
    faces, which keeps the label rows short, is black: V_B faces in all.  At each vertex the two black corners
    are opposite, and one smoothing opens a channel between them: that
    choice adds an edge e_i joining the two black faces (a self-loop when
    they are one face) to a spanning subgraph H_s of the black faces; the
    other choice adds nothing.  The loops of s are the boundary circles of
    the black faces glued along the channels, a thickened plane graph, so

        L(s) = 2 k(H_s) + |H_s| - V_B,

    k counting components: each component with V_c vertices and E_c edges
    has E_c - V_c + 2 faces by Euler's formula, and each face of it is
    bounded by one circle.  Adding an edge to H therefore adds a loop when
    its ends are already connected and removes one when it joins two
    components.  The table doubles over the vertices: after vertex i it
    holds the component labels of the black faces, one (V_B,) row per mask
    of vertices 0..i, and the mask with bit i opening e_i merges the labels
    of its two ends.
    """
    n = d.n
    if n == 0:
        return np.ones(1, dtype=np.int64)
    # Edges are labelled 1..2n along the strand and slot 0 is an entry slot,
    # so the corner at dart (v, k) has colour (edges[0] + k) mod 2: adjacent
    # corners differ, and the entry corner's colour alternates edge by edge.
    faces = d.faces
    colour = [(d.vertices[vi].edges[0] + k) % 2 for vi, k in (f[0] for f in faces)]
    black = int(2 * sum(colour) < len(faces))
    black_faces = [f for f, c in zip(faces, colour) if c == black]
    face_of = {dart: j for j, f in enumerate(black_faces) for dart in f}
    v_b = len(black_faces)
    # With no edges H has V_B components and L = V_B.  L <= V_B + n and
    # V_B <= n/2 + 1, inside int8 for any n whose table fits in memory.
    labels = np.arange(v_b, dtype=np.int8)[None, :]
    loops = np.full(1, v_b, dtype=np.int8)
    for vi, v in enumerate(d.vertices):
        # The black corners are darts (vi, c) and (vi, c + 2).  Dart (v, k)
        # is the corner between slots k - 1 and k, so B_PAIRS opens the
        # channel between darts 1 and 3 and A_PAIRS between darts 0 and 2.
        c = (v.edges[0] + black) % 2
        la, lb = labels[:, face_of[vi, c]], labels[:, face_of[vi, c + 2]]
        opened = np.where(la == lb, loops + 1, loops - 1)
        if vi + 1 < n:
            merged = np.where(labels == la[:, None], lb[:, None], labels)
            labels = np.concatenate((labels, merged) if c else (merged, labels))
        loops = np.concatenate((loops, opened) if c else (opened, loops))
    return loops.astype(np.int64)


def check_state_sum_size(n: int) -> None:
    """Raise DiagramTooLargeError unless n vertices fit MAX_STATE_SUM_BYTES.

    The estimate is three (2^n, 3n+1) int64 arrays: the two a `state_sums`
    pass holds, and the row keys a caller groups resolutions by.  Every
    diagram it admits runs its passes in int32 (`state_sum_dtype`), so the
    estimate is conservative by 2x; the limit stays where it is.
    """
    need = 3 * (1 << n) * (3 * n + 1) * 8
    if need > MAX_STATE_SUM_BYTES:
        raise DiagramTooLargeError(
            f"{n} crossings need about {need / (1 << 30):.1f} GiB for the "
            f"2^{n}-state bracket sum (limit {MAX_STATE_SUM_BYTES >> 30} GiB, "
            f"at most 19 crossings)"
        )


def state_sum_dtype(loops: np.ndarray) -> type:
    """int32 when every `state_sums` entry of this loop table fits it, else int64.

    Each entry, at every pass, is a signed sum over states s in which s
    contributes at most one coefficient of delta^(L(s)-1), and those
    coefficients are binomials of absolute value at most 2^(L(s)-1).  So
    every entry is bounded by B = sum_s 2^(L(s)-1), computed exactly here
    from the count of states per loop number.
    """
    counts = np.bincount(loops).tolist()  # counts[L] = states with L loops
    bound = sum(count << (n_loops - 1) for n_loops, count in enumerate(counts) if count)
    return np.int32 if bound < 1 << 31 else np.int64


def state_sums(loops: np.ndarray, keep: list[bool]) -> np.ndarray:
    """Bracket coefficient rows of every flip-mask over the `keep` vertices.

    `loops` is `loop_table(d)` of an n-vertex diagram d, and `keep[i]` says
    whether vertex i is a precrossing.  Row m of the result is the
    bracket of the diagram in which the j-th kept vertex takes the B_PAIRS
    pairing as its A-smoothing exactly when bit j of m is set; the other
    vertices keep A_PAIRS.  Column c holds the coefficient of A^(2c - 3n),
    so a row has 3n + 1 columns.

    No entry at any pass exceeds B = sum_s 2^(L(s)-1) in absolute value, so
    the rows are int32 when B < 2^31 and int64 otherwise (`state_sum_dtype`).
    B is 25,467 for `family(4,4)` (n = 11) and about 1.6e8 for `family(8,8)`
    (n = 19), so every diagram `check_state_sum_size` admits runs in int32.
    """
    n = len(keep)
    width = 3 * n + 1
    # delta^j = (-1)^j (A^2 + A^-2)^j.  Before any pass, column c holds the
    # coefficient of A^(2c - 2n); after p passes, of A^(2c - 2n - p).
    # Multiplying by A moves a coefficient one column right, A^-1 keeps it.
    max_power = int(loops.max()) - 1
    delta = np.zeros((max_power + 1, width), dtype=state_sum_dtype(loops))
    for j in range(max_power + 1):
        for i in range(j + 1):
            delta[j, n + j - 2 * i] = (-1) ** j * comb(j, i)
    x = delta[loops - 1]
    # Axes from the highest down, so contracting one leaves lower bits alone.
    for axis in reversed(range(n)):
        blocks = x.reshape(-1, 2, 1 << axis, width)
        x0, x1 = blocks[:, 0], blocks[:, 1]
        if keep[axis]:
            out = np.empty_like(blocks)
            out[:, 1] = x0
            out[:, 1, :, 1:] += x1[:, :, :-1]
            out[:, 0] = x1
            out[:, 0, :, 1:] += x0[:, :, :-1]
        else:
            out = x1.copy()
            out[:, :, 1:] += x0[:, :, :-1]
        x = out.reshape(-1, width)
    return x


def row_polynomial(row: np.ndarray, n: int) -> LaurentPolynomial:
    """The bracket held in one `state_sums` row of an n-vertex diagram."""
    return LaurentPolynomial((2 * int(c) - 3 * n, int(row[c])) for c in np.flatnonzero(row))


def _bracket_row(d: ResolvedPD) -> np.ndarray:
    """The `state_sums` row holding the bracket of a resolved diagram."""
    if not d.is_resolved():
        raise ValueError("kauffman_bracket needs a resolved diagram")
    n = d.n
    check_state_sum_size(n)
    return state_sums(loop_table(d), [False] * n)[0]


def kauffman_bracket(d: ResolvedPD) -> LaurentPolynomial:
    """Bracket polynomial in A, with <unknot> = 1."""
    return row_polynomial(_bracket_row(d), d.n)


def bracket_to_jones(row: np.ndarray, n: int, w: int) -> PolyKey:
    """The Jones polynomial of the bracket held in one `state_sums` row of
    an n-vertex diagram with writhe w, as its `LaurentPolynomial.key`: the
    writhe normalization (-A^3)^(-w), a column shift and a sign, then
    A = t^(-1/4).

    Column c becomes the t-exponent (3(n + w) - 2c) / 4, so the nonzero
    columns must lie on one residue class mod 2 whose exponents divide by
    4, and the key's coefficients are every second column, read from the
    highest nonzero one down.  The row is read as a Python list: for the
    few dozen columns of a row that is cheaper than numpy calls.
    """
    values = row.tolist()
    nonzero = [c for c, v in enumerate(values) if v]
    if not nonzero:
        return 0, ()
    first, last = nonzero[0], nonzero[-1]
    shift = 3 * (n + w)
    span = values[first:last + 1]
    if (2 * first - shift) % 4 or any(span[1::2]):
        e = next(e for e in (2 * c - shift for c in nonzero) if e % 4)
        raise ValueError(f"non-integer t-exponent (A-exponent {e}); knot input expected")
    coeffs = span[::-2]
    if w % 2:
        coeffs = [-c for c in coeffs]
    return (shift - 2 * last) // 4, tuple(coeffs)


def jones(d: ResolvedPD) -> LaurentPolynomial:
    """Jones polynomial in t of a resolved (knot) diagram."""
    return LaurentPolynomial.from_key(bracket_to_jones(_bracket_row(d), d.n, writhe(d)))


# ---------------------------------------------------------------------------
# Knot names and the lookup table
# ---------------------------------------------------------------------------


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
        t = text.strip()
        sign = 0
        if t.startswith("-"):
            sign = -1
            t = t[1:]
        elif t.startswith("+"):
            sign = 1
            t = t[1:]
        cn, _, idx = t.partition("_")
        if not _:
            raise ValueError(f"malformed knot name {text!r}")
        name = cls(int(cn), int(idx), sign)
        return name

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
            try:
                name = KnotName.parse(name_s)
                crossing_number = int(cn_s)
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
                    crossing_number=crossing_number,
                    amphichiral=amph,
                    jones=poly,
                )
            )
        return cls(entries)


def classify(d: ResolvedPD, table: KnotTable) -> "KnotName | Unknown":
    """Name the knot type of `d` by exact Jones lookup; Unknown on a miss."""
    return classify_jones(jones(d).key(), table)


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
