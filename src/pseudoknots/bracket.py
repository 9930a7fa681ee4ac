"""Kauffman bracket, Jones polynomial, and knot classification.

The bracket is the 2^n state sum: each vertex is smoothed two ways, the
loops of all 2^n crossingless smoothings are counted in one vectorised pass
(`loop_table`: cycles of a permutation of the darts, found by pointer
doubling), and each state contributes A^(#A - #B) * (-A^2 - A^-2)^(loops - 1).

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
the coefficient rows store only every second exponent.

The Jones polynomial is the writhe-normalized bracket under A = t^(-1/4);
for knots all t-exponents are integers and we raise if not (that would
indicate a bug upstream).

Classification is exact lookup of the Jones polynomial in a table covering
the prime knots through 7 crossings and their mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .diagram import PseudoPD, ResolvedPD, writhe
from .laurent import LaurentPolynomial

# Smoothings of a crossing stored with slot 0 = incoming under-strand:
# the A-smoothing pairs slots (0,1),(2,3); the B-smoothing (1,2),(3,0).
A_PAIRS = ((0, 1), (2, 3))
B_PAIRS = ((1, 2), (3, 0))

# Refuse diagrams whose state-sum arrays would need more than this (n <= 19).
MAX_STATE_SUM_BYTES = 1 << 30

# Masks per block of `loop_table`: a block holds a few (masks, 4n) int32
# arrays, about 1.2 MB each at n = 19, far inside MAX_STATE_SUM_BYTES.
LOOP_TABLE_BLOCK = 1 << 12


class DiagramTooLargeError(ValueError):
    """The diagram has too many vertices for the 2^n state sum."""


def loop_table(d: PseudoPD) -> np.ndarray:
    """Loop count of every smoothing, as a length-2^n int64 array.

    Entry s counts the loops when vertex i takes B_PAIRS if bit i of s is
    set and A_PAIRS otherwise.  Works for precrossings too: the two
    smoothings of a 4-valent vertex do not depend on its crossing
    information.  The crossingless diagram is one loop.

    The 4n darts (vertex, slot) are numbered 4 * vertex + slot.  sigma swaps
    the two darts of each edge and tau pairs the slots a smoothing joins, so
    phi = sigma o tau steps from a dart across its smoothing arc and along
    the next edge: every loop is two cycles of phi, one per direction.  The
    cycles of a block of masks are counted at once by pointer doubling;
    afterwards each dart holds the least dart of its cycle, and a cycle is
    counted at that dart.
    """
    n = d.n
    if n == 0:
        return np.ones(1, dtype=np.int64)
    darts = 4 * n
    # Parsing guarantees every edge label occurs exactly twice.
    labels = np.array([v.edges for v in d.vertices]).ravel()
    order = np.argsort(labels).astype(np.int32)
    sigma = np.empty(darts, dtype=np.int32)
    sigma[order[0::2]], sigma[order[1::2]] = order[1::2], order[0::2]
    dart = np.arange(darts, dtype=np.int32)

    def phi(pairs):
        tau = np.empty(4, dtype=np.int32)
        for s1, s2 in pairs:
            tau[s1], tau[s2] = s2, s1
        return sigma[(dart & ~3) + tau[dart & 3]]

    phi_a, phi_b = phi(A_PAIRS), phi(B_PAIRS)
    # A cycle holds at most half the darts, so 2^rounds >= 2n steps cover it.
    rounds = (2 * n - 1).bit_length()
    vertex = dart >> 2
    block = min(LOOP_TABLE_BLOCK, 1 << n)
    first = np.arange(block * darts, dtype=np.int32)
    row_start = first[::darts, None]
    out = np.empty(1 << n, dtype=np.int64)
    for start in range(0, 1 << n, block):
        masks = np.arange(start, start + block, dtype=np.int32)[:, None]
        p = np.where((masks >> vertex) & 1, phi_b, phi_a)
        p += row_start
        p = p.ravel()
        least = first.copy()
        for r in range(rounds):
            np.minimum(least, least[p], out=least)
            if r + 1 < rounds:
                p = p[p]
        cycles = (least == first).reshape(block, darts).sum(axis=1)
        out[start : start + block] = cycles // 2
    return out


def check_state_sum_size(n: int) -> None:
    """Raise DiagramTooLargeError unless n vertices fit MAX_STATE_SUM_BYTES.

    The estimate is three (2^n, 3n+1) int64 arrays: the two a `state_sums`
    pass holds, and the row keys a caller groups resolutions by.
    """
    need = 3 * (1 << n) * (3 * n + 1) * 8
    if need > MAX_STATE_SUM_BYTES:
        raise DiagramTooLargeError(
            f"{n} crossings need about {need / (1 << 30):.1f} GiB for the "
            f"2^{n}-state bracket sum (limit {MAX_STATE_SUM_BYTES >> 30} GiB, "
            f"at most 19 crossings)"
        )


def state_sums(loops: np.ndarray, keep: list[bool]) -> np.ndarray:
    """Bracket coefficient rows of every flip-mask over the `keep` vertices.

    `loops` is `loop_table(d)` of an n-vertex diagram d, and `keep[i]` says
    whether vertex i is a precrossing.  Row m of the result is the
    bracket of the diagram in which the j-th kept vertex takes the B_PAIRS
    pairing as its A-smoothing exactly when bit j of m is set; the other
    vertices keep A_PAIRS.  Column c holds the coefficient of A^(2c - 3n),
    so a row has 3n + 1 columns.

    int64 is exact: a coefficient is at most sum_s 2^(L(s)-1) <= 4^n in
    absolute value at every pass, which fits for n <= 31, and
    `check_state_sum_size` keeps n far below that.
    """
    n = len(keep)
    width = 3 * n + 1
    # delta^j = (-1)^j (A^2 + A^-2)^j.  Before any pass, column c holds the
    # coefficient of A^(2c - 2n); after p passes, of A^(2c - 2n - p).
    # Multiplying by A moves a coefficient one column right, A^-1 keeps it.
    max_power = int(loops.max()) - 1
    delta = np.zeros((max_power + 1, width), dtype=np.int64)
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


def kauffman_bracket(d: ResolvedPD) -> LaurentPolynomial:
    """Bracket polynomial in A, with <unknot> = 1."""
    if not d.is_resolved():
        raise ValueError("kauffman_bracket needs a resolved diagram")
    n = d.n
    check_state_sum_size(n)
    return row_polynomial(state_sums(loop_table(d), [False] * n)[0], n)


def bracket_to_jones(bracket: LaurentPolynomial, w: int) -> LaurentPolynomial:
    """Apply the writhe normalization (-A^3)^(-w) and substitute A = t^(-1/4)."""
    sign = -1 if w % 2 else 1
    normalized = bracket.scale(sign, -3 * w)
    for e, _ in normalized.items():
        if e % 4:
            raise ValueError(f"non-integer t-exponent (A-exponent {e}); knot input expected")
    return normalized.map_exponents(lambda e: -e // 4)


def jones(d: ResolvedPD) -> LaurentPolynomial:
    """Jones polynomial in t of a resolved (knot) diagram."""
    return bracket_to_jones(kauffman_bracket(d), writhe(d))


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

    def __init__(self, entries: list[TableEntry]):
        self.entries = list(entries)
        self._by_jones: dict[LaurentPolynomial, TableEntry] = {}
        for e in self.entries:
            if e.jones in self._by_jones:
                raise KnotTableError(f"duplicate Jones polynomial for {e.name}")
            self._by_jones[e.jones] = e
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
        entry = self._by_jones.get(poly)
        return entry.name if entry else None

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
            try:
                name_s, cn_s, amph_s, poly_s = line.split()
            except ValueError as exc:
                raise KnotTableError(f"line {ln}: expected 4 fields") from exc
            name = KnotName.parse(name_s)
            amph = amph_s == "1"
            if not amph and name.sign == 0:
                # chiral entries display the base chirality without a prefix
                name = KnotName(name.crossing_number, name.index, 1)
            entries.append(
                TableEntry(
                    name=name,
                    crossing_number=int(cn_s),
                    amphichiral=amph,
                    jones=LaurentPolynomial.from_pairs_string(poly_s),
                )
            )
        return cls(entries)


def classify(d: ResolvedPD, table: KnotTable) -> "KnotName | Unknown":
    """Name the knot type of `d` by exact Jones lookup; Unknown on a miss."""
    return classify_jones(jones(d), table)


def classify_jones(poly: LaurentPolynomial, table: KnotTable) -> "KnotName | Unknown":
    name = table.lookup(poly)
    return name if name is not None else Unknown(poly)


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
