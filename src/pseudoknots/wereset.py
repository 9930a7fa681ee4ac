"""Signed weighted resolution sets (were-sets) of pseudodiagrams.

The were-set of a pseudodiagram with k precrossings classifies all 2^k
resolutions by Jones polynomial and aggregates them with exact
probabilities count / 2^k.

The resolutions come from the bracket engine's one seam,
`bracket.resolution_groups`, which counts them by (writhe, bracket key);
how the brackets are computed (a vertex-at-a-time contraction, see
`bracket`) stays behind it.  Each (writhe, bracket) group is normalised to
an integer Jones key (`bracket.bracket_to_jones`) and the counts are
summed by key.  A shadow needs half of that.  Flipping every choice of a
shadow mirrors each resolution, so its writhe -w groups are the mirrors of
its writhe w groups, and the seam gives only those of w >= 0: each is
normalised once, and the Jones class of its mirror, V(1/t), is read off
the key of V(t) reversed, at the same count; no bracket entry of a
mirror is built.  A diagram with a classical crossing normalises every
group.  Each distinct key, a Jones class, is then looked up in the table
once (`bracket.classify_jones`), and a class the table does not name is
kept as a `LaurentPolynomial` made from its key, which costs no
conversion.
Both are called through this module's globals, where the traced
benchmark run wraps them.  The engine's decode of a final block and the
normalisation are both cached per process, so a group that an earlier
were-set held (a flype partner shares every one) costs two lookups.

A `WereSet` prints in three formats (`text`, `to_json` and
`paper_style`), each built on its own; each sorts the unknown buckets once
by their terms (`sorted_unknown`) and prints every bucket from those
terms.  `to_json` writes the text `json.dumps(..., sort_keys=True)` would
give, keys in sorted order, with no dict built or sorted.  A probability
count / 2^k is written as the reduced fraction by shifting out shared
powers of two (`probability_text`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bracket import (
    KnotName,
    KnotTable,
    Unknown,
    bracket_to_jones,
    classify_jones,
    resolution_groups,
)
from .diagram import PseudoPD
from .laurent import LaurentPolynomial, PolyKey, pairs_string, pretty_terms

# The traced benchmark run (`perfbench/tracing.py`) wraps this name, so it
# must stay resolvable; `wereset` never calls the engine through it, so its
# traced time and calls read 0.  Delete it with that entry of the tracer.
smoothing_loops = resolution_groups


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

    def sorted_unknown(self) -> list[tuple[list[tuple[int, int]], int]]:
        """(terms, count) of each unknown bucket, where terms is its Jones
        polynomial's `items()`, sorted by terms; each format prints a
        bucket from this one list."""
        return sorted([(p.items(), c) for p, c in self.unknown.items()])

    def paper_style(self) -> str:
        """Brace rendering like `{{0_1,72},{-3_1,10},...}`."""
        parts = [f"{{{name},{count}}}" for name, count in self.sorted_entries()]
        parts.extend(
            f"{{unknown[{pretty_terms(terms)}],{c}}}"
            for terms, c in self.sorted_unknown()
        )
        return "{" + ",".join(parts) + "}"

    def text(self) -> str:
        """One line of precrossings and total, then `name count probability`
        per entry and per unknown bucket."""
        k = self.precrossings
        lines = [f"precrossings {k} total {self.total}"]
        lines += [f"{name} {count} {probability_text(count, k)}"
                  for name, count in self.sorted_entries()]
        lines += [f"unknown[{pretty_terms(terms)}] {c} {probability_text(c, k)}"
                  for terms, c in self.sorted_unknown()]
        return "\n".join(lines)

    def to_json(self) -> str:
        """`json.dumps(..., sort_keys=True)` of the object with the
        precrossings, the total, and a `{count, knot, probability}` per entry
        and a `{count, jones, probability}` per unknown bucket, written in
        one pass: its keys are written in sorted order, and every string is
        ASCII from `[-0-9_:,/]`, which JSON writes unescaped."""
        k = self.precrossings
        entries = ", ".join([
            f'{{"count": {c}, "knot": "{name}", "probability": "{probability_text(c, k)}"}}'
            for name, c in self.sorted_entries()
        ])
        unknown = ", ".join([
            f'{{"count": {c}, "jones": "{pairs_string(terms)}", '
            f'"probability": "{probability_text(c, k)}"}}'
            for terms, c in self.sorted_unknown()
        ])
        return (f'{{"entries": [{entries}], "precrossings": {k}, '
                f'"total": {self.total}, "unknown": [{unknown}]}}')


def probability_text(count: int, k: int) -> str:
    """`str(Fraction(count, 2**k))` for count >= 1: shift the powers of two
    that count shares with 2^k out of both."""
    shared = (count & -count).bit_length() - 1
    if shared > k:
        shared = k
    numerator, denominator = count >> shared, 1 << (k - shared)
    return f"{numerator}/{denominator}" if denominator > 1 else str(numerator)


def wereset_equal(a: WereSet, b: WereSet) -> bool:
    """True iff the name -> probability maps agree exactly.

    Counts are compared as integers: c / 2^k equals c' / 2^k' for k >= k'
    exactly when c equals c' * 2^(k - k').
    """
    if a.precrossings < b.precrossings:
        a, b = b, a
    shift = a.precrossings - b.precrossings
    entries = {name: c << shift for name, c in b.entries.items()}
    unknown = {poly: c << shift for poly, c in b.unknown.items()}
    return a.entries == entries and a.unknown == unknown


def wereset(d: PseudoPD, table: KnotTable) -> WereSet:
    """Exhaustive were-set of `d`: classify all 2^k resolutions.

    Raises DiagramTooLargeError, before any polynomial is built, when the
    bracket contraction's boundary would be too wide (see `bracket`).
    """
    by_jones: dict[PolyKey, int] = {}
    get_class = by_jones.get
    # a shadow's final groups are its w >= 0 ones, and its writhe -w groups
    # their mirrors; the mirror of a Jones class V(t) is V(1/t), whose key
    # is the reversed one
    shadow = d.is_shadow()
    for (w, key), count in resolution_groups(d).items():
        jones_key = bracket_to_jones(key, w)
        by_jones[jones_key] = get_class(jones_key, 0) + count
        if shadow and w:
            low, coeffs = jones_key
            mirror = -(low + len(coeffs) - 1), coeffs[::-1]
            by_jones[mirror] = get_class(mirror, 0) + count
    entries: dict[KnotName, int] = {}
    unknown: dict[LaurentPolynomial, int] = {}
    # distinct keys, distinct polynomials; and distinct names, as a
    # `KnotTable` refuses a repeated Jones polynomial and a repeated name
    for jones_key, count in by_jones.items():
        named = classify_jones(jones_key, table)
        if type(named) is Unknown:
            unknown[named.jones] = count
        else:
            entries[named] = count
    ws = WereSet(len(d.precrossing_ids()), entries, unknown)
    if ws.count_sum() != ws.total:
        raise AssertionError("resolution counts do not sum to 2^k")
    return ws
