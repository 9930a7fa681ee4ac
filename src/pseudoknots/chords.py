"""Integer-decorated chord diagrams and their canonical forms.

A decorated chord diagram is a perfect matching on 2m points of an
oriented circle, each chord carrying an integer.  Two diagrams are equal
when one is a rotation of the other with the same pairing and decorations;
the core circle keeps a fixed counterclockwise orientation, so reflections
are NOT identified.

The canonical form encodes, for each endpoint position, the
counterclockwise offset to its partner and the chord decoration, then takes
the lexicographically least rotation of that sequence (Booth's algorithm).

The evenness check reads crossing parities off the positions alone: the
b - a - 1 positions strictly inside chord (a, b) hold both ends of every
chord inside it and one end of every chord crossing it, so the chord
crosses an even number of chords exactly when b - a is odd.
"""

from __future__ import annotations

from .diagram import Record, _set


class ChordError(ValueError):
    """Invalid chord diagram structure."""


class DecoratedChordDiagram(Record):
    """Chords as (pos_a, pos_b, decoration) with pos_a < pos_b, sorted.

    The public constructor checks that the chords are a perfect matching
    of the `size` positions with int entries, and sorts them.  The
    invariant, which builds its chords from a valid Gauss diagram, hands
    them over sorted through the trusted constructor `_trusted`, which
    checks nothing.
    """

    size: int  # number of endpoint positions on the circle (2m)
    chords: tuple[tuple[int, int, int], ...]

    def __init__(self, size: int, chords: tuple[tuple[int, int, int], ...]):
        if type(size) is not int:
            raise ChordError(f"size must be an int, got {size!r}")
        if size % 2:
            raise ChordError("endpoint count must be even")
        used = set()
        for a, b, dec in chords:
            if not (type(a) is type(b) is type(dec) is int):
                raise ChordError(f"chord ({a!r},{b!r},{dec!r}): each entry must be an int")
            if not (0 <= a < b < size):
                raise ChordError(f"chord ({a},{b}) out of range or unordered")
            used.update((a, b))
        if len(used) != size or len(chords) * 2 != size:
            raise ChordError("pairing is not a perfect matching on the positions")
        _set(self, "size", size)
        _set(self, "chords", tuple(sorted(chords)))

    @classmethod
    def _trusted(cls, size: int, chords: tuple[tuple[int, int, int], ...]) -> "DecoratedChordDiagram":
        """The diagram of sorted `chords` that already match the `size`
        positions perfectly; nothing is checked."""
        c = object.__new__(cls)
        _set(c, "size", size)
        _set(c, "chords", chords)
        return c

    @classmethod
    def from_pairs(cls, pairs: list[tuple[int, int, int]]) -> "DecoratedChordDiagram":
        return cls(2 * len(pairs), tuple((min(a, b), max(a, b), dec) for a, b, dec in pairs))

    def is_empty(self) -> bool:
        return self.size == 0

    def to_json_dict(self) -> dict:
        return {
            "chords": [[a, b, dec] for a, b, dec in self.chords],
            "canonical": canonical_hex(self),
        }


def _least_rotation_index(seq: list) -> int:
    """Booth's algorithm: index of the lexicographically least rotation."""
    n = len(seq)
    s = seq + seq
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k % n


def canonical_sequence(c: DecoratedChordDiagram) -> tuple[tuple[int, int], ...]:
    """(ccw partner offset, decoration) per position, least rotation first."""
    n = c.size
    if n == 0:
        return ()
    seq: list = [None] * n
    for a, b, dec in c.chords:
        seq[a] = (b - a, dec)
        seq[b] = (n + a - b, dec)
    k = _least_rotation_index(seq)
    return tuple(seq[k:] + seq[:k])


def canonical_form(c: DecoratedChordDiagram) -> bytes:
    """Rotation-invariant byte encoding; equal bytes iff equal up to rotation."""
    return ";".join(f"{off}:{dec}" for off, dec in canonical_sequence(c)).encode("ascii")


def canonical_hex(c: DecoratedChordDiagram) -> str:
    return canonical_form(c).hex()


def evenness_check(c: DecoratedChordDiagram) -> bool:
    """Necessary condition for classical realizability: every chord crosses
    an even number of chords, that is, every chord (a, b) has b - a odd."""
    return all((b - a) % 2 for a, b, _ in c.chords)
