"""Integer-decorated chord diagrams and their canonical forms.

A decorated chord diagram is a perfect matching on 2m points of an
oriented circle, each chord carrying an integer.  Two diagrams are equal
when one is a rotation of the other with the same pairing and decorations;
the core circle keeps a fixed counterclockwise orientation, so reflections
are NOT identified.

The canonical form encodes, for each endpoint position, the
counterclockwise offset to its partner and the chord decoration, then takes
the lexicographically least rotation of that sequence (Booth's algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass


class ChordError(ValueError):
    """Invalid chord diagram structure."""


@dataclass(frozen=True)
class DecoratedChordDiagram:
    """Chords as (pos_a, pos_b, decoration) with pos_a < pos_b, sorted."""

    size: int  # number of endpoint positions on the circle (2m)
    chords: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.size % 2:
            raise ChordError("endpoint count must be even")
        used = set()
        for a, b, _ in self.chords:
            if not (0 <= a < b < self.size):
                raise ChordError(f"chord ({a},{b}) out of range or unordered")
            used.update((a, b))
        if len(used) != self.size or len(self.chords) * 2 != self.size:
            raise ChordError("pairing is not a perfect matching on the positions")
        object.__setattr__(self, "chords", tuple(sorted(self.chords)))

    @classmethod
    def from_pairs(cls, pairs: list[tuple[int, int, int]]) -> "DecoratedChordDiagram":
        norm = [(min(a, b), max(a, b), dec) for a, b, dec in pairs]
        return cls(2 * len(norm), tuple(sorted(norm)))

    @classmethod
    def empty(cls) -> "DecoratedChordDiagram":
        return cls(0, ())

    def is_empty(self) -> bool:
        return self.size == 0

    def partner(self) -> dict[int, int]:
        out = {}
        for a, b, _ in self.chords:
            out[a] = b
            out[b] = a
        return out

    def decoration_at(self) -> dict[int, int]:
        out = {}
        for a, b, dec in self.chords:
            out[a] = dec
            out[b] = dec
        return out

    def rotated(self, r: int) -> "DecoratedChordDiagram":
        """Rotate all positions by r (counterclockwise relabeling)."""
        n = self.size
        if n == 0:
            return self
        return DecoratedChordDiagram.from_pairs(
            [((a + r) % n, (b + r) % n, dec) for a, b, dec in self.chords]
        )

    def to_json_dict(self) -> dict:
        return {
            "chords": [[a, b, dec] for a, b, dec in self.chords],
            "canonical": canonical_hex(self),
        }


def interleave(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Whether chords with endpoint positions p and q cross on the circle."""
    a, b = sorted(p)
    c, d = sorted(q)
    return (a < c < b) != (a < d < b)


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
    partner = c.partner()
    dec = c.decoration_at()
    seq = [((partner[i] - i) % n, dec[i]) for i in range(n)]
    k = _least_rotation_index(seq)
    return tuple(seq[k:] + seq[:k])


def canonical_form(c: DecoratedChordDiagram) -> bytes:
    """Rotation-invariant byte encoding; equal bytes iff equal up to rotation."""
    return ";".join(f"{off}:{dec}" for off, dec in canonical_sequence(c)).encode("ascii")


def canonical_hex(c: DecoratedChordDiagram) -> str:
    return canonical_form(c).hex()


def interleave_counts(c: DecoratedChordDiagram) -> dict[tuple[int, int, int], int]:
    """Number of chords each chord crosses."""
    out = {}
    for ch in c.chords:
        out[ch] = sum(
            1
            for other in c.chords
            if other != ch and interleave((ch[0], ch[1]), (other[0], other[1]))
        )
    return out


def evenness_check(c: DecoratedChordDiagram) -> bool:
    """Necessary condition for classical realizability: every chord crosses
    an even number of chords."""
    return all(v % 2 == 0 for v in interleave_counts(c).values())
