"""Flypes on chord diagrams: the reference the PD shadow flype is checked
against.

A shadow flype acts on the underlying chord diagram in one of two ways,
and arrows play no role at this level.  A site is the flype chord's
endpoint positions and two bands X and Y, cyclically consecutive position
tuples:

Type I layout:  ... f1 [X ...] ... [... Y] f2 ...   (f1 just before X,
f2 just after Y); the move reverses each band in place.

Type II layout: ... [X] ... f1 [Y] f2 ...  (the flype chord caps Y);
the move transplants the flype chord so it caps X instead, leaving the
contents of both bands in their original order.

`chord_site_for` reads the chord site and its type off a PD flype site;
the tests check that `chord_flype` there gives the prechord diagram of
`shadow_flype_pd`'s result.  Errors are `pseudoknots.flype.FlypeError`,
as in the PD flype.
"""

from __future__ import annotations

from dataclasses import dataclass

from pseudoknots.chords import DecoratedChordDiagram
from pseudoknots.diagram import PseudoPD
from pseudoknots.flype import FlypeError, FlypeSite
from pseudoknots.gauss import pd_to_gauss

TYPE_I = "I"
TYPE_II = "II"


@dataclass(frozen=True)
class ChordFlypeSite:
    """The flype chord's endpoint positions and the two band intervals."""

    flype_chord: tuple[int, int]
    band_x: tuple[int, ...]
    band_y: tuple[int, ...]


def _check_consecutive(band: tuple[int, ...], size: int, name: str) -> None:
    for a, b in zip(band, band[1:]):
        if (b - a) % size != 1:
            raise FlypeError(f"band {name} positions are not cyclically consecutive")


def chord_flype(c: DecoratedChordDiagram, site: ChordFlypeSite, variant: str) -> DecoratedChordDiagram:
    """Flype a decorated chord diagram at the given site, as Type I or II."""
    if variant not in (TYPE_I, TYPE_II):
        raise FlypeError(f"unknown flype variant {variant!r}")
    size = c.size
    f_a, f_b = site.flype_chord
    f_pair = {f_a, f_b}
    if not any({a, b} == f_pair for a, b, _ in c.chords):
        raise FlypeError("site flype chord is not a chord of the diagram")
    band_x, band_y = tuple(site.band_x), tuple(site.band_y)
    _check_consecutive(band_x, size, "X")
    _check_consecutive(band_y, size, "Y")
    in_bands = set(band_x) | set(band_y)
    if f_pair & in_bands:
        raise FlypeError("flype chord endpoints may not lie inside the bands")
    for a, b, _ in c.chords:
        if {a, b} == f_pair:
            continue
        if ({a, b} & in_bands) and not ({a, b} <= in_bands):
            raise FlypeError(f"chord ({a},{b}) leaves the band region")

    index_of = {}
    for idx, (a, b, _) in enumerate(c.chords):
        index_of[a] = idx
        index_of[b] = idx
    decorations = {idx: dec for idx, (_, _, dec) in enumerate(c.chords)}
    word = [index_of[p] for p in range(size)]
    f_idx = index_of[f_a]

    if variant == TYPE_I:
        if band_x and (band_x[0] - f_a) % size != 1:
            raise FlypeError("Type I needs the first flype endpoint just before band X")
        if band_y and (f_b - band_y[-1]) % size != 1:
            raise FlypeError("Type I needs the second flype endpoint just after band Y")
        new_word = list(word)
        for band in (band_x, band_y):
            vals = [word[p] for p in band]
            for p, v in zip(band, reversed(vals)):
                new_word[p] = v
    else:
        if not band_x:
            raise FlypeError("Type II needs a nonempty band X")
        if (band_y and ((band_y[0] - f_a) % size != 1 or (f_b - band_y[-1]) % size != 1)) or (
            not band_y and (f_b - f_a) % size != 1
        ):
            raise FlypeError("Type II needs the flype chord to cap band Y")
        new_word = []
        p = (f_b + 1) % size
        while p != f_a:
            if band_x and p == band_x[0]:
                new_word.append(f_idx)
            new_word.append(word[p])
            if band_x and p == band_x[-1]:
                new_word.append(f_idx)
            p = (p + 1) % size
        new_word.extend(word[q] for q in band_y)

    placed: dict[int, list[int]] = {}
    for pos, idx in enumerate(new_word):
        placed.setdefault(idx, []).append(pos)
    pairs = []
    for idx, positions in placed.items():
        if len(positions) != 2:
            raise FlypeError("flype produced an inconsistent pairing")
        pairs.append((positions[0], positions[1], decorations[idx]))
    return DecoratedChordDiagram.from_pairs(pairs)


def _cyclic_intervals(positions: list[int], size: int) -> list[tuple[int, ...]]:
    ps = sorted(positions)
    if not ps:
        return []
    runs: list[list[int]] = [[ps[0]]]
    for p in ps[1:]:
        if p == runs[-1][-1] + 1:
            runs[-1].append(p)
        else:
            runs.append([p])
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == size - 1:
        runs[0] = runs[-1] + runs[0]
        runs.pop()
    return [tuple(r) for r in runs]


def chord_site_for(d: PseudoPD, site: FlypeSite) -> tuple[ChordFlypeSite, str]:
    """Chord-diagram site corresponding to a PD flype site, with its variant.

    Supports the two template layouts; other leg arrangements raise.
    """
    g = pd_to_gauss(d)
    size = g.size
    f_a, f_b = g.position_index[site.crossing]
    tangle_pos = [
        i for i, t in enumerate(g.tokens) if t.id in site.tangle
    ]
    t_ivs = _cyclic_intervals(tangle_pos, size)
    if len(t_ivs) == 2:
        for y, x in (t_ivs, t_ivs[::-1]):
            for fa, fb in ((f_a, f_b), (f_b, f_a)):
                if (y[0] - fa) % size == 1 and (fb - y[-1]) % size == 1:
                    return ChordFlypeSite((fa, fb), x, y), TYPE_II
    other_pos = [
        i
        for i, t in enumerate(g.tokens)
        if t.id not in site.tangle and t.id != site.crossing
    ]
    o_ivs = _cyclic_intervals(other_pos, size)
    if len(o_ivs) == 2:
        for x, y in (o_ivs, o_ivs[::-1]):
            for fa, fb in ((f_a, f_b), (f_b, f_a)):
                if (x[0] - fa) % size == 1 and (fb - y[-1]) % size == 1:
                    return ChordFlypeSite((fa, fb), x, y), TYPE_I
    raise FlypeError("site does not match either chord-flype template")
