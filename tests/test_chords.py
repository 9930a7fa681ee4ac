import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoknots.chords import (
    ChordError,
    DecoratedChordDiagram,
    canonical_form,
    canonical_hex,
    evenness_check,
)
from pseudoknots.invariant import i_equal


def rotated(c, r):
    """`c` with every position moved r places counterclockwise."""
    n = c.size
    return DecoratedChordDiagram.from_pairs(
        [((a + r) % n, (b + r) % n, dec) for a, b, dec in c.chords]
    )


def random_diagram(rng, m, dec_range=2):
    positions = list(range(2 * m))
    rng.shuffle(positions)
    pairs = []
    for i in range(m):
        a, b = positions[2 * i], positions[2 * i + 1]
        pairs.append((a, b, rng.randint(-dec_range, dec_range)))
    return DecoratedChordDiagram.from_pairs(pairs)


def test_validation():
    with pytest.raises(ChordError):
        DecoratedChordDiagram(4, ((0, 1, 0), (1, 3, 0)))  # position 1 reused
    with pytest.raises(ChordError):
        DecoratedChordDiagram(3, ())
    # a chord joins two distinct positions below the size, refused as a
    # chord before the matching is looked at: {0, 2} has as many positions
    # as a perfect matching of size 2
    for a, b in ((0, 0), (0, 2)):
        with pytest.raises(ChordError, match=rf"^chord \({a},{b}\) out of range or unordered$"):
            DecoratedChordDiagram(2, ((a, b, 0),))
    assert DecoratedChordDiagram(0, ()).is_empty()


@pytest.mark.parametrize(
    "size, chords",
    [
        (4, ((0.5, 2, 0), (1, 3, 0))),
        (4, ((0.0, 2.0, 1), (1, 3, 0))),
        (4, ((0, 2, "1"), (1, 3, 0))),
        (4, ((0, 2, True), (1, 3, 0))),
        (4, ((False, 2, 0), (1, 3, 0))),
        (4.0, ((0, 2, 0), (1, 3, 0))),
    ],
    ids=["fractional position", "float positions equal to ints", "str decoration",
         "bool decoration", "bool position", "float size"],
)
def test_positions_and_decorations_must_be_ints(size, chords):
    with pytest.raises(ChordError, match="must be an int"):
        DecoratedChordDiagram(size, chords)


def test_rotation_invariance_exhaustive():
    rng = random.Random(0)
    for m in range(1, 9):
        c = random_diagram(rng, m)
        forms = {canonical_form(rotated(c, r)) for r in range(c.size)}
        assert len(forms) == 1


def test_injective_across_orbits():
    # canonical forms are equal iff the diagrams are rotations of one another
    rng = random.Random(1)
    diagrams = [random_diagram(rng, m) for m in (2, 3, 4) for _ in range(12)]
    for a, b in itertools.combinations(diagrams, 2):
        rotation_related = a.size == b.size and any(
            rotated(a, r).chords == b.chords for r in range(a.size)
        )
        assert (canonical_form(a) == canonical_form(b)) == rotation_related


def test_crossing_vs_noncrossing_distinct():
    crossing = DecoratedChordDiagram.from_pairs([(0, 2, 0), (1, 3, 0)])
    parallel = DecoratedChordDiagram.from_pairs([(0, 1, 0), (2, 3, 0)])
    assert not i_equal(crossing, parallel)


def test_decorations_distinguish():
    a = DecoratedChordDiagram.from_pairs([(0, 2, 0), (1, 3, 0)])
    b = DecoratedChordDiagram.from_pairs([(0, 2, 1), (1, 3, 0)])
    assert not i_equal(a, b)


def test_empty_canonical():
    assert canonical_form(DecoratedChordDiagram(0, ())) == b""
    assert canonical_hex(DecoratedChordDiagram(0, ())) == ""


def test_evenness():
    trefoil = DecoratedChordDiagram.from_pairs([(0, 3, 0), (1, 4, 0), (2, 5, 0)])
    assert evenness_check(trefoil)
    two = DecoratedChordDiagram.from_pairs([(0, 2, 0), (1, 3, 0)])
    assert not evenness_check(two)
    assert evenness_check(DecoratedChordDiagram(0, ()))


def test_json_dict_carries_canonical_hex():
    c = DecoratedChordDiagram.from_pairs([(0, 3, 2), (1, 4, -1), (2, 5, 0)])
    chords = [[0, 3, 2], [1, 4, -1], [2, 5, 0]]
    assert c.to_json_dict() == {"chords": chords, "canonical": canonical_hex(c)}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 11), st.randoms())
def test_rotation_invariance_property(m, r, rng):
    c = random_diagram(rng, m)
    assert canonical_form(rotated(c, r)) == canonical_form(c)
