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
    interleave,
)
from pseudoknots.invariant import i_equal


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
    assert DecoratedChordDiagram.empty().is_empty()


def test_interleave():
    assert interleave((0, 2), (1, 3))
    assert not interleave((0, 1), (2, 3))
    assert not interleave((0, 3), (1, 2))


def test_rotation_invariance_exhaustive():
    rng = random.Random(0)
    for m in range(1, 9):
        c = random_diagram(rng, m)
        forms = {canonical_form(c.rotated(r)) for r in range(c.size)}
        assert len(forms) == 1


def test_injective_across_orbits():
    # canonical forms are equal iff the diagrams are rotations of one another
    rng = random.Random(1)
    diagrams = [random_diagram(rng, m) for m in (2, 3, 4) for _ in range(12)]
    for a, b in itertools.combinations(diagrams, 2):
        rotation_related = a.size == b.size and any(
            a.rotated(r).chords == b.chords for r in range(a.size)
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
    assert canonical_form(DecoratedChordDiagram.empty()) == b""
    assert canonical_hex(DecoratedChordDiagram.empty()) == ""


def test_evenness():
    trefoil = DecoratedChordDiagram.from_pairs([(0, 3, 0), (1, 4, 0), (2, 5, 0)])
    assert evenness_check(trefoil)
    two = DecoratedChordDiagram.from_pairs([(0, 2, 0), (1, 3, 0)])
    assert not evenness_check(two)
    assert evenness_check(DecoratedChordDiagram.empty())


def test_json_dict_carries_canonical_hex():
    c = DecoratedChordDiagram.from_pairs([(0, 3, 2), (1, 4, -1), (2, 5, 0)])
    chords = [[0, 3, 2], [1, 4, -1], [2, 5, 0]]
    assert c.to_json_dict() == {"chords": chords, "canonical": canonical_hex(c)}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 11), st.randoms())
def test_rotation_invariance_property(m, r, rng):
    c = random_diagram(rng, m)
    assert canonical_form(c.rotated(r)) == canonical_form(c)
