"""Replays of the library's trusted routes through the public validators.

`resolve`, `mirror` and `shadow_flype_pd` build a PD diagram unchecked,
`pd_to_gauss` a Gauss diagram's per-position arrays and index, the moves
each result's arrays and the index moved past their delta, and
`compute_i` a chord diagram, each from data the library validated before.
Every value such a route returns must come back unchanged from the public
constructor of its type (`make_pd`, `PseudoGaussDiagram(tokens)`,
`DecoratedChordDiagram(size, chords)`), the Gauss diagram's position
index included, and a Gauss diagram from `parse_gauss` of its text, so a
trusted route that builds something the checks would refuse or rewrite
fails here.
"""

import itertools
import random
from unittest import mock

import pytest

from oracle import compositions
from pdmoves import resolved_at
from pseudoknots import moves
from pseudoknots.chords import DecoratedChordDiagram
from pseudoknots.diagram import PDError, _trusted_build, make_pd, mirror, resolve
from pseudoknots.flype import (
    enumerate_flype_sites,
    family,
    random_flype_configuration,
    shadow_flype_pd,
)
from pseudoknots.gauss import PseudoGaussDiagram, parse_gauss, pd_to_gauss
from pseudoknots.invariant import compute_i
from pseudoknots.moves import scramble
from pseudoknots.tables import alternating_resolution, twist_shadow


def replay_pd(d):
    assert make_pd(d.vertices) == d, d.to_text()


def replay_gauss(g):
    # equal diagrams have equal arrays, and hash alike
    again = PseudoGaussDiagram(g.tokens)
    assert again == g and hash(again) == hash(g), g.to_text()
    assert again.position_index == g.position_index
    parsed = parse_gauss(g.to_text())
    assert parsed == g and parsed.position_index == g.position_index


def replay_chords(c):
    assert DecoratedChordDiagram(c.size, c.chords) == c, c


def replay(d):
    """`d`, its mirror, and the Gauss diagram and `i` of both, replayed."""
    for side in (d, mirror(d)):
        replay_pd(side)
        g = pd_to_gauss(side)
        replay_gauss(g)
        replay_chords(compute_i(g))


def census_shadows():
    out = []
    for code in compositions(7):
        try:
            out.append(twist_shadow(code))
        except PDError:  # two-component closure
            continue
    return out


def test_the_census_replays():
    shadows = census_shadows()
    flypes = [shadow_flype_pd(s, site) for s in shadows for site in enumerate_flype_sites(s, 1)]
    assert (len(shadows), len(flypes)) == (44, 376)
    for d in shadows + flypes + [alternating_resolution(s) for s in shadows]:
        replay(d)


def test_family_pairs_replay():
    for m, n in itertools.product((2, 4, 6, 8), repeat=2):
        for d in family(m, n):
            replay(d)


def test_random_configurations_with_mixed_outsides_replay():
    # both sides of each configuration, each precrossing outside the site
    # left as it is or resolved +1 or -1, a resolution of it, and every
    # flype of it
    for seed in range(64):
        shadow, site = random_flype_configuration(seed)
        keep = {site.crossing} | site.tangle
        rng = random.Random(seed)
        for side in (shadow, shadow_flype_pd(shadow, site)):
            d = resolved_at(side, {pid: sign for pid in side.precrossing_ids() if pid not in keep
                                   if (sign := rng.choice((None, 1, -1))) is not None})
            replay(d)
            replay(resolve(d, {pid: rng.choice((1, -1)) for pid in d.precrossing_ids()}))
            for s in enumerate_flype_sites(d):
                replay(shadow_flype_pd(d, s))


def test_scrambles_replay():
    # 200-step scrambles, the invariant-scramble benchmark's regime, and
    # every move result on the way
    apply_move = moves.apply_move
    results = []

    def recording(g, site):
        results.append(apply_move(g, site))
        return results[-1]

    for m, n in [(2, 2), (2, 4), (4, 2), (4, 4)]:
        for d in family(m, n):
            for seed in range(4):
                with mock.patch.object(moves, "apply_move", recording):
                    g = scramble(pd_to_gauss(d), seed, 200)
                replay_gauss(g)
                replay_chords(compute_i(g))
    assert len(results) == 8 * 4 * 200
    for g in results:
        replay_gauss(g)
    # insertions, removals and slides all replay
    deltas = [g.move_delta for g in results]
    assert {"slide" if cut and written else "cut" if cut else "insert"
            for cut, written in deltas} == {"insert", "cut", "slide"}


def test_a_broken_pairing_stops_the_strand_walk():
    # a trusted build takes its labels on trust: here 2 appears once and 3
    # three times, so the dart pairing is no involution and the strand walk
    # from label 1 never comes back to its start.  It must stop after one
    # step per edge and raise, which the CLI reports as exit 1
    with pytest.raises(AssertionError, match="not an involution"):
        _trusted_build([0, 1], [None, None], [4, 2, 4, 1, 3, 1, 3, 3])
