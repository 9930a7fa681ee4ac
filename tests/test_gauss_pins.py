"""The Gauss layer and `i`, pinned by the text they write.

Per group of diagrams, the sha256 of the newline-joined `to_text()` of
each Gauss diagram and of `canonical_hex(compute_i(g))` of each.  The
groups are `pd_to_gauss` of the 44 rational census shadows of 7 crossings
and their 376 flypes, of both sides of `family` (2,2), (2,4), (4,2) and
(4,4), and of both sides of `random_flype_configuration` seeds 0..63 with
every precrossing outside the site resolved +1 or -1 at random; and every
diagram a `PINNED_SCRAMBLES` run passes through, its base included.  The
pins were taken while a Gauss diagram was still a tuple of token records,
before it kept per-position arrays, so a change of how `pd_to_gauss`, the
moves or `compute_i` build shows here as a changed hash.
"""

import hashlib
import random
from unittest import mock

from oracle import compositions
from pdmoves import resolved_at
from pseudoknots import moves
from pseudoknots.chords import canonical_hex
from pseudoknots.diagram import PDError
from pseudoknots.flype import (
    enumerate_flype_sites,
    family,
    random_flype_configuration,
    shadow_flype_pd,
)
from pseudoknots.gauss import pd_to_gauss
from pseudoknots.invariant import compute_i
from pseudoknots.tables import twist_shadow
from test_moves import PINNED_SCRAMBLES, _pinned_bases


def pd_groups():
    census = []
    for code in compositions(7):
        try:
            census.append(twist_shadow(code))
        except PDError:  # two-component closure: a link
            continue
    mixed = []
    for seed in range(64):
        shadow, site = random_flype_configuration(seed)
        keep = {site.crossing} | site.tangle
        rng = random.Random(seed)
        for side in (shadow, shadow_flype_pd(shadow, site)):
            mixed.append(resolved_at(side, {pid: rng.choice((1, -1))
                                            for pid in side.precrossing_ids() if pid not in keep}))
    return {
        "census 7": census,
        "census 7 flypes": [shadow_flype_pd(shadow, site)
                            for shadow in census for site in enumerate_flype_sites(shadow, 1)],
        "family": [d for mn in ((2, 2), (2, 4), (4, 2), (4, 4)) for d in family(*mn)],
        "random, outside mixed": mixed,
    }


def scramble_steps():
    """Every diagram of the pinned scramble runs, in order: each base and
    the result of each move it applies."""
    bases = _pinned_bases()
    out = []
    apply_move = moves.apply_move

    def recording(g, site):
        new = apply_move(g, site)
        out.append(new)
        return new

    with mock.patch.object(moves, "apply_move", recording):
        for label, seed, _ in PINNED_SCRAMBLES:
            out.append(bases[label])
            moves.scramble(bases[label], seed, 200)
    return out


def digests(gs):
    text = "\n".join(g.to_text() for g in gs)
    forms = "\n".join(canonical_hex(compute_i(g)) for g in gs)
    return (len(gs), hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(forms.encode()).hexdigest())


# (diagram count, sha256 of the texts, sha256 of the canonical i forms)
PINNED_GAUSS = {
    "census 7": (44, "521a7bbc01ff84fff581ec3efc6acaa0a9681c9d7f094e6c1b40d247a1e7dfd2",
                 "3d3c9a0ad31c8bb32649e186d6289b24d222b6b2ab197d6edbdafaf6165fa2dc"),
    "census 7 flypes": (376, "f3573e6e8eacb56169f3d2b27bf0618dbe4a85be61210d355b677a1d17bc4eab",
                        "3af6fb8a072429b87a819db9899289777baf56966969375c17b73bda68095daf"),
    "family": (8, "1a39739bb66875d735fa83f0942b329d7901d3d3e2d10695940880243fda7fc3",
               "ddd6204186cc18573d4db13bd1f8a10f350682b85956787f9f13b10607ea6cc7"),
    "random, outside mixed": (128, "2f5165b36edbd68bf50d388effac1d8c5d5272017edbfc2fcbab48e3b442b4ae",
                              "dfbbec483b9fa63639085a292fac7aa97d3d7523c9bea59a734560a87cf06fb5"),
    # 18 bases and the 200 moves of each run
    "scramble steps": (3618, "4e881c691228a6293dd8128615d74c5bb9e5011acd32157d9b654154a8505530",
                       "ae63e01d957406d5010f3e8bcd6eb8b41ff1f7335d2ba41464b0a81444f7d967"),
}


def test_gauss_text_and_i_pinned():
    groups = {label: [pd_to_gauss(d) for d in ds] for label, ds in pd_groups().items()}
    groups["scramble steps"] = scramble_steps()
    assert {label: digests(gs) for label, gs in groups.items()} == PINNED_GAUSS
