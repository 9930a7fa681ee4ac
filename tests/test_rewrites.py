"""The PD rewrites `mirror` and `resolve`, pinned by the text they write.

Per group of diagrams, the sha256 of the newline-joined `to_text()` of
`mirror(d)`, of `resolve(d, c)` for a seeded choice `c` of every
precrossing, and of that resolution's mirror.  The groups are the 44
rational census shadows of 7 crossings and their 376 flypes, both sides of
`family` (2,2), (2,4), (4,2) and (4,4), and both sides of
`random_flype_configuration` seeds 0..63 with every precrossing outside
the site resolved +1, -1, or each at random.  The pins were taken before
the PD diagram kept its flat arrays in place of its vertex records, so a
change of how the rewrites build shows here as a changed hash.
"""

import hashlib
import random

import pytest

from oracle import compositions
from pdmoves import resolved_at
from pseudoknots.diagram import PDError, mirror, resolve
from pseudoknots.flype import (
    enumerate_flype_sites,
    family,
    random_flype_configuration,
    shadow_flype_pd,
)
from pseudoknots.tables import twist_shadow


def pin_groups():
    census = []
    for code in compositions(7):
        try:
            census.append(twist_shadow(code))
        except PDError:  # two-component closure: a link
            continue
    outsides = {"+1": lambda rng: 1, "-1": lambda rng: -1, "mixed": lambda rng: rng.choice((1, -1))}
    groups = {
        "census 7": census,
        "census 7 flypes": [shadow_flype_pd(shadow, site)
                            for shadow in census for site in enumerate_flype_sites(shadow, 1)],
        "family": [d for mn in ((2, 2), (2, 4), (4, 2), (4, 4)) for d in family(*mn)],
    }
    for label, outside in outsides.items():
        groups[f"random, outside {label}"] = out = []
        for seed in range(64):
            shadow, site = random_flype_configuration(seed)
            keep = {site.crossing} | site.tangle
            rng = random.Random(seed)
            for side in (shadow, shadow_flype_pd(shadow, site)):
                out.append(resolved_at(side, {pid: outside(rng) for pid in side.precrossing_ids()
                                              if pid not in keep}))
    return groups


def rewrites(ds, seed):
    """The text of each diagram's mirror, of its resolution at a choice
    drawn from `seed`, and of that resolution's mirror."""
    rng = random.Random(seed)
    for d in ds:
        r = resolve(d, {pid: rng.choice((1, -1)) for pid in d.precrossing_ids()})
        yield from (mirror(d).to_text(), r.to_text(), mirror(r).to_text())


# (diagram count, sha256 of `rewrites` of the group at seed 0)
PINNED_REWRITES = {
    "census 7": (44, "7da4a6628e79d544f43b2ea1fcbbe7cbcdce03a73e40ef206c4f194c7be2ff75"),
    "census 7 flypes": (376, "2ec1adc9b7165cb36c1468176d506e1082e9b5eec264408e091199873c6b5e36"),
    "family": (8, "1ee6ac86f07d8cf7c111504c756a16bf64efb4487de62c451af6720828502c50"),
    "random, outside +1": (128, "75010405e8adfd4ee220bb2a71ebfecf89bee12aabf276bb4789399ed8bad502"),
    "random, outside -1": (128, "c1bfc4e8214743ba7bb608780154c8d57a91194b9acb8b9534ff5953aa523fb8"),
    "random, outside mixed": (128, "b18c51810b3b272fe73fc6fd5b143359d327a176ec4bab50da1965e0e1ccc32d"),
}


def test_mirror_and_resolve_text_pinned():
    digests = {
        label: (len(ds), hashlib.sha256("\n".join(rewrites(ds, 0)).encode()).hexdigest())
        for label, ds in pin_groups().items()
    }
    assert digests == PINNED_REWRITES


def test_resolve_names_the_first_bad_choice_in_vertex_order():
    # the flype moves its crossing, the smallest precrossing id here, to the
    # end of the vertex list, so vertex order and id order differ
    shadow, site = random_flype_configuration(0)
    d = shadow_flype_pd(shadow, site)
    pre = d.precrossing_ids()
    assert pre[-1] == site.crossing == min(pre)
    first = pre[0]
    with pytest.raises(PDError, match=rf"^choice for precrossing {first} must be \+1 or -1, got 0$"):
        resolve(d, dict.fromkeys(pre, 0))
    # a good choice before it in id order does not move the message on
    with pytest.raises(PDError, match=rf"^choice for precrossing {pre[1]} must be \+1 or -1, got 2$"):
        resolve(d, {**dict.fromkeys(pre, 1), pre[1]: 2, site.crossing: 0})
