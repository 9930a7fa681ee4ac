"""The incidence indexes each diagram type owns, against naive recomputation.

`PseudoPD` holds its crossing records and keeps its dart pairing `mate`,
id -> vertex index and `Vertex` records, and `PseudoGaussDiagram` its
id -> token positions.  Here each record and index is recomputed with a plain loop over the
vertices or tokens that uses no index code, on random flype shadows,
their flypes, mirrors and resolutions, and short scrambles of their
Gauss diagrams.  The same diagrams check that resolving, mirroring and
flyping keep vertex ids.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pdmoves import traversal
from pseudoknots.diagram import PseudoPD, mirror, parse_pd, resolve
from pseudoknots.flype import random_flype_configuration, shadow_flype_pd
from pseudoknots.gauss import parse_gauss, pd_to_gauss
from pseudoknots.moves import scramble


def naive_pd_indexes(d: PseudoPD):
    """(traversal, crossing records, dart pairing, id -> index), by walking
    the strand from vertex 0, slot 0, where it always enters, and starting
    the traversal at the end of edge 1 where it enters a vertex.  Darts are
    (vertex index, slot) pairs here; the pairing is returned as a list on
    the library's darts, 4 * vertex index + slot, like `mate`."""
    ends: dict[int, list[tuple[int, int]]] = {}
    for vi, v in enumerate(d.vertices):
        for slot in range(4):
            ends.setdefault(v.edges[slot], []).append((vi, slot))
    partner = {}
    for a, b in ends.values():
        partner[a] = b
        partner[b] = a
    walk = []
    if d.n:
        dart = (0, 0)
        for _ in range(2 * d.n):
            walk.append(dart)
            vi, slot = dart
            dart = partner[(vi, (slot + 2) % 4)]
        assert dart == walk[0]
        k = next(i for i, (vi, slot) in enumerate(walk) if d.vertices[vi].edges[slot] == 1)
        walk = walk[k:] + walk[:k]
    # a +1 crossing's strands enter at slots 0 (under) and 3 (over): a
    # precrossing's record is the one of its two readings, from slot 0 or
    # from slot 1, that has both entries there
    crossings = []
    for vi, v in enumerate(d.vertices):
        if v.is_classical():
            crossings.append((v.edges, v.sign))
            continue
        (start,) = [r for r in (0, 1) if {(vi, r), (vi, (r + 3) % 4)} <= set(walk)]
        crossings.append((v.edges[start:] + v.edges[:start], None))
    vertex_index = {}
    for vi, v in enumerate(d.vertices):
        vertex_index[v.id] = vi
    mate = [0] * (4 * d.n)
    for (vi, slot), (vj, t) in partner.items():
        mate[4 * vi + slot] = 4 * vj + t
    return tuple(walk), tuple(crossings), mate, vertex_index


def check_pd_indexes(d: PseudoPD) -> None:
    walk, crossings, mate, vertex_index = naive_pd_indexes(d)
    assert traversal(d) == walk
    assert d.crossings == crossings
    assert d.mate == mate
    assert d.vertex_index == vertex_index
    # built indexes are not fields: a bare copy builds none until read,
    # and compares and hashes equal
    bare = PseudoPD(ids=d.ids, signs=d.signs, labels=d.labels, crossings=d.crossings)
    assert not {"vertices", "mate", "vertex_index"} & set(vars(bare))
    assert bare == d and hash(bare) == hash(d)
    assert bare.vertices == d.vertices and "vertices" in vars(bare)
    assert bare.mate == mate and "mate" in vars(bare)
    assert bare.vertex_index == vertex_index and "vertex_index" in vars(bare)
    if [v.id for v in d.vertices] == list(range(d.n)):
        fresh = parse_pd(d.to_text())
        assert fresh == d and hash(fresh) == hash(d)


def ids(d: PseudoPD) -> list[int]:
    return [v.id for v in d.vertices]


def check_gauss_index(g) -> None:
    positions: dict[int, list[int]] = {}
    for i, t in enumerate(g.tokens):
        positions.setdefault(t.id, []).append(i)
    assert g.position_index == {cid: tuple(p) for cid, p in positions.items()}
    fresh = parse_gauss(g.to_text())
    assert fresh == g and hash(fresh) == hash(g)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    tangle=st.integers(1, 5),
    kinks=st.integers(1, 3),
    steps=st.integers(0, 20),
)
def test_indexes_match_naive_recomputation(seed, tangle, kinks, steps):
    shadow, site = random_flype_configuration(seed, tangle, kinks)
    flyped = shadow_flype_pd(shadow, site)
    rng = random.Random(seed)
    resolved = resolve(shadow, {i: rng.choice((1, -1)) for i in shadow.precrossing_ids()})
    flyped_resolved = resolve(flyped, {i: rng.choice((1, -1)) for i in flyped.precrossing_ids()})
    # the flype moves its crossing to the end; the flyped ids are out of order
    assert ids(flyped) == [i for i in ids(shadow) if i != site.crossing] + [site.crossing]
    assert ids(resolved) == ids(mirror(resolved)) == ids(shadow)
    assert ids(flyped_resolved) == ids(mirror(flyped_resolved)) == ids(flyped)
    for d in (shadow, flyped, resolved, mirror(resolved), flyped_resolved, mirror(flyped_resolved)):
        check_pd_indexes(d)
        g = pd_to_gauss(d)
        check_gauss_index(g)
        check_gauss_index(scramble(g, seed, steps))
