"""Frozen outputs of the PD-level Reidemeister moves on family(2,2), and
the PD triangle slide checked against the Gauss one.

`pdmoves` is the reference the Gauss-level moves are checked against, so
its results (and its error messages) are pinned by sha256 over every edge,
face dart pair, vertex and triangle of the counterexample shadow, of the
diagrams the insertions make from it, and of its 128 resolutions.  The PD
`r3` writes its flip from the faces and the Gauss R3/PR3 tests a rule on
the tokens, so the two engines derive each triangle slide independently.
"""

import hashlib
import itertools

from pdmoves import (
    faces,
    find_triangles,
    r1_insert,
    r1_remove,
    r2_insert,
    r2_remove,
    r3,
    triangle_soundness,
)
from pseudoknots.diagram import CLASSICAL, PRECROSSING, PDError, Vertex, make_pd, resolve
from pseudoknots.flype import family
from pseudoknots.gauss import pd_to_gauss
from pseudoknots.moves import MoveError, MoveSite, apply_move
from pseudoknots.tables import alternating_resolution, twist_shadow


def _attempt(fn, *args) -> str:
    try:
        return fn(*args).to_text()
    except (MoveError, PDError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _pd_move_outputs() -> dict[str, list[str]]:
    d, _ = family(2, 2)
    out: dict[str, list[str]] = {k: [] for k in ("r1_insert", "r1_remove", "r2_insert", "r2_remove", "r3")}
    kinked = []
    for edge in range(2 * d.n + 2):  # labels 0 and 2n + 1 do not exist
        for curl, over_first, kind in itertools.product((1, -1), (True, False), (CLASSICAL, PRECROSSING)):
            out["r1_insert"].append(_attempt(r1_insert, d, edge, curl, over_first, kind))
            if edge == 1:
                kinked.append(r1_insert(d, edge, curl, over_first, kind))
    for k in [d] + kinked:
        for vid in range(-1, k.n + 1):
            out["r1_remove"].append(_attempt(r1_remove, k, vid))
    clasped = []
    for f in faces(d):
        for a, b in itertools.permutations(f, 2):
            for over_first in (True, False):
                text = _attempt(r2_insert, d, a, b, over_first)
                out["r2_insert"].append(text)
                if not text.startswith(("MoveError", "PDError")) and len(clasped) < 20:
                    clasped.append(r2_insert(d, a, b, over_first))
    for f, g in itertools.permutations(faces(d), 2):  # mostly no common face
        out["r2_insert"].append(_attempt(r2_insert, d, f[0], g[-1]))
    for k in [d] + clasped:
        ids = [v.id for v in k.vertices] + [99]
        for a, b in itertools.permutations(ids, 2):
            out["r2_remove"].append(_attempt(r2_remove, k, a, b))
    for k in _resolutions_and_variants(d):
        for f in faces(k):
            out["r3"].append(_attempt(r3, k, f))
    return out


def _resolutions_and_variants(d):
    """Each resolution of `d`, followed by the same resolution with one
    vertex turned back into a precrossing."""
    pre = d.precrossing_ids()
    for r_index, signs in enumerate(itertools.product((1, -1), repeat=len(pre))):
        r = resolve(d, dict(zip(pre, signs)))
        back = r_index % r.n
        yield r
        yield make_pd([
            Vertex(v.id, PRECROSSING, None, v.edges) if vi == back else v
            for vi, v in enumerate(r.vertices)
        ])


# sha256 of the newline-joined results (PD text, or the error) per move.
PINNED_PD_MOVES = {
    "r1_insert": "c6facbf1a2a4a09f86af4fe8a52924d221bbf53a45f195f882788f108cfe1351",
    "r1_remove": "e50b3655585e46803d5ae72cd21d9b07fe9331f0bc78a2fbe4d1976529385f52",
    "r2_insert": "2d1bd9342ffb253d63937a4f899a98cc8f26430a1d4cc30ae7df55b4ad531ca2",
    "r2_remove": "d7732d81bdf3ce63ea8d5e31b49e90fb979e8d6d7d0a0bc40f0eb88e02fa95f4",
    "r3": "85ab68e8e529ba3926fcc2ed51ee736b7f3923790f1ec24aa4a9183661633ffa",
}


def test_removal_leaves_an_id_gap_and_insertion_takes_max_plus_one():
    d, _ = family(2, 2)
    twice = r1_insert(r1_insert(d, 1), 2)
    assert [v.id for v in twice.vertices] == list(range(9))
    gap = r1_remove(twice, 7)
    assert [v.id for v in gap.vertices] == [0, 1, 2, 3, 4, 5, 6, 8]
    assert [v.id for v in r1_insert(gap, 1).vertices] == [0, 1, 2, 3, 4, 5, 6, 8, 9]
    clasped = r2_insert(gap, *next(f for f in faces(gap) if len(f) > 3)[:2])
    assert [v.id for v in clasped.vertices][-2:] == [9, 10]


def test_pd_moves_output_pinned():
    outputs = _pd_move_outputs()
    digests = {
        name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for name, lines in outputs.items()
    }
    assert digests == PINNED_PD_MOVES


def _cyclic_forms(seq):
    """Every rotation of `seq` and of its reversal."""
    return {tuple(s[k:] + s[:k]) for s in (seq, seq[::-1]) for k in range(len(seq))}


def test_triangle_slides_agree_across_engines():
    # The family(2,2) resolutions and their one-precrossing variants, and
    # every R2 child of two alternating diagrams, whose triangles are not
    # all cyclic: 472 diagrams, 1,904 triangle faces.
    d, _ = family(2, 2)
    corpus = list(_resolutions_and_variants(d))
    for code in ((3, 1, 2), (2, 1, 1, 2)):
        base = alternating_resolution(twist_shadow(code))
        for f in faces(base):
            for a, b in itertools.permutations(f, 2):
                for over_first in (True, False):
                    try:
                        corpus.append(r2_insert(base, a, b, over_first))
                    except (MoveError, PDError):
                        pass
    counts = {"R3": 0, "PR3": 0, "refused": 0}
    for k in corpus:
        g = pd_to_gauss(k)
        for face in find_triangles(k):
            ids = tuple(k.vertices[vi].id for vi, _ in face)
            n_pre = sum(not k.vertices[vi].is_classical() for vi, _ in face)
            assert n_pre <= 1
            kind = "PR3" if n_pre else "R3"
            try:
                slid = apply_move(g, MoveSite(kind, ids))
            except MoveError:
                slid = None
            assert (triangle_soundness(k, face) is None) == (slid is not None), (k.to_text(), ids)
            if slid is None:
                counts["refused"] += 1
                continue
            counts[kind] += 1
            got = [(t.id, t.role, t.sign) for t in pd_to_gauss(r3(k, face)).tokens]
            assert tuple(got) in _cyclic_forms([(t.id, t.role, t.sign) for t in slid.tokens])
    assert len(corpus) == 472
    assert counts == {"R3": 830, "PR3": 136, "refused": 938}
