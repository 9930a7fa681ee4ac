"""Reidemeister moves on PD codes: the test reference for `pseudoknots.moves`.

These operate on the planar-diagram level (with faces) and are the ground
truth the tests check the Gauss-diagram rewrites and the bracket/Jones
invariance properties against; the library itself has one move engine, on
Gauss codes.  R1 and R2 insert/remove classical kinks and clasp
pairs; R3 slides the wall of a triangular face across the opposite
crossing.  R3 accepts at most one precrossing in the triangle, and only
when both its resolutions make the move a classical R3, so pseudoknot
type is preserved; with two or more, some resolution is cyclic.  R3
writes its flip from the face directly, so it is a derivation of the
triangle slide independent of the Gauss-level rule in `moves`.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from pseudoknots.diagram import (
    CLASSICAL,
    Dart,
    PRECROSSING,
    PseudoPD,
    Vertex,
    make_pd,
    relabeled,
    unknot,
)
from pseudoknots.moves import MoveError


def faces(d: PseudoPD) -> tuple[tuple[Dart, ...], ...]:
    """Faces of the planar map as dart cycles.

    A face is an orbit of dart -> rotate_ccw(partner(dart)): its boundary
    leaves vertex v along slot k at the dart (v, k), which stands for
    the face's corner between slots k - 1 and k at v.  Euler's formula
    (faces = n + 2 for a connected 4-valent knot diagram) holds for
    every valid PseudoPD; `make_pd` checks it.
    """
    partner = d.partner
    remaining = set(partner)
    out = []
    while remaining:
        start = min(remaining)
        cycle = []
        dart = start
        while True:
            cycle.append(dart)
            remaining.discard(dart)
            vi, slot = partner[dart]
            dart = (vi, (slot + 1) % 4)
            if dart == start:
                break
        out.append(tuple(cycle))
    return tuple(out)


def r1_insert(
    d: PseudoPD, edge: int, curl: int = 1, over_first: bool = True, kind: str = CLASSICAL
) -> PseudoPD:
    """Add a kink on `edge`.  curl picks the side the loop sits on;
    over_first picks which passage is the over-strand (ignored for
    precrossing kinks)."""
    if d.n == 0:
        raise MoveError("cannot insert into the empty diagram")
    if edge not in d.edge_ends:
        raise MoveError(f"no edge {edge}")
    m = 2 * d.n  # labels are 1..2n
    a, b, loop = m + 1, m + 2, m + 3
    # replace `edge` by a -> kink -> b along the traversal direction
    tail, head = d.edge_ends[edge]  # edge runs INTO head
    vid = max(d.vertex_index) + 1  # a new vertex takes the largest id plus one
    if curl > 0:
        kink = (a, b, loop, loop)  # strand in at 0, out at 1
    else:
        kink = (a, loop, loop, b)
    if kind == CLASSICAL:
        if curl > 0:
            # in-slots are {0, 3}: under-first means slot0 stays the under-in
            tup, sign = (kink, 1) if not over_first else (kink[3:] + kink[:3], -1)
        else:
            # in-slots are {0, 1}
            tup, sign = (kink[1:] + kink[:1], 1) if over_first else (kink, -1)
        extra = Vertex(vid, CLASSICAL, sign, tup)
    else:
        extra = Vertex(vid, PRECROSSING, None, kink)
    return make_pd(relabeled(d, {tail: a, head: b}) + [extra])


def find_kinks(d: PseudoPD) -> list[int]:
    """Vertex ids carrying a removable kink (a loop edge on adjacent slots)."""
    out = []
    for v in d.vertices:
        for s in range(4):
            if v.edges[s] == v.edges[(s + 1) % 4]:
                out.append(v.id)
                break
    return out


def r1_remove(d: PseudoPD, vertex_id: int) -> PseudoPD:
    """Remove the kink at `vertex_id`, splicing the strand back together."""
    vi = d.vertex_index.get(vertex_id)
    if vi is None:
        raise MoveError(f"no vertex {vertex_id}")
    v = d.vertices[vi]
    loop_slot = next(
        (s for s in range(4) if v.edges[s] == v.edges[(s + 1) % 4]), None
    )
    if loop_slot is None:
        raise MoveError(f"vertex {vertex_id} is not a kink")
    a = v.edges[(loop_slot + 2) % 4]
    b = v.edges[(loop_slot + 3) % 4]
    if d.n == 1:
        return unknot()
    if a == b:
        # the kink hangs on a loop between the same pair of slots elsewhere
        raise MoveError("kink removal would disconnect the diagram")
    return make_pd(relabeled(d, {dart: a for dart in d.edge_ends[b]}, drop=(vi,)))


def r2_insert(
    d: PseudoPD, dart1: Dart, dart2: Dart, over_first: bool = True
) -> PseudoPD:
    """Slide edge-at-dart1 across edge-at-dart2 through their shared face.

    dart1 and dart2 must lie on the same face orbit (the sides that look
    into the shared region).  over_first puts the first edge's strand on
    top at both new crossings.
    """
    for f in faces(d):
        if dart1 in f and dart2 in f:
            break
    else:
        raise MoveError("darts do not border a common face")
    e1 = d.vertices[dart1[0]].edges[dart1[1]]
    e2 = d.vertices[dart2[0]].edges[dart2[1]]
    if e1 == e2:
        raise MoveError("cannot slide an edge across itself")

    # (tail, head) of each edge: tail is where it leaves
    t1, h1 = d.edge_ends[e1]
    t2, h2 = d.edge_ends[e2]
    m = 2 * d.n  # labels are 1..2n
    e1a, m1, e1b, e2a, m2, e2b = m + 1, m + 2, m + 3, m + 4, m + 5, m + 6

    # Local picture: the shared face is a region with e1 as the bottom wall
    # and e2 as the top wall; the face walk traverses e1 away from dart1's
    # vertex (call that west to east) and e2 away from dart2's vertex (east
    # to west around the region).  The finger of e1 pushes north across e2,
    # creating x1 (west) and x2 (east); along e1's strand the pieces are
    # e1a -> m1 -> e1b.  Whether e2's strand runs with or against its walk
    # decides which crossing e2 meets first.
    walk1_forward = t1 == dart1  # e1's strand direction agrees with the walk
    walk2_forward = t2 == dart2

    # Layouts below are (sign, edges) of x1 and x2, drawn with e1's strand
    # running west to east and the shared face to its north; with this face
    # convention walk1_forward means the face is on the other side, which
    # mirrors the picture (reverse each new tuple's cyclic order keeping
    # slot 0, flip its sign).  walk2_forward relative to walk1 picks whether
    # e2's strand runs against e1's (antiparallel) or with it.  The mapping
    # is pinned empirically by exhaustive bracket-invariance tests over all
    # dart pairs.
    if walk1_forward == walk2_forward:
        # antiparallel: e2 meets x2 first along its own direction
        #   x1 (west): e1 in S (e1a) out N (m1); e2 in E (m2) out W (e2b)
        #   x2 (east): e1 in N (m1) out S (e1b); e2 in E (e2a) out W (m2)
        if over_first:
            x1 = (1, (m2, m1, e2b, e1a))
            x2 = (-1, (e2a, m1, m2, e1b))
        else:
            x1 = (-1, (e1a, m2, m1, e2b))
            x2 = (1, (m1, m2, e1b, e2a))
    else:
        # parallel: e2 also runs west to east, meeting x1 then x2
        #   x1 (west): e1 in S (e1a) out N (m1); e2 in W (e2a) out E (m2)
        #   x2 (east): e1 in N (m1) out S (e1b); e2 in W (m2) out E (e2b)
        if over_first:
            x1 = (-1, (e2a, e1a, m2, m1))
            x2 = (1, (m2, e1b, e2b, m1))
        else:
            x1 = (1, (e1a, m2, m1, e2a))
            x2 = (-1, (m1, m2, e1b, e2b))
    if walk1_forward:
        x1, x2 = ((-sign, (a, d_, c, b)) for sign, (a, b, c, d_) in (x1, x2))
    vid = max(d.vertex_index) + 1  # new vertices take the largest id plus one
    return make_pd(
        relabeled(d, {t1: e1a, h1: e1b, t2: e2a, h2: e2b})
        + [Vertex(vid + i, CLASSICAL, sign, edges) for i, (sign, edges) in enumerate((x1, x2))]
    )


def find_bigons(d: PseudoPD) -> list[tuple[int, int]]:
    """Vertex-id pairs bounding a removable classical R2 bigon."""
    out = []
    for f in faces(d):
        if len(f) != 2:
            continue
        (v1, s1), (v2, s2) = f
        if v1 == v2:
            continue
        a, b = d.vertices[v1], d.vertices[v2]
        if not (a.is_classical() and b.is_classical()):
            continue
        if a.sign == b.sign:
            continue
        # both darts of the bigon belong to the same two strand pairs; the
        # cancelling pair has one strand over at both crossings, which the
        # sign condition plus the shared bigon face already guarantees for
        # knots; verify by checking the two bigon edges are distinct.
        e1 = a.edges[s1]
        e2 = a.edges[(s1 + 1) % 4]
        if e1 != e2:
            out.append((a.id, b.id))
    return out


def r2_remove(d: PseudoPD, id1: int, id2: int) -> PseudoPD:
    """Cancel the R2 bigon bounded by the two crossings."""
    try:
        v1, v2 = d.vertex_index[id1], d.vertex_index[id2]
    except KeyError as exc:
        raise MoveError(f"no vertex {exc.args[0]}") from exc
    bigon = None
    for f in faces(d):
        if len(f) == 2 and {f[0][0], f[1][0]} == {v1, v2}:
            bigon = f
            break
    if bigon is None:
        raise MoveError("vertices do not bound a bigon face")
    a, b = d.vertices[v1], d.vertices[v2]
    if not (a.is_classical() and b.is_classical()) or a.sign == b.sign:
        raise MoveError("bigon is not a cancelling classical pair")
    if d.n == 2:
        return unknot()
    # At each bigon vertex, each strand has one wall edge and one outer
    # edge; splice the two outer edges of each strand across the bigon.
    walls = {d.vertices[dd[0]].edges[dd[1]] for dd in bigon}
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for wall in walls:
        outers = [d.vertices[vi_].edges[(slot + 2) % 4] for vi_, slot in d.edge_ends[wall]]
        x, y = (find(o) for o in outers)
        if x == y:
            raise MoveError("bigon removal would close off a free loop")
        parent[max(x, y)] = min(x, y)
    return make_pd([
        Vertex(w.id, w.kind, w.sign, tuple(find(e) for e in w.edges))
        for wi, w in enumerate(d.vertices)
        if wi not in (v1, v2)
    ])


def find_triangles(d: PseudoPD) -> list[tuple[Dart, ...]]:
    """Triangular faces with three distinct vertices and distinct wall edges."""
    out = []
    for f in faces(d):
        if len(f) != 3:
            continue
        if len({dart[0] for dart in f}) != 3:
            continue
        walls = {d.vertices[vi].edges[s] for vi, s in f}
        if len(walls) == 3:
            out.append(f)
    return out


def triangle_soundness(d: PseudoPD, face: Sequence[Dart]) -> "str | None":
    """Why the triangle slide is not a legal (pseudo)move, or None if it is.

    The local strands must admit a consistent height order for every
    resolution of the precrossings in the triangle: with all three
    crossings classical the over/under data must be acyclic; with one
    precrossing the two classical crossings must place their common strand
    over both or under both; with two or more precrossings some resolution
    is always cyclic.
    """
    # The three local strands are the walls; at a classical vertex the
    # strand through slots 1,3 passes over the strand through slots 0,2.
    wall_set = {d.vertices[vi].edges[s] for vi, s in face}
    relations = []  # (upper wall, lower wall)
    pre_vertices = []
    vertices = {vi for vi, _ in face}
    for vi in vertices:
        v = d.vertices[vi]
        wall_slots = [s for s in range(4) if v.edges[s] in wall_set]
        # a wall edge may occupy two slots at tiny diagrams; keep one per strand
        strands = {}
        for s in wall_slots:
            strands.setdefault(s % 2, v.edges[s])
        if len(strands) != 2:
            return "degenerate triangle (wall on a single strand)"
        lower, upper = strands[0], strands[1]  # slots 0,2 are the under strand
        if v.is_classical():
            relations.append((upper, lower))
        else:
            pre_vertices.append((upper, lower))
    if len(pre_vertices) > 1:
        return "more than one precrossing in the triangle"
    # acyclicity of the over-relation for every resolution of the precrossing
    options = [relations]
    if pre_vertices:
        u, l = pre_vertices[0]
        options = [relations + [(u, l)], relations + [(l, u)]]
    for rels in options:
        order_ok = False
        for perm in itertools.permutations(wall_set):
            rank = {w: i for i, w in enumerate(perm)}
            if all(rank[a] > rank[b] for a, b in rels):
                order_ok = True
                break
        if not order_ok:
            return "crossing data admits no strand height order (cyclic)"
    return None


def r3(d: PseudoPD, face: Sequence[Dart]) -> PseudoPD:
    """Flip the triangle face: every strand's pair of triangle crossings
    swaps its visit order.  The face must come from find_triangles.

    The move requires the triangle's crossing data to admit consistent
    strand heights (triangle_soundness); alternating-diagram triangles,
    for example, are cyclic and admit no slide.  The flip is written down
    directly: every vertex keeps its slots, so its kind, sign and in-slots
    stay, and each end of a wall takes the outside edge from the wall's
    other end at the wall's slot and the wall at the opposite slot, so
    each wall keeps its two ends and each strand's two outside edges trade
    triangle vertices.  A precrossing's strand one becomes the strand of
    the first wall the face lists at it.  The three flipped vertices come
    last, in face order.
    """
    if len(face) != 3 or len({dart[0] for dart in face}) != 3:
        raise MoveError("move needs a triangular face on three distinct crossings")
    reason = triangle_soundness(d, face)
    if reason is not None:
        raise MoveError(f"triangle slide is not a legal move here: {reason}")
    vertices = d.vertices
    walls = [vertices[vi].edges[s] for vi, s in face]
    if len(set(walls)) != 3:
        raise MoveError("triangle walls must be three distinct edges")
    edges = {vi: list(vertices[vi].edges) for vi, _ in face}
    first_wall: dict[int, int] = {}
    for dart, wall in zip(face, walls):
        ends = (dart, d.partner[dart])
        for (vi, s), (vj, t) in zip(ends, ends[::-1]):
            edges[vi][s] = vertices[vj].edges[(t + 2) % 4]
            edges[vi][(s + 2) % 4] = wall
            first_wall.setdefault(vi, wall)
    flipped = []
    for vi, _ in face:
        v, e = vertices[vi], edges[vi]
        if not v.is_classical() and e.index(first_wall[vi]) % 2:
            e = e[1:] + e[:1]
        flipped.append(Vertex(v.id, v.kind, v.sign, tuple(e)))
    return make_pd([v for vi, v in enumerate(vertices) if vi not in edges] + flipped)
