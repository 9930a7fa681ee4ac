"""Site-directed Reidemeister and pseudo-Reidemeister rewrites on Gauss
diagrams.

Move kinds and their site data:

    R1+  (gap, sign, over_first)      insert a classical kink
    R1-  (id,)                        remove a classical kink
    PR1+ (gap, head_first)            insert a precrossing kink
    PR1- (id,)                        remove a precrossing kink
    R2+  (gap1, gap2, crossed, sign, over_at_first)
                                      slide a strand over another
    R2-  (id, id)                     cancel a classical R2 pair
    R3   (id, id, id)                 slide a strand across a classical
                                      crossing (triangle flip)
    PR2+ / PR2- (classical_id, pre_id)
                                      slide a classical crossing past a
                                      precrossing along their twist band
    PR3  (id, id, id)                 triangle flip with a precrossing

Gaps and ids must be ints (not bools); `MoveSite` raises MoveError for
site data of another length or type.  Gaps index insertion points: gap i
means before token i of the current diagram (0 <= gap <= size, cyclic).
The triangle moves require the local crossing data to admit consistent
strand heights for every resolution; the legal local patterns are
generated from plane geometry at import (_R3_TEMPLATES, _PR3_TEMPLATES)
and a triangle's canonical pattern is looked up there.

The legality rule of each removal and slide move (R1-, PR1-, R2-, PR2±,
R3, PR3) is one function of the diagram's tokens and its position index
(id -> its two token positions).  `apply_move` raises MoveError with the
rule's reason; the site enumerators find candidates by adjacency (ids
whose two tokens are neighbours, the diagram's adjacent id pairs and the
trios among them) and keep the sites the same rule accepts, so
enumerating sites never builds or validates a diagram.

`apply_move` builds its result from the parent and the move's delta, the
positions it inserted, cut or swapped: the parent's position index is
moved past them, and only the ids of the tokens the move wrote go through
the pairing rule (`PseudoGaussDiagram._from_move`).  The result keeps the
delta as `move_delta`.

`scramble` runs the enumerators once, on its input, into a site index.  A
site's legality depends only on its crossings' tokens and on which of
them are next to each other, so after each move the index re-tests,
through the same rules, only the id pairs seen in a token adjacency the
move broke or made (for a kink, the ids in one) and the trios that hold
such a pair.  Those adjacencies are read from the move's delta: the
positions of the inserted, removed or swapped tokens.  A touched id gets
one kink test, and a touched pair only the rule its roles allow (R2- for
two classical crossings, PR2 for a classical and a precrossing one).  On
steps that draw a removal or slide, the index is sorted into the
enumerators' order (kinks ascending, R1- before PR1-, R2- pairs and PR2
sites by sorted id pair, trios ascending), so the random stream and the
result are those of a full enumeration at every step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .gauss import (
    CLASSICAL_ROLES,
    GaussError,
    GaussToken,
    OVER,
    PRE_HEAD,
    PRE_TAIL,
    PseudoGaussDiagram,
    UNDER,
)


class MoveError(ValueError):
    """The move's local pattern is absent or the move is not legal there."""


def _canonical(rows) -> tuple:
    """Canonical form of a triangle pattern given as three rows of two
    (id, role, sign or 0) tokens, one row per adjacent token pair: the least
    of the three rotations of the rows, with ids renamed 0, 1, 2 by first
    use."""
    best = None
    for rot in range(3):
        rename: dict = {}
        desc = []
        for row in rows[rot:] + rows[:rot]:
            out_row = []
            for id_, role, sign in row:
                out_row.append((rename.setdefault(id_, len(rename)), role, sign))
            desc.append(tuple(out_row))
        desc = tuple(desc)
        if best is None or desc < best:
            best = desc
    return best


def _generate_triangle_templates() -> tuple[frozenset, frozenset]:
    """Enumerate every planar-realizable triangle-move pattern.

    Three directed lines in the plane form the triangle; the pattern of the
    six Gauss tokens (pair orders, over/under roles, signs, precrossing
    arrow directions) is computed from the geometry: crossing order along a
    line follows its direction, a crossing's sign is the determinant of the
    over direction against the under direction, and the move is legal only
    when the over/under data admits a strand height order for every
    resolution.  Both mirror images and both traversal orders are included,
    so membership in the returned sets is exactly planar realizability of
    a legal slide.
    """
    lines = {
        "A": ((0.0, -0.15), (1.0, 0.0)),
        "B": ((0.5, -1.0), (-1.0, 2.0)),
        "C": ((0.5, 1.0), (-1.0, -2.0)),
    }
    names = tuple(lines)
    crossings = (("A", "B"), ("A", "C"), ("B", "C"))

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def stackable(rels):
        """Whether some height order puts each (over, under) pair's over on top."""
        return any(all(p.index(a) < p.index(b) for a, b in rels) for p in permutations(names))

    classical_out = set()
    pre_out = set()
    signs = (1, -1)
    for mirror, fa, fb, fc, arc_order, over_bits in product(
        signs, signs, signs, signs, (("A", "B", "C"), ("A", "C", "B")), range(8)
    ):
        over = {key: key[(over_bits >> bi) & 1] for bi, key in enumerate(crossings)}
        rels = [(over[k], k[1] if over[k] == k[0] else k[0]) for k in crossings]
        if not stackable(rels):
            continue
        points = {n: (p[0], p[1] * mirror) for n, (p, _) in lines.items()}
        dirs = {
            n: (d[0] * f, d[1] * mirror * f) for (n, (_, d)), f in zip(lines.items(), (fa, fb, fc))
        }
        # the line over a crossing in its positive resolution, and the
        # parameter of each crossing along each of its lines
        plus_over = {}
        t_of: dict[str, dict[tuple, float]] = {n: {} for n in names}
        for key in crossings:
            x, y = key
            det = cross(dirs[x], dirs[y])
            plus_over[key] = x if det > 0 else y
            r = (points[y][0] - points[x][0], points[y][1] - points[x][1])
            t_of[x][key] = cross(r, dirs[y]) / det
            t_of[y][key] = cross(r, dirs[x]) / det
        base_rows = [(n, sorted(t_of[n], key=t_of[n].get)) for n in arc_order]

        def pattern(pre=None):
            """Canonical rows with crossing `pre`, if any, a precrossing."""
            rows = []
            for n, row in base_rows:
                out_row = []
                for key in row:
                    if key == pre:
                        out_row.append((key, PRE_HEAD if n == plus_over[key] else PRE_TAIL, 0))
                    else:
                        sign = 1 if over[key] == plus_over[key] else -1
                        out_row.append((key, OVER if over[key] == n else UNDER, sign))
                rows.append(tuple(out_row))
            return _canonical(rows)

        classical_out.add(pattern())
        # one-precrossing variants: both resolutions must stay stackable
        for i, pk in enumerate(crossings):
            others = rels[:i] + rels[i + 1:]
            if stackable(others + [pk]) and stackable(others + [pk[::-1]]):
                pre_out.add(pattern(pk))
    return frozenset(classical_out), frozenset(pre_out)


_R3_TEMPLATES, _PR3_TEMPLATES = _generate_triangle_templates()


# the fields of each kind's site data; the gaps and ids must be ints
_SITE_FIELDS = {
    "R1+": ("gap", "sign", "over_first"),
    "R1-": ("id",),
    "PR1+": ("gap", "head_first"),
    "PR1-": ("id",),
    "R2+": ("gap1", "gap2", "crossed", "sign", "over_at_first"),
    "R2-": ("id", "id"),
    "R3": ("id", "id", "id"),
    "PR2+": ("classical_id", "pre_id"),
    "PR2-": ("classical_id", "pre_id"),
    "PR3": ("id", "id", "id"),
}
_INT_FIELDS = frozenset(("gap", "gap1", "gap2", "id", "classical_id", "pre_id"))


@dataclass(frozen=True)
class MoveSite:
    kind: str
    data: tuple

    def __post_init__(self):
        fields = _SITE_FIELDS.get(self.kind)
        if fields is None:
            raise MoveError(f"unknown move kind {self.kind!r}")
        data = self.data
        if not isinstance(data, tuple) or len(data) != len(fields):
            n = len(fields)
            raise MoveError(
                f"{self.kind} takes {n} site value{'s' if n > 1 else ''} "
                f"({', '.join(fields)}), got {data!r}"
            )
        for name, value in zip(fields, data):
            if name in _INT_FIELDS and (not isinstance(value, int) or isinstance(value, bool)):
                raise MoveError(f"{self.kind} {name} must be an int, got {value!r}")


def _fresh_id(g: PseudoGaussDiagram) -> int:
    return max(g.position_index, default=0) + 1


# ---------------------------------------------------------------------------
# Legality of the removal and slide moves: a rule returns the reason as a
# string when the move is illegal, else None or the move's token swaps.
# ---------------------------------------------------------------------------


def _adjacent(i: int, j: int, size: int) -> bool:
    return (j - i) % size == 1 or (i - j) % size == 1


def _kink_kind(g: PseudoGaussDiagram, cid: int) -> str | None:
    """"R1-" or "PR1-", by the role of crossing `cid`, if its two tokens
    are neighbours on the cycle; None if they are not or `g` has no
    crossing `cid`."""
    pos = g.position_index.get(cid)
    if pos is None:
        return None
    i, j = pos
    if j - i != 1 and j - i != len(g.tokens) - 1:
        return None
    return "R1-" if g.tokens[i].role in CLASSICAL_ROLES else "PR1-"


def _kink_error(g: PseudoGaussDiagram, cid: int, classical: bool) -> str | None:
    """Why crossing `cid` is not a removable kink of the given type."""
    pos = g.position_index.get(cid)
    if pos is None:
        return f"no crossing {cid}"
    if (g.tokens[pos[0]].role in CLASSICAL_ROLES) != classical:
        return "R1- needs a classical kink" if classical else "PR1- needs a precrossing kink"
    if _kink_kind(g, cid) is None:
        return f"crossing {cid} endpoints are not adjacent"
    return None


def _r2_error(g: PseudoGaussDiagram, ida: int, idb: int) -> str | None:
    """Why crossings `ida`, `idb` do not form a removable R2 bigon."""
    positions = g.position_index
    pa, pb = positions.get(ida), positions.get(idb)
    if pa is None or pb is None:
        return "missing crossings for R2-"
    tokens = g.tokens
    a, b = tokens[pa[0]], tokens[pb[0]]
    if a.role not in CLASSICAL_ROLES or b.role not in CLASSICAL_ROLES:
        return "R2- needs two classical crossings"
    if a.sign != -b.sign:
        return "R2 pair must have opposite signs"
    # the four endpoints form two cyclically adjacent pairs, one pair of
    # over passages and one of under passages; each token of `ida` takes
    # the first free adjacent token of `idb` with its role
    size = len(tokens)
    roles = []
    taken = None
    for i in pa:
        role = tokens[i].role
        for j in pb:
            if j != taken and _adjacent(i, j, size) and tokens[j].role == role:
                roles.append(role)
                taken = j
                break
    if len(roles) != 2:
        return "crossings do not form an R2 bigon"
    if roles[0] == roles[1]:
        return "R2 pair must have one strand over at both crossings"
    return None


def _pr2_swaps(g: PseudoGaussDiagram, cid: int, pid: int) -> list[tuple[int, int]] | str:
    """The two token swaps that slide classical `cid` past precrossing
    `pid`, or why there is no such slide."""
    positions = g.position_index
    pc, pp = positions.get(cid), positions.get(pid)
    if pc is None or pp is None:
        return "missing crossings for PR2"
    tokens = g.tokens
    if tokens[pc[0]].role not in CLASSICAL_ROLES or tokens[pp[0]].role in CLASSICAL_ROLES:
        return "PR2 slides a classical crossing past a precrossing"
    # each token of `cid` takes the first free adjacent token of `pid`
    size = len(tokens)
    swaps = []
    taken = None
    for i in pc:
        for j in pp:
            if j != taken and _adjacent(i, j, size):
                swaps.append((i, j))
                taken = j
                break
    if len(swaps) != 2:
        return "crossings are not adjacent along both strands (no twist band)"
    return swaps


def _triangle_swaps(g: PseudoGaussDiagram, kind: str, ids) -> list[tuple[int, int]] | str:
    """The three token swaps of an R3/PR3 flip on crossings `ids`, or why
    the flip is illegal there."""
    if len(ids) != 3 or len(set(ids)) != 3:
        return "triangle move needs three distinct crossing ids"
    tokens, positions = g.tokens, g.position_index
    size = len(tokens)
    id_set = set(ids)
    # adjacent token pairs of two different ids of the triangle, matched
    # greedily along the sequence
    pairs = []
    used = set()
    for i in sorted(p for cid in ids if cid in positions for p in positions[cid]):
        j = (i + 1) % size
        if (
            tokens[j].id in id_set
            and tokens[i].id != tokens[j].id
            and i not in used
            and j not in used
        ):
            pairs.append((i, j))
            used.update((i, j))
    if len(pairs) != 3 or len(used) != 6:
        return "ids do not form a triangle (three adjacent pairs)"
    if len({frozenset((tokens[i].id, tokens[j].id)) for i, j in pairs}) != 3:
        return "triangle pairs must involve all three id pairs"
    n_pre = sum(tokens[positions[cid][0]].role not in CLASSICAL_ROLES for cid in ids)
    if kind == "R3" and n_pre:
        return "R3 is the all-classical triangle move"
    if kind == "PR3" and n_pre != 1:
        return "PR3 needs exactly one precrossing in the triangle"
    # Membership in the analytically generated template sets checks strand
    # height consistency and the sign/orientation coupling in one step.
    pattern = _canonical(
        [[(t.id, t.role, t.sign or 0) for t in (tokens[i], tokens[j])] for i, j in pairs]
    )
    if pattern not in _R3_TEMPLATES and pattern not in _PR3_TEMPLATES:
        return "triangle data does not match any planar-realizable slide"
    return pairs


def _inserted(
    index: dict[int, tuple[int, int]], size: int, lo: int, hi: int
) -> dict[int, tuple[int, int]]:
    """`index`, of a diagram with `size` tokens, after inserting two tokens
    before position `lo` and two before `hi` (lo <= hi; hi = size when
    only two are inserted)."""
    moved = [*range(lo), *range(lo + 2, hi + 2), *range(hi + 4, size + 4)]
    return {cid: (moved[i], moved[j]) for cid, (i, j) in index.items()}


def _cut(g: PseudoGaussDiagram, ids: tuple[int, ...]) -> PseudoGaussDiagram:
    """`g` without the tokens of crossings `ids`."""
    positions, tokens = g.position_index, g.tokens
    cut = sorted(p for cid in ids for p in positions[cid])
    # the new position of each parent position (-1 at the cut ones)
    out, moved, start = (), [], 0
    for k, c in enumerate(cut):
        out += tokens[start:c]
        moved += range(start - k, c - k)
        moved.append(-1)
        start = c + 1
    out += tokens[start:]
    moved += range(start - len(cut), len(tokens) - len(cut))
    index = {
        cid: (moved[i], moved[j]) for cid, (i, j) in positions.items() if cid not in ids
    }
    return PseudoGaussDiagram._from_move(out, index, (), tuple(cut))


def _is_sign(x) -> bool:
    return type(x) is int and x in (1, -1)


def apply_move(g: PseudoGaussDiagram, site: MoveSite) -> PseudoGaussDiagram:
    """Apply one rewrite; raises MoveError if the site's pattern is absent.

    The result is built from `g` and the move's delta: the parent's
    position index moved past the inserted or cut tokens, and the pairing
    rule run on the ids of the tokens the move wrote (see
    `PseudoGaussDiagram._from_move`)."""
    kind = site.kind
    tokens = g.tokens
    size = len(tokens)

    if kind in ("R1+", "PR1+"):
        if kind == "R1+":
            gap, sign, over_first = site.data
            if not _is_sign(sign):
                raise MoveError("kink sign must be +1 or -1")
            cid = _fresh_id(g)
            pair = (GaussToken(cid, OVER, sign), GaussToken(cid, UNDER, sign))
            if not over_first:
                pair = pair[::-1]
        else:
            gap, head_first = site.data
            cid = _fresh_id(g)
            pair = (GaussToken(cid, PRE_HEAD, None), GaussToken(cid, PRE_TAIL, None))
            if not head_first:
                pair = pair[::-1]
        gap = gap % (size + 1)
        return PseudoGaussDiagram._from_move(
            tokens[:gap] + pair + tokens[gap:],
            _inserted(g.position_index, size, gap, size),
            (gap, gap + 1),
        )

    if kind in ("R1-", "PR1-"):
        (cid,) = site.data
        error = _kink_error(g, cid, kind == "R1-")
        if error:
            raise MoveError(error)
        return _cut(g, site.data)

    if kind == "R2+":
        gap1, gap2, crossed, sign, over_at_first = site.data
        if not _is_sign(sign):
            raise MoveError("sign must be +1 or -1")
        a = _fresh_id(g)
        b = a + 1
        first_roles = (OVER, OVER) if over_at_first else (UNDER, UNDER)
        second_roles = (UNDER, UNDER) if over_at_first else (OVER, OVER)
        first = (GaussToken(a, first_roles[0], sign), GaussToken(b, first_roles[1], -sign))
        if crossed:
            second = (GaussToken(a, second_roles[0], sign), GaussToken(b, second_roles[1], -sign))
        else:
            second = (GaussToken(b, second_roles[0], -sign), GaussToken(a, second_roles[1], sign))
        gap1 %= size + 1
        gap2 %= size + 1
        if gap1 <= gap2:
            out = tokens[:gap1] + first + tokens[gap1:gap2] + second + tokens[gap2:]
            lo, hi = gap1, gap2
        else:
            out = tokens[:gap2] + second + tokens[gap2:gap1] + first + tokens[gap1:]
            lo, hi = gap2, gap1
        return PseudoGaussDiagram._from_move(
            out, _inserted(g.position_index, size, lo, hi), (lo, lo + 1, hi + 2, hi + 3)
        )

    if kind == "R2-":
        ida, idb = site.data
        error = _r2_error(g, ida, idb)
        if error:
            raise MoveError(error)
        return _cut(g, site.data)

    if kind in ("PR2+", "PR2-"):
        cid, pid = site.data
        swaps = _pr2_swaps(g, cid, pid)
    elif kind in ("R3", "PR3"):
        swaps = _triangle_swaps(g, kind, site.data)
    else:
        raise MoveError(f"unhandled kind {kind}")
    if isinstance(swaps, str):
        raise MoveError(swaps)
    out = list(tokens)
    for i, j in swaps:
        out[i], out[j] = out[j], out[i]
    written = tuple(sorted(p for swap in swaps for p in swap))
    return PseudoGaussDiagram._from_move(tuple(out), dict(g.position_index), written)


# ---------------------------------------------------------------------------
# Site enumeration and scrambling
# ---------------------------------------------------------------------------


def removable_kinks(g: PseudoGaussDiagram, classical: bool) -> list[int]:
    """Ids, ascending, of the removable kinks of the given type: the ids
    whose two tokens sit next to each other on the cycle."""
    ids = [t.id for t in g.tokens]
    kinks = {a for a, b in zip(ids, ids[1:] + ids[:1]) if a == b}
    kind = "R1-" if classical else "PR1-"
    return [cid for cid in sorted(kinks) if _kink_kind(g, cid) == kind]


def removable_r2_pairs(g: PseudoGaussDiagram) -> list[tuple[int, int]]:
    """Removable R2 pairs in `adjacent_id_pairs` order."""
    return [(a, b) for a, b in g.adjacent_id_pairs if _r2_error(g, a, b) is None]


def _pr2_site(g: PseudoGaussDiagram, a: int, b: int) -> tuple[int, int] | None:
    """(classical id, precrossing id) of the PR2 slide on crossings `a`,
    `b` of `g`, or None if there is none."""
    tokens, positions = g.tokens, g.position_index
    a_classical = tokens[positions[a][0]].role in CLASSICAL_ROLES
    if a_classical == (tokens[positions[b][0]].role in CLASSICAL_ROLES):
        return None
    site = (a, b) if a_classical else (b, a)
    return None if isinstance(_pr2_swaps(g, *site), str) else site


def pr2_sites(g: PseudoGaussDiagram) -> list[tuple[int, int]]:
    """(classical id, precrossing id) of every PR2 slide, in
    `adjacent_id_pairs` order."""
    return [site for a, b in g.adjacent_id_pairs if (site := _pr2_site(g, a, b))]


def _triangle_kind(g: PseudoGaussDiagram, trio: tuple[int, int, int]) -> str | None:
    """"R3" or "PR3" if the flip on crossings `trio` of `g` is legal, else
    None."""
    tokens, positions = g.tokens, g.position_index
    n_pre = sum(tokens[positions[cid][0]].role not in CLASSICAL_ROLES for cid in trio)
    if n_pre > 1:
        return None
    kind = "R3" if n_pre == 0 else "PR3"
    return None if isinstance(_triangle_swaps(g, kind, trio), str) else kind


def triangle_sites(g: PseudoGaussDiagram) -> list[tuple[str, tuple[int, int, int]]]:
    """(kind, (a, b, c)) of every R3/PR3 flip, trios ascending."""
    pairs = g.adjacent_id_pairs
    # higher neighbours of each id, ascending because the pairs are sorted
    higher: dict[int, list[int]] = {}
    for a, b in pairs:
        higher.setdefault(a, []).append(b)
    adjacent = set(pairs)
    out = []
    for a, bs in higher.items():
        for k, b in enumerate(bs):
            for c in bs[k + 1:]:
                if (b, c) in adjacent and (kind := _triangle_kind(g, (a, b, c))):
                    out.append((kind, (a, b, c)))
    return out


def _neighbour_ids(g: PseudoGaussDiagram, cid: int) -> set[int]:
    """Ids other than `cid` with a token next to a token of crossing `cid`
    of `g`."""
    tokens = g.tokens
    size = len(tokens)
    i, j = g.position_index[cid]
    out = {tokens[i - 1].id, tokens[(i + 1) % size].id}
    out.update((tokens[j - 1].id, tokens[(j + 1) % size].id))
    out.discard(cid)
    return out


def _adjacency_pairs(
    g: PseudoGaussDiagram, positions: set[int], bridges: bool
) -> set[tuple[int, int]]:
    """Id pairs (a, b), a <= b, of every token adjacency of `g` with an end
    at one of `positions`.  With `bridges`, also the pair of tokens on
    either side of each maximal cyclic run of `positions`: the adjacency
    the run splits when it is inserted, or joins when it is cut out."""
    tokens = g.tokens
    size = len(tokens)
    out = set()
    for p in positions:
        a = tokens[p].id
        for b in (tokens[p - 1].id, tokens[(p + 1) % size].id):
            out.add((a, b) if a <= b else (b, a))
        if bridges and (p - 1) % size not in positions:
            q = p + 1
            while q % size in positions:
                q += 1
            a, b = tokens[p - 1].id, tokens[q % size].id
            out.add((a, b) if a <= b else (b, a))
    return out


# rank of each removal and slide kind in scramble's site list
_RANK = {"R1-": 0, "PR1-": 1, "R2-": 2, "PR2+": 3, "R3": 4, "PR3": 4}


class _SiteIndex:
    """The removal and slide sites of one diagram, kept current move by
    move for `scramble`.

    `sites` maps the sorted ids of each site to its (kind, data); the roles
    of the ids allow one kind per id set (R1- or PR1- for one id, R2- or
    PR2+ for two, R3 or PR3 for three).  `ordered()` sorts them by (rank of
    the kind, ids), the order of the four public enumerators
    concatenated.  A move changes the legality only of sites with two ids
    in a token adjacency the move broke or made (a kink: one id), or of
    trios holding such a pair, so `update` re-tests just those through the
    rule helpers.  The pairs are read off the changed adjacencies, not off
    a change in how many adjacencies a pair has: an R3 can move both
    adjacencies of a pair and leave their count at 2.
    """

    def __init__(self, g: PseudoGaussDiagram):
        found = [("R1-", (cid,)) for cid in removable_kinks(g, True)]
        found += [("PR1-", (cid,)) for cid in removable_kinks(g, False)]
        found += [("R2-", pair) for pair in removable_r2_pairs(g)]
        found += [("PR2+", site) for site in pr2_sites(g)]
        found += triangle_sites(g)
        self.sites = {tuple(sorted(data)): (kind, data) for kind, data in found}

    def ordered(self) -> list[tuple[str, tuple]]:
        return [
            site for _, site in sorted(
                self.sites.items(), key=lambda item: (_RANK[item[1][0]], item[0])
            )
        ]

    def update(self, old: PseudoGaussDiagram, new: PseudoGaussDiagram, site: MoveSite) -> None:
        """Bring the sites of `old` up to those of `new = apply_move(old,
        site)`, reading the positions the move cut or wrote from
        `new.move_delta`."""
        cut, written = new.move_delta
        if cut:
            touched = _adjacency_pairs(old, set(cut), bridges=True)
        elif site.kind in ("R1+", "PR1+", "R2+"):
            touched = _adjacency_pairs(new, set(written), bridges=True)
        else:
            # a slide swaps tokens in place
            at = set(written)
            touched = _adjacency_pairs(old, at, False) | _adjacency_pairs(new, at, False)

        # touched pairs and candidate trios are sorted, as the keys need
        sites, tokens, positions = self.sites, new.tokens, new.position_index
        # every stale trio holds a touched pair
        for key in [
            key for key in sites
            if len(key) == 3 and not touched.isdisjoint(combinations(key, 2))
        ]:
            del sites[key]
        neighbours = {}
        classical = {}
        for cid in {cid for pair in touched for cid in pair}:
            sites.pop((cid,), None)
            if cid not in positions:
                continue
            if kind := _kink_kind(new, cid):
                sites[cid,] = (kind, (cid,))
            neighbours[cid] = _neighbour_ids(new, cid)
            classical[cid] = tokens[positions[cid][0]].role in CLASSICAL_ROLES
        # every new trio holds a touched pair that is still adjacent
        trios = set()
        for pair in touched:
            sites.pop(pair, None)
            a, b = pair
            if a == b or b not in neighbours.get(a, ()):
                continue
            # R2- pairs two classical crossings, PR2 a classical and a
            # precrossing one
            if classical[a] and classical[b]:
                if _r2_error(new, a, b) is None:
                    sites[pair] = ("R2-", pair)
            elif classical[a] != classical[b]:
                if pr2 := _pr2_site(new, a, b):
                    sites[pair] = ("PR2+", pr2)
            if common := neighbours[a] & neighbours[b]:
                trios.update(tuple(sorted((a, b, c))) for c in common)
        for trio in trios:
            if kind := _triangle_kind(new, trio):
                sites[trio] = (kind, trio)


# share of scramble steps that insert when a removal or slide is also available
INSERT_BIAS = 0.7


def scramble(
    g: PseudoGaussDiagram,
    seed: int,
    steps: int,
    max_crossings: int = 24,
) -> PseudoGaussDiagram:
    """Apply `steps` pseudorandom applicable moves, deterministically from
    `seed`.

    Each step draws from the insertions (R1+, PR1+, R2+; none once the
    diagram has `max_crossings` crossings) or from the list of every
    removal and slide site (R1-, PR1-, R2-, PR2+, R3, PR3).  When both are
    available it inserts with probability `INSERT_BIAS`, so diagrams grow
    rather than stall.  PR2- is never drawn by name: it shares PR2+'s rule
    and swaps, so the PR2+ sites cover it.

    `max_crossings` gates the insertions only, not their result: an R2+
    drawn at `max_crossings - 1` crossings ends one past the cap.  No step
    grows a diagram beyond `max_crossings + 1` crossings, and that bound is
    reached (`family(2, 2)` pre, 300 steps, `max_crossings=10`: 11
    crossings over seeds 0..39).  Capping it exactly would change the
    random stream of every pinned scramble.

    The removal and slide sites are enumerated once, into a `_SiteIndex`
    that each applied move updates by re-testing only the sites next to
    the tokens it changed.  The list is sorted into the enumerators' order
    only on steps that draw from it, so every step draws as if from a full
    enumeration of the current diagram."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    index = _SiteIndex(g)
    cur = g
    for _ in range(steps):
        size = len(cur.tokens)
        # (kind, data) pairs; only the chosen one becomes a MoveSite
        inserts: list[tuple[str, tuple]] = []
        if size // 2 < max_crossings:
            gap = rng.randrange(size + 1)
            inserts.append(("R1+", (gap, rng.choice((1, -1)), rng.random() < 0.5)))
            inserts.append(("PR1+", (rng.randrange(size + 1), rng.random() < 0.5)))
            inserts.append(
                (
                    "R2+",
                    (
                        rng.randrange(size + 1),
                        rng.randrange(size + 1),
                        rng.random() < 0.5,
                        rng.choice((1, -1)),
                        rng.random() < 0.5,
                    ),
                )
            )
        if inserts and (not index.sites or rng.random() < INSERT_BIAS):
            pool = inserts
        else:
            pool = index.ordered()
        if not pool:
            continue
        site = MoveSite(*rng.choice(pool))
        try:
            new = apply_move(cur, site)
        except (MoveError, GaussError):
            continue
        index.update(cur, new, site)
        cur = new
    return cur
