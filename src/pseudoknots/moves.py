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

Gaps and ids must be ints (not bools), the flags (over_first,
head_first, crossed, over_at_first) bools and a sign the int +1 or -1;
`MoveSite` checks every field and raises MoveError for site data of
another length, type or value.  Gaps index insertion points: gap i
means before token i of the current diagram (0 <= gap <= size, cyclic).

The moves are moves of virtual pseudoknots: R2+ joins any two gaps,
whether or not they share a face, and PR2 swaps two crossings' tokens but
keeps each token's `over` flag, so either can raise the genus.  All keep `i`.

A triangle move (R3, PR3) is legal by one rule, `_triangle_error`, on the
triangle's three adjacent token pairs, the pieces 0 -> 1 -> 2 -> 0 in
sequence order.  Each piece runs along one side of the triangle face.
For a crossing on pieces r0 < r1, p is the piece the other follows (r0
if r1 = r0 + 1, else r1); o is +1 if p holds the crossing's over token,
else -1; x is +1 if the crossing is the first token of exactly one
of its pieces, else -1; s is its sign, +1 for a precrossing.  The slide
is legal iff s*o*x is the same on all three crossings and the heights
allow it.  The derivation:

- A piece runs with the triangle's counterclockwise boundary or against
  it (e = +1 or -1), and which one is read off which of its crossings
  comes first: running with it, a piece first meets the corner it shares
  with the side before it in counterclockwise order.
- At the corner where side B follows side A counterclockwise, the
  boundary turns left, so det(d_A, d_B) = e_A * e_B for the pieces'
  directions d.  The crossing is the second token of A when e_A = +1 and
  the first of B when e_B = +1, so x = e_A * e_B and det(d_A, d_B) * x
  = +1.
- A crossing's sign is det(over, under), so s * o = det(d_p, d_q), where
  q follows p.  If the pieces go round the triangle counterclockwise in
  sequence order, p is A at every corner and s*o*x = +1 on all three
  crossings; if clockwise, p is B and s*o*x = -1 on all three.
- A precrossing's over token is the over strand of its positive
  resolution, so with s = +1 the product reads that resolution; the
  negative one negates both s and o and leaves the product as it is.
- Heights: the three strands must stack for every resolution.  For R3
  the pieces' over-token counts must not be (1, 1, 1), a cyclic
  over-relation.  For PR3 the piece that misses the precrossing must be
  over at both its crossings or under at both, so the precrossing can
  resolve either way.

On all 7,680 three-piece patterns with at most one precrossing the rule
accepts exactly the 32 R3 and 32 PR3 patterns that three lines in the
plane realize (`tests/test_moves.py::test_triangle_template_tables`).

The removal and slide moves have one legality rule per number of
crossings their site names, a function of the diagram's per-position
arrays (crossing id, over flag, sign) and its position index (id -> its
two token positions): `_kink` (R1-, PR1-), `_pair` (R2-, PR2±; the
classical crossing first) and `_triangle` (R3, PR3).  A rule returns (kind, swaps), the kind of site the crossings hold
and its token swaps (None for a removal), or else the reason there is
none, as a string.  `apply_move` picks the rule by the length of the
site data and raises MoveError with its reason, or with both kinds when
the rule finds another kind than the site names (PR2- takes PR2+'s
site).  The site enumerators find candidates by adjacency (the
diagram's ids, its adjacent id pairs and the trios among them) and keep
those the rules accept, so enumerating sites never builds or validates
a diagram.

`apply_move` builds its result from the parent and the move's delta
`move_delta = (cut, written)`, the positions it removed or overwrote and
those it wrote (a slide's swaps are both): it writes the result's arrays
straight from the parent's (an insertion's new positions, a removal's
remaining ones, a slide's swapped ones), the parent's position index is
moved past the delta, and only the ids at the positions the move wrote
go through the pairing rule (`PseudoGaussDiagram._from_move`).

`scramble` runs the enumerators once, on its input, into a site index of
three maps: `kinks` (id -> R1- or PR1-), and `pairs` and `trios` (sorted
ids -> (kind, data)).  A site's legality depends only on its crossings'
tokens and on which of them are next to each other, so after each move
the index re-tests, through the same rules, only the id pairs seen in a
token adjacency the move broke or made (for a kink, the ids in one) and
the trios that hold such a pair.  Those adjacencies are read from the
delta alone: the parent's at `cut` and the result's at `written`.
One pass over the touched pairs reads each touched crossing the first
time it is seen: its sign, whether its two tokens are neighbours (a
kink, tested inline on the positions already at hand), and the ids
beside each of its two tokens.  A touched pair (a, b) goes through
`_pair`, its classical crossing first, only when b sits beside both
tokens of a, which the rule needs, since it matches every token of one
crossing to a distinct neighbouring token of the other.  A trio is stale
when one of its three id pairs is touched, and new trios are the common
neighbours of each touched pair that is still adjacent.  `scramble`
draws every gap, sign and choice through the generator's `getrandbits`,
by the rejection loop that `randrange` and `choice` run, so it gets the
numbers they would.  A step that draws a removal or slide draws a rank
k below the number of sites, the number `choice` would draw over the
list of every site, and takes the site of rank k in the enumerators'
order (kinks ascending, R1- before PR1-, R2- pairs and PR2 sites by
sorted id pair, trios ascending), sorting only the map that holds it;
so the random stream and the result are those of a full enumeration at
every step.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from operator import itemgetter

from .diagram import Record, _is_sign, _set
from .gauss import PseudoGaussDiagram


class MoveError(ValueError):
    """The move's local pattern is absent or the move is not legal there."""


# the (name, type) fields of each kind's site data: the gaps and ids are
# ints, the flags bools, and a sign (type None) the int +1 or -1
_SITE_FIELDS = {
    "R1+": (("gap", int), ("sign", None), ("over_first", bool)),
    "R1-": (("id", int),),
    "PR1+": (("gap", int), ("head_first", bool)),
    "PR1-": (("id", int),),
    "R2+": (("gap1", int), ("gap2", int), ("crossed", bool), ("sign", None),
            ("over_at_first", bool)),
    "R2-": (("id", int), ("id", int)),
    "R3": (("id", int), ("id", int), ("id", int)),
    "PR2+": (("classical_id", int), ("pre_id", int)),
    "PR2-": (("classical_id", int), ("pre_id", int)),
    "PR3": (("id", int), ("id", int), ("id", int)),
}


class MoveSite(Record):
    kind: str
    data: tuple

    def __init__(self, kind: str, data: tuple):
        fields = _SITE_FIELDS.get(kind)
        if fields is None:
            raise MoveError(f"unknown move kind {kind!r}")
        if not isinstance(data, tuple) or len(data) != len(fields):
            n = len(fields)
            raise MoveError(
                f"{kind} takes {n} site value{'s' if n > 1 else ''} "
                f"({', '.join(name for name, _ in fields)}), got {data!r}"
            )
        for value, (name, type_) in zip(data, fields):
            if type(value) is type_:
                continue
            if type_ is None:
                if _is_sign(value):
                    continue
                raise MoveError(f"{kind} {name} must be +1 or -1, got {value!r}")
            if type_ is int:
                if isinstance(value, int) and not isinstance(value, bool):
                    continue  # an int subclass
                raise MoveError(f"{kind} {name} must be an int, got {value!r}")
            raise MoveError(f"{kind} {name} must be a bool, got {value!r}")
        _set(self, "kind", kind)
        _set(self, "data", data)


def _unchecked_site(kind: str, data: tuple) -> MoveSite:
    """A `MoveSite` built without its check, for `scramble` only: every
    kind and data tuple it draws is one the check accepts (ints from its
    draws and from the diagram's ids, bools from comparisons, signs from
    (1, -1))."""
    site = object.__new__(MoveSite)
    fields = site.__dict__
    fields["kind"] = kind
    fields["data"] = data
    return site


def _fresh_id(g: PseudoGaussDiagram) -> int:
    return max(g.position_index, default=0) + 1


# ---------------------------------------------------------------------------
# Legality of the removal and slide moves: one rule per number of crossings
# a site names.  A rule returns (kind, swaps), the kind of move the site
# holds and its token swaps (None for a removal), or else the reason there
# is none, as a string.
# ---------------------------------------------------------------------------


def _kink(g: PseudoGaussDiagram, cid: int) -> tuple[str, None] | str:
    """("R1-" or "PR1-", None) if the two tokens of crossing `cid` sit next
    to each other, else why not."""
    try:
        i, j = g.position_index[cid]
    except KeyError:
        return f"no crossing {cid}"
    if j - i != 1 and j - i != g.size - 1:
        return f"crossing {cid} endpoints are not adjacent"
    return ("R1-" if g.sign_at[i] is not None else "PR1-"), None


def _pair(g: PseudoGaussDiagram, a: int, b: int) -> tuple[str, list | None] | str:
    """("R2-", None) if classical crossings `a`, `b` bound a removable
    bigon, ("PR2+", its two token swaps) if classical `a` slides past
    precrossing `b` along their twist band, else why not."""
    if a == b:
        return "pair move needs two distinct crossing ids"
    positions = g.position_index
    try:
        pa, pb = positions[a], positions[b]
    except KeyError as exc:
        return f"no crossing {exc.args[0]}"
    signs, overs = g.sign_at, g.over_at
    sign, b_sign = signs[pa[0]], signs[pb[0]]
    if sign is None:
        return f"crossing {a} is a precrossing; a pair site names its classical crossing first"
    r2 = b_sign is not None
    if r2 and b_sign == sign:
        return "two classical crossings of equal sign form no site"
    # each token of `a` takes the first free neighbouring token of `b`; for
    # R2, one that is over or under as it is, so the two strands are one
    # over and one under passage
    size = len(signs)
    swaps = []
    taken = None
    for i in pa:
        over = overs[i]
        for j in pb:
            if (
                j != taken and ((j - i) % size == 1 or (i - j) % size == 1)
                and (not r2 or overs[j] == over)
            ):
                swaps.append((i, j))
                taken = j
                break
    if len(swaps) != 2:
        if r2:
            return "crossings do not form an R2 bigon"
        return "crossings are not adjacent along both strands (no twist band)"
    return ("R2-", None) if r2 else ("PR2+", swaps)


def _triangle_error(g: PseudoGaussDiagram, pairs) -> str | None:
    """Why the adjacent position pairs `pairs` of `g` (three, in sequence
    order, of three crossings with at most one precrossing) do not bound a
    triangle that can slide, or None if they do.

    The pairs are the pieces of the module docstring's rule: the products
    s*o*x must agree, and the heights refuse the slide when every piece
    with two classical tokens is over at one crossing and under at the
    other (all three pieces for R3, the one without the precrossing for
    PR3)."""
    # piece r holds positions t[2r] and t[2r + 1]
    t = [p for pair in pairs for p in pair]
    ids, overs, signs = g.id_at, g.over_at, g.sign_at
    first: dict[int, int] = {}
    products = set()
    for k, q in enumerate(t):
        k0 = first.setdefault(ids[q], k)
        if k0 != k:
            # its position on p, the piece the other follows
            on_p = t[k0] if k >> 1 == (k0 >> 1) + 1 else q
            products.add(
                (signs[q] or 1) * (1 if overs[on_p] else -1) * (1 if (k - k0) & 1 else -1)
            )
    if len(products) != 1 or all(
        overs[t[k]] != overs[t[k + 1]]
        for k in (0, 2, 4) if signs[t[k]] is not None and signs[t[k + 1]] is not None
    ):
        return "triangle data does not match any planar-realizable slide"
    return None


def _triangle(g: PseudoGaussDiagram, a: int, b: int, c: int) -> tuple[str, list] | str:
    """("R3" or "PR3", the flip's three token swaps) if crossings `a`, `b`,
    `c` bound a triangle that can slide, else why not.

    The swaps are the triangle's adjacent token pairs of two different
    crossings, matched greedily along the sequence from the ascending
    positions of the six tokens; three pairs take all six tokens, so they
    hold each of the three id pairs once."""
    if a == b or a == c or b == c:
        return "triangle move needs three distinct crossing ids"
    positions = g.position_index
    try:
        pa, pb, pc = positions[a], positions[b], positions[c]
    except KeyError as exc:
        return f"no crossing {exc.args[0]}"
    ids, signs = g.id_at, g.sign_at
    n_pre = (signs[pa[0]] is None) + (signs[pb[0]] is None) + (signs[pc[0]] is None)
    if n_pre > 1:
        return "a triangle move has at most one precrossing"
    size = len(ids)
    trio = (a, b, c)
    pairs = []
    end = None  # the second position of the last pair
    for i in sorted(pa + pb + pc):
        if i == end:
            continue
        j = i + 1 if i + 1 < size else 0
        other = ids[j]
        # position 0 is taken when it starts the first pair
        if other in trio and other != ids[i] and (j or not pairs or pairs[0][0]):
            pairs.append((i, j))
            end = j
    if len(pairs) != 3:
        return "ids do not form a triangle (three adjacent pairs)"
    return _triangle_error(g, pairs) or ("PR3" if n_pre else "R3", pairs)


def _inserted(
    index: dict[int, tuple[int, int]], lo: int, hi: int
) -> dict[int, tuple[int, int]]:
    """A copy of `index` after inserting two tokens before position `lo`
    and two before `hi` (lo <= hi; hi = the diagram's size when only two
    are inserted).  Only the entries with a token at or past `lo` move."""
    out = dict(index)
    for cid, (i, j) in index.items():
        if j >= lo:
            if i >= lo:
                i += 4 if i >= hi else 2
            out[cid] = (i, j + 4 if j >= hi else j + 2)
    return out


def _cut(g: PseudoGaussDiagram, ids: tuple[int, ...]) -> PseudoGaussDiagram:
    """`g` without the tokens of crossings `ids`."""
    positions = g.position_index
    cut = sorted(p for cid in ids for p in positions[cid])
    id_at, over_at, sign_at = list(g.id_at), list(g.over_at), list(g.sign_at)
    for c in reversed(cut):
        del id_at[c], over_at[c], sign_at[c]
    # only the entries with a token past the first cut move, each token
    # back by the number of cuts before it
    index = dict(positions)
    for cid in ids:
        del index[cid]
    first = cut[0]
    for cid, (i, j) in index.items():
        if j > first:
            index[cid] = (i - bisect_left(cut, i), j - bisect_left(cut, j))
    return PseudoGaussDiagram._from_move(
        tuple(id_at), tuple(over_at), tuple(sign_at), index, (), tuple(cut)
    )


def apply_move(g: PseudoGaussDiagram, site: MoveSite) -> PseudoGaussDiagram:
    """Apply one rewrite; raises MoveError if the site's pattern is absent.

    The result is built from `g` and the move's delta: the parent's
    position index moved past the inserted or cut tokens, and the pairing
    rule run on the ids of the tokens the move wrote (see
    `PseudoGaussDiagram._from_move`)."""
    kind = site.kind
    ids, overs, signs = g.id_at, g.over_at, g.sign_at
    size = len(ids)

    if kind in ("R1+", "PR1+"):
        if kind == "R1+":
            gap, sign, over_first = site.data
        else:  # an R1+ with sign None
            (gap, over_first), sign = site.data, None
        cid = _fresh_id(g)
        gap = gap % (size + 1)
        ids, overs, signs = list(ids), list(overs), list(signs)
        ids[gap:gap] = cid, cid
        overs[gap:gap] = over_first, not over_first
        signs[gap:gap] = sign, sign
        return PseudoGaussDiagram._from_move(
            tuple(ids), tuple(overs), tuple(signs),
            _inserted(g.position_index, gap, size),
            (gap, gap + 1),
        )

    if kind == "R2+":
        gap1, gap2, crossed, sign, over = site.data  # over: over_at_first
        a = _fresh_id(g)
        b = a + 1
        # the (ids, overs, signs) of the two positions written at each gap
        first = (a, b), (over, over), (sign, -sign)
        under = not over
        if crossed:
            second = (a, b), (under, under), (sign, -sign)
        else:
            second = (b, a), (under, under), (-sign, sign)
        gap1 %= size + 1
        gap2 %= size + 1
        if gap1 <= gap2:
            lo, hi = gap1, gap2
        else:
            lo, hi, first, second = gap2, gap1, second, first
        columns = list(ids), list(overs), list(signs)
        for column, x, y in zip(columns, first, second):
            column[hi:hi] = y
            column[lo:lo] = x
        return PseudoGaussDiagram._from_move(
            *map(tuple, columns),
            _inserted(g.position_index, lo, hi),
            (lo, lo + 1, hi + 2, hi + 3),
        )

    # a removal or slide: the rule for the number of crossings the site names
    data = site.data
    rule = (_kink, _pair, _triangle)[len(data) - 1](g, *data)
    if isinstance(rule, str):
        raise MoveError(rule)
    found, swaps = rule
    # PR2- shares PR2+'s rule and swaps
    if found != ("PR2+" if kind == "PR2-" else kind):
        raise MoveError(f"the site is {found}, not {kind}")
    if swaps is None:
        return _cut(g, data)
    ids, overs, signs = list(ids), list(overs), list(signs)
    for i, j in swaps:
        ids[i], ids[j] = ids[j], ids[i]
        overs[i], overs[j] = overs[j], overs[i]
        signs[i], signs[j] = signs[j], signs[i]
    written = tuple(sorted(p for swap in swaps for p in swap))
    # a slide overwrites the positions it writes
    return PseudoGaussDiagram._from_move(
        tuple(ids), tuple(overs), tuple(signs), dict(g.position_index), written, written
    )


# ---------------------------------------------------------------------------
# Site enumeration and scrambling
# ---------------------------------------------------------------------------


def removable_kinks(g: PseudoGaussDiagram, classical: bool) -> list[int]:
    """Ids, ascending, of the removable kinks of the given type."""
    site = ("R1-" if classical else "PR1-", None)
    return sorted(cid for cid in g.position_index if _kink(g, cid) == site)


def removable_r2_pairs(g: PseudoGaussDiagram) -> list[tuple[int, int]]:
    """Removable R2 pairs in `adjacent_id_pairs` order."""
    return [(a, b) for a, b in g.adjacent_id_pairs if _pair(g, a, b) == ("R2-", None)]


def pr2_sites(g: PseudoGaussDiagram) -> list[tuple[int, int]]:
    """(classical id, precrossing id) of every PR2 slide, in
    `adjacent_id_pairs` order."""
    return [
        site for a, b in g.adjacent_id_pairs for site in ((a, b), (b, a))
        if not isinstance(rule := _pair(g, *site), str) and rule[0] == "PR2+"
    ]


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
                if (b, c) in adjacent and not isinstance(rule := _triangle(g, a, b, c), str):
                    out.append((rule[0], (a, b, c)))
    return out


def _adjacency_pairs(
    g: PseudoGaussDiagram, positions: tuple[int, ...], bridges: bool
) -> set[tuple[int, int]]:
    """Id pairs (a, b), a <= b, of every token adjacency of `g` with an end
    at one of `positions`.  With `bridges`, also the pair of tokens on
    either side of each maximal cyclic run of `positions`: the adjacency
    the run splits when it is inserted, or joins when it is cut out."""
    ids = g.id_at
    size = len(ids)
    out = set()
    for p in positions:
        a = ids[p]
        for b in (ids[p - 1], ids[p + 1 - size]):
            out.add((a, b) if a <= b else (b, a))
        if bridges and (p - 1) % size not in positions:
            q = p + 1
            while q % size in positions:
                q += 1
            a, b = ids[p - 1], ids[q % size]
            out.add((a, b) if a <= b else (b, a))
    return out


class _SiteIndex:
    """The removal and slide sites of one diagram, kept current move by
    move for `scramble`.

    `kinks` maps the id of each removable kink to "R1-" or "PR1-"; `pairs`
    and `trios` map the sorted ids of each two- and three-crossing site to
    its (kind, data).  The signs of the ids allow one kind per id set (R2-
    or PR2+ for two, R3 or PR3 for three).  `len()` counts the sites and
    `pick(k)` returns the one of rank k in the order of the four public
    enumerators concatenated.

    A move changes the legality only of sites with two ids in a token
    adjacency the move broke or made (a kink: one id), or of trios holding
    such a pair, so `update` re-tests just those: pairs through `_pair`,
    its classical crossing first, and trios through `_triangle`, the rules
    `apply_move` and the enumerators read.  A kink is tested inline, on
    the two positions `update` already holds for the crossing; going
    through `_kink` there costs about 5% of a scramble.
    It reads them off the move delta only: `old`'s adjacencies at `cut`,
    bridged when nothing was written, and `new`'s at `written`, bridged
    when nothing was cut; not off a change in how many adjacencies a pair
    has, as an R3 can move both of a pair's and leave their count at 2.
    One pass over the touched pairs reads each touched crossing the first
    time it is seen, and a touched pair (a, b) goes through `_pair` only
    when b sits beside both tokens of a: the rule matches every token of
    one crossing to a distinct neighbouring token of the other.
    """

    def __init__(self, g: PseudoGaussDiagram):
        self.kinks = {cid: "R1-" for cid in removable_kinks(g, True)}
        self.kinks.update((cid, "PR1-") for cid in removable_kinks(g, False))
        self.pairs = {pair: ("R2-", pair) for pair in removable_r2_pairs(g)}
        self.pairs.update((tuple(sorted(site)), ("PR2+", site)) for site in pr2_sites(g))
        self.trios = {trio: (kind, trio) for kind, trio in triangle_sites(g)}

    def __len__(self) -> int:
        return len(self.kinks) + len(self.pairs) + len(self.trios)

    def pick(self, k: int) -> tuple[str, tuple]:
        """The site of rank `k` as (kind, data), in the order of the four
        public enumerators concatenated: kinks ascending, R1- before PR1-,
        then R2- pairs and PR2 sites by sorted id pair, then trios
        ascending.  Only the map that holds rank `k` is sorted."""
        kinks, pairs, trios = self.kinks, self.pairs, self.trios
        # "R1-" > "PR1-" and "R2-" > "PR2+", and a reversed sort is still
        # stable, so sorting on the kind, reversed, keeps the ids ascending
        if k < len(kinks):
            ids = sorted(kinks)
            ids.sort(key=kinks.__getitem__, reverse=True)
            return kinks[ids[k]], (ids[k],)
        k -= len(kinks)
        if k < len(pairs):
            two = [pairs[key] for key in sorted(pairs)]
            two.sort(key=itemgetter(0), reverse=True)
            return two[k]
        return trios[sorted(trios)[k - len(pairs)]]

    def update(self, old: PseudoGaussDiagram, new: PseudoGaussDiagram) -> None:
        """Bring the sites of `old` up to those of `new`, the result of one
        move on it, reading only `new.move_delta`."""
        cut, written = new.move_delta
        touched = _adjacency_pairs(old, cut, not written) if cut else set()
        if written:
            touched |= _adjacency_pairs(new, written, not cut)

        # touched pairs and candidate trios are sorted, as the keys need
        kinks, pairs, trios = self.kinks, self.pairs, self.trios
        # every stale trio holds a touched pair
        for key in [
            (a, b, c) for a, b, c in trios
            if (a, b) in touched or (a, c) in touched or (b, c) in touched
        ]:
            del trios[key]
        ids, signs, positions = new.id_at, new.sign_at, new.position_index
        size = len(ids)
        # each touched crossing of `new`, read when first seen: whether it
        # is classical, the ids beside its first token and beside its
        # second, and all of them but its own; None once it is gone
        seen = {}
        # every new trio holds a touched pair that is still adjacent
        found = set()
        for pair in touched:
            pairs.pop(pair, None)
            for cid in pair:
                if cid in seen:
                    continue
                kinks.pop(cid, None)
                pos = positions.get(cid)
                if pos is None:
                    seen[cid] = None
                    continue
                i, j = pos  # i < j, so i + 1 and j + 1 - size are in range
                classical = signs[i] is not None
                if j - i == 1 or j - i == size - 1:
                    kinks[cid] = "R1-" if classical else "PR1-"
                first = (ids[i - 1], ids[i + 1])
                second = (ids[j - 1], ids[j + 1 - size])
                neighbours = {*first, *second}
                neighbours.discard(cid)
                seen[cid] = (classical, first, second, neighbours)
            a, b = pair
            if a == b or seen[a] is None:
                continue
            a_classical, first, second, neighbours = seen[a]
            if b not in neighbours:
                continue
            if b in first and b in second:
                # a pair site names its classical crossing first
                site = pair if a_classical else (b, a)
                if not isinstance(rule := _pair(new, *site), str):
                    pairs[pair] = (rule[0], site)
            for c in neighbours & seen[b][3]:
                found.add((c, a, b) if c < a else (a, c, b) if c < b else (a, b, c))
        for trio in found:
            if not isinstance(rule := _triangle(new, *trio), str):
                trios[trio] = (rule[0], trio)


# share of scramble steps that insert when a removal or slide is also available
INSERT_BIAS = 0.7


def _below(getrandbits, n: int) -> int:
    """A random int in [0, n), n >= 1, drawn with the generator's
    `getrandbits` by the bit-length rejection loop that `randrange(n)` and
    `choice` over n items run, so it is the number they would draw.  n = 0
    would never end, since `getrandbits(0)` is 0; `scramble` passes only
    size + 1, 2, 3 or a nonzero site count."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def scramble(
    g: PseudoGaussDiagram,
    seed: int,
    steps: int,
    max_crossings: int = 24,
) -> PseudoGaussDiagram:
    """Apply `steps` pseudorandom applicable moves, deterministically from
    `seed`.  The generator is `random.Random(seed)`, which seeds from the
    absolute value of an int, so a seed and its negative give the same
    scramble.

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
    the tokens it changed.  Every gap, sign and choice is drawn by
    `_below` from the generator's `getrandbits`, the numbers `randrange`
    and `choice` would draw, and the flags by `random()`.  A step that
    draws from the index draws a rank, the number `choice` would draw over
    the full list, and `pick` sorts only the part of the index that holds
    that rank; so every step draws as if from a full enumeration of the
    current diagram.  The drawn site skips `MoveSite`'s check, which
    everything drawn here passes.  `apply_move` still checks the move, and
    its refusal is not caught: every insertion writes each new id once over
    and once under with one sign, and every indexed site has passed the rule
    `apply_move` runs again, so a refusal means a stale index.

    The moves are virtual (see the module docstring), so a scramble of a
    planar base is almost always virtual: 198 of the 200 200-step scrambles
    of the `family` (2,2), (2,4), (4,2) and (4,4) shadows (both of each,
    seeds 0..24) have genus 1-7.  `i` is still preserved."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    getrandbits, draw = rng.getrandbits, rng.random
    index = _SiteIndex(g)
    cur = g
    for _ in range(steps):
        size = len(cur.id_at)
        # (kind, data) pairs, their values drawn left to right; only the
        # chosen one becomes a MoveSite
        if size // 2 < max_crossings:
            gaps = size + 1
            inserts = (
                (
                    "R1+",
                    (_below(getrandbits, gaps), (1, -1)[_below(getrandbits, 2)], draw() < 0.5),
                ),
                ("PR1+", (_below(getrandbits, gaps), draw() < 0.5)),
                (
                    "R2+",
                    (
                        _below(getrandbits, gaps),
                        _below(getrandbits, gaps),
                        draw() < 0.5,
                        (1, -1)[_below(getrandbits, 2)],
                        draw() < 0.5,
                    ),
                ),
            )
        else:
            inserts = ()
        n = len(index)
        if inserts and (not n or draw() < INSERT_BIAS):
            site = _unchecked_site(*inserts[_below(getrandbits, 3)])
        elif n:
            # the random number `choice` would draw over every site
            site = _unchecked_site(*index.pick(_below(getrandbits, n)))
        else:
            continue
        new = apply_move(cur, site)
        index.update(cur, new)
        cur = new
    return cur
