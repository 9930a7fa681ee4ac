"""Shadow flypes on PD codes.

A shadow flype takes a precrossing c adjacent to a tangle T of precrossings
(the tangle meets the rest of the diagram through 4 boundary edges, two of
which end at c on cyclically adjacent slots), deletes c, rotates T by 180
degrees, and reinserts a precrossing on the far side of T.  The rotation is
realized purely combinatorially: tangle vertices keep their cyclic edge
orders and only the boundary legs are rewired.

Compass layout used throughout (c west of T):

        o1 ---+          +--- f1
              c ==== T ====
        o2 ---+          +--- f2

t1/t2 are the two c-T edges (north/south), f1/f2 the far boundary edges.
After the flype o1 joins f2's tangle leg, o2 joins f1's, and the new
crossing sits between t1/t2's tangle legs and f1/f2's outer ends.

The site is read off the diagram's darts, the ints 4 * vertex index +
slot: `PseudoPD.mate` pairs the two darts of each edge, and the tangle's
boundary is walked with the counterclockwise step that the planarity
check walks the faces with.  A site is checked in this order: the flype
crossing is not in the tangle (`FlypeSite`); it is a vertex and a
precrossing; so is each tangle vertex; exactly two of c's edges end in
the tangle, on adjacent slots; the tangle has four boundary edges; o1
and o2 are not one kink loop; and the boundary walk from t1 meets all
four (the tangle is connected).  `_site_geometry` says why no other
check could fire.  The flyped diagram is built once from flat
arrays, unchecked (`diagram._trusted_build`, see `shadow_flype_pd`): the
diagram's dart labels, eight of them rewired, with the flype crossing's
four darts, id and sign moved to the end.  A site that
`enumerate_flype_sites` or `random_flype_configuration` returns keeps the
geometry `_site_geometry` found on its diagram, so the flype of that very
diagram does not search for it again.

`family(m, n)` is the counterexample pair: a twist shadow and its flype
at `family_site(m, n)`.  The flype is computed on the PD code only; its
chord diagram is read off the result's Gauss code.
"""

from __future__ import annotations

from itertools import combinations

from .diagram import FlypeError, PDError, PseudoPD, Record, _ccw, _set, _trusted_build

# `family(m, n)` refuses pairs of more than this many crossings (m + n + 3)
# before it builds a vertex: a pair takes about 1.9 KB a crossing (a 52 MB
# peak for the 20,005 of family(20000, 2)), so 10^8 would exhaust memory.
# m + n + 3 is odd for the even m and n it accepts and the limit is even,
# so refusing at `>=` would refuse the same pairs.
MAX_FAMILY_CROSSINGS = 10_000


class FlypeSite(Record):
    """A flype crossing together with the tangle it moves past.

    A site the library found on a diagram also has `_geometry`, (that
    diagram, what `_site_geometry` returned for it), set when it is found
    and not a field, so equality, hashing and repr still read the
    crossing and the tangle only.
    """

    crossing: int
    tangle: frozenset[int]

    def __init__(self, crossing: int, tangle: frozenset[int]):
        if crossing in tangle:
            raise FlypeError("flype crossing cannot be part of the tangle")
        _set(self, "crossing", crossing)
        _set(self, "tangle", tangle)


def _flype_crossing(d: PseudoPD, crossing: int) -> int:
    """Vertex index of the flype crossing, which must be a precrossing."""
    c_vi = d.vertex_index.get(crossing)
    if c_vi is None:
        raise FlypeError(f"no vertex with id {crossing}")
    if d.signs[c_vi] is not None:
        raise FlypeError("flype crossing must be a precrossing")
    return c_vi


def _site_geometry(d: PseudoPD, site: FlypeSite) -> tuple[int, ...]:
    """The flype crossing's vertex index, then the darts of the tangle legs
    of t1, t2, f1 and f2 and of the far ends of o1, o2, f1 and f2.

    The boundary walk steps from a leg one slot counterclockwise and,
    while that dart's edge stays inside the tangle, crosses it and steps
    again: it follows the face through the leg's outer dart, whose dart
    before that one is dangling, so it stops within one face.  A step
    permutes the dangling darts, so three steps from t_nw read all four
    exactly when the tangle is connected.  The face at c's corner between
    t2 and t1 comes back to c along t2 (`_ccw(mate[t_sw])` is c's slot
    s + 1), so the walk reads t_sw next unless it meets both far legs
    first; it does when o1 and o2 lie between t1, t2 and the tangle
    (crossing 1, tangle {2} of P(1,1,2,8) P(2,8,3,7) P(3,7,4,6)
    P(4,6,5,5)), and then reads t_sw last.  t_sw is never opposite t_nw:
    t1, c and t2 would cut off a part of the plane joined to the rest by
    one far leg alone, whose vertices' 4k darts would be twice its inner
    edges plus one.  And o1, o2 or a far leg ending at c or in the tangle
    would be a third edge from c into the tangle, which its count refuses.
    """
    c_vi = _flype_crossing(d, site.crossing)
    tangle_vis = set()
    for tid in site.tangle:
        vi = d.vertex_index.get(tid)
        if vi is None:
            raise FlypeError(f"no vertex with id {tid}")
        if d.signs[vi] is not None:
            raise FlypeError("classical crossing inside the tangle")
        tangle_vis.add(vi)

    mate = d.mate
    c = 4 * c_vi
    c_t_slots = [slot for slot in range(4) if mate[c + slot] >> 2 in tangle_vis]
    if len(c_t_slots) != 2:
        raise FlypeError(
            f"flype crossing touches the tangle through {len(c_t_slots)} edges (need 2)"
        )
    a, b = c_t_slots
    if (b - a) % 4 == 1:
        s = a
    elif (a - b) % 4 == 1:
        s = b
    else:
        raise FlypeError("the two tangle edges are opposite at the flype crossing")

    # outer boundary edge count: every tangle dart whose mate is outside
    dangling = [
        dart
        for vi in sorted(tangle_vis)
        for dart in range(4 * vi, 4 * vi + 4)
        if mate[dart] >> 2 not in tangle_vis
    ]
    if len(dangling) != 4:
        raise FlypeError(
            f"tangle has {len(dangling)} boundary edges (need exactly 4)"
        )

    t_sw = mate[c + s]
    t_nw = mate[c + (s + 1) % 4]
    r1 = mate[c + (s + 2) % 4]
    r2 = mate[c + (s + 3) % 4]
    if r1 == c + (s + 3) % 4:
        raise FlypeError("flype crossing carries a kink loop on its outer side")

    legs = [t_nw]
    for _ in range(3):
        dart = _ccw(legs[-1])
        while mate[dart] >> 2 in tangle_vis:
            dart = _ccw(mate[dart])
        legs.append(dart)
    if sorted(legs) != dangling:
        raise FlypeError("tangle is not connected (boundary walk misses legs)")
    # the boundary from t_sw away from t_nw: t_sw, f2, f1
    _, t_se, t_ne = legs[1:] if legs[1] == t_sw else legs[:0:-1]
    return c_vi, t_nw, t_sw, t_ne, t_se, r1, r2, mate[t_ne], mate[t_se]


def _found_site(d: PseudoPD, site: FlypeSite) -> FlypeSite:
    """`site`, keeping its geometry on `d` for `shadow_flype_pd(d, site)`;
    raises `_site_geometry`'s FlypeError when it is not a site of `d`."""
    _set(site, "_geometry", (d, _site_geometry(d, site)))
    return site


def shadow_flype_pd(d: PseudoPD, site: FlypeSite) -> PseudoPD:
    """Apply the shadow flype; every vertex, the flype crossing included,
    keeps its id, and the flype crossing moves to the end of the vertex list.

    Flyping past an empty tangle is a planar isotopy, so the diagram is
    returned as it is in that case.

    The site is checked on `d` unless it was found on `d` itself, the same
    object, whose geometry it keeps.  The result is built unchecked
    (`_trusted_build`): the ids are `d`'s; each label the rewiring frees
    or adds is on exactly two darts; and the flype is an isotopy of the
    curve inside a disk that holds only precrossings, so the result is one
    planar strand whose arcs outside the disk keep their directions, all
    of them or none, which keeps every classical term's slot 0 and sign.
    """
    if not site.tangle:
        _flype_crossing(d, site.crossing)
        return d
    found_on, geometry = getattr(site, "_geometry", (None, None))
    if found_on is not d:
        geometry = _site_geometry(d, site)
    c_vi, t_nw, t_sw, t_ne, t_se, r1, r2, r3, r4 = geometry

    ids, signs, labels = list(d.ids), list(d.signs), list(d.labels)
    m = 2 * d.n  # labels are 1..2n
    labels[r1] = labels[t_se] = m + 1  # o1 side joins f2's tangle leg
    labels[r2] = labels[t_ne] = m + 2  # o2 side joins f1's tangle leg
    # the new crossing's legs
    labels[t_sw], labels[t_nw], labels[r3], labels[r4] = m + 3, m + 4, m + 5, m + 6
    # the flype crossing moves to the end, ccw from f1's far end: t2's
    # tangle leg, t1's tangle leg, f2's far end
    del labels[4 * c_vi:4 * c_vi + 4]
    labels += (m + 5, m + 3, m + 4, m + 6)
    ids.append(ids.pop(c_vi))
    signs.append(signs.pop(c_vi))
    return _trusted_build(ids, signs, labels)


def family(m: int, n: int) -> tuple[PseudoPD, PseudoPD]:
    """Counterexample pair: shadows with equal were-sets but distinct
    invariant values, generalizing the base 7-precrossing pair.

    The first shadow is the twist closure of code (m,1,1,1,n); the second
    is its shadow flype at the designated site (the second single crossing
    moved past the n-twist band).  Both m and n must be even (odd values
    correspond to non-realizable, virtual-only chord templates) and >= 2,
    and m + n + 3 at most MAX_FAMILY_CROSSINGS.
    """
    if m < 2 or n < 2:
        raise ValueError("family parameters must be at least 2")
    if m % 2 or n % 2:
        raise ValueError("family parameters must be even")
    if m + n + 3 > MAX_FAMILY_CROSSINGS:
        raise ValueError(f"family({m},{n}) has {m + n + 3} crossings "
                         f"(limit {MAX_FAMILY_CROSSINGS})")
    from .tables import twist_shadow

    base = twist_shadow((m, 1, 1, 1, n))
    pair = shadow_flype_pd(base, family_site(m, n))
    return base, pair


def family_site(m: int, n: int) -> FlypeSite:
    """The designated flype site of the family base shadow."""
    return FlypeSite(m + 2, frozenset(range(m + 3, m + 3 + n)))


def counterexample_pair() -> tuple[PseudoPD, PseudoPD]:
    """The paper's witness: nonequivalent 7-precrossing pseudoknots with
    identical were-sets.  It is not the smallest such pair: a 4-crossing
    diagram with one precrossing and its mirror are another."""
    return family(2, 2)


def random_flype_configuration(
    seed: int, tangle_crossings: int = 4, extra_kinks: int = 1
) -> tuple[PseudoPD, FlypeSite]:
    """A random shadow with a valid flype site, built by construction.

    The flype crossing is attached west of a random twist tangle and the
    four ends are closed up; random precrossing kinks are added outside the
    tangle for variety.  Total precrossings: tangle_crossings + 1 +
    extra_kinks.  Both counts must be at least 1 (`ValueError` otherwise):
    a site needs a nonempty tangle, and the first kink keeps the tangle's
    far boundary apart from the flype crossing.
    """
    import random as _random

    from .tables import _TangleBuilder

    for name, count in (("tangle_crossings", tangle_crossings), ("extra_kinks", extra_kinks)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    rng = _random.Random(seed)
    for _ in range(400):
        main = _TangleBuilder()
        main.twist_east()  # the flype crossing (vertex 0)
        # the tangle is built separately so only its two west legs reach the
        # flype crossing, then grafted on
        sub = _TangleBuilder()
        sub.twist_east()
        ops = [sub.twist_east, sub.twist_south]
        for _ in range(tangle_crossings - 1):
            rng.choice(ops)()
        main.attach_east(sub)
        # more structure east of the tangle keeps its far boundary separate
        main.twist_east()
        main_ops = [main.twist_east, main.twist_south]
        for _ in range(extra_kinks - 1):
            rng.choice(main_ops)()
        try:
            d = main.close(rng.choice(("numerator", "denominator")))
        except PDError:
            continue
        try:
            site = _found_site(d, FlypeSite(0, frozenset(range(1, tangle_crossings + 1))))
        except FlypeError:
            continue
        return d, site
    raise RuntimeError(f"could not build a flype configuration for seed {seed}")


def enumerate_flype_sites(d: PseudoPD, max_tangle: int | None = None) -> list[FlypeSite]:
    """All valid nonempty-tangle flype sites of a shadow (small diagrams).

    A candidate tangle is skipped unless exactly two of the flype crossing's
    four edges end in it, the count `_site_geometry` checks third, so most
    candidates build no `FlypeSite`; `_site_geometry` validates the rest,
    and each site returned keeps what it found (`_found_site`).
    `max_tangle`, when given, bounds the tangle size and must be a
    non-negative int (`ValueError` otherwise; a bool is refused too).
    """
    if max_tangle is not None and (type(max_tangle) is not int or max_tangle < 0):
        raise ValueError(f"max_tangle {max_tangle!r} is not a non-negative int")
    pre_ids = d.precrossing_ids()
    mate = d.mate
    sites = []
    for c in pre_ids:
        c_vi = d.vertex_index[c]
        # the id of the vertex at the far end of each of c's four edges
        neighbours = [d.ids[mate[dart] >> 2] for dart in range(4 * c_vi, 4 * c_vi + 4)]
        others = [p for p in pre_ids if p != c]
        limit = len(others) if max_tangle is None else min(max_tangle, len(others))
        for size in range(1, limit + 1):
            for combo in combinations(others, size):
                if sum(map(combo.__contains__, neighbours)) != 2:
                    continue
                try:
                    sites.append(_found_site(d, FlypeSite(c, frozenset(combo))))
                except FlypeError:
                    continue
    return sites
