import hashlib
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordflype import TYPE_I, TYPE_II, ChordFlypeSite, chord_flype, chord_site_for
from gaussref import pd_isomorphic
from oracle import compositions
from pdmoves import reference_shadow_flype, reference_site_geometry, resolved_at
from pseudoknots import tables
from pseudoknots.bracket import jones
from pseudoknots.diagram import PDError, Vertex, make_pd, mirror, parse_pd, resolve
from pseudoknots.flype import (
    MAX_FAMILY_CROSSINGS,
    FlypeError,
    FlypeSite,
    counterexample_pair,
    enumerate_flype_sites,
    family,
    family_site,
    _site_geometry,
    random_flype_configuration,
    shadow_flype_pd,
)
from pseudoknots.gauss import PseudoGaussDiagram, pd_to_gauss
from pseudoknots.invariant import compute_i, i_equal, prechord_diagram
from pseudoknots.chords import canonical_form, evenness_check
from pseudoknots.tables import twist_shadow
from pseudoknots.wereset import wereset, wereset_equal


def test_site_validation():
    p1 = twist_shadow((2, 1, 1, 1, 2))
    with pytest.raises(FlypeError):
        FlypeSite(0, frozenset({0}))
    with pytest.raises(FlypeError):
        shadow_flype_pd(p1, FlypeSite(0, frozenset({5})))  # not adjacent
    classical = resolve(p1, {i: 1 for i in p1.precrossing_ids()})
    with pytest.raises(FlypeError, match="precrossing"):
        shadow_flype_pd(classical, FlypeSite(4, frozenset({5, 6})))


# A chain of three precrossings, kinks at both ends, two edges between
# neighbours; the same chain with its middle vertex classical.
_CHAIN = "P(1,1,2,6) P(2,6,3,5) P(3,5,4,4)"
_CHAIN_X = "P(1,1,2,6) X+(2,6,3,5) P(3,5,4,4)"


@pytest.mark.parametrize(
    "text, crossing, tangle, message",
    [
        (_CHAIN, 5, {1}, "no vertex with id 5"),
        (_CHAIN_X, 1, {0}, "flype crossing must be a precrossing"),
        (_CHAIN, 0, {7}, "no vertex with id 7"),
        (_CHAIN_X, 0, {1}, "classical crossing inside the tangle"),
        (_CHAIN, 0, {2}, "flype crossing touches the tangle through 0 edges (need 2)"),
        ("P(1,6,2,7) P(7,4,8,5) P(5,8,6,9) P(9,1,10,10) P(3,3,4,2)", 0, {1, 2},
         "the two tangle edges are opposite at the flype crossing"),
        ("P(1,1,2,4) P(2,4,3,3)", 0, {1}, "tangle has 2 boundary edges (need exactly 4)"),
        (_CHAIN, 0, {1}, "flype crossing carries a kink loop on its outer side"),
        # the tangle is two kinks, each hanging on two of the four legs
        ("P(1,1,2,8) P(2,8,3,7) P(3,7,4,6) P(4,6,5,5)", 1, {0, 3},
         "tangle is not connected (boundary walk misses legs)"),
    ],
    ids=["missing crossing", "classical crossing", "missing tangle vertex",
         "classical tangle vertex", "not adjacent", "opposite", "two boundary edges",
         "outer kink", "disconnected tangle"],
)
def test_site_rejection_messages(text, crossing, tangle, message):
    d = parse_pd(text)
    with pytest.raises(FlypeError) as exc:
        shadow_flype_pd(d, FlypeSite(crossing, frozenset(tangle)))
    assert str(exc.value) == message
    assert FlypeSite(crossing, frozenset(tangle)) not in enumerate_flype_sites(d)


# Crossing 1 and tangle {2} of the chain of four precrossings below is a
# site whose two outer edges lie between its tangle edges and the tangle,
# so the tangle's boundary, walked from t1, reads the far legs before t2;
# the second diagram hangs a kinked precrossing off each side of a
# one-vertex tangle the same way.
_OTHER_WAY = ["P(1,1,2,8) P(2,8,3,7) P(3,7,4,6) P(4,6,5,5)",
              "P(1,5,2,4) P(2,4,3,3) P(8,6,1,5) P(7,7,8,6)"]


def test_flypes_where_the_boundary_runs_the_other_way():
    for text in _OTHER_WAY:
        d = parse_pd(text)
        sites = enumerate_flype_sites(d)
        assert sites, text
        for site in sites:
            out = shadow_flype_pd(d, site)
            assert out == reference_shadow_flype(d, site) == make_pd(out.vertices)


def _geometry_or_message(check, d, site):
    try:
        return check(d, site)
    except FlypeError as exc:
        return str(exc)


def _reference_diagrams():
    """The `_OTHER_WAY` diagrams, the twist shadows of 3-7 crossings, and
    both sides of `random_flype_configuration` seeds 0..63, each as it is
    and with the precrossings outside its site resolved +1, then -1."""
    out = [parse_pd(text) for text in _OTHER_WAY]
    for n in range(3, 8):
        for code in compositions(n):
            try:
                out.append(twist_shadow(code))
            except PDError:  # two-component closure
                continue
    for seed in range(64):
        shadow, site = random_flype_configuration(seed)
        keep = {site.crossing} | site.tangle
        for side in (shadow, shadow_flype_pd(shadow, site)):
            outside = [pid for pid in side.precrossing_ids() if pid not in keep]
            out += [side] + [resolved_at(side, dict.fromkeys(outside, sign)) for sign in (1, -1)]
    return out


def test_site_geometry_equals_the_reference():
    # every precrossing as the flype crossing, with every tangle of one to
    # three other precrossings: the bounded walk must read the site the
    # whole-boundary walk reads, or refuse it with the same message
    outcomes = {}
    for d in _reference_diagrams():
        pre = d.precrossing_ids()
        for c in pre:
            others = [pid for pid in pre if pid != c]
            for size in range(1, 4):
                for combo in itertools.combinations(others, size):
                    site = FlypeSite(c, frozenset(combo))
                    got = _geometry_or_message(_site_geometry, d, site)
                    assert got == _geometry_or_message(reference_site_geometry, d, site), \
                        (d.to_text(), site)
                    key = "site" if type(got) is tuple else re.sub(r"\d+", "N", got)
                    outcomes[key] = outcomes.get(key, 0) + 1
    # every check from the edge count on is reached, valid sites included
    assert outcomes == {
        "site": 5120,
        "flype crossing touches the tangle through N edges (need N)": 34728,
        "the two tangle edges are opposite at the flype crossing": 1024,
        "tangle has N boundary edges (need exactly N)": 12908,
        "flype crossing carries a kink loop on its outer side": 8,
        "tangle is not connected (boundary walk misses legs)": 4,
    }


def test_empty_tangle_is_identity():
    p1 = twist_shadow((2, 1, 1, 1, 2))
    out = shadow_flype_pd(p1, FlypeSite(2, frozenset()))
    assert pd_isomorphic(out, p1)


def test_empty_tangle_keeps_vertex_ids():
    # family(2,2) post numbers its vertices [0, 1, 2, 3, 5, 6, 4]: ids that
    # are not 0..n-1 in vertex order must survive the identity flype
    post = family(2, 2)[1]
    ids = [v.id for v in post.vertices]
    assert ids != sorted(ids)
    for c in post.precrossing_ids():
        out = shadow_flype_pd(post, FlypeSite(c, frozenset()))
        assert [v.id for v in out.vertices] == ids, c
        assert out.to_text() == post.to_text()


def test_enumerate_sites_on_p1():
    p1 = twist_shadow((2, 1, 1, 1, 2))
    sites = enumerate_flype_sites(p1)
    assert len(sites) == 14
    assert family_site(2, 2) in sites


def test_flype_preserves_precrossing_count_and_ids():
    p1 = twist_shadow((2, 1, 1, 1, 2))
    p2 = shadow_flype_pd(p1, family_site(2, 2))
    assert sorted(v.id for v in p2.vertices) == sorted(v.id for v in p1.vertices)
    assert len(p2.precrossing_ids()) == len(p1.precrossing_ids())


def test_double_flype_restores():
    p1 = twist_shadow((2, 1, 1, 1, 2))
    site = family_site(2, 2)
    p2 = shadow_flype_pd(p1, site)
    p3 = shadow_flype_pd(p2, site)
    assert pd_isomorphic(p3, p1)


def test_flype_preserves_wereset_all_sites(table):
    p1 = twist_shadow((2, 1, 1, 1, 2))
    ws1 = wereset(p1, table)
    for site in enumerate_flype_sites(p1):
        assert wereset_equal(ws1, wereset(shadow_flype_pd(p1, site), table))


def test_resolution_correspondence(p1_p2):
    # the proof mechanism: identical choice vectors give equal Jones values
    p1, p2 = p1_p2
    ids = p1.precrossing_ids()
    for bits in itertools.product((1, -1), repeat=len(ids)):
        choice = dict(zip(ids, bits))
        assert jones(resolve(p1, choice)) == jones(resolve(p2, choice))


def test_chord_flype_type_ii_matches_pd():
    for m, n in [(2, 2), (2, 4), (4, 2)]:
        a, b = family(m, n)
        site = family_site(m, n)
        csite, variant = chord_site_for(a, site)
        assert variant == TYPE_II
        flyped = chord_flype(prechord_diagram(pd_to_gauss(a)), csite, variant)
        assert i_equal(flyped, prechord_diagram(pd_to_gauss(b)))


def test_chord_flype_type_i_matches_pd():
    p1 = twist_shadow((2, 1, 1, 1, 2))
    site = FlypeSite(2, frozenset({0, 1}))
    # complement view of the same move: bands reverse in place
    csite = ChordFlypeSite((1, 12), (2, 3, 4), (7, 8, 9, 10, 11))
    flyped = chord_flype(prechord_diagram(pd_to_gauss(p1)), csite, TYPE_I)
    pd_result = shadow_flype_pd(p1, site)
    assert i_equal(flyped, prechord_diagram(pd_to_gauss(pd_result)))


def test_chord_flype_empty_bands_identity():
    p1 = twist_shadow((2, 1, 1, 1, 2))
    c = prechord_diagram(pd_to_gauss(p1))
    f_pos = pd_to_gauss(p1).position_index[2]
    out = chord_flype(c, ChordFlypeSite(tuple(f_pos), (), ()), TYPE_I)
    assert i_equal(out, c)


def test_chord_flype_site_errors():
    p1 = twist_shadow((2, 1, 1, 1, 2))
    c = prechord_diagram(pd_to_gauss(p1))
    with pytest.raises(FlypeError, match="variant"):
        chord_flype(c, ChordFlypeSite((1, 12), (), ()), "III")
    with pytest.raises(FlypeError, match="band"):
        chord_flype(c, ChordFlypeSite((1, 12), (3, 4), (7, 8)), TYPE_I)
    with pytest.raises(FlypeError, match="leaves the band"):
        chord_flype(c, ChordFlypeSite((1, 12), (2, 3), (7, 8, 9, 10, 11)), TYPE_I)


def test_family_counterexamples(table):
    for m, n in [(2, 2), (2, 4)]:
        a, b = family(m, n)
        assert a.is_shadow() and b.is_shadow()
        ga, gb = pd_to_gauss(a), pd_to_gauss(b)
        assert evenness_check(prechord_diagram(ga))
        assert evenness_check(prechord_diagram(gb))
        ia, ib = compute_i(ga), compute_i(gb)
        assert all(dec == 0 for _, _, dec in ia.chords)
        assert len(ia.chords) == m + n + 3
        assert not i_equal(ia, ib)
        assert wereset_equal(wereset(a, table), wereset(b, table))


def test_family_parity_errors():
    with pytest.raises(ValueError, match="even"):
        family(3, 2)
    with pytest.raises(ValueError, match="even"):
        family(2, 5)
    with pytest.raises(ValueError, match="at least"):
        family(0, 2)


def test_family_refuses_a_pair_too_large_to_build(monkeypatch):
    def no_build(code):
        raise AssertionError(f"built twist_shadow({code})")

    monkeypatch.setattr(tables, "twist_shadow", no_build)
    for m, n in [(MAX_FAMILY_CROSSINGS - 2, 2), (2, MAX_FAMILY_CROSSINGS - 2), (10**8, 2)]:
        with pytest.raises(ValueError, match=f"{m + n + 3} crossings"):
            family(m, n)
    # the largest pair, of MAX_FAMILY_CROSSINGS - 1 crossings, passes the check
    with pytest.raises(AssertionError, match="built twist_shadow"):
        family(MAX_FAMILY_CROSSINGS - 6, 2)


def test_family_i_differs_up_to_six():
    for m, n in [(2, 6), (6, 2), (4, 4), (6, 6)]:
        a, b = family(m, n)
        assert not i_equal(compute_i(pd_to_gauss(a)), compute_i(pd_to_gauss(b)))


def test_counterexample_pair_is_family_2_2(p1_p2):
    p1, p2 = p1_p2
    a, b = family(2, 2)
    assert pd_isomorphic(p1, a) and pd_isomorphic(p2, b)


def test_a_smaller_witness_than_the_bundled_pair(table):
    # twist_shadow((2, 2)) with one precrossing left, and its mirror: the
    # were-sets are equal, and `i` tells the two apart in both orientations
    a = parse_pd("X+(4,2,5,1) X+(8,6,1,5) X-(2,7,3,8) P(3,7,4,6)")
    b = mirror(a)
    shadow = make_pd([Vertex(v.id, None, v.edges) for v in a.vertices])
    assert pd_isomorphic(shadow, twist_shadow((2, 2)))
    assert wereset(a, table).paper_style() == "{{0_1,1},{4_1,1}}"
    assert wereset_equal(wereset(a, table), wereset(b, table))
    for d, form in ((a, b"1:2;1:2"), (b, b"1:-2;1:-2")):
        g = pd_to_gauss(d)
        assert canonical_form(compute_i(g)) == form
        assert canonical_form(compute_i(PseudoGaussDiagram(g.tokens[::-1]))) == form


def test_random_flype_configurations(table):
    for seed in range(6):
        d, site = random_flype_configuration(seed, 2 + seed % 4, 1 + seed % 2)
        assert len(d.precrossing_ids()) <= 10
        d2 = shadow_flype_pd(d, site)
        assert wereset_equal(wereset(d, table), wereset(d2, table))


def test_random_flype_configuration_counts():
    # tangle_crossings + 1 + extra_kinks precrossings; a count below 1 is
    # refused, not raised to 1 or left to fail after every try
    for tangle, kinks in [(1, 1), (2, 1), (4, 3)]:
        d, site = random_flype_configuration(0, tangle, kinks)
        assert (d.n, len(site.tangle)) == (tangle + 1 + kinks, tangle)
    for tangle, kinks, message in [
        (2, 0, "extra_kinks must be at least 1, got 0"),
        (0, 1, "tangle_crossings must be at least 1, got 0"),
        (-1, -1, "tangle_crossings must be at least 1, got -1"),
    ]:
        with pytest.raises(ValueError) as err:
            random_flype_configuration(0, tangle, kinks)
        assert str(err.value) == message


def test_bundled_data_matches_generated(p1_p2):
    from importlib import resources

    p1, p2 = p1_p2
    data = resources.files("pseudoknots.data")
    assert parse_pd(data.joinpath("counterexample_pre.pd").read_text()).to_text() == p1.to_text()
    assert parse_pd(data.joinpath("counterexample_post.pd").read_text()).to_text() == p2.to_text()


def _flype_pin_shadows() -> list[tuple[str, object]]:
    out = []
    for code in compositions(7):
        try:
            out.append(("census 7", twist_shadow(code)))
        except PDError:  # two-component closure
            continue
    for m, n in itertools.product((2, 4), repeat=2):
        pre, post = family(m, n)
        out += [(f"family({m},{n}) pre", pre), (f"family({m},{n}) post", post)]
    return out


def _flype_lines(d) -> list[str]:
    """Flype and Gauss text of every site, then every empty-tangle flype."""
    lines = []
    for site in enumerate_flype_sites(d):
        out = shadow_flype_pd(d, site)
        lines.append(f"{out.to_text()} | {pd_to_gauss(out).to_text()}")
    for c in d.precrossing_ids():
        lines.append(shadow_flype_pd(d, FlypeSite(c, frozenset())).to_text())
    return lines


def _rejected_lines(d) -> list[str]:
    """"ok" or the FlypeError message of every site with at most two
    tangle vertices, a missing id (99) included."""
    ids = [v.id for v in d.vertices] + [99]
    lines = []
    for c in ids:
        others = [i for i in ids if i != c]
        for size in range(3):
            for combo in itertools.combinations(others, size):
                try:
                    shadow_flype_pd(d, FlypeSite(c, frozenset(combo)))
                    lines.append("ok")
                except FlypeError as exc:
                    lines.append(str(exc))
    return lines


# sha256 of the newline-joined `_flype_lines` per shadow group (the census
# shadows in code order), and of the rejection messages on family(2,2).
PINNED_FLYPES = {
    "census 7": "41b2ec94d3bc70bada21779591a9b26ed22d740f229ecc966b70669b7aafeaf9",
    "family(2,2) pre": "bb9436bf2ebd1f9c67f5e1f7f39850257e763e3c64e0f99fa51a55e09f4e09d0",
    "family(2,2) post": "05828c4893a9281df4941f248d78f471a4fe9afd351def6246f5dd27d8ef9d4d",
    "family(2,4) pre": "e637a8e12605821add56d4d12aab9537d20854aa10eb4fd413b5a67c8c49705e",
    "family(2,4) post": "a735b9b645d37f8f76d1b7d46f697273dbfa1d2e3103f8d2fec2988076a51f09",
    "family(4,2) pre": "a531b1559f287a3fdab8043e0dce97ae7eedd976fd9a2459e376f8b0b427de7d",
    "family(4,2) post": "71cb66cd88be10a05cb44101c2370e4da4b20aff7a29549621ea0530b7286fc2",
    "family(4,4) pre": "f3dfb283dcd4ef21e054b5b7a534f41afbd0b0d16d2efeaac5cd31f63d1e667d",
    "family(4,4) post": "84790b6fc69ec027c0e1ce841f3175ecde085e664ab42b069aab167adcf60f2e",
    "family(2,2) rejected": "9845009092a3e01b5d7fbca4e440e5c4ff0b3d50d5359e74532330a3e355c4fc",
}


def test_flype_output_pinned():
    groups: dict[str, list[str]] = {}
    for label, d in _flype_pin_shadows():
        groups.setdefault(label, []).extend(_flype_lines(d))
    pre, post = family(2, 2)
    groups["family(2,2) rejected"] = _rejected_lines(pre) + _rejected_lines(post)
    classical = resolve(pre, {i: 1 for i in pre.precrossing_ids()})
    groups["family(2,2) rejected"] += _rejected_lines(classical)
    digests = {
        label: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for label, lines in groups.items()
    }
    assert digests == PINNED_FLYPES


def outside_resolved(d, site, sign):
    """`d` with every precrossing outside `site` replaced by its `sign`
    record: classical crossings of one sign around a flype site."""
    keep = {site.crossing} | site.tangle
    resolved = resolve(d, {pid: sign for pid in d.precrossing_ids()})
    return make_pd([Vertex(v.id, None, v.edges) if v.id in keep else v
                    for v in resolved.vertices])


def mixed_flype_pin_groups() -> dict[str, list]:
    """Both sides of the `family` pairs and of `random_flype_configuration`
    seeds 0..63, each with its site's outside resolved +1, then -1."""
    sides = []
    for m, n in itertools.product((2, 4), repeat=2):
        sides += [("family", d, family_site(m, n)) for d in family(m, n)]
    for seed in range(64):
        shadow, site = random_flype_configuration(seed)
        sides += [("random", d, site) for d in (shadow, shadow_flype_pd(shadow, site))]
    groups: dict[str, list] = {}
    for sign in (1, -1):
        for label, d, site in sides:
            groups.setdefault(f"{label} {sign:+d}", []).append(outside_resolved(d, site, sign))
    return groups


# (diagram count, sha256 of the newline-joined `_flype_lines`) per group of
# `mixed_flype_pin_groups`: the flype where classical crossings of either
# sign surround the site, which `PINNED_FLYPES` (shadows only) never runs.
PINNED_MIXED_FLYPES = {
    "family +1": (8, "82bf589cd306d2ab36dfdf9bfcd8e9d5d6903dda1097daf67569391bbb0aa15d"),
    "random +1": (128, "459ab23cd73de75f19233f77b7261384cff6f93d03b406fa150a0e1608c41e47"),
    "family -1": (8, "e0c76665b4419652a52b12132cfa2c9d914a1f5eac5434a3dce762efe64c9ec9"),
    "random -1": (128, "668f9cd27ca9b0c602d59dedc6001c209aa14394a9ee02237c3cd53a1873f6c0"),
}


def test_flype_with_classical_crossings_outside_the_site_pinned():
    digests = {}
    for label, diagrams in mixed_flype_pin_groups().items():
        assert all(not d.is_shadow() and d.precrossing_ids() for d in diagrams), label
        lines = [line for d in diagrams for line in _flype_lines(d)]
        digests[label] = (len(diagrams), hashlib.sha256("\n".join(lines).encode()).hexdigest())
    assert digests == PINNED_MIXED_FLYPES


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), tangle=st.integers(1, 5), kinks=st.integers(1, 3),
       signs=st.lists(st.sampled_from((None, 1, -1)), min_size=3, max_size=3))
def test_flype_equals_the_vertex_route(seed, tangle, kinks, signs):
    # every site of both sides of a drawn configuration whose precrossings
    # outside the site are each left as they are or resolved +1 or -1; the
    # flype is built unchecked, so it must also be what `make_pd` builds
    # from its vertices
    shadow, site = random_flype_configuration(seed, tangle, kinks)
    keep = {site.crossing} | site.tangle
    for side in (shadow, shadow_flype_pd(shadow, site)):
        outside = [pid for pid in side.precrossing_ids() if pid not in keep]
        d = resolved_at(side, {pid: sign for pid, sign in zip(outside, signs)
                               if sign is not None})
        assert site in enumerate_flype_sites(d)
        for s in enumerate_flype_sites(d):
            out = shadow_flype_pd(d, s)
            assert out == reference_shadow_flype(d, s)
            assert out == make_pd(out.vertices)


def test_a_site_keeps_no_stale_geometry():
    # a site found on one diagram, flyped on another: an equal diagram, a
    # diagram where the site is another valid site, and diagrams where it
    # is no site; each must flype, or refuse, as a fresh site does
    pre, post = family(2, 2)
    others = [parse_pd(pre.to_text()), pre, post, twist_shadow((1, 2, 1, 2, 1)),
              outside_resolved(pre, family_site(2, 2), -1), parse_pd(_CHAIN)]
    assert others[0] == pre and others[0] is not pre
    outcomes = set()
    for site in enumerate_flype_sites(pre):
        for d2 in others:
            fresh = FlypeSite(site.crossing, site.tangle)
            try:
                expected = shadow_flype_pd(d2, fresh)
            except FlypeError as exc:
                with pytest.raises(FlypeError) as got:
                    shadow_flype_pd(d2, site)
                assert str(got.value) == str(exc)
                outcomes.add("refused")
            else:
                assert shadow_flype_pd(d2, site) == expected
                outcomes.add("equal" if d2 == pre else "flyped")
    assert outcomes == {"equal", "flyped", "refused"}


def brute_force_sites(d, max_tangle=None):
    """Every combination of a precrossing and a nonempty tangle of other
    precrossings, each sent through `_site_geometry`: the site search with
    no pre-check."""
    pre_ids = d.precrossing_ids()
    sites = []
    for c in pre_ids:
        others = [p for p in pre_ids if p != c]
        limit = len(others) if max_tangle is None else min(max_tangle, len(others))
        for size in range(1, limit + 1):
            for combo in itertools.combinations(others, size):
                site = FlypeSite(c, frozenset(combo))
                try:
                    _site_geometry(d, site)
                except FlypeError:
                    continue
                sites.append(site)
    return sites


@pytest.mark.parametrize("max_tangle", [None, 1])
def test_site_search_equals_brute_force_on_the_census(max_tangle):
    total = 0
    for code in compositions(7):
        try:
            shadow = twist_shadow(code)
        except PDError:  # two-component closure
            continue
        sites = enumerate_flype_sites(shadow, max_tangle)
        assert sites == brute_force_sites(shadow, max_tangle), code
        total += len(sites)
    assert total == {None: 1416, 1: 376}[max_tangle]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), tangle=st.integers(1, 5), kinks=st.integers(1, 3))
def test_site_search_equals_brute_force_on_random_flype_shadows(seed, tangle, kinks):
    shadow, site = random_flype_configuration(seed, tangle, kinks)
    assert site in enumerate_flype_sites(shadow)
    for d in (shadow, shadow_flype_pd(shadow, site)):
        assert enumerate_flype_sites(d) == brute_force_sites(d)


def test_site_search_refuses_a_bad_max_tangle():
    # 0 is a bound that admits no tangle; a negative bound, a bool and a
    # number that is not an int are refused, not read as a bound
    p1 = twist_shadow((2, 1, 1, 1, 2))
    assert enumerate_flype_sites(p1, 0) == []
    assert enumerate_flype_sites(p1, None) == enumerate_flype_sites(p1)
    for bad in (-1, True, False, 1.0, "1"):
        with pytest.raises(ValueError) as err:
            enumerate_flype_sites(p1, bad)
        assert str(err.value) == f"max_tangle {bad!r} is not a non-negative int"
