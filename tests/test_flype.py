import hashlib
import itertools

import pytest

from oracle import compositions
from pseudoknots.bracket import jones
from pseudoknots.diagram import PDError, parse_pd, pd_isomorphic, resolve
from pseudoknots.flype import (
    ChordFlypeSite,
    FlypeError,
    FlypeSite,
    TYPE_I,
    TYPE_II,
    chord_flype,
    chord_site_for,
    counterexample_pair,
    enumerate_flype_sites,
    family,
    family_site,
    random_flype_configuration,
    shadow_flype_pd,
)
from pseudoknots.gauss import pd_to_gauss
from pseudoknots.invariant import compute_i, i_equal, prechord_diagram
from pseudoknots.chords import evenness_check
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
    f_pos = pd_to_gauss(p1).positions_of(2)
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


def test_family_i_differs_up_to_six():
    for m, n in [(2, 6), (6, 2), (4, 4), (6, 6)]:
        a, b = family(m, n)
        assert not i_equal(compute_i(pd_to_gauss(a)), compute_i(pd_to_gauss(b)))


def test_counterexample_pair_is_family_2_2(p1_p2):
    p1, p2 = p1_p2
    a, b = family(2, 2)
    assert pd_isomorphic(p1, a) and pd_isomorphic(p2, b)


def test_random_flype_configurations(table):
    for seed in range(6):
        d, site = random_flype_configuration(seed, 2 + seed % 4, 1 + seed % 2)
        assert len(d.precrossing_ids()) <= 10
        d2 = shadow_flype_pd(d, site)
        assert wereset_equal(wereset(d, table), wereset(d2, table))


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
