import hashlib
from importlib import resources

import pytest

from oracle import compositions
from pdmoves import resolved_at
from pseudoknots import tables
from pseudoknots.bracket import Unknown, classify_jones, jones
from pseudoknots.diagram import PDError, PseudoPD
from pseudoknots.flype import family, random_flype_configuration
from pseudoknots.gauss import pd_to_gauss
from pseudoknots.laurent import LaurentPolynomial
from pseudoknots.tables import (
    RATIONAL_KNOTS,
    _TangleBuilder,
    alternating_resolution,
    load_table,
    rebuild_table,
    standard_diagrams,
    twist_shadow,
)


def test_reference_diagrams_match_classical_invariants():
    for name, d in standard_diagrams():
        v = jones(d)
        if name == "0_1":
            assert d.n == 0
            continue
        code, det = RATIONAL_KNOTS[name]
        assert v.span() == int(name.split("_")[0])
        assert abs(v.evaluate_at_unit(-1)) == det
        assert v.min_degree + v.max_degree <= 0


def test_alternating_resolution_alternates():
    d = alternating_resolution(twist_shadow((2, 1, 1, 1, 2)))
    overs = [t.over for t in pd_to_gauss(d).tokens]
    assert all(a != b for a, b in zip(overs, overs[1:]))


def test_alternating_resolution_is_over_at_even_positions():
    # every knot shadow of a rational code with 3 to 9 crossings, and 100
    # random flype shadows: the Gauss code of the alternating resolution
    # reads O, U, O, U, ... from the passage entered on edge 1
    shadows = []
    for crossings in range(3, 10):
        for code in compositions(crossings):
            try:
                shadows.append(twist_shadow(code))
            except PDError:  # the closure is a two-component link
                continue
    shadows += [random_flype_configuration(seed, 1 + seed % 6, 1 + seed % 3)[0]
                for seed in range(100)]
    assert len(shadows) == 440
    for shadow in shadows:
        overs = [t.over for t in pd_to_gauss(alternating_resolution(shadow)).tokens]
        assert overs == [True, False] * shadow.n


# sha256 of the newline-joined `to_text()` of every diagram the tangle
# builder makes on three grids: the twist shadow of each composition of
# 1..9 that closes to a knot (links are skipped), both sides of family(m, n)
# for even m, n up to 10, and each random flype configuration of seeds 0..19
# with 1..6 tangle crossings and 1..3 extra kinks, each followed by its
# site's crossing and sorted tangle
BUILDER_DIGESTS = {
    "twist_shadow": (341, "590d3c5ea4883d68f4c1fce0a8edc6e42bfeb362c0bf59a60d28257866eea535"),
    "family": (50, "4b2548eb8bd4e4d52bc951e1389d27c856b7c5f8bf9012422bc53dea494b1f32"),
    "random_flype_configuration": (
        720, "0ee7abaec586dcf941ceca60a66b9b03be5fc18916f4fdc66eb6126f6ca14f9d"
    ),
}


def test_tangle_builder_output_is_pinned():
    texts: dict[str, list[str]] = {name: [] for name in BUILDER_DIGESTS}
    for crossings in range(1, 10):
        for code in compositions(crossings):
            try:
                texts["twist_shadow"].append(twist_shadow(code).to_text())
            except PDError:  # the closure is a two-component link
                continue
    for m in range(2, 11, 2):
        for n in range(2, 11, 2):
            texts["family"] += [d.to_text() for d in family(m, n)]
    for seed in range(20):
        for tangle in range(1, 7):
            for kinks in range(1, 4):
                d, site = random_flype_configuration(seed, tangle, kinks)
                texts["random_flype_configuration"] += [
                    d.to_text(), f"{site.crossing} {sorted(site.tangle)}"
                ]
    digests = {
        name: (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest())
        for name, lines in texts.items()
    }
    assert digests == BUILDER_DIGESTS


@pytest.mark.parametrize("kind", ["numerator", "denominator"])
def test_closing_an_empty_tangle_is_refused(kind):
    # with no crossing, either closure joins an arc's two open ends
    with pytest.raises(ValueError, match="closure produced a crossingless loop"):
        _TangleBuilder().close(kind)


def test_tangle_builder_refuses_an_unknown_closure():
    t = _TangleBuilder()
    t.twist_east()
    with pytest.raises(ValueError, match="unknown closure 'sideways'"):
        t.close("sideways")


@pytest.mark.parametrize("code", [(), (3, 0), (2, -1)])
def test_twist_shadow_refuses_a_code_entry_below_one(code):
    with pytest.raises(ValueError, match="^twist code entries must be positive$"):
        twist_shadow(code)


def test_alternating_resolution_refuses_a_classical_crossing():
    shadow = twist_shadow((3,))
    with pytest.raises(ValueError, match="expects an all-precrossing shadow"):
        alternating_resolution(alternating_resolution(shadow))
    with pytest.raises(ValueError, match="expects an all-precrossing shadow"):
        alternating_resolution(resolved_at(shadow, {shadow.ids[0]: 1}))


def test_alternating_resolution_refuses_a_shadow_off_gauss_parity():
    # the trusted constructor takes its arrays unchecked, so a record
    # whose two visits are an even number of edges apart reaches the check
    shadow = PseudoPD._trusted((0,), (None,), (1, 2, 2, 1), (((1, 2, 2, 1), None),))
    with pytest.raises(ValueError, match=r"^shadow violates Gauss parity \(not planar\?\)$"):
        alternating_resolution(shadow)


@pytest.mark.parametrize("entry, message", [
    # the trefoil's twist code under the figure eight's name
    ({"4_1": ((3,), 3)}, "4_1: Jones span 3 != crossing number 4"),
    ({"3_1": ((3,), 5)}, "3_1: determinant 3 != 5"),
])
def test_standard_diagrams_check_each_entry(monkeypatch, entry, message):
    # the span and determinant checks hold for the real table; a wrong
    # entry must stop the rebuild with its name
    monkeypatch.setattr(tables, "RATIONAL_KNOTS", entry)
    with pytest.raises(ValueError) as err:
        standard_diagrams()
    assert str(err.value) == message


def test_bundled_table_matches_rebuild():
    bundled = resources.files("pseudoknots.data").joinpath("knot_table.txt").read_text()
    assert rebuild_table().to_text() == bundled
    assert load_table().to_text() == bundled


def test_lookup_and_classify_jones_agree_on_every_entry():
    table = load_table()
    for entry in table.entries:
        assert table.lookup(entry.jones) == entry.name
        assert classify_jones(entry.jones.key(), table) == entry.name
    miss = LaurentPolynomial({-2: 1, 5: 3})
    assert table.lookup(miss) is None
    assert classify_jones(miss.key(), table) == Unknown(miss)


def test_bundled_table_is_parsed_once_and_immutable():
    table = load_table()
    assert load_table() is table
    assert isinstance(table.entries, tuple) and len(table.entries) == 27
    with pytest.raises(AttributeError):
        table.entries.append(table.entries[0])
    with pytest.raises(TypeError):
        table.entries[0] = table.entries[1]
    with pytest.raises(AttributeError):  # frozen records
        table.entries[0].jones = LaurentPolynomial({0: 1})


def test_known_jones_values():
    # classical reference polynomials (cross-checked against the literature)
    by_name = {name: d for name, d in standard_diagrams()}
    assert jones(by_name["3_1"]).pretty() == "-t^-4 + t^-3 + t^-1"
    assert jones(by_name["4_1"]).pretty() == "t^-2 - t^-1 + 1 - t + t^2"
    assert (
        jones(by_name["5_2"]).pretty()
        == "-t^-6 + t^-5 - t^-4 + 2*t^-3 - t^-2 + t^-1"
    )
    assert (
        jones(by_name["6_3"]).pretty()
        == "-t^-3 + 2*t^-2 - 2*t^-1 + 3 - 2*t + 2*t^2 - t^3"
    )
    assert (
        jones(by_name["7_6"]).pretty()
        == "-t^-6 + 2*t^-5 - 3*t^-4 + 4*t^-3 - 3*t^-2 + 3*t^-1 - 2 + t"
    )
