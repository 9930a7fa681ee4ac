import importlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import mirror_expansion, naive_jones
from pseudoknots import bracket
from pseudoknots.bracket import (
    KnotName,
    KnotTable,
    bracket_to_jones,
    classify_jones,
    resolution_groups,
)
from pseudoknots.cli import main
from pseudoknots.diagram import parse_pd, resolve, unknot
from pseudoknots.flype import family, random_flype_configuration, shadow_flype_pd
from pseudoknots.laurent import LaurentPolynomial, pairs_string
from pseudoknots.tables import alternating_resolution, twist_shadow
from pseudoknots.wereset import WereSet, probability_text, wereset, wereset_equal
from test_cli import mixed_diagrams

# the package exports the function `wereset` under the module's name
wereset_module = importlib.import_module("pseudoknots.wereset")


def brute_force_wereset(d, table):
    """Independent pipeline: resolve every choice, classify with the naive
    oracle's Jones values."""
    ids = d.precrossing_ids()
    entries = {}
    for bits in itertools.product((1, -1), repeat=len(ids)):
        resolved = resolve(d, dict(zip(ids, bits)))
        poly = LaurentPolynomial(naive_jones(resolved))
        name = classify_jones(poly.key(), table)
        entries[str(name)] = entries.get(str(name), 0) + 1
    return entries


def test_kink_shadow(table):
    d = parse_pd("P(1,1,2,2)")
    ws = wereset(d, table)
    assert {str(k): v for k, v in ws.entries.items()} == {"0_1": 2}
    assert Fraction(ws.entries[KnotName(0, 1, 0)], ws.total) == 1


def test_trefoil_shadow_baseline(table):
    d = twist_shadow((3,))
    ws = wereset(d, table)
    got = {str(k): v for k, v in ws.entries.items()}
    assert got == {"0_1": 6, "3_1": 1, "-3_1": 1}
    assert got == brute_force_wereset(d, table)


def test_matches_brute_force_on_small_shadows(table):
    for code in [(2, 2), (3, 2)]:
        d = twist_shadow(code)
        ws = wereset(d, table)
        assert {str(k): v for k, v in ws.entries.items()} == brute_force_wereset(d, table)


def test_counts_sum(table):
    for code in [(3,), (2, 2), (2, 1, 1, 2)]:
        ws = wereset(twist_shadow(code), table)
        assert ws.count_sum() == ws.total


def test_shadow_mirror_symmetry(table):
    for code in [(3,), (2, 2), (3, 1, 2), (2, 1, 1, 1, 2)]:
        ws = wereset(twist_shadow(code), table)
        assert wereset_equal(ws, ws.mirrored())
    # an unknown bucket V(t) comes with V(1/t) at the same count
    ws = wereset(family(4, 4)[0], table)
    assert ws.unknown and wereset_equal(ws, ws.mirrored())


def test_mixed_diagram(table):
    # one classical negative crossing fixed, two precrossings free
    d = parse_pd("P(1,6,2,7) P(7,14,8,1) P(13,3,14,2) P(3,9,4,8) P(9,13,10,12) P(11,4,12,5) P(5,10,6,11)")
    partial = resolve(d, {i: (1 if i % 2 else -1) for i in d.precrossing_ids()})
    ws = wereset(partial, table)
    assert ws.precrossings == 0 and ws.total == 1


def test_unknown_buckets(table):
    d = twist_shadow((3, 3, 2))  # 8 crossings: alternating resolutions leave the table
    ws = wereset(d, table)
    assert ws.unknown
    assert ws.count_sum() == ws.total


def test_equality_is_probability_based():
    a = WereSet(1, {KnotName(0, 1, 0): 2})
    b = WereSet(2, {KnotName(0, 1, 0): 4})
    assert wereset_equal(a, b)
    c = WereSet(2, {KnotName(0, 1, 0): 3, KnotName(3, 1, 1): 1})
    assert not wereset_equal(a, c)


UNKNOT, TREFOIL = KnotName(0, 1, 0), KnotName(3, 1, 1)
ODD = LaurentPolynomial({-2: 1, 0: -1, 3: 1})


def test_equality_across_precrossing_counts():
    half = WereSet(1, {UNKNOT: 1}, {ODD: 1})
    assert wereset_equal(half, WereSet(2, {UNKNOT: 2}, {ODD: 2}))
    assert wereset_equal(WereSet(2, {UNKNOT: 2}, {ODD: 2}), half)
    assert wereset_equal(WereSet(1, {UNKNOT: 1}), WereSet(2, {UNKNOT: 2}))
    assert not wereset_equal(WereSet(1, {UNKNOT: 1}), WereSet(2, {UNKNOT: 1}))
    assert not wereset_equal(half, WereSet(2, {UNKNOT: 2, TREFOIL: 2}))
    # an unknown bucket differs from a named entry, and from another bucket
    assert not wereset_equal(half, WereSet(1, {UNKNOT: 1, TREFOIL: 1}))
    assert not wereset_equal(half, WereSet(3, {UNKNOT: 4}, {ODD.invert_variable(): 4}))


counts = st.dictionaries(st.sampled_from([UNKNOT, TREFOIL, TREFOIL.mirror()]), st.integers(1, 8))
unknown_counts = st.dictionaries(st.sampled_from([ODD, ODD.invert_variable()]), st.integers(1, 8))


def probability_map(ws):
    """Name, or ("unknown", Jones) for a bucket, -> exact probability."""
    out = {name: Fraction(c, ws.total) for name, c in ws.entries.items()}
    for poly, c in ws.unknown.items():
        out[("unknown", poly)] = Fraction(c, ws.total)
    return out


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(0, 4),
    entries=counts,
    unknown=unknown_counts,
    shift=st.integers(0, 3),
    other=st.one_of(st.none(), st.tuples(counts, unknown_counts)),
)
def test_equality_agrees_with_probability_maps(k, entries, unknown, shift, other):
    """Scaled copies of one were-set, and unrelated ones, compare as their
    name -> probability maps do."""
    a = WereSet(k, entries, unknown)
    if other is None:
        b = WereSet(
            k + shift,
            {name: c << shift for name, c in entries.items()},
            {poly: c << shift for poly, c in unknown.items()},
        )
    else:
        b = WereSet(k + shift, *other)
    expected = probability_map(a) == probability_map(b)
    assert wereset_equal(a, b) == expected == wereset_equal(b, a)
    if other is None:
        assert expected


def test_wereset_deterministic(table):
    d = twist_shadow((2, 1, 1, 1, 2))
    ws1 = wereset(d, table)
    ws2 = wereset(d, table)
    assert json.loads(ws1.to_json()) == json.loads(ws2.to_json())


def reference_json_dict(ws):
    """The were-set's JSON object as a dict, for `json.dumps`: the builder
    `WereSet.to_json` replaced, which writes the same text directly."""
    k = ws.precrossings
    return {
        "precrossings": k,
        "total": ws.total,
        "entries": [
            {"knot": str(name), "count": count, "probability": probability_text(count, k)}
            for name, count in ws.sorted_entries()
        ],
        "unknown": [
            {"jones": pairs_string(terms), "count": c, "probability": probability_text(c, k)}
            for terms, c in ws.sorted_unknown()
        ],
    }


def small_table(table):
    """The table cut to the knots of at most 4 crossings, so that larger
    knots fall into unknown buckets."""
    return KnotTable(e for e in table.entries if e.name.crossing_number <= 4)


def assert_to_json_is_json_dumps(d, table):
    """`to_json` equals `json.dumps` of the reference dict under the bundled
    table and the cut one; returns the two were-sets."""
    sets = (wereset(d, table), wereset(d, small_table(table)))
    for ws in sets:
        assert ws.to_json() == json.dumps(reference_json_dict(ws), sort_keys=True)
    return sets


def test_to_json_is_json_dumps_of_the_reference(table):
    diagrams = [parse_pd(text) for _, text in mixed_diagrams()]
    # a 5_2 diagram, k = 0, falls in an unknown bucket under the cut table
    diagrams += [alternating_resolution(twist_shadow((3, 2))), unknot(), family(2, 2)[0],
                 family(4, 4)[0]]
    sets = [ws for d in diagrams for ws in assert_to_json_is_json_dumps(d, table)]
    # the unknot under a table without 0_1: no entries, one unknown bucket
    no_unknot = KnotTable(e for e in table.entries if str(e.name) != "0_1")
    ws = wereset(unknot(), no_unknot)
    assert ws.to_json() == json.dumps(reference_json_dict(ws), sort_keys=True)
    payload = json.loads(ws.to_json())
    assert payload["entries"] == [] and [u["jones"] for u in payload["unknown"]] == ["0:1"]
    # the cases cover empty and non-empty entries and unknown buckets, and k = 0
    assert any(ws.unknown and ws.entries for ws in sets)
    assert any(not ws.unknown for ws in sets) and any(not ws.entries for ws in sets)
    assert {ws.precrossings for ws in sets} >= {0, 7}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), tangle=st.integers(1, 6), kinks=st.integers(1, 3))
def test_to_json_is_json_dumps_on_random_flype_shadows(table, seed, tangle, kinks):
    shadow, site = random_flype_configuration(seed, tangle, kinks)
    for d in (shadow, shadow_flype_pd(shadow, site)):
        assert_to_json_is_json_dumps(d, table)


def test_paper_style_rendering(table):
    ws = wereset(parse_pd("P(1,1,2,2)"), table)
    assert ws.paper_style() == "{{0_1,2}}"
    assert wereset(unknot(), table).paper_style() == "{{0_1,1}}"
    # an entry whose exponents are the span limit of 1000 apart is read, and
    # the unknot's Jones polynomial 1 is not in that table
    narrow = KnotTable.from_text("0_1 0 1 -500:1,500:1\n")
    assert wereset(unknot(), narrow).paper_style() == "{{unknown[1],1}}"


def test_json_shape(table):
    ws = wereset(twist_shadow((3,)), table)
    payload = json.loads(ws.to_json())
    assert payload["precrossings"] == 3 and payload["total"] == 8
    assert {e["knot"] for e in payload["entries"]} == {"0_1", "3_1", "-3_1"}
    assert payload["entries"][0]["probability"] == "3/4"
    assert payload["unknown"] == []


def test_trefoil_shadow_mixed_choice_unknots(table):
    from pseudoknots.bracket import classify

    d = twist_shadow((3,))
    ids = d.precrossing_ids()
    mixed = resolve(d, dict(zip(ids, (1, -1, 1))))
    assert str(classify(mixed, table)) == "0_1"
    uniform = resolve(d, dict(zip(ids, (1, 1, 1))))
    assert str(classify(uniform, table)) in ("3_1", "-3_1")


def test_probability_text_is_the_reduced_fraction():
    # a count above 2^k, which only a hand-built WereSet holds, too
    for k in range(13):
        for count in range(1, (1 << (k + 2)) + 1):
            assert probability_text(count, k) == str(Fraction(count, 1 << k)), (count, k)


def test_lost_resolutions_fail_the_count_check(table, monkeypatch, tmp_path, capsys):
    # an engine that drops a group breaks the invariant that the counts sum
    # to 2^k: an AssertionError, which the CLI reports with exit 1
    def dropping(d):
        groups = dict(resolution_groups(d))
        del groups[next(iter(groups))]
        return groups

    monkeypatch.setattr(wereset_module, "resolution_groups", dropping)
    d = family(2, 2)[0]
    with pytest.raises(AssertionError, match=r"^resolution counts do not sum to 2\^k$"):
        wereset(d, table)
    path = tmp_path / "pre.pd"
    path.write_text(d.to_text())
    assert main(["wereset", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "internal invariant violation: resolution counts do not sum to 2^k\n")


def test_each_jones_class_is_classified_once(table, monkeypatch):
    # family(4,4) has more (writhe, bracket) groups than Jones classes
    d = family(4, 4)[0]
    groups = mirror_expansion(resolution_groups(d), d.is_shadow())
    classes = {bracket_to_jones(key, w) for w, key in groups}
    assert len(classes) < len(groups)
    calls = []

    def counting(key, table):
        calls.append(key)
        return classify_jones(key, table)

    monkeypatch.setattr(wereset_module, "classify_jones", counting)
    ws = wereset(d, table)
    assert sorted(calls) == sorted(classes)
    assert len(ws.entries) + len(ws.unknown) == len(classes)
    assert ws.count_sum() == ws.total


def test_a_shadow_normalises_each_final_group_once(table, monkeypatch):
    # wereset normalises a shadow's decoded w >= 0 groups, once each, and no
    # w < 0 entry of the histogram: those are read off as mirrors; a diagram
    # with a classical crossing normalises every group
    calls = []

    def counting(key, w):
        calls.append((w, key))
        return bracket_to_jones(key, w)

    monkeypatch.setattr(wereset_module, "bracket_to_jones", counting)
    for d in (*family(4, 4), *(parse_pd(text) for _, text in mixed_diagrams())):
        groups = resolution_groups(d)
        histogram = mirror_expansion(groups, d.is_shadow())
        calls.clear()
        wereset(d, table)
        assert sorted(calls) == sorted(groups)
        if d.is_shadow():
            assert {entry for entry in histogram if entry[0] >= 0} == set(groups)
            assert any(w < 0 for w, _ in histogram)
        else:
            assert set(histogram) == set(groups)
            assert any(w < 0 for w, _ in groups)


def clear_memos():
    """Empty the final-block decode and the Jones normalisation caches."""
    bracket._decoded.cache_clear()
    bracket_to_jones.cache_clear()


def cold(f, *args):
    clear_memos()
    return f(*args)


def assert_memos_exact(diagrams, table):
    # cold, each call computes every block afresh; warm, the calls run in
    # order, so a flype partner reads the blocks and keys of its shadow
    expected = [(cold(resolution_groups, d), cold(wereset, d, table)) for d in diagrams]
    clear_memos()
    warm = [(resolution_groups(d), wereset(d, table)) for d in diagrams]
    assert bracket._decoded.cache_info().hits > 0
    assert bracket_to_jones.cache_info().hits > 0
    assert [(g, ws, ws.to_json()) for g, ws in warm] == [
        (g, ws, ws.to_json()) for g, ws in expected]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), tangle=st.integers(1, 6), kinks=st.integers(1, 3))
def test_memos_are_exact_on_drawn_shadows(table, seed, tangle, kinks):
    shadow, site = random_flype_configuration(seed, tangle, kinks)
    assert_memos_exact([shadow, shadow_flype_pd(shadow, site)], table)


def test_memos_are_exact_on_mixed_diagrams_and_family_pairs(table):
    diagrams = [parse_pd(text) for _, text in mixed_diagrams()]
    for m, n in ((2, 2), (2, 4), (4, 2), (4, 4)):
        diagrams += family(m, n)
    assert_memos_exact(diagrams, table)


def test_a_non_integer_exponent_raises_on_every_call():
    # the cache keeps no raise, so the same key raises again
    for _ in range(2):
        with pytest.raises(ValueError, match="A-exponent 3"):
            bracket_to_jones((3, (-1,)), 0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), tangle=st.integers(1, 6), kinks=st.integers(1, 3))
def test_shadow_classes_read_off_mirrors_equal_normalised_ones(table, seed, tangle, kinks):
    # A shadow normalises only its w >= 0 groups and reads each w > 0
    # group's mirror class off its key; normalising every group of the
    # histogram must give the same classes and counts.
    shadow, site = random_flype_configuration(seed, tangle, kinks)
    for d in (shadow, shadow_flype_pd(shadow, site), family(2, 4)[0]):
        by_jones = {}
        histogram = mirror_expansion(resolution_groups(d), d.is_shadow())
        for (w, key), count in histogram.items():
            jones_key = bracket_to_jones(key, w)
            by_jones[jones_key] = by_jones.get(jones_key, 0) + count
        ws = wereset(d, table)
        got = {name: c for name, c in ws.entries.items()}
        got.update({("unknown", p.key()): c for p, c in ws.unknown.items()})
        expected = {}
        for jones_key, count in by_jones.items():
            named = classify_jones(jones_key, table)
            label = named if isinstance(named, KnotName) else ("unknown", jones_key)
            expected[label] = expected.get(label, 0) + count
        assert got == expected
