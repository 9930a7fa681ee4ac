import importlib
import itertools
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_jones
from pseudoknots.bracket import KnotName, bracket_to_jones, classify_jones, resolution_histogram
from pseudoknots.diagram import parse_pd, resolve
from pseudoknots.flype import family
from pseudoknots.laurent import LaurentPolynomial
from pseudoknots.tables import twist_shadow
from pseudoknots.wereset import WereSet, probability_text, wereset, wereset_equal

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
    assert ws.probability(KnotName(0, 1, 0)) == Fraction(1)


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
    assert json.dumps(ws1.to_json_dict(), sort_keys=True) == json.dumps(
        ws2.to_json_dict(), sort_keys=True
    )


def test_paper_style_rendering(table):
    ws = wereset(parse_pd("P(1,1,2,2)"), table)
    assert ws.paper_style() == "{{0_1,2}}"


def test_json_shape(table):
    ws = wereset(twist_shadow((3,)), table)
    payload = ws.to_json_dict()
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
    for k in range(13):
        for count in range(1, (1 << k) + 1):
            assert probability_text(count, k) == str(Fraction(count, 1 << k)), (count, k)


def test_each_jones_class_is_classified_once(table, monkeypatch):
    # family(4,4) has more (writhe, bracket) groups than Jones classes
    d = family(4, 4)[0]
    groups = resolution_histogram(d)
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


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), tangle=st.integers(1, 6), kinks=st.integers(1, 3))
def test_shadow_classes_read_off_mirrors_equal_normalised_ones(table, seed, tangle, kinks):
    # A shadow normalises only its w >= 0 groups and reads each w > 0
    # group's mirror class off its key; normalising every group of the
    # histogram must give the same classes and counts.
    from pseudoknots.flype import random_flype_configuration, shadow_flype_pd

    shadow, site = random_flype_configuration(seed, tangle, kinks)
    for d in (shadow, shadow_flype_pd(shadow, site), family(2, 4)[0]):
        by_jones = {}
        for (w, key), count in resolution_histogram(d).items():
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
