import itertools
import json
from fractions import Fraction

from oracle import naive_jones
from pseudoknots.bracket import KnotName, classify_jones
from pseudoknots.diagram import parse_pd, resolve
from pseudoknots.laurent import LaurentPolynomial
from pseudoknots.tables import twist_shadow
from pseudoknots.wereset import WereSet, wereset, wereset_equal


def brute_force_wereset(d, table):
    """Independent pipeline: resolve every choice, classify with the naive
    oracle's Jones values."""
    ids = d.precrossing_ids()
    entries = {}
    for bits in itertools.product((1, -1), repeat=len(ids)):
        resolved = resolve(d, dict(zip(ids, bits)))
        poly = LaurentPolynomial(naive_jones(resolved))
        name = classify_jones(poly, table)
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


def test_wereset_deterministic(table):
    d = twist_shadow((2, 1, 1, 1, 2))
    ws1 = wereset(d, table)
    ws2 = wereset(d, table)
    assert json.dumps(ws1.to_json_dict(), sort_keys=True) == json.dumps(
        ws2.to_json_dict(), sort_keys=True
    )


def test_simplify_knob(table):
    d = twist_shadow((3,))
    assert wereset_equal(wereset(d, table, simplify=True), wereset(d, table))


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
