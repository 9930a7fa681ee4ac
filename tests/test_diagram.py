import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussref import canonical_pd_key, pd_isomorphic, reference_pd_key, resolve_gauss
from oracle import compositions
from pdmoves import faces
from pseudoknots.diagram import (
    CLASSICAL,
    PDError,
    PRECROSSING,
    Vertex,
    make_pd,
    mirror,
    parse_pd,
    resolve,
    unknot,
    writhe,
)
from pseudoknots.flype import enumerate_flype_sites, family, shadow_flype_pd
from pseudoknots.gauss import pd_to_gauss
from pseudoknots.tables import twist_shadow

TREFOIL = "X-(1,4,2,5) X-(3,6,4,1) X-(5,2,6,3)"
KINK = "X+(1,1,2,2)"
DOUBLE_PSEUDO_KINK = "P(1,2,2,3) P(3,4,4,1)"


def test_parse_shadow():
    d = parse_pd("P(1,6,2,7) P(7,14,8,1) P(13,3,14,2) P(3,9,4,8) P(9,13,10,12) P(11,4,12,5) P(5,10,6,11)")
    assert d.n == 7
    assert d.is_shadow()
    assert len(d.precrossing_ids()) == 7


def test_parse_two_precrossing_knot_shadow():
    d = parse_pd(DOUBLE_PSEUDO_KINK)
    assert d.n == 2 and d.is_shadow()


def test_parse_syntax_error_reports_position():
    with pytest.raises(PDError, match="position"):
        parse_pd("X+(1,2,3,4) garbage")


def test_parse_edge_multiplicity():
    with pytest.raises(PDError, match="appears"):
        parse_pd("X+(1,4,2,1) X+(1,3,2,4)")


def test_parse_multi_component():
    # two-crossing clasp between two separate loops
    with pytest.raises(PDError, match="component"):
        parse_pd("P(1,2,3,4) P(2,1,4,3)")


def test_parse_sign_inconsistent():
    with pytest.raises(PDError, match="inconsistent"):
        parse_pd("X+(1,4,2,5) X-(3,6,4,1) X-(5,2,6,3)")


def test_parse_empty():
    with pytest.raises(PDError, match="empty PD code"):
        parse_pd("   ")
    with pytest.raises(PDError, match="empty PD code"):
        parse_pd("")


def test_unknot_text_round_trip():
    assert unknot().to_text() == "unknot"
    assert parse_pd(unknot().to_text()) == unknot()
    assert parse_pd(" unknot\n") == unknot()


def test_parse_reversed_orientation_text():
    d = parse_pd(TREFOIL)
    rotated = " ".join(
        f"X-({v.edges[2]},{v.edges[3]},{v.edges[0]},{v.edges[1]})" for v in d.vertices
    )
    d2 = parse_pd(rotated)
    assert pd_isomorphic(d, d2)


def test_nonplanar_rejected():
    # 2-crossing knot shadows that close into one strand but are realizable
    # only virtually: 3 faces, not the 4 of a planar 2-vertex map
    for text in ("P(1,3,2,4) P(2,4,3,1)", "P(1,2,3,4) P(1,2,4,3)"):
        with pytest.raises(PDError, match=r"^diagram is not planar \(Euler check failed\)$"):
            parse_pd(text)


# Each refusal of the PD checks, with its whole message.  The checks run in
# this order: edge counts (the first bad label by first appearance), one
# component, then per vertex the sign and its orientation, then planarity.
BUILD_REFUSALS = [
    ("X+(1,2,3,4)", "edge 1 appears 1 times (must be exactly 2)"),
    ("X+(1,4,2,1) X+(1,3,2,4)", "edge 1 appears 3 times (must be exactly 2)"),
    # as many labels as a valid code has, one seen once and one three times
    ("P(1,1,1,2)", "edge 1 appears 3 times (must be exactly 2)"),
    ("P(2,1,1,1) P(3,3,4,4)", "edge 2 appears 1 times (must be exactly 2)"),
    ("P(1,2,3,4) P(2,1,4,3)",
     "diagram has more than one component (2 of 4 edges on the first strand)"),
    ("P(1,1,2,2) P(3,3,4,4)",
     "diagram has more than one component (2 of 4 edges on the first strand)"),
    ("X+(1,4,2,5) X-(3,6,4,1) X-(5,2,6,3)",
     "vertex 0: declared sign +1 inconsistent with orientation (derived -1)"),
    ("P(1,1,2,3) X-(2,3,4,4)",
     "vertex 1: declared sign -1 inconsistent with orientation (derived +1)"),
    ("X+(2,2,4,3) P(3,1,1,4)",
     "vertex 0: slot 0 is not the incoming under-strand (sign inconsistent with orientation)"),
    ("P(1,3,2,4) P(2,4,3,1)", "diagram is not planar (Euler check failed)"),
]


@pytest.mark.parametrize("text, message", BUILD_REFUSALS)
def test_build_refusals_are_pinned(text, message):
    with pytest.raises(PDError) as info:
        parse_pd(text)
    assert str(info.value) == message


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.permutations([e for e in range(1, 2 * n + 1) for _ in range(2)]),
    st.lists(st.sampled_from(["P", "X+", "X-"]), min_size=n, max_size=n),
)))
def test_strand_walk_never_revisits_an_edge(code):
    # The walk from a dart follows d -> other end of the edge at slot d + 2.
    # The edge pairing turns that permutation into its inverse, so the walk
    # is back at its start before it could run an edge backwards: a code in
    # which every label appears twice is refused only for its components,
    # signs or planarity, and never finds a vertex not entered twice.
    labels, heads = code
    text = " ".join(f"{h}({','.join(map(str, labels[4 * i:4 * i + 4]))})"
                    for i, h in enumerate(heads))
    try:
        parse_pd(text)
    except PDError as exc:
        assert re.match(r"diagram has more than one component|vertex \d+: (declared sign|slot 0)"
                        r"|diagram is not planar", str(exc)), (text, str(exc))


# Accepted codes the checks rewrite, pinned by text, in-slots and traversal:
# classical slots in the reversed direction (every tuple rotated by two),
# with and without precrossings, and a precrossing entered at slot 2, which
# is rotated so that slot 0 is incoming.
BUILD_REWRITES = [
    ("X-(2,5,1,4) X-(4,1,3,6) X-(6,3,5,2)", "X-(1,4,2,5) X-(3,6,4,1) X-(5,2,6,3)",
     ((0, 1), (0, 1), (0, 1)), ((0, 0), (2, 1), (1, 0), (0, 1), (2, 0), (1, 1))),
    ("X+(5,1,4,2) P(1,5,8,6) X-(3,8,2,7) P(7,4,6,3)", "X+(4,2,5,1) P(8,6,1,5) X-(2,7,3,8) P(6,3,7,4)",
     ((0, 3), (0, 3), (0, 1), (0, 1)),
     ((0, 3), (2, 0), (3, 1), (0, 0), (1, 3), (3, 0), (2, 1), (1, 0))),
    ("P(2,2,1,1)", "P(1,1,2,2)", ((0, 3),), ((0, 0), (0, 3))),
    ("P(1,3,2,1) P(3,2,4,4)", "P(1,4,2,1) P(3,3,4,2)", ((0, 1), (0, 3)),
     ((0, 0), (1, 3), (1, 0), (0, 1))),
]


@pytest.mark.parametrize("text, normal, in_slots, traversal", BUILD_REWRITES)
def test_build_rewrites_are_pinned(text, normal, in_slots, traversal):
    d = parse_pd(text)
    assert (d.to_text(), d.in_slots, d.traversal) == (normal, in_slots, traversal)
    assert parse_pd(normal) == d


def test_make_pd_keeps_ids_and_rejects_repeats():
    kinks = [
        Vertex(3, PRECROSSING, None, (1, 2, 2, 3)),
        Vertex(3, PRECROSSING, None, (3, 4, 4, 1)),
    ]
    with pytest.raises(PDError, match="repeated vertex id 3"):
        make_pd(kinks)
    kinks[1] = Vertex(9, PRECROSSING, None, (3, 4, 4, 1))
    assert [v.id for v in make_pd(kinks).vertices] == [3, 9]
    # validation errors name the vertex by its id
    with pytest.raises(PDError, match="vertex 9: declared sign -1"):
        make_pd([Vertex(9, CLASSICAL, -1, (1, 1, 2, 2))])


def test_edge_labels_normalized():
    d = parse_pd("X+(10,10,20,20)")
    assert sorted({e for v in d.vertices for e in v.edges}) == [1, 2]


def test_writhe():
    assert writhe(parse_pd(KINK)) == 1
    tref = parse_pd(TREFOIL)
    assert writhe(tref) == -3
    assert writhe(mirror(tref)) == 3
    assert writhe(unknot()) == 0


def test_writhe_needs_resolved():
    with pytest.raises(PDError):
        writhe(parse_pd(DOUBLE_PSEUDO_KINK))


def test_mirror_involution():
    for text in (TREFOIL, KINK):
        d = parse_pd(text)
        assert pd_isomorphic(mirror(mirror(d)), d)


def test_mirror_fixes_shadows():
    d = twist_shadow((2, 1, 1, 1, 2))
    assert pd_isomorphic(mirror(d), d)


def test_resolve_identity_on_resolved():
    d = parse_pd(TREFOIL)
    assert resolve(d, {}).to_text() == d.to_text()


def test_resolve_choice_validation():
    d = parse_pd(DOUBLE_PSEUDO_KINK)
    with pytest.raises(PDError, match="mismatch"):
        resolve(d, {0: 1})
    with pytest.raises(PDError, match="mismatch"):
        resolve(d, {0: 1, 1: -1, 7: 1})
    with pytest.raises(PDError, match=r"\+1 or -1"):
        resolve(d, {0: 1, 1: 0})


@pytest.mark.parametrize("choice", [True, False, 1.0, -1.0])
def test_resolve_choice_must_be_int(choice):
    # a float choice once built a vertex with sign 1.0, on which jones
    # raised TypeError; a bool reached to_json_dict as "sign": true
    d = parse_pd("P(1,1,2,2)")
    with pytest.raises(PDError, match=f"choice for precrossing 0 must be \\+1 or -1, got {choice}"):
        resolve(d, {0: choice})
    assert resolve(d, {0: 1}).to_json_dict()["vertices"][0]["sign"] == 1


@pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, None])
def test_classical_sign_must_be_int(sign):
    with pytest.raises(PDError, match=f"vertex 4: sign must be \\+1 or -1, got {sign}"):
        make_pd([Vertex(4, CLASSICAL, sign, (1, 1, 2, 2))])


def test_resolve_all_positive_trefoil_shadow():
    shadow = twist_shadow((3,))
    d = resolve(shadow, {i: 1 for i in shadow.precrossing_ids()})
    assert d.is_resolved()
    assert writhe(d) == 3


def test_resolve_mirror_anticommutes():
    # mirror(resolve(d, c)) == resolve(mirror(d), -c) for all-precrossing d
    for code in [(3,), (2, 2)]:
        shadow = twist_shadow(code)
        ids = shadow.precrossing_ids()
        for bits in itertools.product((1, -1), repeat=len(ids)):
            choice = dict(zip(ids, bits))
            neg = {k: -v for k, v in choice.items()}
            a = mirror(resolve(shadow, choice))
            b = resolve(mirror(shadow), neg)
            assert pd_isomorphic(a, b)


def test_resolve_commutes_with_gauss():
    # the flyped shadow numbers its vertices [0, 1, 2, 3, 5, 6, 4]
    for shadow in (twist_shadow((2, 1, 1, 1, 2)), family(2, 2)[1]):
        g = pd_to_gauss(shadow)
        ids = shadow.precrossing_ids()
        for bits in itertools.product((1, -1), repeat=len(ids)):
            choice = dict(zip(ids, bits))
            assert pd_to_gauss(resolve(shadow, choice)) == resolve_gauss(g, choice)


def test_pd_to_gauss_ids_twice():
    for code in [(3,), (2, 2), (3, 1, 2), (2, 1, 1, 1, 2)]:
        g = pd_to_gauss(twist_shadow(code))
        counts = {}
        for t in g.tokens:
            counts[t.id] = counts.get(t.id, 0) + 1
        assert set(counts.values()) == {2}


def test_faces_euler():
    for code in [(3,), (2, 2), (3, 1, 2), (2, 1, 1, 1, 2)]:
        d = twist_shadow(code)
        assert len(faces(d)) == d.n + 2


def test_canonical_key_detects_distinct():
    assert not pd_isomorphic(parse_pd(TREFOIL), mirror(parse_pd(TREFOIL)))
    assert canonical_pd_key(unknot()) == ("unknot",)


def test_canonical_key_classes_match_reference():
    # the 7-crossing census shadows and their flypes, two resolutions of
    # each and the mirrors of those: the key must split them into the same
    # classes as the brute-force reference
    shadows = {}
    for code in compositions(7):
        try:
            shadow = twist_shadow(code)
        except PDError:  # two-component closure: a link
            continue
        flypes = [shadow_flype_pd(shadow, site) for site in enumerate_flype_sites(shadow)]
        for s in [shadow] + flypes:
            shadows.setdefault(s.to_text(), s)
    rng = random.Random(7)
    corpus = [unknot()]
    for s in shadows.values():
        corpus.append(s)
        for _ in range(2):
            r = resolve(s, {i: rng.choice((1, -1)) for i in s.precrossing_ids()})
            corpus += [r, mirror(r)]
    new_of_old, old_of_new = {}, {}
    for d in corpus:
        new, old = canonical_pd_key(d), reference_pd_key(d)
        assert new_of_old.setdefault(old, new) == new
        assert old_of_new.setdefault(new, old) == old
    assert len(corpus) > 2000 and len(new_of_old) > 500


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_twist_shadows_always_valid(code):
    # numerator closures of odd fraction numerators only: skip link cases
    try:
        d = twist_shadow(tuple(code))
    except PDError:
        return
    assert d.is_shadow()
    assert len(faces(d)) == d.n + 2
