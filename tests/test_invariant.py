import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import interleave, naive_i
from pdmoves import resolved_at
from pseudoknots.chords import DecoratedChordDiagram, canonical_form, evenness_check
from pseudoknots.diagram import PDError, _resigned, parse_pd
from pseudoknots.flype import random_flype_configuration, shadow_flype_pd
from pseudoknots.gauss import GaussToken, PseudoGaussDiagram, parse_gauss, pd_to_gauss
from pseudoknots.invariant import compute_i, i_equal, prechord_diagram
from pseudoknots.moves import scramble
from pseudoknots.tables import twist_shadow
from test_chords import rotated
from test_moves import _AGREEMENT_BASES, _BASES


def flip_arrow(g, cid):
    out = []
    for t in g.tokens:
        if t.id == cid and not t.is_classical():
            out.append(GaussToken(t.id, not t.over, None))
        else:
            out.append(t)
    return PseudoGaussDiagram(tuple(out))


def test_kink_deletes_to_empty():
    assert compute_i(parse_gauss("Ph1,Pt1")).is_empty()


def test_pseudo_trefoil_three_zero_chords():
    value = compute_i(parse_gauss("Ph1,Pt2,Ph3,Pt1,Ph2,Pt3"))
    assert value.chords == ((0, 3, 0), (1, 4, 0), (2, 5, 0))


def test_classical_arrows_vanish():
    assert compute_i(parse_gauss("O1+,U2+,O3+,U1+,O2+,U3+")).is_empty()


def test_decorations_sum_signs():
    # opposite-sign arrows cancel: decoration 0, adjacent endpoints, deleted
    g = parse_gauss("Ph1,O2+,U3-,Pt1,U2+,O3-")
    assert compute_i(g).is_empty()
    # one positive arrow: decoration +1 keeps the prechord alive
    g2 = parse_gauss("Ph1,O2+,Pt1,U2+")
    assert compute_i(g2).chords == ((0, 1, 1),)
    # two positive arrows: decoration +2
    g3 = parse_gauss("Ph1,O2+,O3+,Pt1,U2+,U3+")
    assert compute_i(g3).chords == ((0, 1, 2),)


def test_virtual_input_accepted():
    # interleaved two-prechord diagram is virtual-only; I is still defined
    g = parse_gauss("Ph1,Ph2,Pt1,Pt2")
    value = compute_i(g)
    assert value.chords == ((0, 2, 0), (1, 3, 0))


def test_nested_pseudokinks_deleted_to_fixpoint():
    # deleting the inner kink 2 makes prechord 1's endpoints adjacent
    nested = parse_gauss("Ph1,Ph2,Pt2,Pt1,Ph3,Pt3")
    assert compute_i(nested).is_empty()


def test_arrow_direction_irrelevant():
    rng = random.Random(4)
    bases = [
        pd_to_gauss(twist_shadow((2, 1, 1, 1, 2))),
        parse_gauss("Ph1,O2-,Pt1,U2-"),
        parse_gauss("Ph1,Pt2,Ph3,Pt1,Ph2,Pt3"),
    ]
    for g in bases:
        i0 = compute_i(g)
        for cid in g.precrossing_ids():
            assert i_equal(i0, compute_i(flip_arrow(g, cid)))


def test_interleave():
    assert interleave((0, 2), (1, 3))
    assert not interleave((0, 1), (2, 3))
    assert not interleave((0, 3), (1, 2))


def test_decoration_parity_and_count_bound():
    rng = random.Random(9)
    from pseudoknots.moves import scramble

    for seed in range(6):
        g = scramble(pd_to_gauss(twist_shadow((3, 1, 2))), seed=seed, steps=10)
        value = compute_i(g)
        assert len(value.chords) <= len(g.precrossing_ids())
        positions = {}
        for i, t in enumerate(g.tokens):
            positions.setdefault(t.id, []).append(i)
        # parity of each decoration equals parity of interleaving classical count
        for pid in g.precrossing_ids():
            span = tuple(positions[pid])
            inter = [
                cid
                for cid in g.classical_ids()
                if interleave(span, tuple(positions[cid]))
            ]
            dec = sum(
                next(t.sign for t in g.tokens if t.id == cid) for cid in inter
            )
            assert (dec - len(inter)) % 2 == 0


def test_shadow_decorations_all_zero():
    for code in [(3,), (2, 2), (2, 1, 1, 1, 2)]:
        value = compute_i(pd_to_gauss(twist_shadow(code)))
        assert all(dec == 0 for _, _, dec in value.chords)


def test_i_equal_on_rotations():
    value = compute_i(parse_gauss("Ph1,Pt2,Ph3,Pt1,Ph2,Pt3"))
    assert i_equal(value, rotated(value, 2))
    assert i_equal(DecoratedChordDiagram(0, ()), DecoratedChordDiagram(0, ()))


def test_counterexample_values_differ(p1_p2):
    p1, p2 = p1_p2
    assert not i_equal(compute_i(pd_to_gauss(p1)), compute_i(pd_to_gauss(p2)))


def test_evenness_of_planar_shadows():
    for code in [(3,), (2, 2), (3, 1, 2), (2, 1, 1, 1, 2)]:
        g = pd_to_gauss(twist_shadow(code))
        assert evenness_check(prechord_diagram(g))


def test_prechord_diagram_decorates_every_chord_zero():
    # two classical arrows cross the one prechord, (2, 5), so `i` decorates
    # it 2; the prechord diagram keeps every chord, the classical ones
    # included, and decorates each 0
    g = pd_to_gauss(parse_pd("X+(4,2,5,1) X+(8,6,1,5) X-(2,7,3,8) P(3,7,4,6)"))
    assert g.to_text() == "O0+,U2-,Pt3,U0+,O1+,Ph3,O2-,U1+"
    assert compute_i(g).chords == ((0, 1, 2),)
    assert prechord_diagram(g) == DecoratedChordDiagram(
        8, ((0, 3, 0), (1, 6, 0), (2, 5, 0), (4, 7, 0)))


@st.composite
def gauss_words(draw):
    """Gauss codes of up to 10 crossings in any order, each a precrossing
    or a classical crossing of either sign."""
    n = draw(st.integers(0, 10))
    order = draw(st.permutations(range(2 * n)))
    tokens = [None] * (2 * n)
    for k in range(n):
        over, sign = draw(st.booleans()), draw(st.sampled_from((None, 1, -1)))
        tokens[order[2 * k]] = GaussToken(k + 1, over, sign)
        tokens[order[2 * k + 1]] = GaussToken(k + 1, not over, sign)
    return PseudoGaussDiagram(tuple(tokens))


SCRAMBLES = st.builds(
    scramble,
    st.sampled_from(_AGREEMENT_BASES),
    st.integers(0, 2**32 - 1),
    st.integers(0, 120),
    st.integers(1, 24),
)


def crossing_counts(c):
    """How many chords each chord of `c` crosses, pair by pair (`interleave`
    is False for a chord and itself)."""
    return [sum(interleave((a, b), (p, q)) for p, q, _ in c.chords) for a, b, _ in c.chords]


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(SCRAMBLES, gauss_words()))
# prechord 1's ends meet only across the base point
@example(g=parse_gauss("Ph1,Ph2,Ph3,Pt2,Pt3,Pt1"))
# the seed-7 200-step scrambles of the paper's witness
@example(g=scramble(_BASES["family(2,2) pre"], 7, 200))
@example(g=scramble(_BASES["family(2,2) post"], 7, 200))
def test_i_matches_the_fixpoint_oracle(g):
    value = compute_i(g)
    assert value == naive_i(g)
    tokens = g.tokens
    form = canonical_form(value)
    for r in range(1, len(tokens)):
        rotation = PseudoGaussDiagram(tokens[r:] + tokens[:r])
        assert canonical_form(compute_i(rotation)) == form, r
    for c in (value, prechord_diagram(g)):
        assert evenness_check(c) == all(k % 2 == 0 for k in crossing_counts(c))


@st.composite
def mixed_pd_diagrams(draw):
    """Gauss diagrams of planar pseudodiagrams with classical chords nested
    in prechords: either side of a random flype configuration with each
    precrossing left as it is or resolved +1 or -1, or a twist shadow of up
    to 60 crossings with a random set of its vertices resolved."""
    if draw(st.booleans()):
        shadow, site = random_flype_configuration(
            draw(st.integers(0, 2**16)), draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        d = shadow_flype_pd(shadow, site) if draw(st.booleans()) else shadow
        d = resolved_at(d, {pid: sign for pid in d.precrossing_ids()
                            if (sign := draw(st.sampled_from((None, 1, -1)))) is not None})
    else:
        code = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=5)))
        try:
            d = twist_shadow(code)
        except PDError:  # a link; one more twist closes a knot
            d = twist_shadow(code + (1,))
        d = _resigned(d, [draw(st.sampled_from((None, None, 1, -1))) for _ in range(d.n)])
    return pd_to_gauss(d)


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(mixed_pd_diagrams(), SCRAMBLES, gauss_words()))
# prechord 1, at positions (0, 5), holds classical chord 2 nested in it and
# crosses chord 3 and prechord 4: decoration 1, with chord 2's two ends
# cancelled by the nested term
@example(g=parse_gauss("Ph1,O2+,U3+,U2+,Ph4,Pt1,O3+,Pt4"))
def test_the_prefix_and_nested_decoration_matches_the_oracle(g):
    # every prechord's decoration shows in `i`: a chord the oracle keeps
    # shows its value, and one it deletes must read 0 and be deleted here
    assert compute_i(g) == naive_i(g)


def test_i_of_a_large_mixed_diagram_matches_the_oracle():
    # the Fenwick tree's deepest levels: 305 crossings, every other vertex
    # resolved +1
    d = twist_shadow((2, 1, 1, 1, 300))
    g = pd_to_gauss(_resigned(d, [1 if k % 2 else None for k in range(d.n)]))
    value = compute_i(g)
    assert value == naive_i(g) and len(value.chords) == 153
