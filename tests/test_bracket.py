"""Bracket/Jones engine against the independent naive oracle.

The oracle (tests/oracle.py) was written first; the frozen expected values
below were computed with it and spot-checked by hand for the one-crossing
diagrams (two-state enumeration)."""

import itertools

import pytest

from oracle import naive_bracket, naive_jones
from pseudoknots.bracket import (
    KnotName,
    KnotTable,
    KnotTableError,
    Unknown,
    bracket_to_jones,
    build_table,
    classify,
    jones,
    kauffman_bracket,
)
from pseudoknots.diagram import mirror, parse_pd, resolve, unknot
from pseudoknots.laurent import LaurentPolynomial
from pseudoknots.tables import alternating_resolution, standard_diagrams, twist_shadow

KINK = parse_pd("X+(1,1,2,2)")
TREFOIL = parse_pd("X-(1,4,2,5) X-(3,6,4,1) X-(5,2,6,3)")


def test_unknot_bracket_is_one():
    assert kauffman_bracket(unknot()) == LaurentPolynomial.one()
    assert jones(unknot()) == LaurentPolynomial.one()


def test_kink_brackets():
    # hand enumeration: A*delta + A^-1 = -A^3 for the positive kink
    assert kauffman_bracket(KINK) == LaurentPolynomial({3: -1})
    assert kauffman_bracket(mirror(KINK)) == LaurentPolynomial({-3: -1})


def test_bracket_to_jones_reads_bracket_key():
    # a bracket key is (lowest A-exponent, coefficients of A^low, A^(low+2),
    # ...); KINK's bracket -A^3 at writhe +1 is the unknot's Jones
    # polynomial, key (0, (1,))
    assert bracket_to_jones((3, (-1,)), 1) == LaurentPolynomial.one().key()
    # -A^3 at writhe 0 leaves A-exponent 3, which is no integer power of t
    with pytest.raises(ValueError, match="non-integer t-exponent"):
        bracket_to_jones((3, (-1,)), 0)
    # A^-1 - A^3 at writhe +1 normalises to 1 - A^-4, that is 1 - t; adding
    # A^1 to the bracket gives A^-2, which is no integer power of t
    assert bracket_to_jones((-1, (1, 0, -1)), 1) == (0, (1, -1))
    with pytest.raises(ValueError, match="A-exponent -2"):
        bracket_to_jones((-1, (1, 1, -1)), 1)


def test_trefoil_jones_frozen():
    # frozen from the oracle run; left-handed trefoil
    assert jones(TREFOIL) == LaurentPolynomial({-4: -1, -3: 1, -1: 1})
    assert jones(mirror(TREFOIL)) == LaurentPolynomial({4: -1, 3: 1, 1: 1})


def test_trefoil_bracket_matches_oracle():
    assert dict(kauffman_bracket(TREFOIL).items()) == naive_bracket(TREFOIL)


def test_engine_equals_oracle_on_corpus():
    corpus = [unknot(), KINK, mirror(KINK), TREFOIL]
    corpus += [alternating_resolution(twist_shadow(c))
               for c in [(2, 2), (3, 2), (3, 1, 2), (2, 1, 1, 2), (2, 2, 1, 2), (2, 1, 1, 1, 2)]]
    shadow = twist_shadow((2, 2))
    ids = shadow.precrossing_ids()
    corpus += [resolve(shadow, dict(zip(ids, bits)))
               for bits in itertools.product((1, -1), repeat=len(ids))]
    for d in corpus:
        assert d.n <= 8
        assert dict(kauffman_bracket(d).items()) == naive_bracket(d)
        assert dict(jones(d).items()) == naive_jones(d)


def test_jones_mirror_identity():
    for code in [(3,), (2, 2), (3, 1, 2)]:
        d = alternating_resolution(twist_shadow(code))
        assert jones(mirror(d)) == jones(d).invert_variable()


def test_classify_examples(table):
    assert str(classify(TREFOIL, table)) == "3_1"
    assert str(classify(mirror(TREFOIL), table)) == "-3_1"
    fig8 = alternating_resolution(twist_shadow((2, 2)))
    assert str(classify(fig8, table)) == "4_1"
    assert str(classify(unknot(), table)) == "0_1"


def test_classify_unknown(table):
    d = alternating_resolution(twist_shadow((3, 3, 2)))  # an 8-crossing knot
    out = classify(d, table)
    assert isinstance(out, Unknown)
    assert out.jones == jones(d)


def test_build_table_structure(table):
    assert len(table.entries) == 27
    chiral = [e for e in table.entries if not e.amphichiral]
    amph = [e for e in table.entries if e.amphichiral]
    assert len(chiral) == 24 and len(amph) == 3
    names = {str(e.name) for e in table.entries}
    assert {"0_1", "4_1", "6_3", "3_1", "-3_1", "7_7", "-7_7"} <= names


def test_table_polynomials_pairwise_distinct(table):
    polys = [e.jones for e in table.entries]
    assert len({p for p in polys}) == len(polys)


def test_table_mirror_invariants(table):
    by_name = {str(e.name): e for e in table.entries}
    for e in table.entries:
        if e.amphichiral:
            assert e.jones == e.jones.invert_variable()
        else:
            partner = by_name[str(e.name.mirror())]
            assert partner.jones == e.jones.invert_variable()


def test_build_table_empty_source():
    with pytest.raises(KnotTableError):
        build_table([])


def test_build_table_duplicate_rejected():
    source = standard_diagrams()
    with pytest.raises(KnotTableError, match="duplicate"):
        build_table(source + [("8_1", source[1][1])])


def test_table_file_round_trip(table):
    text = table.to_text()
    again = KnotTable.from_text(text)
    assert again.to_text() == text  # bit-exact round trip


def test_knot_name_parse():
    assert str(KnotName.parse("-7_7")) == "-7_7"
    assert KnotName.parse("4_1").sign == 0
    with pytest.raises(ValueError):
        KnotName.parse("seven")


@pytest.mark.parametrize(
    "text",
    # int() reads "1_2" as 12, "+1" and " 1" as 1, and non-ASCII digits
    ["3_1_2", " 3_+1", "3_+1", "+-3_1", "3_1 ", "3__1", "_1", "3_", "\u0663_1", "3_1\n"],
)
def test_knot_name_parse_is_strict(text):
    with pytest.raises(ValueError, match="malformed knot name"):
        KnotName.parse(text)


def test_table_line_name_is_not_misread(table):
    # 4_1 is amphichiral, so renaming its line to a name int() reads as
    # 4_10 still made a valid table
    text = table.to_text()
    assert "\n4_1 4 1 " in text
    line = text[: text.index("\n4_1 4 1 ")].count("\n") + 2
    with pytest.raises(KnotTableError, match=f"^line {line}: malformed knot name '4_1_0'"):
        KnotTable.from_text(text.replace("\n4_1 4 1 ", "\n4_1_0 4 1 "))
