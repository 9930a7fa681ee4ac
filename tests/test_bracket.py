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
    TableEntry,
    Unknown,
    bracket_to_jones,
    classify,
    jones,
    kauffman_bracket,
)
from pseudoknots.diagram import PDError, mirror, parse_pd, resolve, unknot
from pseudoknots.laurent import LaurentPolynomial
from pseudoknots.tables import alternating_resolution, twist_shadow

KINK = parse_pd("X+(1,1,2,2)")
TREFOIL = parse_pd("X-(1,4,2,5) X-(3,6,4,1) X-(5,2,6,3)")


def test_unknot_bracket_is_one():
    assert kauffman_bracket(unknot()) == LaurentPolynomial({0: 1})
    assert jones(unknot()) == LaurentPolynomial({0: 1})


def test_kink_brackets():
    # hand enumeration: A*delta + A^-1 = -A^3 for the positive kink
    assert kauffman_bracket(KINK) == LaurentPolynomial({3: -1})
    assert kauffman_bracket(mirror(KINK)) == LaurentPolynomial({-3: -1})


def test_bracket_to_jones_reads_bracket_key():
    # a bracket key is (lowest A-exponent, coefficients of A^low, A^(low+2),
    # ...); KINK's bracket -A^3 at writhe +1 is the unknot's Jones
    # polynomial, key (0, (1,))
    assert bracket_to_jones((3, (-1,)), 1) == LaurentPolynomial({0: 1}).key()
    # -A^3 at writhe 0 leaves A-exponent 3, which is no integer power of t
    with pytest.raises(ValueError, match="non-integer t-exponent"):
        bracket_to_jones((3, (-1,)), 0)
    # A^-1 - A^3 at writhe +1 normalises to 1 - A^-4, that is 1 - t; adding
    # A^1 to the bracket gives A^-2, which is no integer power of t
    assert bracket_to_jones((-1, (1, 0, -1)), 1) == (0, (1, -1))
    # the same bracket at writhe 5 is t^3 (1 - t): the cache keys the writhe too
    assert bracket_to_jones((-1, (1, 0, -1)), 5) == (3, (1, -1))
    with pytest.raises(ValueError, match="A-exponent -2"):
        bracket_to_jones((-1, (1, 1, -1)), 1)


@pytest.mark.parametrize("name, call", [
    ("kauffman_bracket", kauffman_bracket),
    ("jones", jones),
    ("classify", lambda d: classify(d, KnotTable([]))),
])
def test_precrossing_refused_by_the_function_called(name, call):
    with pytest.raises(PDError) as err:
        call(parse_pd("P(1,1,2,2)"))
    assert str(err.value) == f"{name} needs a resolved (all-classical) diagram"


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
    # resolving every precrossing of a shadow +1, then -1, gives mirror
    # images: the identity the engine's shadow fold rests on, on the
    # classical diagrams it never folds (family(2,2) pre)
    shadow = twist_shadow((2, 1, 1, 1, 2))
    plus, minus = (jones(resolve(shadow, dict.fromkeys(shadow.precrossing_ids(), sign)))
                   for sign in (1, -1))
    assert minus == plus.invert_variable() != plus


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


def test_build_table_duplicate_rejected(table):
    # the bundled text with 3_1's Jones polynomial copied onto the 5_1 line
    lines = table.to_text().splitlines(keepends=True)
    trefoil = next(ln for ln in lines if ln.startswith("3_1 "))
    i = next(i for i, ln in enumerate(lines) if ln.startswith("5_1 "))
    lines[i] = "5_1 5 0 " + trefoil.split()[3] + "\n"
    with pytest.raises(KnotTableError, match="^duplicate Jones polynomial for 5_1$"):
        KnotTable.from_text("".join(lines))


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


def test_signed_amphichiral_entry_is_refused(table):
    # a sign on the unknot made the were-set name it -0_1, or mirror 0_1 to it
    # (`from_text` refuses such a line first: test_cli's malformed tables)
    unknot = table.entries[0]
    assert unknot.amphichiral
    for sign in (1, -1):
        signed = TableEntry(KnotName(0, 1, sign), True, unknot.jones)
        with pytest.raises(KnotTableError, match="^-?0_1: signed amphichiral entry$"):
            KnotTable([signed, *table.entries[1:]])


def test_only_the_unknot_may_be_unsigned_and_chiral(table):
    # an unsigned chiral name could not be told from its mirror; the
    # unknot, of crossing number 0, is its own mirror either way
    unknot, *rest = table.entries
    KnotTable([TableEntry(unknot.name, False, unknot.jones), *rest])
    (fig8,) = [e for e in rest if str(e.name) == "4_1"]
    assert fig8.amphichiral and fig8.name.sign == 0
    chiral = [TableEntry(e.name, False, e.jones) if e is fig8 else e for e in table.entries]
    with pytest.raises(KnotTableError, match="^4_1: unsigned chiral entry$"):
        KnotTable(chiral)


def test_amphichiral_and_mirror_jones_are_checked(table):
    # an amphichiral entry's Jones equals its `invert_variable()`, and a
    # chiral entry's mirror has that of its Jones; a Jones no entry has
    # keeps the duplicate check from firing first
    asymmetric = LaurentPolynomial.from_pairs_string("-3:1,0:1,1:-1")

    def with_jones(name):
        return [TableEntry(e.name, e.amphichiral, asymmetric) if str(e.name) == name else e
                for e in table.entries]

    with pytest.raises(KnotTableError, match="^4_1: amphichiral entry with asymmetric Jones$"):
        KnotTable(with_jones("4_1"))
    with pytest.raises(KnotTableError, match="^3_1: mirror Jones mismatch$"):
        KnotTable(with_jones("-3_1"))


def test_table_text_skips_blank_and_comment_lines(table):
    text = table.to_text()
    lines = text.splitlines(keepends=True)
    padded = "# a comment\n\n" + lines[0] + "   \n  # indented\n" + "".join(lines[1:])
    assert KnotTable.from_text(padded).to_text() == text


def test_table_line_name_is_not_misread(table):
    # 4_1 is amphichiral, so renaming its line to a name int() reads as
    # 4_10 still made a valid table
    text = table.to_text()
    assert "\n4_1 4 1 " in text
    line = text[: text.index("\n4_1 4 1 ")].count("\n") + 2
    with pytest.raises(KnotTableError, match=f"^line {line}: malformed knot name '4_1_0'"):
        KnotTable.from_text(text.replace("\n4_1 4 1 ", "\n4_1_0 4 1 "))
