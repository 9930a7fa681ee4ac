import hashlib
import itertools
import json

import pytest

from gaussref import resolve_gauss
from pseudoknots.gauss import (
    EMPTY_CODE,
    GaussError,
    GaussToken,
    PseudoGaussDiagram,
    parse_gauss,
    pd_to_gauss,
)
from pseudoknots.diagram import parse_pd


def test_parse_kink():
    g = parse_gauss("Ph1,Pt1")
    assert g.size == 2
    assert g.precrossing_ids() == [1]


def test_parse_classical():
    g = parse_gauss("O1+,U2+,O3+,U1+,O2+,U3+")
    assert not g.precrossing_ids()
    assert g.classical_ids() == [1, 2, 3]


def test_parse_pseudo_trefoil():
    g = parse_gauss("Ph1,Pt2,Ph3,Pt1,Ph2,Pt3")
    assert g.precrossing_ids() == [1, 2, 3]


def test_parse_unicode_minus():
    assert parse_gauss("O1−,U1−").to_text() == "O1-,U1-"


def test_parse_errors():
    with pytest.raises(GaussError, match="syntax"):
        parse_gauss("O1+,xyz")
    with pytest.raises(GaussError, match="appears"):
        parse_gauss("O1+,U1+,O1+,U1+")
    with pytest.raises(GaussError, match="complementary"):
        parse_gauss("O1+,O1+")
    with pytest.raises(GaussError, match="different signs"):
        parse_gauss("O1+,U1-")
    with pytest.raises(GaussError, match="empty"):
        parse_gauss("")
    with pytest.raises(GaussError, match="syntax"):
        parse_gauss("unknot,O1+,U1+")


def test_bool_sign_refused():
    # True == 1.0 == 1, but a bool or float sign would reach to_json_dict as
    # "sign": true or "sign": 1.0
    for signs in ((True, 1), (1, True), (False, False), (1.0, 1.0), (1, 1.0), (-1.0, -1), (7, 7)):
        tokens = (GaussToken(1, True, signs[0]), GaussToken(1, False, signs[1]))
        with pytest.raises(GaussError, match=r"token 1: sign must be \+1, -1 or None, got"):
            PseudoGaussDiagram(tokens)
    ok = PseudoGaussDiagram((GaussToken(1, True, 1), GaussToken(1, False, 1)))
    assert ok.to_json_dict()["tokens"][0]["sign"] == 1


@pytest.mark.parametrize("over", [1, 0, None, "O"])
def test_over_must_be_bool(over):
    tokens = (GaussToken(1, over, 1), GaussToken(1, False, 1))
    with pytest.raises(GaussError, match=f"token 1: over must be a bool, got {over!r}"):
        PseudoGaussDiagram(tokens)


@pytest.mark.parametrize(
    "ids, bad",
    [(("a", "a"), "'a'"), ((True, True), "True"), ((-3, -3), "-3"), ((2.0, 2.0), "2.0"),
     # True and 1.0 hash as 1, so each token's own id is checked
     ((1, True), "True"), ((1, 1.0), "1.0"),
     # an unhashable id cannot key the pairing, and is refused all the same
     (([1], [1]), "[1]"), (({}, {}), "{}")],
)
def test_crossing_ids_are_non_negative_ints(ids, bad):
    # the text form writes only non-negative int ids, so any other would
    # print a code that parse_gauss cannot read back (Pha, PhTrue, Ph-3)
    tokens = (GaussToken(ids[0], True, None), GaussToken(ids[1], False, None))
    with pytest.raises(GaussError) as err:
        PseudoGaussDiagram(tokens)
    assert str(err.value) == f"crossing id {bad} is not a non-negative int"


def test_crossingless_text_round_trip():
    empty = PseudoGaussDiagram(())
    assert empty.to_text() == EMPTY_CODE == "unknot"
    assert parse_gauss(" unknot\n") == empty
    assert parse_gauss(empty.to_text()) == empty


def test_resolve_gauss_kink():
    kink = parse_gauss("Ph1,Pt1")
    assert resolve_gauss(kink, {1: 1}).to_text() == "O1+,U1+"
    assert resolve_gauss(kink, {1: -1}).to_text() == "U1-,O1-"


def test_resolve_gauss_validation():
    kink = parse_gauss("Ph1,Pt1")
    with pytest.raises(GaussError, match="mismatch"):
        resolve_gauss(kink, {})
    with pytest.raises(GaussError, match="mismatch"):
        resolve_gauss(kink, {1: 1, 2: -1})
    for choice in (True, False, 1.0, -1.0):
        with pytest.raises(GaussError, match=r"choice for 1 must be \+1 or -1"):
            resolve_gauss(kink, {1: choice})


def test_pd_to_gauss_single_kink():
    g = pd_to_gauss(parse_pd("X+(1,1,2,2)"))
    # one chord, positive sign, adjacent endpoints
    assert g.size == 2
    assert {t.over for t in g.tokens} == {True, False}
    assert all(t.sign == 1 for t in g.tokens)


def _tokens(*specs):
    return tuple(GaussToken(*spec) for spec in specs)


@pytest.mark.parametrize(
    "code, message",
    [
        # parse_gauss writes only good tokens, so bad ones are built directly;
        # a bad token outranks a bad id, even one whose tokens come first
        (_tokens((1, True, 1), (1, True, 1), (2, False, 1.0), (2, True, 1)),
         "token 2: sign must be +1, -1 or None, got 1.0"),
        (_tokens((1, True, 1), (2, True, 7), (2, False, 1)),
         "token 2: sign must be +1, -1 or None, got 7"),
        # of two bad tokens, the first in sequence order, not of the first id paired
        (_tokens((1, True, 1), (2, True, 7), (1, False, 1.0), (2, False, None)),
         "token 2: sign must be +1, -1 or None, got 7"),
        # of two bad ids, the one whose first token comes first; id 2 is paired first
        ("O1+,O2+,O2+,U1-", "id 1: the two tokens carry different signs"),
        ("O1+,U2+,O1+,U2-", "id 1: roles O/O are not complementary"),
        # on one id: count, then roles, then signs
        ("O1+,O1-,O1+", "id 1 appears 3 times (must be exactly 2)"),
        ("O1+,O1-", "id 1: roles O/O are not complementary"),
    ],
)
def test_pairing_error_precedence(code, message):
    build = parse_gauss if isinstance(code, str) else PseudoGaussDiagram
    with pytest.raises(GaussError) as err:
        build(code)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "code, message",
    [
        ("O1+,Pt1", "id 1: roles O/t are not complementary"),
        ("U1-,Ph1", "id 1: roles U/h are not complementary"),
        ("O1+,Ph1", "id 1: roles O/h are not complementary"),
        ("Pt1,U1+", "id 1: roles t/U are not complementary"),
    ],
)
def test_mixed_pair_errors(code, message):
    # a classical token paired with a precrossing one is refused on its roles
    with pytest.raises(GaussError) as err:
        parse_gauss(code)
    assert str(err.value) == message


def test_json_role_names():
    roles = [t["role"] for t in parse_gauss("O1+,U1+,Ph2,Pt2").to_json_dict()["tokens"]]
    assert roles == ["over-origin", "under-target", "head", "tail"]


# every code of 1 to 4 tokens over these, 11,110 in all
_PIN_ALPHABET = ("O1+", "O1-", "U1+", "U1-", "Ph1", "Pt1", "O2+", "U2-", "Ph2", "Pt2")


def test_short_codes_pinned():
    # the text and JSON of each valid code, and the message of each invalid
    # one, hashed together; the digest pins what parse_gauss gives a user
    digest = hashlib.sha256()
    count = 0
    for length in range(1, 5):
        for code in itertools.product(_PIN_ALPHABET, repeat=length):
            try:
                g = parse_gauss(",".join(code))
                out = g.to_text() + " " + json.dumps(g.to_json_dict(), sort_keys=True)
            except GaussError as exc:
                out = f"error: {exc}"
            digest.update(out.encode() + b"\n")
            count += 1
    assert count == 11110
    assert digest.hexdigest() == "7bf8679c39df276253e1029840b8f6ba84b5205d2f520aca0588e22b1e8dc115"
