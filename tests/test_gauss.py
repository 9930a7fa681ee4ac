import pytest

from pseudoknots.gauss import (
    EMPTY_CODE,
    GaussError,
    GaussToken,
    PseudoGaussDiagram,
    mirror_gauss,
    parse_gauss,
    pd_to_gauss,
    resolve_gauss,
)
from pseudoknots.diagram import parse_pd


def test_parse_kink():
    g = parse_gauss("Ph1,Pt1")
    assert g.size == 2
    assert g.precrossing_ids() == [1]


def test_parse_classical():
    g = parse_gauss("O1+,U2+,O3+,U1+,O2+,U3+")
    assert g.is_all_classical()
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
    for signs in ((True, 1), (1, True), (False, False), (1.0, 1.0), (1, 1.0), (-1.0, -1)):
        tokens = (GaussToken(1, "O", signs[0]), GaussToken(1, "U", signs[1]))
        with pytest.raises(GaussError, match="classical token 1 needs a sign"):
            PseudoGaussDiagram(tokens)
    ok = PseudoGaussDiagram((GaussToken(1, "O", 1), GaussToken(1, "U", 1)))
    assert ok.to_json_dict()["tokens"][0]["sign"] == 1


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


def test_pd_to_gauss_single_kink():
    g = pd_to_gauss(parse_pd("X+(1,1,2,2)"))
    # one chord, positive sign, adjacent endpoints
    assert g.size == 2
    assert {t.role for t in g.tokens} == {"O", "U"}
    assert all(t.sign == 1 for t in g.tokens)


def test_mirror_gauss():
    g = parse_gauss("O1+,U2+,O3+,U1+,O2+,U3+")
    m = mirror_gauss(g)
    assert m.to_text() == "U1-,O2-,U3-,O1-,U2-,O3-"
    assert mirror_gauss(m).to_text() == g.to_text()
    pre = parse_gauss("Ph1,Pt1")
    assert mirror_gauss(pre).to_text() == "Pt1,Ph1"
