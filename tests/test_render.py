import re

from pseudoknots.chords import DecoratedChordDiagram
from pseudoknots.gauss import parse_gauss, pd_to_gauss
from pseudoknots.invariant import compute_i
from pseudoknots.render import render_chords_svg, render_gauss_svg
from pseudoknots.tables import twist_shadow


def test_deterministic_bytes():
    g = pd_to_gauss(twist_shadow((2, 1, 1, 1, 2)))
    assert render_gauss_svg(g) == render_gauss_svg(g)
    c = compute_i(g)
    assert render_chords_svg(c) == render_chords_svg(c)


def test_empty_diagram_circle_only():
    svg = render_chords_svg(DecoratedChordDiagram(0, ()))
    assert "<circle" in svg and "<line" not in svg


def test_trefoil_shadow_three_bold_chords():
    g = parse_gauss("Ph1,Pt2,Ph3,Pt1,Ph2,Pt3")
    svg = render_gauss_svg(g)
    assert svg.count('stroke-width="3.4"') == 3


def test_classical_arrows_and_signs():
    svg = render_gauss_svg(parse_gauss("O1+,U1+"))
    assert svg.count("<path") >= 2  # orientation arrow + chord arrowhead
    assert ">+<" in svg


def test_unknot_is_the_circle_alone():
    assert render_gauss_svg(parse_gauss("unknot")) == render_chords_svg(DecoratedChordDiagram(0, ()))


def test_an_arrow_runs_from_its_over_passage():
    # whichever of its two tokens comes first on the circle
    def line(code):
        svg = render_gauss_svg(parse_gauss(code))
        (coords,) = re.findall(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"', svg)
        return coords

    x1, y1, x2, y2 = line("O1+,U1+")
    assert line("U1+,O1+") == (x2, y2, x1, y1) != (x1, y1, x2, y2)


def test_decoration_labels():
    c = DecoratedChordDiagram.from_pairs([(0, 2, 3), (1, 3, -2)])
    svg = render_chords_svg(c)
    assert ">3<" in svg and ">-2<" in svg
