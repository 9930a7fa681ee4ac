"""Deterministic SVG rendering of Gauss diagrams and decorated chord diagrams.

The core circle is drawn oriented counterclockwise (arrowhead on the
circle), classical chords as thin arrows from the over to the under passage
with a sign label, prechords as bold undirected chords, and decorations as
integer labels.  Output bytes depend only on the input diagram: floats are
formatted to fixed precision and no timestamps or generated ids appear.
"""

from __future__ import annotations

import math

from .chords import DecoratedChordDiagram
from .gauss import PseudoGaussDiagram

_SIZE = 420.0
_CENTER = _SIZE / 2
_RADIUS = 160.0


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _point(i: int, count: int, radius: float = _RADIUS) -> tuple[float, float]:
    theta = math.pi / 2 - 2 * math.pi * i / count  # position 0 at the top
    # decreasing screen angle = counterclockwise on screen (y axis points down)
    return (_CENTER + radius * math.cos(theta), _CENTER - radius * math.sin(theta))


def _header(parts: list[str]) -> str:
    parts.insert(
        0,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SIZE)}" '
        f'height="{int(_SIZE)}" viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">',
    )
    parts.insert(
        1,
        f'<circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_RADIUS)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>',
    )
    # orientation arrowhead at the top of the circle, pointing counterclockwise
    ax, ay = _CENTER, _CENTER - _RADIUS
    parts.insert(
        2,
        f'<path d="M {_fmt(ax + 8)} {_fmt(ay + 4)} L {_fmt(ax - 2)} {_fmt(ay)} '
        f'L {_fmt(ax + 8)} {_fmt(ay - 4)}" fill="none" stroke="black" stroke-width="1.5"/>',
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _arrowhead(x1, y1, x2, y2) -> str:
    """Small arrowhead at (x2, y2) pointing along (x1,y1) -> (x2,y2)."""
    dx, dy = x2 - x1, y2 - y1
    norm = math.hypot(dx, dy) or 1.0
    ux, uy = dx / norm, dy / norm
    px, py = -uy, ux
    bx, by = x2 - 10 * ux, y2 - 10 * uy
    return (
        f'<path d="M {_fmt(bx + 4 * px)} {_fmt(by + 4 * py)} L {_fmt(x2)} {_fmt(y2)} '
        f'L {_fmt(bx - 4 * px)} {_fmt(by - 4 * py)}" fill="none" stroke="black" '
        'stroke-width="1.2"/>'
    )


def _label(x: float, y: float, text: str, size: int = 11) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="{size}" text-anchor="middle">{text}</text>'
    )


def render_gauss_svg(g: PseudoGaussDiagram) -> str:
    """SVG of a pseudoknot Gauss diagram."""
    parts: list[str] = []
    n = g.size
    if n == 0:
        return _header(parts)
    for cid in g.ids():
        i, j = g.position_index[cid]
        (x1, y1), (x2, y2) = _point(i, n), _point(j, n)
        tok_i = g.tokens[i]
        if tok_i.is_classical():
            # arrow points from the over passage to the under passage
            if tok_i.over:
                sx, sy, tx, ty = x1, y1, x2, y2
            else:
                sx, sy, tx, ty = x2, y2, x1, y1
            parts.append(
                f'<line x1="{_fmt(sx)}" y1="{_fmt(sy)}" x2="{_fmt(tx)}" y2="{_fmt(ty)}" '
                'stroke="black" stroke-width="1.2"/>'
            )
            parts.append(_arrowhead(sx, sy, tx, ty))
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            parts.append(_label(mx + 8, my - 4, "+" if tok_i.sign > 0 else "−"))
        else:
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                'stroke="black" stroke-width="3.4"/>'
            )
    for i, t in enumerate(g.tokens):
        lx, ly = _point(i, n, _RADIUS + 16)
        parts.append(_label(lx, ly + 4, t.to_text(), size=10))
    return _header(parts)


def render_chords_svg(c: DecoratedChordDiagram) -> str:
    """SVG of a decorated chord diagram (all chords bold, labels = decorations)."""
    parts: list[str] = []
    n = c.size
    if n == 0:
        return _header(parts)
    for a, b, dec in c.chords:
        (x1, y1), (x2, y2) = _point(a, n), _point(b, n)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="black" stroke-width="3.4"/>'
        )
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        parts.append(_label(mx + 10, my - 4, str(dec)))
    for i in range(n):
        lx, ly = _point(i, n, _RADIUS + 14)
        parts.append(_label(lx, ly + 4, str(i), size=9))
    return _header(parts)
