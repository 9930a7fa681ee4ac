"""The Gauss-diagrammatic pseudoknot invariant.

From a pseudoknot Gauss diagram, produce a decorated chord diagram:

  1. forget the direction of every precrossing arrow (keep it as a chord,
     called a prechord);
  2. decorate each prechord c with the sum of the signs of the classical
     arrows crossing c;
  3. delete the classical arrows;
  4. delete prechords with cyclically adjacent endpoints and decoration 0.

Step 4 is iterated to a fixpoint: removing one trivial prechord can make
another one's endpoints adjacent, and repeated pseudokink removal must not
change the value.
"""

from __future__ import annotations

from .chords import DecoratedChordDiagram, canonical_form, interleave
from .gauss import PseudoGaussDiagram

def prechord_diagram(g: PseudoGaussDiagram) -> DecoratedChordDiagram:
    """All chords of `g` as an undecorated (0-decorated) chord diagram.

    For a shadow this is the full prechord diagram used by the evenness
    check; classical arrows are included as chords with their arrows and
    signs forgotten and decoration 0.
    """
    return DecoratedChordDiagram.from_pairs(
        [(a, b, 0) for a, b in g.position_index.values()]
    )


def compute_i(g: PseudoGaussDiagram) -> DecoratedChordDiagram:
    """Value of the invariant on `g` as a decorated chord diagram."""
    tokens = g.tokens
    classical: list[tuple[tuple[int, int], int]] = []
    prechords: list[tuple[int, int]] = []
    for span in g.position_index.values():
        t = tokens[span[0]]
        if t.is_classical():
            classical.append((span, t.sign))
        else:
            prechords.append(span)

    chords = [
        (a, b, sum(sign for span, sign in classical if interleave((a, b), span)))
        for a, b in prechords
    ]

    # Steps 3 and 4: delete adjacent-endpoint prechords with decoration 0,
    # adjacency being among the positions the prechords occupy.
    while True:
        m = len(chords)
        if m == 0:
            break
        occupied = sorted(p for a, b, _ in chords for p in (a, b))
        index = {p: i for i, p in enumerate(occupied)}
        total = len(occupied)

        def adjacent(a: int, b: int) -> bool:
            ia, ib = index[a], index[b]
            return (ib - ia) % total == 1 or (ia - ib) % total == 1

        keep = [(a, b, dec) for a, b, dec in chords if not (dec == 0 and adjacent(a, b))]
        if len(keep) == len(chords):
            break
        chords = keep

    # Compact the surviving positions.
    final_positions = sorted(p for a, b, _ in chords for p in (a, b))
    renum = {p: i for i, p in enumerate(final_positions)}
    return DecoratedChordDiagram.from_pairs(
        [(renum[a], renum[b], dec) for a, b, dec in chords]
    )


def i_equal(a: DecoratedChordDiagram, b: DecoratedChordDiagram) -> bool:
    """Equality of invariant values: canonical forms agree."""
    return canonical_form(a) == canonical_form(b)
