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
    positions: dict[int, list[int]] = {}
    for i, t in enumerate(g.tokens):
        positions.setdefault(t.id, []).append(i)
    return DecoratedChordDiagram.from_pairs(
        [(pos[0], pos[1], 0) for pos in positions.values()]
    )


def compute_i(g: PseudoGaussDiagram) -> DecoratedChordDiagram:
    """Value of the invariant on `g` as a decorated chord diagram."""
    pre_pos: dict[int, list[int]] = {}
    classical: list[tuple[tuple[int, int], int]] = []
    seen_classical: set[int] = set()
    for i, t in enumerate(g.tokens):
        if t.is_classical():
            if t.id not in seen_classical:
                seen_classical.add(t.id)
                a, b = g.positions_of(t.id)
                classical.append(((a, b), t.sign))
        else:
            pre_pos.setdefault(t.id, []).append(i)

    size = g.size
    decorated: list[tuple[int, int, int]] = []
    for pid, (a, b) in sorted(pre_pos.items()):
        dec = sum(
            sign for span, sign in classical if interleave((a, b), span, size)
        )
        decorated.append((a, b, dec))

    # Step 3: drop classical endpoints, compacting positions.
    pre_positions = sorted(p for a, b, _ in decorated for p in (a, b))
    renumber = {p: i for i, p in enumerate(pre_positions)}
    chords = [(renumber[a], renumber[b], dec) for a, b, dec in decorated]

    # Step 4: delete adjacent-endpoint prechords with decoration 0.
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

    # Re-compact the surviving positions.
    final_positions = sorted(p for a, b, _ in chords for p in (a, b))
    renum = {p: i for i, p in enumerate(final_positions)}
    return DecoratedChordDiagram.from_pairs(
        [(renum[a], renum[b], dec) for a, b, dec in chords]
    )


def i_equal(a: DecoratedChordDiagram, b: DecoratedChordDiagram) -> bool:
    """Equality of invariant values: canonical forms agree."""
    return canonical_form(a) == canonical_form(b)
