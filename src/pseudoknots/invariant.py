"""The Gauss-diagrammatic pseudoknot invariant.

From a pseudoknot Gauss diagram, produce a decorated chord diagram:

  1. forget the direction of every precrossing arrow (keep it as a chord,
     called a prechord);
  2. decorate each prechord c with the sum of the signs of the classical
     arrows crossing c;
  3. delete the classical arrows;
  4. delete prechords with cyclically adjacent endpoints and decoration 0.

Deleting one such prechord can make another's ends adjacent (nested
pseudokinks), so step 4 goes on until none is left.  It is one stack pass
over the prechord ends in sequence order: an end whose chord is decorated
0 and has its other end on top of the stack pops that end, and any other
end is pushed.  What is left has no deletable chord but those whose ends
meet across the base point, at the two ends of the stack, and trimming
those off finishes the deletion.  This is the fixpoint of deleting the
chords one at a time in any order, as every order ends at the same word:
each deletion removes the two cyclically adjacent ends of one zero
prechord, these stay adjacent whatever else is deleted, and no two
deletions share a position.
"""

from __future__ import annotations

from .chords import DecoratedChordDiagram, canonical_form
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
    """Value of the invariant on `g` as a decorated chord diagram.

    The chords are built unchecked (`DecoratedChordDiagram._trusted`):
    `g` is valid, so the surviving prechord ends pair up, each chord is
    (first end, second end, int decoration), and sorting them is all the
    public constructor would add.
    """
    tokens = g.tokens
    spans = g.position_index
    classical = [(span, tokens[span[0]].sign) for span in spans.values()
                 if tokens[span[0]].is_classical()]
    decoration: dict[int, int] = {}
    stack: list[int] = []  # the ids of the surviving prechord ends, in order
    for t in tokens:
        if t.is_classical():
            continue
        pid = t.id
        if pid not in decoration:
            a, b = spans[pid]  # position_index lists a < b
            decoration[pid] = sum(sign for (c, d), sign in classical if (a < c < b) != (a < d < b))
            stack.append(pid)
        elif stack[-1] == pid and not decoration[pid]:
            stack.pop()
        else:
            stack.append(pid)
    lo, hi = 0, len(stack)
    while lo < hi and stack[lo] == stack[hi - 1] and not decoration[stack[lo]]:
        lo, hi = lo + 1, hi - 1
    first: dict[int, int] = {}
    chords = []
    for p, pid in enumerate(stack[lo:hi]):
        if pid in first:
            chords.append((first[pid], p, decoration[pid]))
        else:
            first[pid] = p
    chords.sort()
    return DecoratedChordDiagram._trusted(2 * len(chords), tuple(chords))


def i_equal(a: DecoratedChordDiagram, b: DecoratedChordDiagram) -> bool:
    """Equality of invariant values: canonical forms agree."""
    return canonical_form(a) == canonical_form(b)
