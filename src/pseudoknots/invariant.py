"""The Gauss-diagrammatic pseudoknot invariant.

From a pseudoknot Gauss diagram, produce a decorated chord diagram:

  1. forget the direction of every precrossing arrow (keep it as a chord,
     called a prechord);
  2. decorate each prechord c with the sum of the signs of the classical
     arrows crossing c;
  3. delete the classical arrows;
  4. delete prechords with cyclically adjacent endpoints and decoration 0.

The decoration of a prechord (a, b), a < b, reads only the positions
strictly between its ends: a classical chord with one end there crosses
it, and one with both ends there is nested in it.  So it is the sum of
the signs of the classical ends in (a, b), a difference of two prefix
sums, minus twice the signs of the classical chords nested in (a, b).
The nested sum is kept by a Fenwick tree (Fenwick, "A new data structure
for cumulative frequency tables", Softw. Pract. Exp. 24(3), 1994) over
the positions: one sweep in sequence order adds each classical chord's
sign at its first end when it meets its second, so at a prechord's
second end b the tree holds exactly the chords that end before b, and
those that start after a are nested.  Each position costs O(log n), so
`i` of a diagram of n crossings takes O(n log n).

Deleting one such prechord can make another's ends adjacent (nested
pseudokinks), so step 4 goes on until none is left.  It is one stack pass
over the prechord ends in sequence order, the same sweep: an end whose
chord is decorated 0 and has its other end on top of the stack pops that
end, and any other end is pushed.  What is left has no deletable chord
but those whose ends meet across the base point, at the two ends of the
stack, and trimming those off finishes the deletion.  This is the
fixpoint of deleting the chords one at a time in any order, as every
order ends at the same word: each deletion removes the two cyclically
adjacent ends of one zero prechord, these stay adjacent whatever else is
deleted, and no two deletions share a position.
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

    One sweep over `g`'s arrays decorates each prechord at its second end
    (see the module docstring) and runs the deletion's stack pass.  The
    chords are built unchecked (`DecoratedChordDiagram._trusted`): `g` is
    valid, so the surviving prechord ends pair up, each chord is (first
    end, second end, int decoration), and sorting them is all the public
    constructor would add.
    """
    spans = g.position_index
    size = g.size
    # Fenwick tree over positions 1..size: each classical chord whose second
    # end the sweep has passed, its sign at its first end + 1
    tree = [0] * (size + 1)
    closed = 0  # the sum of the signs in the tree
    grown = False  # whether the tree holds a chord; a shadow's never does
    prefix = 0  # the sum of the classical end signs before position p
    opened: dict[int, int] = {}  # prechord id -> `prefix` at its first end
    decoration: dict[int, int] = {}
    stack: list[int] = []  # the ids of the surviving prechord ends, in order
    for p, (cid, sign) in enumerate(zip(g.id_at, g.sign_at)):
        a = spans[cid][0]
        if sign is not None:
            prefix += sign
            if a != p:
                closed += sign
                grown = True
                k = a + 1
                while k <= size:
                    tree[k] += sign
                    k += k & -k
            continue
        if a == p:
            opened[cid] = prefix
            stack.append(cid)
            continue
        dec = prefix - opened[cid]
        if grown:
            # the closed chords that start after a are those nested
            nested, k = closed, a + 1
            while k:
                nested -= tree[k]
                k -= k & -k
            dec -= 2 * nested
        decoration[cid] = dec
        if stack[-1] == cid and not dec:
            stack.pop()
        else:
            stack.append(cid)
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
