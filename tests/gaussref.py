"""References on Gauss encodings of diagrams.

`resolve_gauss` resolves precrossings token by token; the tests check that
`pd_to_gauss(resolve(d, c))` equals `resolve_gauss(pd_to_gauss(d), c)`.
`canonical_pd_key` compares PD diagrams up to relabeling through their
Gauss code, and is checked against the brute-force `reference_pd_key`,
which tries every base point.
"""

from __future__ import annotations

from pdmoves import in_slots, traversal
from pseudoknots.chords import _least_rotation_index
from pseudoknots.diagram import PseudoPD, _is_sign
from pseudoknots.gauss import GaussError, GaussToken, PseudoGaussDiagram, pd_to_gauss


def resolve_gauss(g: PseudoGaussDiagram, choice: dict[int, int]) -> PseudoGaussDiagram:
    """Resolve precrossings: +1 turns Ph into O+ and Pt into U+; -1 reverses
    the arrow and flips the sign (Ph -> U-, Pt -> O-)."""
    pre = set(g.precrossing_ids())
    if set(choice) != pre:
        missing, extra = pre - set(choice), set(choice) - pre
        raise GaussError(f"choice ids mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
    out = []
    for t in g.tokens:
        if t.is_classical():
            out.append(t)
            continue
        c = choice[t.id]
        if not _is_sign(c):
            raise GaussError(f"choice for {t.id} must be +1 or -1")
        # the -1 resolution swaps over and under
        out.append(GaussToken(t.id, t.over == (c == 1), c))
    return PseudoGaussDiagram(tuple(out))


def canonical_pd_key(d: PseudoPD) -> tuple:
    """Equality key for diagrams up to relabeling of edges and vertices.

    Each token of the Gauss diagram `pd_to_gauss(d)` is read as (offset to
    the other token of its crossing along the traversal, over, sign or 0);
    the key is the lexicographically least rotation of that sequence, so it
    does not depend on the base point or on the vertex ids.  Mirror images
    are NOT identified.
    """
    if d.n == 0:
        return ("unknot",)
    g = pd_to_gauss(d)
    size = g.size
    seq = []
    for i, t in enumerate(g.tokens):
        a, b = g.position_index[t.id]
        partner = a + b - i
        seq.append(((partner - i) % size, t.over, t.sign or 0))
    k = _least_rotation_index(seq)
    return tuple(seq[k:] + seq[:k])


def pd_isomorphic(a: PseudoPD, b: PseudoPD) -> bool:
    """True iff `a` and `b` are the same diagram up to relabeling."""
    return canonical_pd_key(a) == canonical_pd_key(b)


def reference_pd_key(d: PseudoPD) -> tuple:
    """The least oriented Gauss encoding over all 2n base points, by brute
    force: per visit, the position of the vertex's first visit (or -1),
    its sign (0 at a precrossing), and passage role."""
    if d.n == 0:
        return ("unknot",)
    darts = traversal(d)
    roles = {}
    for vi, (v, (s1_in, s2_in)) in enumerate(zip(d.vertices, in_slots(d))):
        if v.is_classical():
            roles[(vi, s1_in)] = "U"
            roles[(vi, s2_in)] = "O"
        else:
            # a +1 crossing's over-strand enters 90 degrees clockwise of
            # its under-strand, at slot 3
            two_over = s2_in == 3
            roles[(vi, s1_in)] = "t" if two_over else "h"
            roles[(vi, s2_in)] = "h" if two_over else "t"
    best = None
    for shift in range(len(darts)):
        seq = darts[shift:] + darts[:shift]
        first_visit = {}
        code = []
        for i, (vi, slot) in enumerate(seq):
            v = d.vertices[vi]
            partner = first_visit.setdefault(vi, i)
            code.append((partner if partner != i else -1, v.sign or 0, roles[(vi, slot)]))
        if best is None or code < best:
            best = code
    return tuple(best)
