"""Gauss diagrams of pseudoknots.

A Gauss diagram is the cyclic sequence of crossing passages met along the
knot, drawn on a counterclockwise core circle.  Classical crossings
contribute an arrow from the over passage to the under passage plus a
sign; precrossings contribute an arrow whose direction is the one the
classical arrow would take under the positive resolution.

Token grammar (comma separated):

    O<id><sign>   classical over passage (arrow origin), sign in {+,-}
    U<id><sign>   classical under passage (arrow target)
    Ph<id>        precrossing passage that is the over strand of the
                  positive resolution
    Pt<id>        the complementary precrossing passage

The diagram with no crossings, a round circle, has no tokens; its text
form is the word `unknot` (`EMPTY_CODE`), so that every diagram has one.

Virtual pseudoknots are accepted: any token sequence satisfying the pairing
rules is a valid diagram here, planar or not.

A diagram keeps one value per position in three arrays: `id_at`, the
crossing id; `over_at`, a bool that says whether the strand passes over
there (at a precrossing it reads the positive resolution, as `Ph` does);
and `sign_at`, the int +1 or -1 at a classical crossing and None at a
precrossing, so a position is classical exactly when it has a sign.
`tokens` is a view of the same positions as `GaussToken(id, over, sign)`
records, built on first read, for the text and JSON forms, the renderer
and the tests; the library's own routes read the arrays.  The letters O,
U, Ph and Pt belong to the text form only; `_role` writes them for it,
for the JSON and for the pairing messages.

A `PseudoGaussDiagram` owns its position index (id -> the positions of its
two tokens); the invariant, the moves and the renderer read it and never
modify it.  Validity is one rule per id (`_pairing_error`): two tokens,
one over and one under, both with a sign or both without, and equal
signs.  It is checked once, at the boundary: `parse_gauss` and the public
constructor `PseudoGaussDiagram(tokens)` check every id.  One routine,
`_paired`, builds every checked index: it pairs the positions a move wrote
into the index of the rest and runs the rule on their ids, and on no
other (the rest was valid, so only those can break it).  The public
constructor is the move that writes every position of an empty diagram.
A diagram the library builds from data it has already checked goes
through the one trusted constructor, `PseudoGaussDiagram._trusted`,
which checks nothing: `pd_to_gauss` hands it the arrays and the index it
fills from a valid PD diagram's crossing records, and a move result
(`PseudoGaussDiagram._from_move`, built only by `moves.apply_move`) its
parent's index moved past the move's delta, completed by `_paired` on
the positions the move wrote, so a bad value raises the error the public
constructor would give for the same tokens.

`pd_to_gauss` reads a PD diagram's crossing records (`PseudoPD.crossings`)
and its edge labels, which number the passages in traversal order.
"""

from __future__ import annotations

import re
from functools import cached_property

from .diagram import EMPTY_CODE, GaussError, PseudoPD, Record, _is_sign, _set


class GaussToken(Record):
    id: int
    over: bool  # the strand passes over here (at a precrossing: when resolved +1)
    sign: int | None  # +-1 for classical tokens, None for precrossing tokens

    def __init__(self, id: int, over: bool, sign: int | None):
        _set(self, "id", id)
        _set(self, "over", over)
        _set(self, "sign", sign)

    def is_classical(self) -> bool:
        return self.sign is not None

    def to_text(self) -> str:
        role = _role(self.over, self.sign)
        if self.sign is None:
            return f"P{role}{self.id}"
        return f"{role}{self.id}{'+' if self.sign > 0 else '-'}"


def _role(over: bool, sign: int | None) -> str:
    """The role letter of a position: O or U on a classical crossing, h or
    t (written Ph, Pt) on a precrossing."""
    if sign is None:
        return "h" if over else "t"
    return "O" if over else "U"


class PseudoGaussDiagram(Record):
    """Validated cyclic token sequence; position 0 is the base point.

    Position p holds crossing `id_at[p]`, passes over there when
    `over_at[p]`, and has sign `sign_at[p]` (+1, -1, or None at a
    precrossing).  These arrays are the record's fields, so two diagrams
    are equal, and hash alike, exactly when their token sequences are.

    `position_index` maps each id to (i, j), i < j, the positions of its
    two tokens, in no particular order of ids.  It and `tokens`, the
    positions as `GaussToken` records (built on first read), are kept on
    the instance, not as fields.  Shared by every caller: read them, never
    modify them.  A move result also has `move_delta` (see `_from_move`).
    """

    id_at: tuple[int, ...]
    over_at: tuple[bool, ...]
    sign_at: tuple[int | None, ...]

    def __init__(self, tokens):
        # the move that writes every position of an empty diagram
        tokens = tuple(tokens)
        ids = tuple(t.id for t in tokens)
        _set(self, "id_at", ids)
        _set(self, "over_at", tuple(t.over for t in tokens))
        _set(self, "sign_at", tuple(t.sign for t in tokens))
        _set(self, "position_index", {})
        if not all(type(id_) is int for id_ in ids):
            # `_paired` groups the positions by id, which an id such as a
            # list cannot key; some token is bad, and the rule names the
            # first bad one in sequence order, so check each position alone
            raise _pairing_error(self, {p: (p,) for p in range(len(ids))})
        _paired(self, range(len(tokens)))

    @classmethod
    def _from_move(
        cls,
        ids: tuple[int, ...],
        overs: tuple[bool, ...],
        signs: tuple[int | None, ...],
        index: dict[int, tuple[int, int]],
        written: tuple[int, ...],
        cut: tuple[int, ...] = (),
    ) -> PseudoGaussDiagram:
        """The result of one move on a valid parent diagram.

        The arrays differ from the parent's only at the ascending positions
        `written`, which the move wrote, and at the parent positions `cut`,
        which it removed or, in a slide, overwrote.  `index`, the parent's
        position index moved to the new positions, is taken over and
        completed by `_paired`, so the result is valid exactly when the
        public constructor would accept the same tokens, and the error is
        the one it would raise.  The delta is kept as `move_delta = (cut,
        written)`.
        """
        g = cls._trusted(ids, overs, signs, index)
        _paired(g, written)
        _set(g, "move_delta", (cut, written))
        return g

    @classmethod
    def _trusted(
        cls,
        ids: tuple[int, ...],
        overs: tuple[bool, ...],
        signs: tuple[int | None, ...],
        index: dict[int, tuple[int, int]],
    ) -> PseudoGaussDiagram:
        """A diagram of arrays that keep the pairing rule, with `index`
        their position index; nothing is checked."""
        g = object.__new__(cls)
        _set(g, "id_at", ids)
        _set(g, "over_at", overs)
        _set(g, "sign_at", signs)
        _set(g, "position_index", index)
        return g

    @cached_property
    def tokens(self) -> tuple[GaussToken, ...]:
        """The positions as `GaussToken` records, for the text and JSON
        forms."""
        return tuple(map(GaussToken, self.id_at, self.over_at, self.sign_at))

    @property
    def size(self) -> int:
        return len(self.id_at)

    @cached_property
    def adjacent_id_pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (a, b), a < b, for every two different ids whose tokens
        sit next to each other somewhere on the cyclic sequence."""
        ids = self.id_at
        out = set()
        for i in range(len(ids)):
            a, b = ids[i - 1], ids[i]
            if a != b:
                out.add((a, b) if a < b else (b, a))
        return tuple(sorted(out))

    def ids(self) -> list[int]:
        return sorted(self.position_index)

    def precrossing_ids(self) -> list[int]:
        signs = self.sign_at
        return sorted(cid for cid, (i, _) in self.position_index.items() if signs[i] is None)

    def classical_ids(self) -> list[int]:
        signs = self.sign_at
        return sorted(cid for cid, (i, _) in self.position_index.items() if signs[i] is not None)

    def to_text(self) -> str:
        return ",".join(t.to_text() for t in self.tokens) or EMPTY_CODE

    def to_json_dict(self) -> dict:
        names = {"O": "over-origin", "U": "under-target", "h": "head", "t": "tail"}
        return {
            "tokens": [
                {
                    "id": t.id,
                    "role": names[_role(t.over, t.sign)],
                    **({"sign": t.sign} if t.is_classical() else {}),
                }
                for t in self.tokens
            ]
        }


def _paired(g: PseudoGaussDiagram, written) -> None:
    """Complete `g.position_index` (id -> the positions of its two tokens,
    valid everywhere but at the ascending positions `written`) with the
    entries of the ids at `written` recomputed, after the pairing rule
    accepts those ids; raises its error otherwise.  Updated in place."""
    if not written:
        return
    ids, index = g.id_at, g.position_index
    # the ascending positions of each written id's tokens
    touched: dict[int, tuple[int, ...]] = {}
    for p in written:
        id_ = ids[p]
        touched[id_] = touched[id_] + (p,) if id_ in touched else (p,)
    if index:
        for id_, positions in touched.items():
            old = index.get(id_)
            if old:
                # the tokens of this id that were not written: a slide's
                # none, a reused id's two
                touched[id_] = tuple(sorted(positions + tuple(q for q in old if q not in written)))
    error = _pairing_error(g, touched)
    if error:
        raise error
    index.update(touched)


def _pairing_error(g: PseudoGaussDiagram, positions) -> GaussError | None:
    """The pairing rule on the ids of `positions` (id -> the ascending
    positions of its tokens in `g`).

    Every position's id is a non-negative int (the text form has no
    other), its over flag is a bool and its sign is +1 or -1 (type int)
    or None.  Every id has exactly two tokens with complementary roles,
    one over and one under, both classical or both not, and equal signs.
    Returns None when the ids keep the rule, else the error of the first
    bad token in sequence order or, if every token is good, of the first
    bad id by first position: wrong count, then roles, then signs.  The
    messages name each token by its own id, so the keys of `positions`
    name only the groups.
    """
    ids, overs, signs = g.id_at, g.over_at, g.sign_at
    first = None  # (rank, position, message) of the error to raise
    for id_, pos in positions.items():
        for p in pos:
            token_id, over, sign = ids[p], overs[p], signs[p]
            if type(token_id) is not int or token_id < 0:
                error = (0, p, f"crossing id {token_id!r} is not a non-negative int")
                break
            if type(over) is not bool:
                error = (0, p, f"token {token_id}: over must be a bool, got {over!r}")
                break
            if sign is not None and not _is_sign(sign):
                error = (0, p, f"token {token_id}: sign must be +1, -1 or None, got {sign!r}")
                break
        else:
            a, b = pos[0], pos[-1]
            if len(pos) != 2:
                error = (1, a, f"id {id_} appears {len(pos)} times (must be exactly 2)")
            elif overs[a] == overs[b] or (signs[a] is None) != (signs[b] is None):
                error = (1, a, f"id {id_}: roles {_role(overs[a], signs[a])}/"
                               f"{_role(overs[b], signs[b])} are not complementary")
            elif signs[a] != signs[b]:
                error = (1, a, f"id {id_}: the two tokens carry different signs")
            else:
                continue
        if first is None or error < first:
            first = error
    return None if first is None else GaussError(first[2])


_GAUSS_TOKEN_RE = re.compile(r"\s*(?:(O|U)([0-9]+)([+\-−])|P(h|t)([0-9]+))\s*$")


def parse_gauss(text: str) -> PseudoGaussDiagram:
    """Parse a comma-separated extended Gauss code, or `EMPTY_CODE`; the
    empty string is refused.

    The tokens' values are well formed by the grammar, so the pairing rule
    is the one check left; it runs on every id, as in the public
    constructor."""
    if text.strip() == EMPTY_CODE:
        return PseudoGaussDiagram(())
    chunks = [c for c in text.strip().split(",")]
    if chunks == [""]:
        raise GaussError("empty Gauss code")
    ids, overs, signs = [], [], []
    for i, chunk in enumerate(chunks):
        m = _GAUSS_TOKEN_RE.match(chunk)
        if not m:
            raise GaussError(f"syntax error in token {i + 1}: {chunk.strip()!r}")
        digits = m.group(2) or m.group(5)
        try:
            ids.append(int(digits))
        except ValueError:  # more digits than int() converts
            raise GaussError(f"token {i + 1}: crossing id too long "
                             f"({len(digits)} digits)") from None
        if m.group(1):
            overs.append(m.group(1) == "O")
            signs.append(1 if m.group(3) == "+" else -1)
        else:
            overs.append(m.group(4) == "h")
            signs.append(None)
    g = PseudoGaussDiagram._trusted(tuple(ids), tuple(overs), tuple(signs), {})
    _paired(g, range(len(ids)))
    return g


def pd_to_gauss(d: PseudoPD) -> PseudoGaussDiagram:
    """Gauss diagram of a pseudodiagram, following the strand traversal.

    Edges are labelled in traversal order, so the passage entered on edge e
    is position e - 1.  Each crossing record's slot 0 is the under-strand's
    entry, and the over-strand enters at slot 3, or at slot 1 in a -1
    crossing; a precrossing's record is its +1 resolution.

    The diagram is built unchecked (`PseudoGaussDiagram._trusted`), its
    arrays and index filled from the records: `d` is valid, so its ids are
    distinct non-negative ints and each record gives one under and one
    over passage, both with the vertex's sign, the int +1 or -1, or None.
    """
    size = 2 * d.n
    ids = [0] * size
    overs = [False] * size
    signs: list[int | None] = [None] * size
    index = {}
    for i, (edges, sign) in zip(d.ids, d.crossings):
        under = edges[0] - 1
        over = (edges[1] if sign == -1 else edges[3]) - 1
        ids[under] = ids[over] = i
        overs[over] = True
        if sign is not None:
            signs[under] = signs[over] = sign
        index[i] = (under, over) if under < over else (over, under)
    return PseudoGaussDiagram._trusted(tuple(ids), tuple(overs), tuple(signs), index)
