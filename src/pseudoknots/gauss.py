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

A `PseudoGaussDiagram` owns its position index (id -> the positions of its
two tokens); the invariant, the moves and the renderer read it and never
modify it.  Validity is one rule per id (`_pairing_error`): two tokens,
complementary roles, equal signs, and a sign of type int, +1 or -1,
on classical tokens only.  The public constructor builds the index in
one pass over the tokens and runs the rule on every id.  A move result
(`PseudoGaussDiagram._from_move`, built only by `moves.apply_move`) takes
its parent's index moved past the inserted or cut tokens and runs the
same rule on the ids of the tokens the move wrote, and on no other: the
parent was valid, so only those can break it, and a bad token raises the
error the public constructor would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .diagram import PseudoPD, positive_over_is_strand_two


class GaussError(ValueError):
    """Invalid Gauss code text or structure."""


# classical roles
OVER = "O"
UNDER = "U"
CLASSICAL_ROLES = frozenset((OVER, UNDER))
# precrossing roles
PRE_HEAD = "h"
PRE_TAIL = "t"


@dataclass(frozen=True)
class GaussToken:
    id: int
    role: str  # O, U, h, t
    sign: int | None  # +-1 for classical tokens, None for precrossing tokens

    def is_classical(self) -> bool:
        return self.role in CLASSICAL_ROLES

    def to_text(self) -> str:
        if self.role == OVER:
            return f"O{self.id}{'+' if self.sign > 0 else '-'}"
        if self.role == UNDER:
            return f"U{self.id}{'+' if self.sign > 0 else '-'}"
        return f"P{self.role}{self.id}"


# role -> the role of the other token of the same crossing
_COMPLEMENT = {OVER: UNDER, UNDER: OVER, PRE_HEAD: PRE_TAIL, PRE_TAIL: PRE_HEAD}


@dataclass(frozen=True)
class PseudoGaussDiagram:
    """Validated cyclic token sequence; position 0 is the base point.

    `position_index` maps each id to (i, j), i < j, the positions of its two
    tokens, in no particular order of ids.  It is set when the diagram is
    built and is not a dataclass field, so equality and hashing still
    compare tokens only.  Shared by every caller: read it, never modify
    it.  A move result also has `move_delta` (see `_from_move`).
    """

    tokens: tuple[GaussToken, ...]

    def __post_init__(self):
        tokens = self.tokens
        first: dict[int, int] = {}
        index: dict[int, tuple[int, int]] = {}
        for i, tok in enumerate(tokens):
            j = first.setdefault(tok.id, i)
            if j != i:
                index[tok.id] = (j, i)
        if len(index) != len(first) or 2 * len(index) != len(tokens):
            # some id has one token or more than two: index them all
            positions: dict[int, list[int]] = {}
            for i, tok in enumerate(tokens):
                positions.setdefault(tok.id, []).append(i)
            raise _pairing_error(tokens, positions)
        error = _pairing_error(tokens, index)
        if error:
            raise error
        object.__setattr__(self, "position_index", index)

    @classmethod
    def _from_move(
        cls,
        tokens: tuple[GaussToken, ...],
        index: dict[int, tuple[int, int]],
        written: tuple[int, ...],
        cut: tuple[int, ...] = (),
    ) -> PseudoGaussDiagram:
        """The result of one move on a valid parent diagram.

        `tokens` differ from the parent's only in the tokens at the
        ascending positions `written`, which the move wrote, and in the
        parent positions `cut`, which it removed.  `index` is the parent's
        position index moved to the new positions; it is taken over, and
        the entries of the ids at `written` are recomputed here.  Only
        those ids go through the pairing rule, so the result is valid
        exactly when the public constructor would accept `tokens`, and
        the error is the one it would raise.  The move's delta is kept as
        `move_delta = (cut, written)`.
        """
        touched: dict[int, list[int]] = {}
        for p in written:
            touched.setdefault(tokens[p].id, []).append(p)
        if touched:
            for id_, positions in touched.items():
                old = index.get(id_)
                if old:
                    # the parent's tokens of this id that the move did not
                    # write: a slide's none, a reused id's two
                    positions.extend(q for q in old if q not in written)
                    positions.sort()
            error = _pairing_error(tokens, touched)
            if error:
                raise error
            for id_, (i, j) in touched.items():
                index[id_] = (i, j)
        g = object.__new__(cls)
        object.__setattr__(g, "tokens", tokens)
        object.__setattr__(g, "position_index", index)
        object.__setattr__(g, "move_delta", (cut, written))
        return g

    @property
    def size(self) -> int:
        return len(self.tokens)

    @cached_property
    def adjacent_id_pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (a, b), a < b, for every two different ids whose tokens
        sit next to each other somewhere on the cyclic sequence."""
        tokens = self.tokens
        out = set()
        for i in range(len(tokens)):
            a, b = tokens[i - 1].id, tokens[i].id
            if a != b:
                out.add((a, b) if a < b else (b, a))
        return tuple(sorted(out))

    def ids(self) -> list[int]:
        return sorted(self.position_index)

    def precrossing_ids(self) -> list[int]:
        return sorted({t.id for t in self.tokens if not t.is_classical()})

    def classical_ids(self) -> list[int]:
        return sorted({t.id for t in self.tokens if t.is_classical()})

    def is_all_classical(self) -> bool:
        return all(t.is_classical() for t in self.tokens)

    def positions_of(self, id_: int) -> tuple[int, int]:
        try:
            return self.position_index[id_]
        except KeyError:
            raise IndexError(f"no crossing {id_}") from None

    def to_text(self) -> str:
        return ",".join(t.to_text() for t in self.tokens) or EMPTY_CODE

    def to_json_dict(self) -> dict:
        return {
            "tokens": [
                {
                    "id": t.id,
                    "role": {"O": "over-origin", "U": "under-target", "h": "head", "t": "tail"}[t.role],
                    **({"sign": t.sign} if t.is_classical() else {}),
                }
                for t in self.tokens
            ]
        }


def _pairing_error(tokens, positions) -> GaussError | None:
    """The pairing rule on the ids of `positions` (id -> the ascending
    positions of its tokens in `tokens`).

    Every token has a known role; a classical token's sign is +1 or -1
    (type int), a precrossing token has none.  Every id has exactly two
    tokens, with complementary roles and equal signs.  Returns None when
    the ids keep the rule, else the error of the first bad token in
    sequence order or, if every token is good, of the first bad id by
    first position: wrong count, then roles, then signs.
    """
    bad = []
    for id_, pos in positions.items():
        if len(pos) == 2:
            a, b = tokens[pos[0]], tokens[pos[1]]
            role, sign, other = a.role, a.sign, b.sign
            if role in CLASSICAL_ROLES:
                if (
                    type(sign) is int
                    and sign in (1, -1)
                    and sign == other
                    and type(other) is int
                    and b.role == _COMPLEMENT[role]
                ):
                    continue
            elif role in _COMPLEMENT:
                if sign is None and other is None and b.role == _COMPLEMENT[role]:
                    continue
        bad.append(id_)
    if not bad:
        return None
    # which of the rule's parts each bad id breaks, for the message
    errors = []
    for id_ in bad:
        pos = positions[id_]
        for p in pos:
            role, sign = tokens[p].role, tokens[p].sign
            if role in CLASSICAL_ROLES:
                if not (type(sign) is int and sign in (1, -1)):
                    errors.append((0, p, f"classical token {id_} needs a sign"))
                    break
            elif role not in _COMPLEMENT:
                errors.append((0, p, f"unknown role {role!r}"))
                break
            elif sign is not None:
                errors.append((0, p, f"precrossing token {id_} cannot carry a sign"))
                break
        else:
            a, b = tokens[pos[0]], tokens[pos[-1]]
            if len(pos) != 2:
                reason = f"id {id_} appears {len(pos)} times (must be exactly 2)"
            elif _COMPLEMENT[a.role] != b.role:
                reason = f"id {id_}: roles {a.role}/{b.role} are not complementary"
            else:
                reason = f"id {id_}: the two tokens carry different signs"
            errors.append((1, pos[0], reason))
    return GaussError(min(errors)[2])


_GAUSS_TOKEN_RE = re.compile(r"\s*(?:(O|U)(\d+)([+\-−])|P(h|t)(\d+))\s*$")

# Text form of the diagram with no crossings; the empty string is refused.
EMPTY_CODE = "unknot"


def parse_gauss(text: str) -> PseudoGaussDiagram:
    """Parse a comma-separated extended Gauss code, or `EMPTY_CODE`."""
    if text.strip() == EMPTY_CODE:
        return PseudoGaussDiagram(())
    chunks = [c for c in text.strip().split(",")]
    if chunks == [""]:
        raise GaussError("empty Gauss code")
    toks = []
    for i, chunk in enumerate(chunks):
        m = _GAUSS_TOKEN_RE.match(chunk)
        if not m:
            raise GaussError(f"syntax error in token {i + 1}: {chunk.strip()!r}")
        if m.group(1):
            sign = 1 if m.group(3) == "+" else -1
            toks.append(GaussToken(int(m.group(2)), m.group(1), sign))
        else:
            toks.append(GaussToken(int(m.group(5)), m.group(4), None))
    return PseudoGaussDiagram(tuple(toks))


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
        if c not in (1, -1):
            raise GaussError(f"choice for {t.id} must be +1 or -1")
        if c == 1:
            out.append(GaussToken(t.id, OVER if t.role == PRE_HEAD else UNDER, 1))
        else:
            out.append(GaussToken(t.id, UNDER if t.role == PRE_HEAD else OVER, -1))
    return PseudoGaussDiagram(tuple(out))


def pd_to_gauss(d: PseudoPD) -> PseudoGaussDiagram:
    """Gauss diagram of a pseudodiagram, following the strand traversal."""
    toks = []
    for vi, slot in d.traversal:
        v = d.vertices[vi]
        if v.is_classical():
            role = UNDER if slot == 0 else OVER
            toks.append(GaussToken(v.id, role, v.sign))
        else:
            head_is_two = positive_over_is_strand_two(d, vi)
            on_strand_two = slot != 0
            role = PRE_HEAD if on_strand_two == head_is_two else PRE_TAIL
            toks.append(GaussToken(v.id, role, None))
    return PseudoGaussDiagram(tuple(toks))


def mirror_gauss(g: PseudoGaussDiagram) -> PseudoGaussDiagram:
    """Swap over/under and flip signs on classical arrows; precrossing
    arrows reverse (the positive resolution of the mirror is the old
    negative one, which points the other way)."""
    out = []
    for t in g.tokens:
        if t.is_classical():
            out.append(GaussToken(t.id, UNDER if t.role == OVER else OVER, -t.sign))
        else:
            out.append(GaussToken(t.id, PRE_TAIL if t.role == PRE_HEAD else PRE_HEAD, None))
    return PseudoGaussDiagram(tuple(out))
