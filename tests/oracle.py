"""Independent naive Kauffman-bracket oracle.

Deliberately separate from the production engine: plain dict polynomials,
explicit per-state arc graphs, loop counting by traversal one state at a
time, and brackets one resolution at a time (the engine reads the loops of
all states at once off the checkerboard graph of the faces, and the
brackets of all resolutions from one transform).  Keep this file free of
imports from pseudoknots.bracket so the two paths stay independent.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

from pseudoknots.diagram import PseudoPD, resolve

Poly = dict[int, int]  # exponent -> coefficient, no zero entries


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_pow(p: Poly, n: int) -> Poly:
    out: Poly = {0: 1}
    for _ in range(n):
        out = poly_mul(out, p)
    return out


DELTA: Poly = {2: -1, -2: -1}  # -A^2 - A^-2


# Smoothing arcs per vertex, for vertices normalized with slot 0 the incoming
# under-strand: the A-smoothing joins the regions swept when the over-strand
# (the 1-3 line) turns counterclockwise onto the under strand, which pairs
# slots (0,1) and (2,3); B pairs (1,2) and (3,0).
SMOOTH = {"A": ((0, 1), (2, 3)), "B": ((1, 2), (3, 0))}


def compositions(total: int) -> list[tuple[int, ...]]:
    """Every ordered tuple of positive integers summing to `total`."""
    if total == 0:
        return [()]
    return [(first,) + rest for first in range(1, total + 1) for rest in compositions(total - first)]


def naive_loops(d: PseudoPD, mask: int) -> int:
    """Loop count of the smoothing with B at vertex i when bit i of `mask`
    is set and A elsewhere, by walking the arcs; crossings are ignored."""
    if d.n == 0:
        return 1
    # Nodes are darts (vertex, slot); adjacency is a union of the smoothing
    # arcs and the diagram edges; every node has degree 2.
    adj: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def link(a, b):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    ends: dict[int, list[tuple[int, int]]] = {}
    for vi, v in enumerate(d.vertices):
        for slot, e in enumerate(v.edges):
            ends.setdefault(e, []).append((vi, slot))
    for e, pair in ends.items():
        link(pair[0], pair[1])
    for vi in range(d.n):
        for s1, s2 in SMOOTH["B" if (mask >> vi) & 1 else "A"]:
            link((vi, s1), (vi, s2))

    loops = 0
    seen: set[tuple[int, int]] = set()
    for start in adj:
        if start in seen:
            continue
        loops += 1
        prev, node = None, start
        while True:
            seen.add(node)
            a, b = adj[node]
            nxt = b if a == prev else a
            prev, node = node, nxt
            if node == start:
                break
    return loops


# Cached because the engine tests ask for each resolution's bracket twice,
# row by row and in a histogram; callers must not modify the result.
@functools.cache
def naive_bracket(d: PseudoPD) -> Poly:
    """Brute-force 2^n state sum; normalization <unknot> = 1."""
    if not d.is_resolved():
        raise ValueError("oracle needs a resolved diagram")
    n = d.n
    total: Poly = {}
    for mask in range(1 << n):
        b_count = bin(mask).count("1")
        exponent = (n - b_count) - b_count
        term = poly_mul({exponent: 1}, poly_pow(DELTA, naive_loops(d, mask) - 1))
        total = poly_add(total, term)
    return total


def naive_jones(d: PseudoPD) -> Poly:
    """(-A^3)^(-w) <d> with A = t^(-1/4); exponents must land on integers."""
    w = sum(v.sign for v in d.vertices)
    bracket = naive_bracket(d)
    sign = -1 if w % 2 else 1
    normalized = {e - 3 * w: sign * c for e, c in bracket.items()}
    out: Poly = {}
    for e, c in normalized.items():
        if e % 4:
            raise ValueError(f"non-integer t-exponent from A-exponent {e}")
        out[-e // 4] = c
    return out


def naive_histogram(d: PseudoPD) -> Counter:
    """Resolutions of `d` counted by (writhe, bracket key), one resolution
    at a time.  A bracket key is (lowest A-exponent, coefficients of A^low,
    A^(low+2), ..., A^high)."""
    ids = d.precrossing_ids()
    out: Counter = Counter()
    for bits in itertools.product((1, -1), repeat=len(ids)):
        r = resolve(d, dict(zip(ids, bits)))
        bracket = naive_bracket(r)
        low, high = min(bracket), max(bracket)
        key = low, tuple(bracket.get(e, 0) for e in range(low, high + 1, 2))
        out[sum(v.sign for v in r.vertices), key] += 1
    return out
