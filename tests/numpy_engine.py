"""The 2^n numpy bracket engine, kept as a mid-size test reference.

This is the engine `pseudoknots.bracket` used before its contraction, moved
here unchanged: the oracle in `oracle.py` sums 2^n states per resolution
and stops near n = 10, while this one computes every resolution of an
n <= 17 diagram in well under a second.  It shares nothing with the
contraction but the vertex records: it reads each precrossing's +1
resolution off the strand's entry slots (`pdmoves.in_slots`).

The bracket is the 2^n state sum: each vertex is smoothed two ways, the
loops of all 2^n crossingless smoothings are counted at once (`loop_table`),
and each state contributes A^(#A - #B) * (-A^2 - A^-2)^(loops - 1).

The loop table is read off the checkerboard graph of the faces, the identity
behind Thistlethwaite's spanning-tree expansion of the Jones polynomial
(Topology 26, 1987).  Colour the faces black and white and let H_s be the
graph on the V_B black faces with one edge per vertex whose smoothing in s
opens a channel between its two black corners.  The loops of s bound the
black faces glued along those channels, so

    L(s) = 2 k(H_s) + |H_s| - V_B

with k(H) the number of components: by Euler's formula a plane component
with V_c vertices and E_c edges has E_c - V_c + 2 faces, one loop each.
The component labels of all 2^n graphs H_s are built by doubling over the
vertices, one numpy `where` per vertex.

`state_sums` evaluates that sum for every resolution of a pseudodiagram at
once.  The loop table does not depend on crossing information, and the
bracket of the resolution with flip-mask m is

    sum_s delta^(L(s)-1) * A^(n - 2*popcount(s XOR m)),

the loop table's delta-rows multiplied by the Kronecker product of n 2x2
kernels [[A, A^-1], [A^-1, A]].  Yates' algorithm (the fast Walsh-Hadamard
butterfly) applies that product one axis at a time: a classical vertex's
axis is contracted with (A, A^-1), a precrossing's axis gets the butterfly
pair A*x0 + A^-1*x1, A^-1*x0 + A*x1.  That is n * 2^n integer adds in place
of 4^n.  Powers of delta have even A-exponents and every pass shifts each
exponent by +-1, so after p passes all exponents share the parity of p and
the coefficient rows store only every second exponent.  Every entry, at
every pass, is a signed sum over states in which each state s contributes
at most one coefficient of delta^(L(s)-1), so its absolute value is at
most B = sum_s 2^(L(s)-1), and the passes run in int64.

`numpy_histogram` groups the rows by their bytes into every resolution's
(writhe, bracket key) -> count: the format of `bracket.resolution_groups`
with a shadow's mirrors added (`oracle.mirror_expansion`).
"""

from __future__ import annotations

from collections import Counter
from math import comb

import numpy as np

from pdmoves import faces as face_cycles, in_slots
from pseudoknots.diagram import PseudoPD

# The arrays of a 19-vertex diagram already take about 1 GiB.
MAX_N = 19


def loop_table(d: PseudoPD) -> np.ndarray:
    """Loop count of every smoothing, as a length-2^n int64 array.

    Entry s counts the loops when vertex i takes `bracket.B_PAIRS` if bit i
    of s is set and `bracket.A_PAIRS` otherwise.  Works for precrossings too: the two
    smoothings of a 4-valent vertex do not depend on its crossing
    information.  The crossingless diagram is one loop.

    The faces of the planar map are 2-coloured, and the class with fewer
    faces, which keeps the label rows short, is black: V_B faces in all.  At each vertex the two black corners
    are opposite, and one smoothing opens a channel between them: that
    choice adds an edge e_i joining the two black faces (a self-loop when
    they are one face) to a spanning subgraph H_s of the black faces; the
    other choice adds nothing.  The loops of s are the boundary circles of
    the black faces glued along the channels, a thickened plane graph, so

        L(s) = 2 k(H_s) + |H_s| - V_B,

    k counting components: each component with V_c vertices and E_c edges
    has E_c - V_c + 2 faces by Euler's formula, and each face of it is
    bounded by one circle.  Adding an edge to H therefore adds a loop when
    its ends are already connected and removes one when it joins two
    components.  The table doubles over the vertices: after vertex i it
    holds the component labels of the black faces, one (V_B,) row per mask
    of vertices 0..i, and the mask with bit i opening e_i merges the labels
    of its two ends.
    """
    n = d.n
    if n == 0:
        return np.ones(1, dtype=np.int64)
    # Edges are labelled 1..2n along the strand and slot 0 is an entry slot,
    # so the corner at dart (v, k) has colour (edges[0] + k) mod 2: adjacent
    # corners differ, and the entry corner's colour alternates edge by edge.
    faces = face_cycles(d)
    colour = [(d.vertices[vi].edges[0] + k) % 2 for vi, k in (f[0] for f in faces)]
    black = int(2 * sum(colour) < len(faces))
    black_faces = [f for f, c in zip(faces, colour) if c == black]
    face_of = {dart: j for j, f in enumerate(black_faces) for dart in f}
    v_b = len(black_faces)
    # With no edges H has V_B components and L = V_B.  L <= V_B + n and
    # V_B <= n/2 + 1, inside int8 for any n whose table fits in memory.
    labels = np.arange(v_b, dtype=np.int8)[None, :]
    loops = np.full(1, v_b, dtype=np.int8)
    for vi, v in enumerate(d.vertices):
        # The black corners are darts (vi, c) and (vi, c + 2).  Dart (v, k)
        # is the corner between slots k - 1 and k, so B_PAIRS opens the
        # channel between darts 1 and 3 and A_PAIRS between darts 0 and 2.
        c = (v.edges[0] + black) % 2
        la, lb = labels[:, face_of[vi, c]], labels[:, face_of[vi, c + 2]]
        opened = np.where(la == lb, loops + 1, loops - 1)
        if vi + 1 < n:
            merged = np.where(labels == la[:, None], lb[:, None], labels)
            labels = np.concatenate((labels, merged) if c else (merged, labels))
        loops = np.concatenate((loops, opened) if c else (opened, loops))
    return loops.astype(np.int64)


def state_sums(loops: np.ndarray, keep: list[bool]) -> np.ndarray:
    """Bracket coefficient rows of every flip-mask over the `keep` vertices.

    `loops` is `loop_table(d)` of an n-vertex diagram d, and `keep[i]` says
    whether vertex i is a precrossing.  Row m of the result is the
    bracket of the diagram in which the j-th kept vertex takes the B_PAIRS
    pairing as its A-smoothing exactly when bit j of m is set; the other
    vertices keep A_PAIRS.  Column c holds the coefficient of A^(2c - 3n),
    so a row has 3n + 1 columns.

    No entry at any pass exceeds B = sum_s 2^(L(s)-1) in absolute value.
    B is 25,467 for `family(4,4)` (n = 11) and about 1.6e8 for `family(8,8)`
    (n = 19), so the int64 rows are exact for every diagram up to MAX_N.
    """
    n = len(keep)
    width = 3 * n + 1
    # delta^j = (-1)^j (A^2 + A^-2)^j.  Before any pass, column c holds the
    # coefficient of A^(2c - 2n); after p passes, of A^(2c - 2n - p).
    # Multiplying by A moves a coefficient one column right, A^-1 keeps it.
    max_power = int(loops.max()) - 1
    delta = np.zeros((max_power + 1, width), dtype=np.int64)
    for j in range(max_power + 1):
        for i in range(j + 1):
            delta[j, n + j - 2 * i] = (-1) ** j * comb(j, i)
    x = delta[loops - 1]
    # Axes from the highest down, so contracting one leaves lower bits alone.
    for axis in reversed(range(n)):
        blocks = x.reshape(-1, 2, 1 << axis, width)
        x0, x1 = blocks[:, 0], blocks[:, 1]
        if keep[axis]:
            out = np.empty_like(blocks)
            out[:, 1] = x0
            out[:, 1, :, 1:] += x1[:, :, :-1]
            out[:, 0] = x1
            out[:, 0, :, 1:] += x0[:, :, :-1]
        else:
            out = x1.copy()
            out[:, :, 1:] += x0[:, :, :-1]
        x = out.reshape(-1, width)
    return x



def numpy_histogram(d: PseudoPD) -> Counter:
    """Count the 2^k resolutions of `d` by (writhe, bracket key).

    Raises ValueError for more than MAX_N vertices.  The rows of `state_sums` are grouped by
    their bytes, and only the distinct groups are read into bracket keys.
    """
    n = d.n
    if n > MAX_N:
        raise ValueError(f"{n} vertices: the 2^n reference stops at {MAX_N}")
    keep = [not v.is_classical() for v in d.vertices]
    rows = state_sums(loop_table(d), keep)

    # Row m flips precrossing j's A-smoothing to the odd pairing when bit j
    # is set.  The +1 resolution takes the even pairing exactly when its
    # over-strand is strand two, that is when strand two enters at slot 3,
    # 90 degrees clockwise of strand one's slot 0.  So choice bits (set =
    # resolve to -1) are m XOR `odd_positive`.
    pre_order = [vi for vi, is_pre in enumerate(keep) if is_pre]
    k = len(pre_order)
    slots = in_slots(d)
    odd_positive = sum(1 << j for j, vi in enumerate(pre_order) if slots[vi][1] != 3)
    classical_writhe = sum(v.sign for v in d.vertices if v.is_classical())
    minus = np.bitwise_count(np.arange(1 << k, dtype=np.uint64) ^ np.uint64(odd_positive))
    writhes = (classical_writhe + k - 2 * minus.astype(np.int64)).tolist()

    groups = Counter(zip(writhes, (row.tobytes() for row in rows)))
    # Column c of a row holds the coefficient of A^(2c - 3n).  The zero
    # columns at either end are the zero bytes at either end of its bytes.
    char, size = rows.dtype.char, rows.dtype.itemsize
    histogram: Counter = Counter()
    for (w, raw), count in groups.items():
        first = (len(raw) - len(raw.lstrip(b"\0"))) // size
        last = (len(raw.rstrip(b"\0")) - 1) // size
        coeffs = tuple(memoryview(raw).cast(char)[first:last + 1])
        histogram[w, (2 * first - 3 * n, coeffs)] = count
    return histogram
