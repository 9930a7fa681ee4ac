"""The all-resolutions bracket engine against the independent naive oracle.

`loop_table` returns the loop count of every smoothing; each entry must
equal `oracle.naive_loops` of its mask.  `state_sums` returns one bracket
row per flip-mask of the precrossings; each row must equal
`oracle.naive_bracket` of the resolution it stands for.  The seam the rest
of the library reads, `resolution_histogram`, must equal
`oracle.naive_histogram`: the resolutions counted by (writhe, bracket key).
"""

import itertools
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import compositions, naive_bracket, naive_histogram, naive_loops
from pseudoknots import bracket
from pseudoknots.bracket import (
    DiagramTooLargeError,
    check_state_sum_size,
    jones,
    loop_table,
    resolution_histogram,
    state_sum_dtype,
    state_sums,
)
from pseudoknots.cli import main
from pseudoknots.diagram import (
    PRECROSSING,
    PDError,
    canonical_pd_key,
    parse_pd,
    positive_over_is_strand_two,
    resolve,
    unknot,
)
from pseudoknots.flype import family, random_flype_configuration
from pseudoknots.pdmoves import r1_insert
from pseudoknots.tables import alternating_resolution, twist_shadow
from pseudoknots.wereset import wereset, wereset_equal
from test_wereset import brute_force_wereset


def twist_codes_up_to(max_n):
    """Codes of the knot twist shadows with at most max_n crossings, one per
    isomorphism class (many codes close up to the same shadow)."""
    seen = {}
    for total in range(1, max_n + 1):
        for code in compositions(total):
            try:
                d = twist_shadow(code)
            except PDError:  # two-component closure: a link
                continue
            seen.setdefault(canonical_pd_key(d), code)
    return list(seen.values())


def row_polynomial(row, n):
    """The bracket held in one `state_sums` row of an n-vertex diagram, as
    an exponent -> coefficient dict: column c holds A^(2c - 3n)."""
    return {2 * int(c) - 3 * n: int(row[c]) for c in np.flatnonzero(row)}


def engine_rows(d):
    return state_sums(loop_table(d), [not v.is_classical() for v in d.vertices])


def engine_bracket(d, rows, choice):
    """The row of `rows` for `choice`: precrossing j's bit of the flip-mask
    is set when its resolution takes the odd pairing as the A-smoothing."""
    pre = [vi for vi, v in enumerate(d.vertices) if not v.is_classical()]
    m = sum(
        1 << j
        for j, vi in enumerate(pre)
        if (choice[d.vertices[vi].id] == 1) != positive_over_is_strand_two(d, vi)
    )
    return row_polynomial(rows[m], d.n)


def assert_loop_table_matches(d):
    table = loop_table(d)
    assert table.dtype == "int64"
    assert table.tolist() == [naive_loops(d, mask) for mask in range(1 << d.n)]


def assert_resolutions_match(d, choices):
    assert_loop_table_matches(d)
    rows = engine_rows(d)
    assert rows.shape == (1 << len(d.precrossing_ids()), 3 * d.n + 1)
    for choice in choices:
        assert engine_bracket(d, rows, choice) == naive_bracket(resolve(d, choice)), choice


def assert_histogram_matches(d):
    assert resolution_histogram(d) == naive_histogram(d)


def all_choices(d):
    ids = d.precrossing_ids()
    return [dict(zip(ids, bits)) for bits in itertools.product((1, -1), repeat=len(ids))]


def test_crossingless_and_one_crossing():
    assert_loop_table_matches(unknot())
    assert_histogram_matches(unknot())
    assert resolution_histogram(unknot()) == {(0, (0, (1,))): 1}
    assert row_polynomial(engine_rows(unknot())[0], 0) == {0: 1}
    kink = parse_pd("P(1,1,2,2)")
    assert_resolutions_match(kink, all_choices(kink))
    assert_histogram_matches(kink)
    for text in ("X+(1,1,2,2)", "X-(1,2,2,1)"):
        d = parse_pd(text)
        assert_histogram_matches(d)
        assert row_polynomial(engine_rows(d)[0], 1) == naive_bracket(d)


@pytest.mark.parametrize("code", twist_codes_up_to(7), ids=str)
def test_every_resolution_of_twist_shadows(code):
    shadow = twist_shadow(code)
    assert_resolutions_match(shadow, all_choices(shadow))
    assert_histogram_matches(shadow)


def test_every_resolution_of_family_2_2():
    shadow = family(2, 2)[0]
    assert shadow.n == 7
    assert_resolutions_match(shadow, all_choices(shadow))
    assert_histogram_matches(shadow)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("tangle, kinks", [(5, 2), (6, 2), (6, 3)])
def test_sampled_resolutions_of_random_flype_shadows(seed, tangle, kinks):
    shadow, _ = random_flype_configuration(seed, tangle, kinks)
    assert 8 <= shadow.n <= 10
    rng = random.Random(seed * 100 + shadow.n)
    ids = shadow.precrossing_ids()
    choices = [{pid: rng.choice((1, -1)) for pid in ids} for _ in range(16)]
    assert_resolutions_match(shadow, choices)


def test_loop_table_with_r1_kinks():
    kinked = r1_insert(twist_shadow((1, 1, 1)), 1, 1, kind=PRECROSSING)
    kinked = r1_insert(kinked, 2, -1, kind=PRECROSSING)
    # an edge whose two darts sit at the same vertex
    assert any(len(set(v.edges)) < 4 for v in kinked.vertices)
    assert_loop_table_matches(kinked)
    assert_histogram_matches(kinked)


def black_self_loops(d):
    """Vertices whose two corners in the smaller colour class of faces lie in
    one face, so their edge of the checkerboard graph is a self-loop.  The
    faces are 2-coloured here by walking corners, not by edge parity."""
    face_of = {dart: fi for fi, f in enumerate(d.faces) for dart in f}
    colour = {face_of[0, 0]: 0}
    while len(colour) < len(d.faces):
        for (vi, k), fi in face_of.items():
            if fi in colour:
                colour.setdefault(face_of[vi, (k + 1) % 4], 1 - colour[fi])
    counts = [list(colour.values()).count(c) for c in (0, 1)]
    assert counts[0] != counts[1]
    black = counts.index(min(counts))
    return [
        vi
        for vi in range(d.n)
        for k in (0, 1)
        if face_of[vi, k] == face_of[vi, k + 2] and colour[face_of[vi, k]] == black
    ]


def test_loop_table_with_a_black_self_loop():
    kinked = r1_insert(twist_shadow((2, 2)), 1, 1, kind=PRECROSSING)
    assert black_self_loops(kinked) == [4]
    assert_loop_table_matches(kinked)
    assert_histogram_matches(kinked)


def test_loop_table_of_a_13_crossing_shadow():
    shadow = family(4, 6)[0]
    assert shadow.n >= 13
    assert_loop_table_matches(shadow)


@pytest.mark.parametrize("m, n", [(6, 6), (6, 8)])
def test_sampled_loop_table_of_15_and_17_crossing_shadows(m, n):
    shadow = family(m, n)[0]
    assert shadow.n == m + n + 3
    table = loop_table(shadow)
    assert table.shape == (1 << shadow.n,)
    masks = random.Random(shadow.n).sample(range(1 << shadow.n), 1024)
    assert [int(table[mask]) for mask in masks] == [naive_loops(shadow, mask) for mask in masks]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    tangle=st.integers(1, 6),
    kinks=st.integers(1, 3),
)
def test_loop_table_of_random_flype_shadows(seed, tangle, kinks):
    shadow, _ = random_flype_configuration(seed, tangle, kinks)
    assert shadow.n <= 10
    assert_loop_table_matches(shadow)


def test_state_sum_dtype_follows_the_exact_bound():
    # B = sum_s 2^(L(s)-1); int32 holds every entry exactly when B < 2^31.
    # The arrays stand for loop tables: only their loop counts matter.
    just_under = np.arange(1, 32)  # B = 2^0 + ... + 2^30 = 2^31 - 1
    assert state_sum_dtype(just_under) is np.int32
    assert state_sum_dtype(np.append(just_under, 1)) is np.int64  # B = 2^31
    assert state_sum_dtype(np.array([31, 31])) is np.int64
    assert state_sum_dtype(np.array([32])) is np.int64
    assert state_sum_dtype(np.ones(1 << 16, dtype=np.int64)) is np.int32


@pytest.mark.parametrize("m, n", [(2, 2), (4, 4), (4, 6)])
def test_int32_rows_equal_int64_rows(m, n, monkeypatch):
    shadow = family(m, n)[0]
    loops, keep = loop_table(shadow), [True] * shadow.n
    rows = state_sums(loops, keep)
    assert rows.dtype == np.int32
    # the same passes forced to int64, which cannot overflow at these sizes
    monkeypatch.setattr(bracket, "state_sum_dtype", lambda loops: np.int64)
    wide = state_sums(loops, keep)
    assert wide.dtype == np.int64
    assert np.array_equal(rows, wide)


def reference_row(loops, n, m):
    """Row m of `state_sums(loops, [True] * n)` in Python ints, from the
    loop table alone: state s contributes delta^(L(s)-1) A^(n - 2|s XOR m|)."""
    flips = np.bitwise_count(np.arange(len(loops), dtype=np.uint64) ^ np.uint64(m))
    counts = np.zeros((int(loops.max()), n + 1), dtype=np.int64)
    np.add.at(counts, (loops - 1, flips.astype(np.int64)), 1)
    row = [0] * (3 * n + 1)
    # delta^j = sum_i (-1)^j C(j, i) A^(2j - 4i); A^e sits in column (e + 3n) / 2
    for j, p in zip(*np.nonzero(counts)):
        j, p = int(j), int(p)
        for i in range(j + 1):
            row[2 * n - p + j - 2 * i] += int(counts[j, p]) * (-1) ** j * comb(j, i)
    return row


@pytest.mark.parametrize("m, n", [(6, 6), (6, 8)])
def test_sampled_int32_rows_of_15_and_17_crossing_shadows(m, n):
    shadow = family(m, n)[0]
    loops = loop_table(shadow)
    rows = state_sums(loops, [True] * shadow.n)
    assert rows.dtype == np.int32
    for mask in random.Random(shadow.n).sample(range(1 << shadow.n), 8):
        assert rows[mask].tolist() == reference_row(loops, shadow.n, mask)


def test_mixed_classical_and_precrossings(table):
    # Turn every second crossing of the alternating 7_7 diagram back into a
    # precrossing; the +1 resolutions of those take both pairings.
    resolved = alternating_resolution(twist_shadow((2, 1, 1, 1, 2)))
    terms = resolved.to_text().split()
    mixed = parse_pd(" ".join("P" + t[2:] if i % 2 else t for i, t in enumerate(terms)))
    assert mixed.classical_ids() and mixed.precrossing_ids()
    pre = [vi for vi, v in enumerate(mixed.vertices) if not v.is_classical()]
    assert len({positive_over_is_strand_two(mixed, vi) for vi in pre}) == 2
    assert_resolutions_match(mixed, all_choices(mixed))
    assert_histogram_matches(mixed)
    ws = wereset(mixed, table)
    assert {str(k): v for k, v in ws.entries.items()} == brute_force_wereset(mixed, table)


def test_family_4_6_unknown_buckets(table):
    pre, post = family(4, 6)
    assert pre.n == 13
    ws_pre, ws_post = wereset(pre, table), wereset(post, table)
    assert ws_pre.total == 8192
    assert sum(ws_pre.unknown.values()) == 642
    assert wereset_equal(ws_pre, ws_post)


def test_size_limit_admits_19_crossings():
    check_state_sum_size(19)
    with pytest.raises(DiagramTooLargeError):
        check_state_sum_size(20)


def test_large_diagram_refused_before_allocating(table, monkeypatch, tmp_path, capsys):
    def fail(*_):
        raise AssertionError("loop table built for an oversized diagram")

    monkeypatch.setattr(bracket, "loop_table", fail)
    shadow = twist_shadow((2, 26))
    assert shadow.n == 28
    with pytest.raises(DiagramTooLargeError, match="28 crossings"):
        wereset(shadow, table)
    with pytest.raises(DiagramTooLargeError):
        jones(alternating_resolution(shadow))
    path = tmp_path / "big.pd"
    path.write_text(shadow.to_text())
    assert main(["wereset", str(path)]) == 2
    assert "28 crossings" in capsys.readouterr().err
