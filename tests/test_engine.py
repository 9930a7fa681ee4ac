"""The all-resolutions bracket engine against two independent references.

The seam the rest of the library reads, `resolution_histogram`, counts the
resolutions by (writhe, bracket key).  It must equal
`oracle.naive_histogram` (one resolution and 2^n states at a time) up to
n = 10, and `numpy_engine.numpy_histogram` (the 2^n state sum the library
used before its contraction) above that.

The reference engine is checked here too: each entry of its `loop_table`
must equal `oracle.naive_loops` of its mask, and each row of its
`state_sums` must equal `oracle.naive_bracket` of the resolution it stands
for.
"""

import itertools
import random
import subprocess
import sys
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussref import canonical_pd_key
from numpy_engine import loop_table, numpy_histogram, state_sums
from oracle import compositions, naive_bracket, naive_histogram, naive_loops
from pdmoves import faces, r1_insert
from pseudoknots import bracket
from pseudoknots.bracket import (
    MAX_BOUNDARY_WIDTH,
    DiagramTooLargeError,
    contraction_plan,
    jones,
    resolution_histogram,
)
from pseudoknots.cli import main
from pseudoknots.diagram import (
    PRECROSSING,
    PDError,
    parse_pd,
    positive_over_is_strand_two,
    resolve,
    unknot,
)
from pseudoknots.flype import family, random_flype_configuration, shadow_flype_pd
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


def assert_histogram_matches_reference(d):
    assert resolution_histogram(d) == numpy_histogram(d)


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
    # naive_histogram would sum 2^n states for each of 2^k resolutions here
    assert_histogram_matches_reference(shadow)
    for choice in choices:
        assert_histogram_matches(resolve(shadow, choice))


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
    cycles = faces(d)
    face_of = {dart: fi for fi, f in enumerate(cycles) for dart in f}
    colour = {face_of[0, 0]: 0}
    while len(colour) < len(cycles):
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
    assert_histogram_matches_reference(shadow)


@pytest.mark.parametrize("m, n", [(6, 6), (6, 8)])
def test_sampled_loop_table_of_15_and_17_crossing_shadows(m, n):
    shadow = family(m, n)[0]
    assert shadow.n == m + n + 3
    table = loop_table(shadow)
    assert table.shape == (1 << shadow.n,)
    masks = random.Random(shadow.n).sample(range(1 << shadow.n), 1024)
    assert [int(table[mask]) for mask in masks] == [naive_loops(shadow, mask) for mask in masks]
    assert_histogram_matches_reference(shadow)


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
    assert_histogram_matches_reference(shadow)


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
def test_sampled_rows_of_15_and_17_crossing_shadows(m, n):
    shadow = family(m, n)[0]
    loops = loop_table(shadow)
    rows = state_sums(loops, [True] * shadow.n)
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


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), tangle=st.integers(2, 6), kinks=st.integers(1, 3),
       pre=st.integers(1, 4))
def test_random_mixed_diagrams_equal_the_oracle(seed, tangle, kinks, pre):
    # A diagram with a classical crossing is not mirror-symmetric, so its
    # histogram must come from every state.  At most 4 precrossings, as
    # naive_histogram sums 2^n states for each of 2^k resolutions.
    shadow, _ = random_flype_configuration(seed, tangle, kinks)
    assert shadow.n <= 10
    rng = random.Random(seed)
    resolved = resolve(shadow, {pid: rng.choice((1, -1)) for pid in shadow.precrossing_ids()})
    terms = resolved.to_text().split()
    back = set(rng.sample(range(len(terms)), min(pre, len(terms) - 1)))
    mixed = parse_pd(" ".join("P" + t[2:] if i in back else t for i, t in enumerate(terms)))
    assert mixed.classical_ids() and mixed.precrossing_ids()
    assert_histogram_matches(mixed)


def test_family_4_6_unknown_buckets(table):
    pre, post = family(4, 6)
    assert pre.n == 13
    ws_pre, ws_post = wereset(pre, table), wereset(post, table)
    assert ws_pre.total == 8192
    assert sum(ws_pre.unknown.values()) == 642
    assert wereset_equal(ws_pre, ws_post)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), tangle=st.integers(4, 8), kinks=st.integers(1, 4))
def test_engine_equals_reference_on_random_flype_shadows(seed, tangle, kinks):
    shadow, site = random_flype_configuration(seed, tangle, kinks)
    assert shadow.n <= 17
    assert_histogram_matches_reference(shadow)
    assert_histogram_matches_reference(shadow_flype_pd(shadow, site))


def test_width_6_plan_equals_reference():
    # the boundary reaches 6 open edges, so steps glue 5 matchings
    shadow, site = random_flype_configuration(0, 6, 4)
    assert shadow.n == 11
    assert max(width for _, _, width in contraction_plan(shadow)) == 6
    assert_histogram_matches_reference(shadow)
    assert_histogram_matches_reference(shadow_flype_pd(shadow, site))


@pytest.mark.parametrize("m, n", [(8, 8), (12, 12)])
def test_family_pairs_of_19_and_27_crossings(m, n, table):
    pre, post = family(m, n)
    assert pre.n == m + n + 3
    ws_pre, ws_post = wereset(pre, table), wereset(post, table)
    assert ws_pre.count_sum() == ws_pre.total == 1 << pre.n
    assert wereset_equal(ws_pre, ws_post)


def test_every_digit_width_the_bound_allows(monkeypatch):
    shadow = family(4, 4)[0]
    expected = numpy_histogram(shadow)
    for extra in (0, 1, 2, 7, 64 - bracket.digit_bits(shadow.n), 100):
        monkeypatch.setattr(bracket, "digit_bits", lambda n, extra=extra: 2 * n + 3 + extra)
        assert resolution_histogram(shadow) == expected, extra


def test_too_narrow_digits_break_a_histogram(monkeypatch):
    shadow = family(4, 4)[0]
    expected = numpy_histogram(shadow)
    largest = max(abs(c) for _, (_, coeffs) in expected for c in coeffs)
    # a signed digit of b bits holds -2^(b-1) .. 2^(b-1) - 1, so not `largest`
    narrow = largest.bit_length()
    assert narrow < 2 * shadow.n + 3
    monkeypatch.setattr(bracket, "digit_bits", lambda n: narrow)
    assert resolution_histogram(shadow) != expected


def test_importing_the_package_does_not_import_numpy():
    code = "import sys, pseudoknots, pseudoknots.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_size_limit_admits_28_crossings(table):
    shadow = twist_shadow((2, 26))
    assert shadow.n == 28
    assert max(width for _, _, width in contraction_plan(shadow)) <= MAX_BOUNDARY_WIDTH
    ws = wereset(shadow, table)
    assert ws.count_sum() == ws.total == 1 << 28
    assert jones(alternating_resolution(shadow)).evaluate_at_unit(1) == 1  # V(1) = 1 for a knot


def test_large_diagram_refused_before_allocating(table, monkeypatch, tmp_path, capsys):
    def fail(*_):
        raise AssertionError("contraction step built for an oversized diagram")

    monkeypatch.setattr(bracket, "_step", fail)
    monkeypatch.setattr(bracket, "MAX_BOUNDARY_WIDTH", 3)
    shadow = twist_shadow((2, 26))
    assert max(width for _, _, width in contraction_plan(shadow)) == 4
    with pytest.raises(DiagramTooLargeError, match="reaches 4 open edges"):
        wereset(shadow, table)
    with pytest.raises(DiagramTooLargeError, match="reaches 4 open edges"):
        jones(alternating_resolution(shadow))
    path = tmp_path / "big.pd"
    path.write_text(shadow.to_text())
    assert main(["wereset", str(path)]) == 2
    assert "reaches 4 open edges (limit 3)" in capsys.readouterr().err
