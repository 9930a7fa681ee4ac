"""The all-resolutions bracket engine against two independent references.

The seam the rest of the library reads, `resolution_groups`, counts the
resolutions by (writhe, bracket key), a shadow's only for writhe w >= 0.
With each shadow group's mirror added (`oracle.mirror_expansion`), it must
equal `oracle.naive_histogram` (one resolution and 2^n states at a time)
up to n = 10, and `numpy_engine.numpy_histogram` (the 2^n state sum the
library used before its contraction) above that.

The reference engine is checked here too: each entry of its `loop_table`
must equal `oracle.naive_loops` of its mask, and each row of its
`state_sums` must equal `oracle.naive_bracket` of the resolution it stands
for.
"""

import hashlib
import itertools
import os
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
from oracle import compositions, mirror_expansion, naive_bracket, naive_histogram, naive_loops
from pdmoves import faces, in_slots, r1_insert
import pseudoknots
from pseudoknots import bracket
from pseudoknots.bracket import (
    MAX_BOUNDARY_WIDTH,
    DiagramTooLargeError,
    contraction_plan,
    jones,
    resolution_groups,
)
from pseudoknots.cli import main
from pseudoknots.diagram import (
    PDError,
    parse_pd,
    resolve,
    unknot,
)
from pseudoknots.flype import (
    enumerate_flype_sites,
    family,
    random_flype_configuration,
    shadow_flype_pd,
)
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
    slots = in_slots(d)  # a +1 resolution puts strand two on top when it enters at slot 3
    m = sum(
        1 << j
        for j, vi in enumerate(pre)
        if (choice[d.vertices[vi].id] == 1) != (slots[vi][1] == 3)
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


def engine_histogram(d):
    """Every resolution of `d` by (writhe, bracket key): the engine's groups
    with a shadow's mirrors added."""
    return mirror_expansion(resolution_groups(d), d.is_shadow())


def assert_histogram_matches(d):
    assert engine_histogram(d) == naive_histogram(d)


def assert_histogram_matches_reference(d):
    assert engine_histogram(d) == numpy_histogram(d)


def all_choices(d):
    ids = d.precrossing_ids()
    return [dict(zip(ids, bits)) for bits in itertools.product((1, -1), repeat=len(ids))]


def test_crossingless_and_one_crossing():
    assert_loop_table_matches(unknot())
    assert_histogram_matches(unknot())
    assert engine_histogram(unknot()) == {(0, (0, (1,))): 1}
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
    kinked = r1_insert(twist_shadow((1, 1, 1)), 1, 1, classical=False)
    kinked = r1_insert(kinked, 2, -1, classical=False)
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
    kinked = r1_insert(twist_shadow((2, 2)), 1, 1, classical=False)
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
    assert not mixed.is_resolved() and not mixed.is_shadow()
    pre = [vi for vi, v in enumerate(mixed.vertices) if not v.is_classical()]
    slots = in_slots(mixed)
    assert len({slots[vi] for vi in pre}) == 2
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
    assert not mixed.is_resolved() and not mixed.is_shadow()
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


def plan_pin_groups():
    """The diagram sets whose contraction plans are pinned, by label."""
    census = []
    for code in compositions(7):
        try:
            census.append(twist_shadow(code))
        except PDError:  # two-component closure: a link
            continue
    random_pairs = []
    for seed in range(64):
        shadow, site = random_flype_configuration(seed)
        random_pairs += [shadow, shadow_flype_pd(shadow, site)]
    return {
        "census 7": census,
        "census 7 flypes": [shadow_flype_pd(shadow, site)
                            for shadow in census for site in enumerate_flype_sites(shadow, 1)],
        "census 7 alternating": [alternating_resolution(shadow) for shadow in census],
        "family": [d for m, n in itertools.product((2, 4, 6, 8), repeat=2) for d in family(m, n)],
        "random flypes": random_pairs,
    }


# (diagram count, sha256 of the newline-joined repr of each diagram's
# `contraction_plan`) per group of `plan_pin_groups`: the greedy order, the
# signatures and the widths, as the engine reads them.
PINNED_PLANS = {
    "census 7": (44, "d2dfa89f95fafc32da895e9ea2b2bcb30d6c8f1e3d1f889cd34485352152fac1"),
    "census 7 flypes": (376, "0cfe041fc5bed80a1d05035019d067b016b4c3199b2f7c9efdaca130643a4c76"),
    "census 7 alternating": (44, "e6ef59590935f59073f8d40846df622e044b80820fccfd08cbab09a36c9addf5"),
    "family": (32, "f9c454d9a9ee796d9ebe1eca2b370a831f00fc1b1e459b04ad305c0df116b39c"),
    "random flypes": (128, "1fd8a339ad4652228839cabe570c93d072aa93fb34ea4c085ae1124308a25d83"),
}


def test_contraction_plans_pinned():
    digests = {
        label: (len(ds), hashlib.sha256(
            "\n".join(repr(contraction_plan(d)) for d in ds).encode()).hexdigest())
        for label, ds in plan_pin_groups().items()
    }
    assert digests == PINNED_PLANS


# and the 15-crossing family(6,6) pair
@pytest.mark.parametrize("m, n", [(6, 6), (8, 8), (12, 12)])
def test_family_pairs_of_19_and_27_crossings(m, n, table):
    pre, post = family(m, n)
    assert pre.n == m + n + 3
    ws_pre, ws_post = wereset(pre, table), wereset(post, table)
    assert ws_pre.count_sum() == ws_pre.total == 1 << pre.n
    assert wereset_equal(ws_pre, ws_post)


def test_every_digit_width_the_bound_allows(monkeypatch):
    shadow = family(4, 4)[0]
    expected = numpy_histogram(shadow)
    # extra 0 first: the final-block decode cache, keyed by block and
    # width, is warm from the default width when the others run
    for extra in (0, 1, 2, 7, 64 - bracket.digit_bits(shadow.n), 100):
        monkeypatch.setattr(bracket, "digit_bits", lambda n, extra=extra: 2 * n + 3 + extra)
        assert engine_histogram(shadow) == expected, extra


def test_a_new_digit_width_compiles_no_kernel(monkeypatch):
    # `_kernel` compiles per pattern of blocks; the factors, which hold the
    # digit width, are bound as arguments.  Every step is built afresh, so
    # each asks `_kernel` for its pattern
    shadow = family(4, 4)[0]
    expected = numpy_histogram(shadow)
    assert engine_histogram(shadow) == expected
    misses = bracket._kernel.cache_info().misses
    bracket._step.cache_clear()
    monkeypatch.setattr(bracket, "digit_bits", lambda n: 2 * n + 3 + 5)
    assert engine_histogram(shadow) == expected
    assert bracket._kernel.cache_info().misses == misses


def test_too_narrow_digits_break_a_histogram(monkeypatch):
    shadow = family(4, 4)[0]
    expected = numpy_histogram(shadow)
    largest = max(abs(c) for _, (_, coeffs) in expected for c in coeffs)
    # a signed digit of b bits holds -2^(b-1) .. 2^(b-1) - 1, so not `largest`
    narrow = largest.bit_length()
    assert narrow < 2 * shadow.n + 3
    assert engine_histogram(shadow) == expected  # the decode cache warm at the default
    monkeypatch.setattr(bracket, "digit_bits", lambda n: narrow)
    assert engine_histogram(shadow) != expected


def test_importing_the_package_does_not_import_numpy():
    code = "import sys, pseudoknots, pseudoknots.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# The modules a were-set call does without: the Gauss, invariant, flype,
# move and rendering layers, and `fractions` (`probability_text` writes a
# were-set's fractions without it).
OFF_THE_WERESET_PATH = (
    "pseudoknots.moves", "pseudoknots.flype", "pseudoknots.gauss", "pseudoknots.chords",
    "pseudoknots.invariant", "pseudoknots.render", "fractions",
)


@pytest.mark.parametrize("call", [
    "import pseudoknots; pseudoknots.load_table()",
    "from importlib import resources\n"
    "from pseudoknots import cli\n"
    "pd = resources.files('pseudoknots.data').joinpath('counterexample_pre.pd')\n"
    "assert cli.main(['--format', 'json', 'wereset', str(pd)]) == 0",
    # `unknot` on stdin is read as PD code, not as the empty Gauss code
    *("import io\n"
      "from pseudoknots import cli\n"
      "sys.stdin = io.TextIOWrapper(io.BytesIO(b'unknot\\n'))\n"
      f"assert cli.main([{command!r}, '-']) == 0" for command in ("wereset", "jones")),
], ids=["package", "cli", "cli-unknot-wereset", "cli-unknot-jones"])
def test_a_wereset_call_loads_only_the_wereset_path(call):
    code = f"import sys\n{call}\nprint(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code, *OFF_THE_WERESET_PATH],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_loading_the_table_does_not_import_importlib_resources():
    # -S: no site module, which on some installs imports importlib.resources
    # at start-up and would hide an import of it by the package
    src = os.path.dirname(os.path.dirname(pseudoknots.__file__))
    code = ("import sys, pseudoknots; pseudoknots.load_table(); "
            "print('importlib.resources' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
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
