"""The all-resolutions bracket engine against the independent naive oracle.

`loop_table` returns the loop count of every smoothing; each entry must
equal `oracle.naive_loops` of its mask.  `state_sums` returns one bracket
row per flip-mask of the precrossings; each row must equal
`oracle.naive_bracket` of the resolution it stands for.
"""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_bracket, naive_loops
from pseudoknots.bracket import (
    LOOP_TABLE_BLOCK,
    DiagramTooLargeError,
    check_state_sum_size,
    jones,
    loop_table,
    row_polynomial,
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


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


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
    return dict(row_polynomial(rows[m], d.n).items())


def assert_loop_table_matches(d):
    assert loop_table(d).tolist() == [naive_loops(d, mask) for mask in range(1 << d.n)]


def assert_resolutions_match(d, choices):
    assert_loop_table_matches(d)
    rows = engine_rows(d)
    assert rows.shape == (1 << len(d.precrossing_ids()), 3 * d.n + 1)
    for choice in choices:
        assert engine_bracket(d, rows, choice) == naive_bracket(resolve(d, choice)), choice


def all_choices(d):
    ids = d.precrossing_ids()
    return [dict(zip(ids, bits)) for bits in itertools.product((1, -1), repeat=len(ids))]


def test_crossingless_and_one_crossing():
    assert_loop_table_matches(unknot())
    assert dict(row_polynomial(engine_rows(unknot())[0], 0).items()) == {0: 1}
    kink = parse_pd("P(1,1,2,2)")
    assert_resolutions_match(kink, all_choices(kink))
    for text in ("X+(1,1,2,2)", "X-(1,2,2,1)"):
        d = parse_pd(text)
        assert dict(row_polynomial(engine_rows(d)[0], 1).items()) == naive_bracket(d)


@pytest.mark.parametrize("code", twist_codes_up_to(7), ids=str)
def test_every_resolution_of_twist_shadows(code):
    shadow = twist_shadow(code)
    assert_resolutions_match(shadow, all_choices(shadow))


def test_every_resolution_of_family_2_2():
    shadow = family(2, 2)[0]
    assert shadow.n == 7
    assert_resolutions_match(shadow, all_choices(shadow))


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


def test_loop_table_spans_several_blocks():
    shadow = family(4, 6)[0]
    assert 1 << shadow.n >= 2 * LOOP_TABLE_BLOCK
    assert_loop_table_matches(shadow)


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

    # the package rebinds the name `pseudoknots.wereset` to the function
    for module in ("pseudoknots.wereset", "pseudoknots.bracket"):
        monkeypatch.setattr(sys.modules[module], "loop_table", fail)
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
