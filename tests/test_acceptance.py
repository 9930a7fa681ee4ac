"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  All tolerances are exact: integer counts, exact rationals, and
exact polynomial equality throughout.
"""

import itertools
import time

import pytest

from oracle import naive_bracket
from pdmoves import find_triangles, r1_insert, r2_insert, r3, triangle_soundness
from pseudoknots.bracket import jones, kauffman_bracket
from pseudoknots.diagram import mirror, parse_pd, resolve, unknot
from pseudoknots.flype import (
    counterexample_pair,
    family,
    random_flype_configuration,
    shadow_flype_pd,
)
from pseudoknots.gauss import parse_gauss, pd_to_gauss
from pseudoknots.invariant import compute_i, i_equal
from pseudoknots.moves import MoveError, scramble
from pseudoknots.tables import alternating_resolution, load_table, rebuild_table, twist_shadow
from pseudoknots.wereset import wereset, wereset_equal

REFERENCE_WERE_SET = {
    "0_1": 72,
    "-3_1": 10, "3_1": 10,
    "4_1": 20,
    "-5_1": 1, "5_1": 1,
    "-5_2": 2, "5_2": 2,
    "-6_1": 2, "6_1": 2,
    "-6_2": 2, "6_2": 2,
    "-7_7": 1, "7_7": 1,
}


def report(criterion, ok):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_reference_wereset(table):
    """were-set of the bundled pair matches the frozen 128-count reference table."""
    start = time.time()
    p1, p2 = counterexample_pair()
    got1 = {str(k): v for k, v in wereset(p1, table).entries.items()}
    got2 = {str(k): v for k, v in wereset(p2, table).entries.items()}
    elapsed = time.time() - start
    ok = got1 == REFERENCE_WERE_SET and got2 == REFERENCE_WERE_SET and elapsed < 10.0
    print(f"\n  were-set(P1) = were-set(P2) = reference table; {elapsed:.2f}s")
    report(1, ok)


def test_criterion_2_incompleteness_witness(table):
    """I distinguishes the pair while the were-sets coincide (both exact)."""
    p1, p2 = counterexample_pair()
    i_differs = not i_equal(compute_i(pd_to_gauss(p1)), compute_i(pd_to_gauss(p2)))
    ws_equal = wereset_equal(wereset(p1, table), wereset(p2, table))
    report(2, i_differs and ws_equal)


def test_criterion_3_flype_invariance(table):
    """family pairs for m,n in {2,4} and >= 20 random flype sites (k <= 10):
    were-sets before/after the shadow flype are exactly equal."""
    checked = 0
    ok = True
    for m, n in [(2, 2), (2, 4), (4, 2), (4, 4)]:
        a, b = family(m, n)
        ok &= wereset_equal(wereset(a, table), wereset(b, table))
        checked += 1
    for seed in range(20):
        d, site = random_flype_configuration(seed, 2 + seed % 5, 1 + seed % 3)
        assert len(d.precrossing_ids()) <= 10
        ok &= wereset_equal(wereset(d, table), wereset(shadow_flype_pd(d, site), table))
        checked += 1
    print(f"\n  {checked} flype sites, all were-sets exactly equal")
    report(3, ok and checked >= 24)


def test_criterion_4_i_move_invariance():
    """100 seeded scrambles of >= 30 moves on >= 10 base pseudoknots leave
    the canonical value of I exactly unchanged."""
    p1, p2 = counterexample_pair()
    bases = [
        parse_gauss("Ph1,Pt1"),
        parse_gauss("Ph1,Pt2,Ph3,Pt1,Ph2,Pt3"),
        parse_gauss("O1+,U2+,O3+,U1+,O2+,U3+"),
        parse_gauss("Ph1,O2-,Pt1,U2-"),
        parse_gauss("Ph1,Ph2,Pt1,Pt2,Ph3,Pt3"),
        pd_to_gauss(p1),
        pd_to_gauss(p2),
        pd_to_gauss(twist_shadow((2, 2))),
        pd_to_gauss(twist_shadow((3, 1, 2))),
        pd_to_gauss(family(2, 4)[0]),
    ]
    assert len(bases) >= 10
    runs = 0
    ok = True
    for i, base in enumerate(bases):
        i0 = compute_i(base)
        for seed in range(10):
            g = scramble(base, seed=seed * 101 + i, steps=30)
            ok &= i_equal(i0, compute_i(g))
            runs += 1
    print(f"\n  {runs} scrambles x 30 moves, I unchanged in all")
    report(4, ok and runs == 100)


def test_criterion_5_bracket_oracle_and_jones_invariance():
    """optimized bracket == naive oracle on every corpus diagram with <= 8
    crossings; jones invariant under R1/R2/R3 and the mirror identity."""
    corpus = [unknot(), parse_pd("X+(1,1,2,2)")]
    corpus += [alternating_resolution(twist_shadow(c))
               for c in [(3,), (2, 2), (3, 2), (3, 1, 2), (2, 1, 1, 2), (2, 2, 1, 2), (2, 1, 1, 1, 2)]]
    shadow = twist_shadow((3,))
    ids = shadow.precrossing_ids()
    corpus += [resolve(shadow, dict(zip(ids, bits)))
               for bits in itertools.product((1, -1), repeat=3)]
    corpus += [mirror(d) for d in corpus if d.n]
    oracle_ok = all(
        dict(kauffman_bracket(d).items()) == naive_bracket(d)
        for d in corpus
        if d.n <= 8
    )
    mirror_ok = all(
        jones(mirror(d)) == jones(d).invert_variable() for d in corpus
    )

    moves_ok = True
    base = alternating_resolution(twist_shadow((3, 2)))
    j0 = jones(base)
    moves_ok &= jones(r1_insert(base, 2, 1, True)) == j0
    moves_ok &= jones(r1_insert(base, 4, -1, False)) == j0
    slid = 0
    for f in base.faces:
        for d1, d2 in itertools.permutations(f, 2):
            try:
                big = r2_insert(base, d1, d2, over_first=True)
            except Exception:
                continue
            moves_ok &= jones(big) == j0
            for t in find_triangles(big):
                if triangle_soundness(big, t) is None:
                    try:
                        moves_ok &= jones(r3(big, t)) == j0
                        slid += 1
                    except MoveError:
                        continue
    print(f"\n  oracle match on {sum(1 for d in corpus if d.n <= 8)} diagrams; "
          f"R1/R2 inserts and {slid} R3 slides jones-invariant; mirror identity exact")
    report(5, oracle_ok and mirror_ok and moves_ok and slid > 0)


def test_criterion_6_shadow_mirror_symmetry(table):
    """p_K = p_{-K} exactly for every all-precrossing input in the corpus."""
    corpus = [
        parse_pd("P(1,1,2,2)"),
        parse_pd("P(1,2,2,3) P(3,4,4,1)"),
        twist_shadow((3,)),
        twist_shadow((2, 2)),
        twist_shadow((3, 1, 2)),
        twist_shadow((2, 1, 1, 1, 2)),
        family(2, 4)[0],
    ]
    ok = True
    for d in corpus:
        ws = wereset(d, table)
        ok &= wereset_equal(ws, ws.mirrored())
    print(f"\n  {len(corpus)} shadows, mirror-symmetric were-sets")
    report(6, ok)


def test_criterion_7_small_shadow_oracle(table):
    """trefoil shadow: {0_1: 6/8, 3_1: 1/8, -3_1: 1/8}; kink shadow: {0_1: 1}."""
    tref = wereset(twist_shadow((3,)), table)
    got = {str(k): v for k, v in tref.entries.items()}
    kink = wereset(parse_pd("P(1,1,2,2)"), table)
    got_kink = {str(k): v for k, v in kink.entries.items()}
    report(7, got == {"0_1": 6, "3_1": 1, "-3_1": 1} and got_kink == {"0_1": 2})


def test_criterion_8_table_integrity():
    """bundled 27-entry table: pairwise-distinct Jones, mirror/amphichiral
    invariants hold at build time."""
    table = load_table()
    rebuilt = rebuild_table()
    polys = [e.jones for e in table.entries]
    distinct = len(set(polys)) == 27 == len(table.entries)
    by_name = {str(e.name): e for e in table.entries}
    mirrors_ok = all(
        (e.jones == e.jones.invert_variable())
        if e.amphichiral
        else (by_name[str(e.name.mirror())].jones == e.jones.invert_variable())
        for e in table.entries
    )
    report(8, distinct and mirrors_ok and rebuilt.to_text() == table.to_text())
