import hashlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmoves import (
    faces,
    find_bigons,
    find_kinks,
    find_triangles,
    r1_insert,
    r1_remove,
    r2_insert,
    r2_remove,
    r3,
    triangle_soundness,
)
from pseudoknots import moves
from pseudoknots.bracket import jones, kauffman_bracket
from pseudoknots.diagram import PDError
from pseudoknots.flype import family
from pseudoknots.gauss import (
    GaussError,
    GaussToken,
    PseudoGaussDiagram,
    _role,
    parse_gauss,
    pd_to_gauss,
)
from pseudoknots.invariant import compute_i, i_equal
from pseudoknots.moves import (
    INSERT_BIAS,
    MoveError,
    MoveSite,
    _below,
    _SiteIndex,
    _triangle_error,
    apply_move,
    pr2_sites,
    removable_kinks,
    removable_r2_pairs,
    scramble,
    triangle_sites,
)
from pseudoknots.tables import alternating_resolution, twist_shadow

TREFOIL_G = "Ph1,Pt2,Ph3,Pt1,Ph2,Pt3"
TREFOIL_O = "O1+,U2+,O3+,U1+,O2+,U3+"
PR2_BAND = "Ph1,O2-,Pt1,U2-"  # classical 2 slides past precrossing 1


# -- Gauss-level moves -------------------------------------------------------


def test_r1_insert_remove_inverse():
    g = parse_gauss(TREFOIL_G)
    for sign in (1, -1):
        for over_first in (True, False):
            bigger = apply_move(g, MoveSite("R1+", (2, sign, over_first)))
            new_id = (set(bigger.ids()) - set(g.ids())).pop()
            back = apply_move(bigger, MoveSite("R1-", (new_id,)))
            assert back.to_text() == g.to_text()


def test_pr1_insert_deletes_under_i():
    g = parse_gauss(TREFOIL_G)
    i0 = compute_i(g)
    bigger = apply_move(g, MoveSite("PR1+", (3, True)))
    assert i_equal(i0, compute_i(bigger))
    new_id = (set(bigger.ids()) - set(g.ids())).pop()
    assert apply_move(bigger, MoveSite("PR1-", (new_id,))).to_text() == g.to_text()


def test_r2_over_prechord_cancels():
    g = parse_gauss("Ph1,Pt1")
    # slide a classical pair over the prechord: decorations cancel (+1 -1)
    bigger = apply_move(g, MoveSite("R2+", (1, 2, False, 1, True)))
    assert compute_i(bigger).is_empty() == compute_i(g).is_empty()
    pair = tuple(sorted(set(bigger.ids()) - set(g.ids())))
    back = apply_move(bigger, MoveSite("R2-", pair))
    assert back.to_text() == g.to_text()


def test_r2_remove_rejects_clasp():
    clasp = parse_gauss("O1+,O2+,U1+,U2+")
    with pytest.raises((MoveError, GaussError)):
        apply_move(clasp, MoveSite("R2-", (1, 2)))


def test_r1_remove_requires_adjacency():
    g = parse_gauss("O1+,U2+,O3+,U1+,O2+,U3+")
    with pytest.raises(MoveError, match="adjacent"):
        apply_move(g, MoveSite("R1-", (1,)))


def test_move_kind_validation():
    with pytest.raises(MoveError):
        MoveSite("R9", (0,))


@pytest.mark.parametrize(
    "kind, data, match",
    [
        ("R2-", (1,), r"R2- takes 2 site values \(id, id\), got \(1,\)"),
        ("R1-", (), r"R1- takes 1 site value \(id\), got \(\)"),
        ("R1+", (0, 1), r"R1\+ takes 3 site values \(gap, sign, over_first\), got \(0, 1\)"),
        ("R2+", (0, 1, True, 1), r"R2\+ takes 5 site values \(gap1, gap2, crossed, sign, "),
        ("PR2+", (1, 2, 3), r"PR2\+ takes 2 site values \(classical_id, pre_id\)"),
        ("R3", [1, 2, 3], r"R3 takes 3 site values \(id, id, id\), got \[1, 2, 3\]"),
        ("R1+", (0.5, 1, True), r"R1\+ gap must be an int, got 0.5"),
        ("R2+", (0, "1", True, 1, True), r"R2\+ gap2 must be an int, got '1'"),
        ("R1-", (True,), r"R1- id must be an int, got True"),
        ("PR2-", (1, [2]), r"PR2- pre_id must be an int, got \[2\]"),
        ("R1+", (0, 1, "no"), r"R1\+ over_first must be a bool, got 'no'"),
        ("PR1+", (0, 2), r"PR1\+ head_first must be a bool, got 2"),
        ("R2+", (0, 1, None, 1, True), r"R2\+ crossed must be a bool, got None"),
        ("PR3", (1, 2), r"PR3 takes 3 site values \(id, id, id\), got \(1, 2\)"),
        ("PR1-", ("1",), r"PR1- id must be an int, got '1'"),
        ("R2-", (1, None), r"R2- id must be an int, got None"),
        ("PR2+", (1.0, 2), r"PR2\+ classical_id must be an int, got 1.0"),
        ("PR1+", (None, True), r"PR1\+ gap must be an int, got None"),
        ("R2+", (True, 1, True, 1, True), r"R2\+ gap1 must be an int, got True"),
        ("R2+", (0, 1, True, 1, 1), r"R2\+ over_at_first must be a bool, got 1"),
        ("R9", (0,), r"^unknown move kind 'R9'$"),
    ],
)
def test_site_data_arity_and_type(kind, data, match):
    g = parse_gauss("O1+,U2+,O3+,U1+,O2+,U3+")
    with pytest.raises(MoveError, match=match):
        apply_move(g, MoveSite(kind, data))


def test_bool_sign_refused():
    g = parse_gauss("O1+,U1+")
    for sign in (True, 1.0):
        with pytest.raises(MoveError, match=r"^R1\+ sign must be \+1 or -1, got "):
            apply_move(g, MoveSite("R1+", (0, sign, True)))
        with pytest.raises(MoveError, match=r"^R2\+ sign must be \+1 or -1, got "):
            apply_move(g, MoveSite("R2+", (0, 1, False, sign, True)))
    # the ints themselves are accepted
    assert apply_move(g, MoveSite("R1+", (0, 1, True))).to_json_dict()["tokens"][0]["sign"] == 1


def test_a_site_id_may_be_an_int_subclass():
    class CrossingId(int):
        pass

    site = MoveSite("R1-", (CrossingId(1),))
    assert apply_move(parse_gauss("O1+,U1+"), site).to_text() == "unknot"


def test_scramble_refuses_negative_steps():
    with pytest.raises(ValueError, match="^steps must be >= 0$"):
        scramble(parse_gauss("O1+,U1+"), 0, -1)


@pytest.mark.parametrize("code, kind, data, reason", [
    # every reason the kink, pair and triangle rules give
    (TREFOIL_O, "R1-", (9,), "no crossing 9"),
    (TREFOIL_O, "R2-", (1, 9), "no crossing 9"),
    (TREFOIL_O, "R3", (9, 1, 2), "no crossing 9"),
    (TREFOIL_O, "R1-", (1,), "crossing 1 endpoints are not adjacent"),
    ("O1+,O2+,U1+,U2+", "R2-", (1, 2), "two classical crossings of equal sign form no site"),
    ("O1+,Ph2,O3+,U1+,U3+,Pt2", "PR2+", (1, 2),
     "crossings are not adjacent along both strands (no twist band)"),
    ("O1+,U2-,O3+,U1+,O2-,U3+", "R2-", (1, 2), "crossings do not form an R2 bigon"),
    # a clasp: adjacent along both strands, but no strand is over at both
    ("O1+,U2-,O2-,U1+", "R2-", (1, 2), "crossings do not form an R2 bigon"),
    (PR2_BAND, "PR2+", (1, 2),
     "crossing 1 is a precrossing; a pair site names its classical crossing first"),
    (TREFOIL_O, "R3", (1, 1, 2), "triangle move needs three distinct crossing ids"),
    ("Ph1,Ph2,O3+,Pt1,Pt2,U3+", "PR3", (1, 2, 3), "a triangle move has at most one precrossing"),
    ("O1+,U2+,O3+,O4+,U1+,O2+,U3+,U4+", "R3", (1, 2, 4),
     "ids do not form a triangle (three adjacent pairs)"),
    (TREFOIL_O, "R3", (1, 2, 3), "triangle data does not match any planar-realizable slide"),
    # a rule that finds another kind of site than the one named
    ("Ph1,Pt1", "R1-", (1,), "the site is PR1-, not R1-"),
    (PR2_BAND, "R2-", (2, 1), "the site is PR2+, not R2-"),
    ("O1+,U2-,U1+,O2-", "PR2+", (1, 2), "the site is R2-, not PR2+"),
    ("O2-,Ph1,U2-,U3-,O3-,Pt1", "R3", (1, 2, 3), "the site is PR3, not R3"),
    # a pair site that names one crossing twice
    (TREFOIL_O, "R2-", (1, 1), "pair move needs two distinct crossing ids"),
    (TREFOIL_O, "PR2+", (1, 1), "pair move needs two distinct crossing ids"),
    (TREFOIL_O, "PR2-", (1, 1), "pair move needs two distinct crossing ids"),
    ("Ph1,O2-,Pt1,U2-", "PR2+", (1, 1), "pair move needs two distinct crossing ids"),
])
def test_every_refusal_reason(code, kind, data, reason):
    with pytest.raises(MoveError) as info:
        apply_move(parse_gauss(code), MoveSite(kind, data))
    assert str(info.value) == reason


def _canonical(rows) -> tuple:
    """Canonical form of a triangle pattern given as three rows of two
    (id, role, sign or 0) tokens: the least of the three rotations of the
    rows, with ids renamed 0, 1, 2 by first use."""
    best = None
    for rot in range(3):
        rename: dict = {}
        desc = tuple(
            tuple((rename.setdefault(id_, len(rename)), role, sign) for id_, role, sign in row)
            for row in rows[rot:] + rows[:rot]
        )
        if best is None or desc < best:
            best = desc
    return best


def _triangle_patterns():
    """Every token sequence of three rows of two tokens in which crossings
    1, 2 and 3 meet pairwise once, at most one of them a precrossing: 6
    ways to give the id pairs to the rows, 8 orders within the rows, and
    64 classical or 96 one-precrossing role and sign choices."""
    for rows in itertools.permutations(((1, 2), (1, 3), (2, 3))):
        for flips in itertools.product((False, True), repeat=3):
            ids = [cid for row, flip in zip(rows, flips) for cid in (row[::-1] if flip else row)]
            for pre in (None, 1, 2, 3):
                # per crossing: which of its two tokens is over, and its sign
                options = [
                    [(k, None) for k in (0, 1)] if cid == pre
                    else [(k, s) for k in (0, 1) for s in (1, -1)]
                    for cid in (1, 2, 3)
                ]
                for choice in itertools.product(*options):
                    seen = set()
                    tokens = []
                    for cid in ids:
                        k, sign = choice[cid - 1]
                        upper = (cid in seen) == bool(k)
                        seen.add(cid)
                        tokens.append(GaussToken(cid, upper, sign))
                    yield tuple(tokens)


def test_triangle_template_tables():
    # The legal R3 and PR3 patterns, up to rotation of the rows and renaming
    # of the ids, as the closed-form rule accepts them; the digests are
    # those of the templates once generated from three lines in the plane.
    pairs = [(0, 1), (2, 3), (4, 5)]
    legal_r3, legal_pr3, verdicts = set(), set(), {}
    count = 0
    for tokens in _triangle_patterns():
        count += 1
        # each token as its role letter, as the digests were taken
        rows = [[(t.id, _role(t.over, t.sign), t.sign or 0) for t in tokens[i:i + 2]]
                for i in (0, 2, 4)]
        pattern = _canonical(rows)
        legal = _triangle_error(PseudoGaussDiagram(tokens), pairs) is None
        # the rule reads a pattern, not how its rows are rotated or named
        assert verdicts.setdefault(pattern, legal) == legal, tokens
        if legal:
            classical = all(t.is_classical() for t in tokens)
            (legal_r3 if classical else legal_pr3).add(pattern)
    assert count == 7680
    assert len(legal_r3) == 32
    assert len(legal_pr3) == 32
    # the exact patterns, so a rewrite of the rule cannot change them
    digests = [
        hashlib.sha256(repr(sorted(templates)).encode()).hexdigest()
        for templates in (legal_r3, legal_pr3)
    ]
    assert digests == [
        "8e698e9908fe0345856e4a03d8e5d9c18eb41724ec6e1c2f140ede00e128ce44",
        "a4288b160b0309042aec7425f54d629686217836c0cc87d05f7627bef4872586",
    ]


def test_r3_rejects_unrealizable_signs():
    # adjacent triangle pattern with all-positive signs on these roles is the
    # cyclic/non-planar combination found during development
    g = parse_gauss("Pt5,Pt10,Ph10,U8+,U7-,Ph5,Ph1,O7-,O8+,O2-,Pt1,U2-,O4+,Ph11,Pt11,O6+,U6+,U4+")
    with pytest.raises(MoveError):
        apply_move(g, MoveSite("PR3", (4, 6, 11)))


def _gauss_corpus():
    bases = [
        parse_gauss("Ph1,Pt1"),
        parse_gauss(TREFOIL_G),
        parse_gauss("O1+,U2+,O3+,U1+,O2+,U3+"),
        parse_gauss("Ph1,O2-,Pt1,U2-"),
        pd_to_gauss(twist_shadow((2, 1, 1, 1, 2))),
    ]
    corpus = list(bases)
    for i, b in enumerate(bases):
        corpus.append(scramble(b, seed=17 + i, steps=12, max_crossings=10))
    return corpus


def test_all_moves_preserve_i():
    applied = {}
    for g in _gauss_corpus():
        i0 = compute_i(g)
        size = g.size
        sites = [MoveSite("R1+", (0, 1, True)), MoveSite("PR1+", (size // 2, False))]
        sites += [
            MoveSite("R2+", (0, size // 2, cr, -1, ov))
            for cr in (False, True)
            for ov in (False, True)
        ]
        sites += [MoveSite("R1-", (c,)) for c in removable_kinks(g, True)]
        sites += [MoveSite("PR1-", (c,)) for c in removable_kinks(g, False)]
        sites += [MoveSite("R2-", p) for p in removable_r2_pairs(g)]
        sites += [MoveSite("PR2+", p) for p in pr2_sites(g)]
        sites += [MoveSite(k, t) for k, t in triangle_sites(g)]
        for site in sites:
            try:
                out = apply_move(g, site)
            except (MoveError, GaussError):
                continue
            applied[site.kind] = applied.get(site.kind, 0) + 1
            assert i_equal(i0, compute_i(out)), (site.kind, site.data, g.to_text())
    assert {"R1+", "R1-", "PR1+", "PR1-", "R2+", "R2-"} <= set(applied)


def test_scramble_deterministic_and_invariant():
    g = parse_gauss(TREFOIL_G)
    a = scramble(g, seed=5, steps=25)
    b = scramble(g, seed=5, steps=25)
    assert a.to_text() == b.to_text()
    assert scramble(g, seed=5, steps=0).to_text() == g.to_text()
    assert i_equal(compute_i(g), compute_i(a))
    # the paper's witness scrambled: each family(2,2) shadow keeps its i,
    # so the two scrambles still differ in i
    bases = [_BASES[f"family(2,2) {side}"] for side in ("pre", "post")]
    pre, post = (compute_i(scramble(b, seed=7, steps=200)) for b in bases)
    assert i_equal(pre, compute_i(bases[0])) and i_equal(post, compute_i(bases[1]))
    assert not i_equal(pre, post)


def _pinned_bases():
    out = {}
    for m, n in ((2, 2), (2, 4), (4, 2), (4, 4)):
        pre, post = family(m, n)
        out[f"family({m},{n}) pre"] = pd_to_gauss(pre)
        out[f"family({m},{n}) post"] = pd_to_gauss(post)
    for code in ((3, 1, 3), (2, 2, 1, 2), (1, 2, 1, 3)):
        out[f"twist {code}"] = pd_to_gauss(twist_shadow(code))
    for text in ("Ph1,Pt1", TREFOIL_G, "O1+,U2+,O3+,U1+,O2+,U3+", "Ph1,O2-,Pt1,U2-"):
        out[text] = parse_gauss(text)
    return out


# sha256 of scramble(base, seed, 200).to_text().  The random stream depends
# on the length and order of every step's site list, so any change to site
# enumeration or to which moves are legal shows here.
PINNED_SCRAMBLES = (
    ("family(2,2) pre", 1, "13948c967f26d79f56ecfae955a3a5652b50209ed1326717528bbb7b76f54a7f"),
    ("family(2,2) post", 2, "a1e72c2a99356b4f91bc74d7e7c925bafda1d102d2bec74b9139a77a37ff5df9"),
    ("family(4,4) pre", 3, "08d4660fea3c268e12fcc68a5b4970e58394d40fce7cf40afd92f4a153cc827e"),
    ("family(4,4) post", 4, "7dd327c08049e57a192d29991adac5f49a699c748f11f763006d5e30cdfb17b0"),
    ("family(2,2) pre", 3141592653, "2d34de6b77d62446e3f1b35afe0702b80d552482755fbedc74d65ac9fcfb69f1"),
    ("family(4,4) post", 2718281828, "01f31a31cc5083fdb1e032f13a121de8ff1b8e6ba9d9f78eae1fb280265e240c"),
    ("twist (3, 1, 3)", 5, "e073ab64eea8ba5f996ab18914b2b14758d6b0f4ad3f57300b5483098645ad51"),
    ("twist (2, 2, 1, 2)", 6, "3cee3a8b5ffe41bfc1cad5b79795e9d2dba1909dc24beefdfbebfe9b9cc4583c"),
    ("twist (1, 2, 1, 3)", 7, "9b03e999313c8007064173c5a07a8c1b3ca977801cafefa2bfb905429b54a0ea"),
    ("Ph1,Pt1", 8, "aa4a45165cc4aff446421f110262a06e6e0d074384ac1b8f29404de11f8a56db"),
    (TREFOIL_G, 9, "4934026ae335e36a9e1245e8de6748f7befd40fb0c6362107cc73ea875ce0719"),
    ("O1+,U2+,O3+,U1+,O2+,U3+", 10, "8587a8b81389d4f644eef6de1ba4c36567aa34c09681f881d527a67bc2fdc316"),
    ("Ph1,O2-,Pt1,U2-", 11, "a178730ab5adcba901ce1447195cb6b223ba91143eb955a1b8a5333bf880c0f8"),
    (TREFOIL_G, 12, "337ca754f1f66a8c2cf083fd44483b5435fa9d83ec7e5d3e18c6cb3ff66fbf04"),
    # the other family bases the invariant-scramble benchmark draws from
    ("family(2,4) pre", 13, "c62d60e3d1e66ce669c14f895e8ec879323ad885184dd7e79f406f9761db76cf"),
    ("family(2,4) post", 14, "6fcdd16c9be733b2beb42b00610f1dd332ef1607135091da0f6f12dbdff1bfb5"),
    ("family(4,2) pre", 15, "385f4ff5113fffabb51ad4c390a98ee2c656948f87170e3995ad891826cb4b1f"),
    ("family(4,2) post", 16, "50775f4acc8113f49506421d398405f91dbaa4ae5e4f911ec34bc39530f5ab13"),
)


def test_scramble_output_pinned():
    bases = _pinned_bases()
    for label, seed, digest in PINNED_SCRAMBLES:
        text = scramble(bases[label], seed, 200).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (label, seed)


def _enumerated_sites(g):
    """Every removal and slide site of `g`: the four public enumerators'
    lists, concatenated in scramble's order."""
    return (
        [("R1-", (cid,)) for cid in removable_kinks(g, True)]
        + [("PR1-", (cid,)) for cid in removable_kinks(g, False)]
        + [("R2-", pair) for pair in removable_r2_pairs(g)]
        + [("PR2+", pair) for pair in pr2_sites(g)]
        + triangle_sites(g)
    )


def _listed(index):
    """Every site of a `_SiteIndex`, listed by rank as `scramble` draws
    them."""
    return [index.pick(k) for k in range(len(index))]


def _eager_scramble(g, seed, steps, max_crossings=24):
    """Reference scramble that lists every removal and slide site at every
    step, whether or not the step draws from that list."""
    rng = random.Random(seed)
    cur = g
    for _ in range(steps):
        size = cur.size
        inserts = []
        if size // 2 < max_crossings:
            gap = rng.randrange(size + 1)
            inserts.append(("R1+", (gap, rng.choice((1, -1)), rng.random() < 0.5)))
            inserts.append(("PR1+", (rng.randrange(size + 1), rng.random() < 0.5)))
            inserts.append(
                (
                    "R2+",
                    (
                        rng.randrange(size + 1),
                        rng.randrange(size + 1),
                        rng.random() < 0.5,
                        rng.choice((1, -1)),
                        rng.random() < 0.5,
                    ),
                )
            )
        others = _enumerated_sites(cur)
        if inserts and (not others or rng.random() < INSERT_BIAS):
            pool = inserts
        elif others:
            pool = others
        else:
            pool = inserts
        if not pool:
            continue
        site = MoveSite(*rng.choice(pool))
        try:
            cur = apply_move(cur, site)
        except (MoveError, GaussError):
            continue
    return cur


_BASES = _pinned_bases()
_AGREEMENT_BASES = list(_BASES.values())


def test_scramble_folds_negative_seeds():
    # random.Random seeds from the absolute value of an int
    base = _BASES["family(2,2) pre"]
    assert scramble(base, -7, 200) == scramble(base, 7, 200) != scramble(base, 8, 200)
    assert scramble(base, -3141592653, 200) == scramble(base, 3141592653, 200)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(-(2**64), 2**64),
    ns=st.lists(st.integers(1, 2**64), min_size=1, max_size=20),
)
@example(seed=0, ns=[1, 2, 3, 4, 5, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64])
def test_below_draws_what_randrange_and_choice_draw(seed, ns):
    # scramble's draws, interleaved as it interleaves them, against the
    # library's own draws from a generator seeded alike
    library, ours = random.Random(seed), random.Random(seed)
    getrandbits = ours.getrandbits
    three = ("R1+", "PR1+", "R2+")
    for n in ns:
        assert _below(getrandbits, n) == library.randrange(n)
        assert (1, -1)[_below(getrandbits, 2)] == library.choice((1, -1))
        assert three[_below(getrandbits, 3)] == library.choice(three)
        assert ours.random() == library.random()


@settings(max_examples=60, deadline=None)
@given(
    base=st.sampled_from(_AGREEMENT_BASES),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(0, 120),
    max_crossings=st.integers(1, 24),
)
# the invariant-scramble benchmark's regime: 200 steps at the default cap
@example(base=_BASES["family(4,4) pre"], seed=1, steps=200, max_crossings=24)
@example(base=_BASES["twist (2, 2, 1, 2)"], seed=2, steps=200, max_crossings=24)
def test_scramble_matches_eager_reference(base, seed, steps, max_crossings):
    # Small caps reach the steps with no insertions and the steps where the
    # removal and slide list is empty.
    assert scramble(base, seed, steps, max_crossings) == _eager_scramble(
        base, seed, steps, max_crossings
    )


@settings(max_examples=60, deadline=None)
@given(
    base=st.sampled_from(_AGREEMENT_BASES),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(0, 120),
    max_crossings=st.integers(1, 24),
)
# step 4 is an R3 on (5, 6, 7) that moves both adjacencies of the pair (6, 7)
# and leaves their count at 2: re-testing only the pairs whose adjacency count
# changed keeps a stale R2- (6, 7)
@example(base=_BASES["O1+,U2+,O3+,U1+,O2+,U3+"], seed=2311803636, steps=4, max_crossings=19)
# the only kink is removed and the empty diagram refilled, twice; both
# adjacencies of a 2-token cycle are between the same two tokens
@example(base=_BASES["Ph1,Pt1"], seed=0, steps=4, max_crossings=1)
# step 3 is an R2+ with gap1 == gap2
@example(base=_BASES["Ph1,O2-,Pt1,U2-"], seed=76, steps=3, max_crossings=11)
# step 8 is a PR1+ at gap 0
@example(base=_BASES["Ph1,O2-,Pt1,U2-"], seed=66, steps=8, max_crossings=17)
# step 4 is an R1+ at gap size
@example(base=_BASES["family(4,4) post"], seed=82, steps=4, max_crossings=21)
# step 2 is a PR2 slide that swaps the tokens at positions size - 1 and 0
@example(base=_BASES["Ph1,O2-,Pt1,U2-"], seed=1564070056, steps=2, max_crossings=4)
# the invariant-scramble benchmark's regime: 200 steps at the default cap
@example(base=_BASES["family(4,4) pre"], seed=1, steps=200, max_crossings=24)
@example(base=_BASES["twist (2, 2, 1, 2)"], seed=2, steps=200, max_crossings=24)
def test_site_index_matches_enumerators_after_every_step(base, seed, steps, max_crossings):
    # After every applied move the incremental index lists exactly what a
    # full enumeration of the new diagram lists, in the same order.
    update = _SiteIndex.update

    def checked_update(index, old, new):
        update(index, old, new)
        full = _enumerated_sites(new)
        assert _listed(index) == full, (new.move_delta, old.to_text())
        assert len(index) == len(full) and bool(index) == bool(full)

    with mock.patch.object(_SiteIndex, "update", checked_update):
        scramble(base, seed, steps, max_crossings)


@pytest.mark.parametrize("code, kind, data", [
    (TREFOIL_G, "R1+", (2, 1, True)),
    (TREFOIL_G, "PR1+", (3, True)),
    (TREFOIL_G, "R2+", (1, 4, False, 1, True)),
    (TREFOIL_G, "R2+", (5, 2, True, -1, False)),
    ("O1+,O2-,U1+,U2-", "R1+", (1, 1, True)),  # splits the R2 bigon (1, 2)
    ("O1+,U1+,Ph2,Pt2", "R1-", (1,)),
    ("O1+,U1+,Ph2,Pt2", "PR1-", (2,)),
    ("U1+,Ph2,Pt2,O1+", "R1-", (1,)),  # across the base point
    ("O1+,O3+,U3+,O2-,U1+,U2-", "R1-", (3,)),  # closes the R2 bigon (1, 2)
    ("O1+,O2-,U1+,U2-", "R2-", (1, 2)),
    ("Ph1,O2-,Pt1,U2-", "PR2+", (2, 1)),
    ("Ph1,O2-,Pt1,U2-", "PR2-", (2, 1)),
    ("O1+,O2+,U1+,O3+,U2+,U3+", "R3", (1, 2, 3)),
    ("Ph1,O2+,Pt1,O3+,U2+,U3+", "PR3", (1, 2, 3)),
])
def test_move_delta_contract(code, kind, data):
    # An insertion cuts nothing, a removal writes nothing, and a slide cuts
    # (overwrites) exactly the positions it writes.  The site index reads
    # nothing of the move but this delta, so updated by it the index must
    # list what an index of the result lists.
    g = parse_gauss(code)
    new = apply_move(g, MoveSite(kind, data))
    cut, written = new.move_delta
    if kind in ("R1+", "PR1+", "R2+"):
        assert cut == () and written
    elif kind in ("R1-", "PR1-", "R2-"):
        assert cut and written == ()
    else:
        assert cut == written and written
    index = _SiteIndex(g)
    index.update(g, new)
    full = _enumerated_sites(new)
    assert _listed(index) == _listed(_SiteIndex(new)) == full
    assert len(index) == len(full) and bool(index) == bool(full)


@settings(max_examples=40, deadline=None)
@given(
    base=st.sampled_from(_AGREEMENT_BASES),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(0, 80),
    max_crossings=st.integers(1, 24),
)
def test_move_results_match_public_constructor(base, seed, steps, max_crossings):
    # apply_move builds its result from the parent's index and the move's
    # delta; rebuilt by the public constructor it must be the same diagram,
    # with the same position index and adjacent id pairs.
    kinds = set()

    def checked_apply(g, site):
        # scramble builds its sites unchecked, so each must be one the
        # public check accepts unchanged; apply_move's refusal of an
        # illegal move raises out of scramble and fails the test too
        try:
            checked = MoveSite(site.kind, site.data)
        except MoveError as exc:
            pytest.fail(f"the check refuses a drawn site: {exc}")
        assert checked == site
        out = apply_move(g, site)
        full = PseudoGaussDiagram(out.tokens)
        assert out == full
        assert out.position_index == full.position_index, (site, g.to_text())
        assert out.adjacent_id_pairs == full.adjacent_id_pairs
        kinds.add(site.kind)
        return out

    with mock.patch.object(moves, "apply_move", checked_apply):
        scramble(base, seed, steps, max_crossings)
    assert kinds or steps == 0 or base.size // 2 >= max_crossings


def _flawed(flaw, reused_id):
    """The (id, over, sign) of a position an insertion writes, given the
    flaw: applied to each position R1+, PR1+ and R2+ write."""
    def value(id_, over, sign):
        if flaw == "mis-signed" and sign is not None and not over:
            sign = -sign
        elif flaw == "unpaired" and not over:
            id_ += 100
        elif flaw == "reused":
            id_ = reused_id
        elif flaw == "bool" and sign is not None:
            sign = sign == 1
        elif flaw == "float" and sign is not None:
            sign = float(sign)
        elif flaw == "over not a bool" and sign is None and over:
            over = 1
        elif flaw == "str id":
            id_ = f"c{id_}"
        return id_, over, sign
    return value


@settings(max_examples=60, deadline=None)
@given(
    base=st.sampled_from(_AGREEMENT_BASES),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(0, 30),
    flaw=st.sampled_from(
        ["mis-signed", "unpaired", "reused", "bool", "float", "over not a bool", "str id"]
    ),
    kind=st.sampled_from(["R1+", "PR1+", "R2+"]),
    gaps=st.tuples(st.integers(0, 200), st.integers(0, 200)),
    flags=st.tuples(st.booleans(), st.booleans(), st.sampled_from([1, -1])),
)
def test_flawed_move_result_raises_constructor_error(base, seed, steps, flaw, kind, gaps, flags):
    # A move that writes a bad position must fail with the error the public
    # constructor gives for the same token sequence, though only the ids
    # the move wrote are checked.  The flaw is written into the arrays the
    # move hands to `_from_move`, at the positions it says it wrote.
    g = scramble(base, seed, steps)
    first, second, sign = flags
    data = {
        "R1+": (gaps[0], sign, first),
        "PR1+": (gaps[0], first),
        "R2+": (gaps[0], gaps[1], first, sign, second),
    }[kind]
    written = []
    from_move = PseudoGaussDiagram._from_move
    flawed = _flawed(flaw, min(g.ids(), default=1))

    def flawing(ids, overs, signs, index, positions, *cut):
        columns = [list(ids), list(overs), list(signs)]
        for p in positions:
            columns[0][p], columns[1][p], columns[2][p] = flawed(ids[p], overs[p], signs[p])
        written.append(tuple(map(GaussToken, *columns)))
        return from_move(*map(tuple, columns), index, positions, *cut)

    with mock.patch.object(PseudoGaussDiagram, "_from_move", flawing):
        try:
            apply_move(g, MoveSite(kind, data))
            got = None
        except GaussError as exc:
            got = str(exc)
    try:
        PseudoGaussDiagram(written[0])
        expected = None
    except GaussError as exc:
        expected = str(exc)
    assert got == expected, (flaw, kind, data, g.to_text())
    # these flaws touch every inserted pair (a reused id needs a parent id)
    if (
        flaw in ("unpaired", "str id")
        or flaw in ("bool", "float") and kind != "PR1+"
        or flaw == "reused" and g.size
    ):
        assert got is not None


def test_scramble_overshoots_max_crossings_by_at_most_one():
    # max_crossings gates insertions only, so an R2+ drawn at
    # max_crossings - 1 crossings ends one past the cap
    base = _BASES["family(2,2) pre"]
    largest = 0

    def counting_apply(g, site):
        nonlocal largest
        out = apply_move(g, site)
        largest = max(largest, out.size // 2)
        return out

    with mock.patch.object(moves, "apply_move", counting_apply):
        for seed in range(40):
            scramble(base, seed=seed, steps=300, max_crossings=10)
    assert largest == 10 + 1


def _applies(g, kind, data) -> bool:
    try:
        apply_move(g, MoveSite(kind, data))
    except MoveError:
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(
    base=st.sampled_from(_AGREEMENT_BASES),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(0, 60),
)
# two R3/PR3 trios that share their first two ids, so the order of the third
# id shows
@example(base=_BASES["family(2,2) post"], seed=6, steps=20)
def test_site_enumeration_agrees_with_apply_move(base, seed, steps):
    # Each enumerator lists exactly the candidates that apply, in its
    # documented order (the random stream of scramble depends on it).
    g = scramble(base, seed, steps)
    ids = g.ids()
    tokens = g.tokens
    neighbors = {cid: set() for cid in ids}
    for i in range(g.size):
        a, b = tokens[i - 1].id, tokens[i].id
        if a != b:
            neighbors[a].add(b)
            neighbors[b].add(a)
    pairs = sorted({(a, b) for a in ids for b in neighbors[a] if a < b})
    assert list(g.adjacent_id_pairs) == pairs
    trios = [
        (a, b, c)
        for a, b in pairs
        for c in sorted(neighbors[a] & neighbors[b])
        if c > b
    ]

    full = []
    for kind, classical in (("R1-", True), ("PR1-", False)):
        expected = [cid for cid in ids if _applies(g, kind, (cid,))]
        assert removable_kinks(g, classical) == expected, (kind, g.to_text())
        full += [(kind, (cid,)) for cid in expected]

    expected = [pair for pair in pairs if _applies(g, "R2-", pair)]
    assert removable_r2_pairs(g) == expected, g.to_text()
    full += [("R2-", pair) for pair in expected]

    expected = [
        site
        for a, b in pairs
        for site in ((a, b), (b, a))
        if _applies(g, "PR2+", site)
    ]
    assert pr2_sites(g) == expected, g.to_text()
    for a, b in pairs:
        for site in ((a, b), (b, a)):
            assert _applies(g, "PR2-", site) == (site in expected), (site, g.to_text())
    full += [("PR2+", site) for site in expected]

    expected = [
        (kind, trio)
        for trio in trios
        for kind in ("R3", "PR3")
        if _applies(g, kind, trio)
    ]
    assert triangle_sites(g) == expected, g.to_text()
    full += expected

    # scramble's early exit (any site at all), its rank draw and its full list
    index = _SiteIndex(g)
    assert full == _enumerated_sites(g)
    assert len(index) == len(full) and bool(index) == bool(full)
    assert _listed(index) == full


def test_pr2_slide_moves_crossing():
    g = parse_gauss("Ph1,O2-,Pt1,U2-")
    sites = pr2_sites(g)
    assert sites
    out = apply_move(g, MoveSite("PR2+", sites[0]))
    assert not out.to_text() == g.to_text()
    # involution: sliding back restores
    assert apply_move(out, MoveSite("PR2-", sites[0])).to_text() == g.to_text()


# -- PD-level moves (ground truth for bracket/jones invariance) --------------


def test_pd_r1_r2_bracket_invariance():
    base = alternating_resolution(twist_shadow((3, 2)))
    b0, j0 = kauffman_bracket(base), jones(base)
    for curl in (1, -1):
        for over_first in (True, False):
            d = r1_insert(base, 3, curl, over_first)
            assert jones(d) == j0
            d2 = r1_remove(d, find_kinks(d)[0])
            assert kauffman_bracket(d2) == b0
    count = 0
    for f in faces(base):
        for d1, d2 in itertools.permutations(f, 2):
            for over in (True, False):
                try:
                    big = r2_insert(base, d1, d2, over_first=over)
                except (MoveError, PDError):
                    continue
                count += 1
                assert kauffman_bracket(big) == b0
                pair = find_bigons(big)[0]
                assert kauffman_bracket(r2_remove(big, *pair)) == b0
    assert count >= 20


def test_pd_r3_soundness_and_invariance():
    base = alternating_resolution(twist_shadow((3, 1, 2)))
    # alternating-diagram triangles carry cyclic data: no slide exists
    for t in find_triangles(base):
        assert triangle_soundness(base, t) is not None
        with pytest.raises(MoveError):
            r3(base, t)
    # create sound triangles by sliding a strand over a crossing
    rng = random.Random(2)
    j0 = jones(base)
    slides = 0
    for f in faces(base):
        for d1, d2 in itertools.permutations(f, 2):
            try:
                big = r2_insert(base, d1, d2, over_first=True)
            except (MoveError, PDError):
                continue
            for t in find_triangles(big):
                if triangle_soundness(big, t) is None:
                    try:
                        out = r3(big, t)
                    except MoveError:
                        continue
                    slides += 1
                    assert jones(out) == j0
    assert slides >= 10


def test_pd_random_walk_preserves_jones():
    rng = random.Random(11)
    base = alternating_resolution(twist_shadow((2, 1, 1, 2)))
    jd = jones(base)
    cur = base
    for step in range(120):
        ops = [("r1-", k) for k in find_kinks(cur)[:1]]
        ops += [("r2-", p) for p in find_bigons(cur)[:1]]
        tris = [t for t in find_triangles(cur) if triangle_soundness(cur, t) is None]
        ops += [("r3", t) for t in tris[:1]]
        if cur.n < 10:
            ops += [("r1+",)] * 2 + [("r2+",)] * 3
        op = rng.choice(ops)
        try:
            if op[0] == "r1+":
                edges = sorted({e for v in cur.vertices for e in v.edges})
                cur = r1_insert(cur, rng.choice(edges), rng.choice((1, -1)), rng.choice((True, False)))
            elif op[0] == "r2+":
                f = rng.choice(faces(cur))
                if len(f) < 2:
                    continue
                a, b = rng.sample(f, 2)
                cur = r2_insert(cur, a, b, rng.choice((True, False)))
            elif op[0] == "r1-":
                cur = r1_remove(cur, op[1])
            elif op[0] == "r2-":
                cur = r2_remove(cur, *op[1])
            else:
                cur = r3(cur, op[1])
        except (MoveError, PDError):
            continue
        assert jones(cur) == jd
