from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudoknots.laurent import LaurentPolynomial
from pseudoknots.tables import load_table

polys = st.dictionaries(
    st.integers(-12, 12), st.integers(-9, 9), max_size=8
).map(LaurentPolynomial)


def test_basic_arithmetic():
    assert LaurentPolynomial({2: 1, 0: -1}).coeff(0) == -1


def test_zero_coefficients_dropped():
    p = LaurentPolynomial([(3, 1), (3, -1), (0, 2)])
    assert p.items() == [(0, 2)]


class _ReadOnlyCoeffs(Mapping):
    def __init__(self, data):
        self._data = data

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


def test_accepts_any_mapping_or_iterable_of_pairs():
    expected = [(-1, 2), (3, -1)]
    for coeffs in (
        {3: -1, -1: 2},
        MappingProxyType({3: -1, -1: 2}),
        _ReadOnlyCoeffs({3: -1, -1: 2}),
        [(3, -1), (-1, 2)],
        ((e, c) for e, c in [(3, -1), (-1, 2)]),
    ):
        assert LaurentPolynomial(coeffs).items() == expected


def test_invert_variable():
    p = LaurentPolynomial({-4: -1, -3: 1, -1: 1})
    assert p.invert_variable().items() == [(1, 1), (3, 1), (4, -1)]


def test_evaluate_at_unit():
    p = LaurentPolynomial({-4: -1, -3: 1, -1: 1})
    assert p.evaluate_at_unit(1) == 1
    assert p.evaluate_at_unit(-1) == -3


def test_pairs_string_round_trip():
    p = LaurentPolynomial({-6: -1, -3: 2, 1: 1})
    assert LaurentPolynomial.from_pairs_string(p.to_pairs_string()) == p
    assert LaurentPolynomial.from_pairs_string("0:0").is_zero()


@pytest.mark.parametrize(
    "text",
    # int() reads "1_0" as 10, " 4" and "+2" as 4 and 2, and non-ASCII digits
    ["1_0:2,3:4", "1:2,3: 4", " 1:2", "1:+2", "+1:2", "\u0661:2",
     "1:2,", "", "1:2:3", "1::2", "--1:2"],
)
def test_from_pairs_string_is_strict(text):
    with pytest.raises(ValueError, match="malformed term"):
        LaurentPolynomial.from_pairs_string(text)


def test_pretty():
    p = LaurentPolynomial({-4: -1, -3: 1, -1: 1})
    assert p.pretty() == "-t^-4 + t^-3 + t^-1"
    assert LaurentPolynomial.zero().pretty() == "0"
    assert LaurentPolynomial({0: 3}).pretty() == "3"


@given(polys)
def test_invert_involution(p):
    assert p.invert_variable().invert_variable() == p


def test_key_round_trip_on_the_table_and_zero():
    for entry in load_table().entries:
        key = entry.jones.key()
        assert key[1][0] and key[1][-1]
        assert LaurentPolynomial.from_key(key) == entry.jones
    assert LaurentPolynomial.zero().key() == (0, ())
    assert LaurentPolynomial.from_key((0, ())) == LaurentPolynomial.zero()
    assert LaurentPolynomial({-4: -1, -3: 1, -1: 1}).key() == (-4, (-1, 1, 0, 1))


def forms(p):
    """`p` built each way a polynomial can be: from a mapping, from pairs,
    from its key, with zero coefficients padded on both ends of its key,
    from its pairs string and as the inverse of its inverse."""
    low, coeffs = p.key()
    return [
        LaurentPolynomial(dict(p.items())),
        LaurentPolynomial(iter(p.items())),
        LaurentPolynomial.from_key(p.key()),
        LaurentPolynomial.from_key((low - 2, (0, 0) + coeffs + (0,))),
        LaurentPolynomial.from_pairs_string(p.to_pairs_string()),
        p.invert_variable().invert_variable(),
    ]


@given(polys, polys)
def test_keys_are_equal_exactly_when_polynomials_are(p, q):
    assert LaurentPolynomial.from_key(p.key()) == p
    assert (p.key() == q.key()) == (p == q)
    for a in forms(p):
        assert a.key() == p.key() and a.items() == p.items()
        for b in forms(q):
            assert (a == b) == (p.key() == q.key())
            if a == b:
                assert hash(a) == hash(b)


def test_from_key_trims_zero_end_coefficients():
    p = LaurentPolynomial.from_key((-2, (0, 0, 1, -1, 0)))
    assert p == LaurentPolynomial({0: 1, 1: -1}) and hash(p) == hash(LaurentPolynomial({0: 1, 1: -1}))
    assert p.key() == (0, (1, -1)) and (p.min_degree, p.max_degree) == (0, 1)
    assert p.to_pairs_string() == "0:1,1:-1" and p.pretty() == "1 - t"
    assert [p.coeff(e) for e in range(-3, 4)] == [0, 0, 0, 1, -1, 0, 0]
    zero = LaurentPolynomial.from_key((5, (0, 0)))
    assert zero == LaurentPolynomial.zero() and zero.key() == (0, ()) and zero.is_zero()


def test_zero_polynomial():
    zero = LaurentPolynomial.zero()
    assert zero.invert_variable() == zero and zero.invert_variable().key() == (0, ())
    assert zero.items() == [] and zero.coeff(0) == 0 and zero.to_pairs_string() == "0:0"
    assert zero.evaluate_at_unit(1) == zero.evaluate_at_unit(-1) == 0
    for degree in ("min_degree", "max_degree"):
        with pytest.raises(ValueError, match="zero polynomial has no degree"):
            getattr(zero, degree)
    with pytest.raises(ValueError, match="zero polynomial has no degree"):
        zero.span()


def test_from_pairs_string_names_the_bad_term():
    with pytest.raises(ValueError, match=r"^malformed term '3: 4'$"):
        LaurentPolynomial.from_pairs_string("1:2,3: 4,5:6")
