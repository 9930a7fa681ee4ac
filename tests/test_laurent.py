from collections.abc import Mapping
from types import MappingProxyType

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


@given(polys, polys)
def test_keys_are_equal_exactly_when_polynomials_are(p, q):
    assert LaurentPolynomial.from_key(p.key()) == p
    assert (p.key() == q.key()) == (p == q)
