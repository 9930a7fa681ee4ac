"""Exact Laurent polynomials in one variable with integer coefficients.

Used for the bracket polynomial (variable A) and the Jones polynomial
(variable t); the text forms are written in t.  Coefficients are
arbitrary-precision ints; exponents may be negative.  A polynomial is
stored as its key, (lowest exponent, dense coefficients up to the
highest), with no zero at either end, so building one from a key costs
nothing and equality and hashing compare keys; the terms, degrees and
text forms are read off the key.  `LaurentPolynomial()` is zero and
`LaurentPolynomial({0: 1})` is one.  Instances are immutable and hashable.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping

# `LaurentPolynomial.key`: (lowest exponent, dense coefficient tuple)
PolyKey = tuple[int, tuple[int, ...]]

# `to_pairs_string`: `exponent:coefficient` terms joined by commas
_TERMS = re.compile(r"-?[0-9]+:-?[0-9]+(?:,-?[0-9]+:-?[0-9]+)*")

# `from_pairs_string` refuses a wider exponent span, which would allocate
# that many dense coefficients: a knot's Jones span is at most its crossing
# number, and the bundled table's widest is 7.
MAX_PAIRS_SPAN = 1000


class LaurentPolynomial:
    """Laurent polynomial, stored as its key (see `key`)."""

    __slots__ = ("_key",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        # duck-typed: an isinstance check against the Mapping ABC costs
        # several times more, once per polynomial built
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        acc: dict[int, int] = {}
        for exp, c in items:
            if c:
                acc[exp] = acc.get(exp, 0) + c
                if not acc[exp]:
                    del acc[exp]
        if acc:
            low, high = min(acc), max(acc)
            self._key = low, tuple([acc.get(e, 0) for e in range(low, high + 1)])
        else:
            self._key = 0, ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_key(cls, key: PolyKey) -> "LaurentPolynomial":
        """Inverse of `key`; zero coefficients at either end are dropped."""
        low, coeffs = key
        if not (coeffs and coeffs[0] and coeffs[-1]):
            nonzero = [i for i, c in enumerate(coeffs) if c]
            if not nonzero:
                return cls()
            low, coeffs = low + nonzero[0], coeffs[nonzero[0]:nonzero[-1] + 1]
        out = object.__new__(cls)
        out._key = low, tuple(coeffs)
        return out

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs of the nonzero terms, by exponent."""
        low, coeffs = self._key
        return [(e, c) for e, c in enumerate(coeffs, low) if c]

    def key(self) -> PolyKey:
        """(lowest exponent, dense coefficients from it to the highest).

        An integer form that names the polynomial exactly: two polynomials
        are equal exactly when their keys are.  The zero polynomial is
        (0, ()).
        """
        return self._key

    @property
    def min_degree(self) -> int:
        if not self._key[1]:
            raise ValueError("zero polynomial has no degree")
        return self._key[0]

    @property
    def max_degree(self) -> int:
        low, coeffs = self._key
        if not coeffs:
            raise ValueError("zero polynomial has no degree")
        return low + len(coeffs) - 1

    def span(self) -> int:
        """max_degree - min_degree (0 for monomials)."""
        return self.max_degree - self.min_degree

    # -- arithmetic --------------------------------------------------------

    def invert_variable(self) -> "LaurentPolynomial":
        """Substitute x -> x**-1."""
        low, coeffs = self._key
        if not coeffs:
            return self
        return LaurentPolynomial.from_key((-(low + len(coeffs) - 1), coeffs[::-1]))

    def evaluate_at_unit(self, x: int) -> int:
        """Exact evaluation at x in {1, -1}."""
        low, coeffs = self._key
        if x == 1:
            return sum(coeffs)
        if x == -1:
            # the terms of odd exponent change sign; they sit at the
            # positions of low's opposite parity
            return sum(coeffs[low % 2::2]) - sum(coeffs[1 - low % 2::2])
        raise ValueError("exact evaluation is only supported at +1 and -1")

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    # -- formatting --------------------------------------------------------

    def to_pairs_string(self) -> str:
        """Compact `exp:coeff,exp:coeff` form, exponents ascending."""
        return pairs_string(self.items())

    @classmethod
    def from_pairs_string(cls, text: str) -> "LaurentPolynomial":
        """Inverse of `to_pairs_string`: terms `-?[0-9]+:-?[0-9]+`, ASCII
        digits only, joined by commas, in any order, with no exponent
        repeated, no zero coefficient (zero is `0:0`) and exponents at
        most MAX_PAIRS_SPAN apart; anything else raises ValueError."""
        chunks = text.split(",")
        if not _TERMS.fullmatch(text):
            bad = next(chunk for chunk in chunks if not _TERMS.fullmatch(chunk))
            raise ValueError(f"malformed term {bad!r}")
        if text == "0:0":
            return cls()
        pairs = [tuple(map(int, chunk.split(":"))) for chunk in chunks]
        seen = set()
        for chunk, (e, c) in zip(chunks, pairs):
            if e in seen or not c:
                what = "repeated exponent" if e in seen else "zero coefficient"
                raise ValueError(f"malformed term {chunk!r}: {what}")
            seen.add(e)
        span = max(pairs)[0] - min(pairs)[0]
        if span > MAX_PAIRS_SPAN:
            raise ValueError(f"exponent span {span} is over the limit {MAX_PAIRS_SPAN}")
        return cls(pairs)

    def pretty(self) -> str:
        """Human form, e.g. `-t^-4 + t^-3 + t^-1`."""
        return pretty_terms(self.items())

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.pretty()})"


def pairs_string(terms: list[tuple[int, int]]) -> str:
    """`LaurentPolynomial.to_pairs_string` of the polynomial with these
    `items()`."""
    if not terms:
        return "0:0"
    return ",".join([f"{e}:{c}" for e, c in terms])


def pretty_terms(terms: list[tuple[int, int]]) -> str:
    """`LaurentPolynomial.pretty` of the polynomial with these `items()`."""
    if not terms:
        return "0"
    parts = []
    for e, c in terms:
        mag = abs(c)
        if e == 0:
            term = str(mag)
        else:
            base = "t" if e == 1 else f"t^{e}"
            term = base if mag == 1 else f"{mag}*{base}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
