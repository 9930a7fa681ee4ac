"""Exact Laurent polynomials in one variable with integer coefficients.

Used for the bracket polynomial (variable A) and the Jones polynomial
(variable t).  Coefficients are arbitrary-precision ints; exponents may be
negative.  Instances are immutable and hashable.
"""

from __future__ import annotations

from typing import Iterable, Mapping

# `LaurentPolynomial.key`: (lowest exponent, dense coefficient tuple)
PolyKey = tuple[int, tuple[int, ...]]


class LaurentPolynomial:
    """Sparse Laurent polynomial: a map from integer exponent to nonzero int."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        # duck-typed: an isinstance check against typing.Mapping costs
        # several times more, once per polynomial built
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        acc: dict[int, int] = {}
        for exp, c in items:
            if c:
                acc[exp] = acc.get(exp, 0) + c
                if not acc[exp]:
                    del acc[exp]
        self._coeffs = acc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def from_key(cls, key: PolyKey) -> "LaurentPolynomial":
        """Inverse of `key`."""
        low, coeffs = key
        return cls(zip(range(low, low + len(coeffs)), coeffs))

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs sorted by exponent."""
        return sorted(self._coeffs.items())

    def key(self) -> PolyKey:
        """(lowest exponent, dense coefficients from it to the highest).

        An integer form that names the polynomial exactly: two polynomials
        are equal exactly when their keys are.  The zero polynomial is
        (0, ()).
        """
        if not self._coeffs:
            return 0, ()
        low, high = min(self._coeffs), max(self._coeffs)
        return low, tuple(self._coeffs.get(e, 0) for e in range(low, high + 1))

    def coeff(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_degree(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return min(self._coeffs)

    @property
    def max_degree(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self._coeffs)

    def span(self) -> int:
        """max_degree - min_degree (0 for monomials)."""
        return self.max_degree - self.min_degree

    # -- arithmetic --------------------------------------------------------

    def invert_variable(self) -> "LaurentPolynomial":
        """Substitute x -> x**-1."""
        out = LaurentPolynomial.zero()
        out._coeffs = {-e: c for e, c in self._coeffs.items()}
        return out

    def evaluate_at_unit(self, x: int) -> int:
        """Exact evaluation at x in {1, -1}."""
        if x == 1:
            return sum(self._coeffs.values())
        if x == -1:
            return sum(c if e % 2 == 0 else -c for e, c in self._coeffs.items())
        raise ValueError("exact evaluation is only supported at +1 and -1")

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    # -- formatting --------------------------------------------------------

    def to_pairs_string(self) -> str:
        """Compact `exp:coeff,exp:coeff` form, exponents ascending."""
        if not self._coeffs:
            return "0:0"
        return ",".join(f"{e}:{c}" for e, c in self.items())

    @classmethod
    def from_pairs_string(cls, text: str) -> "LaurentPolynomial":
        text = text.strip()
        if text == "0:0":
            return cls.zero()
        pairs = []
        for chunk in text.split(","):
            e, _, c = chunk.partition(":")
            if not _:
                raise ValueError(f"malformed term {chunk!r}")
            pairs.append((int(e), int(c)))
        return cls(pairs)

    def pretty(self, var: str = "t") -> str:
        """Human form, e.g. `-t^-4 + t^-3 + t^-1`."""
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                base = var if e == 1 else f"{var}^{e}"
                term = base if mag == 1 else f"{mag}*{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.pretty()})"
