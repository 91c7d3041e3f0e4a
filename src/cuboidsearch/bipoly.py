"""Exact bivariate polynomials with integer coefficients in the variables b and c.

A polynomial is a dict mapping exponent pairs (deg_b, deg_c) to nonzero
arbitrary-precision integers.  Zero coefficients are never stored and the
zero polynomial is the empty dict, so the representation is canonical:
structural equality of the term dicts is mathematical equality.  That is
what makes symbolic identity checks a simple ``==`` between expanded sides.

Everything here has value semantics; instances are immutable after
construction and safe to share between threads and processes.
"""

from __future__ import annotations

from fractions import Fraction


class DegreeError(ValueError):
    """An operation needed a specific degree the polynomial does not have."""


class IntPoly2:
    """Integer-coefficient polynomial in b and c, kept in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        pruned = {}
        if terms:
            for (db, dc), coeff in terms.items():
                if coeff != 0:
                    pruned[(int(db), int(dc))] = int(coeff)
        object.__setattr__(self, "terms", pruned)

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly2 is immutable")

    # --- ring structure ---

    @staticmethod
    def _coerce(other) -> "IntPoly2 | None":
        if isinstance(other, IntPoly2):
            return other
        if isinstance(other, int):
            return IntPoly2({(0, 0): other})
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in rhs.terms.items():
            total = out.get(key, 0) + coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
        return IntPoly2(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly2({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (db1, dc1), c1 in self.terms.items():
            for (db2, dc2), c2 in rhs.terms.items():
                key = (db1 + db2, dc1 + dc2)
                total = out.get(key, 0) + c1 * c2
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return IntPoly2(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.terms == rhs.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # --- queries ---

    def is_zero(self) -> bool:
        return not self.terms

    def degree_b(self) -> int:
        """Degree in b; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(db for db, _ in self.terms)

    def degree_c(self) -> int:
        if not self.terms:
            return -1
        return max(dc for _, dc in self.terms)

    def coeff_in_b(self, power: int) -> "IntPoly2":
        """The coefficient of b**power, as a polynomial in c alone."""
        return IntPoly2(
            {(0, dc): coeff for (db, dc), coeff in self.terms.items() if db == power}
        )

    def eval(self, b: Fraction, c: Fraction) -> Fraction:
        """Exact value at a rational point.

        With b = p/q, c = r/s and degrees m in b and n in c, every term
        times q^m s^n is an integer, so the sum runs over integers and one
        Fraction is built at the end.
        """
        if not self.terms:
            return Fraction(0)
        b = Fraction(b)
        c = Fraction(c)
        p, q = b.numerator, b.denominator
        r, s = c.numerator, c.denominator
        m = self.degree_b()
        n = self.degree_c()
        total = 0
        for (db, dc), coeff in self.terms.items():
            total += coeff * p**db * q ** (m - db) * r**dc * s ** (n - dc)
        return Fraction(total, q**m * s**n)

    # --- display ---

    @staticmethod
    def _monomial(db: int, dc: int) -> str:
        parts = []
        if db == 1:
            parts.append("b")
        elif db > 1:
            parts.append(f"b^{db}")
        if dc == 1:
            parts.append("c")
        elif dc > 1:
            parts.append(f"c^{dc}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0], -kv[0][1])
        )
        pieces = []
        for (db, dc), coeff in ordered:
            mono = self._monomial(db, dc)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"IntPoly2({self})"


ZERO = IntPoly2()
ONE = IntPoly2({(0, 0): 1})
B = IntPoly2({(1, 0): 1})
C = IntPoly2({(0, 1): 1})


def discriminant_in_b(p: IntPoly2) -> IntPoly2:
    """Discriminant of a polynomial that is quadratic in b.

    For p = A(c)*b^2 + B(c)*b + C(c) this is B^2 - 4*A*C, a polynomial in
    c alone.  Raises DegreeError unless the degree in b is exactly 2.
    """
    if p.degree_b() != 2:
        raise DegreeError(f"degree in b is {p.degree_b()}, need exactly 2")
    quad = p.coeff_in_b(2)
    lin = p.coeff_in_b(1)
    const = p.coeff_in_b(0)
    return lin * lin - 4 * quad * const
