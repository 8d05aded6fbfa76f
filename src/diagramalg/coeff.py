"""Exact coefficient arithmetic for the diagram algebras.

Coefficients are Laurent polynomials in the parameter n with rational
coefficients, so every product is computed symbolically; substituting a
numeric n afterwards is a ring homomorphism wherever it is defined.
Every structure constant of a diagram algebra lies in Z[n, 1/n], so
integral coefficients are stored as plain ints and Fraction is kept only
for non-integral values such as rational user input.  Elements are formal
linear combinations of diagrams tagged with their family, and
multiplication shifts the exponents by the number of components deleted
in each concatenation.  A product runs on integer coefficients: each
factor is scaled by the common denominator of its coefficients, and each
product term is divided once by the two denominators at the end.
"""

from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from .diagrams import _INT, Diagram, _check_diagram, _check_k, _check_strands
from .diagrams import _Value, concat, identity_diagram, normalize_family
from .errors import AlgebraMismatch, ZeroSubstitutionWithNegativeExponent


def _items(combo):
    """The (key, coefficient) pairs of an element's or a module vector's
    coefficients, refused with ValueError unless they are a mapping."""
    if not isinstance(combo, Mapping):
        raise ValueError("expected a mapping of coefficients, got %r" % (combo,))
    return combo.items()


def _exact(value, what):
    """value as a Fraction; floats and bools convert silently to one, so
    they are refused rather than read as exact values, as is a value that
    is not a number at all."""
    if not isinstance(value, (bool, float)):
        try:
            return Fraction(value)
        except TypeError:
            pass
    raise ValueError("%s must be exact, got %r" % (what, value))


class LaurentPoly(_Value):
    """Laurent polynomial in n over Q, stored as {exponent: coefficient}.

    A coefficient is an int when it is integral and a Fraction otherwise;
    zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            try:
                for exp, c in items:
                    if type(exp) is not int:
                        raise ValueError("exponent must be an int, got %r" % (exp,))
                    if type(c) is not int and not isinstance(c, Fraction):
                        c = _exact(c, "coefficient")
                    if exp in data:
                        c += data[exp]
                    data[exp] = c
            except TypeError:
                raise ValueError("terms must be a mapping or pairs") from None
        # integral Fractions become ints
        _set_terms(
            self,
            {
                e: c if type(c) is int or c.denominator != 1 else c.numerator
                for e, c in data.items()
                if c
            },
        )

    @classmethod
    def _make(cls, terms):
        # terms already holds only nonzero ints and non-integral Fractions
        poly = object.__new__(cls)
        _set_terms(poly, terms)
        return poly

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({exp: coeff})

    @classmethod
    def const(cls, value):
        return cls({0: value})

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        return cls.const(value)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            # True, as 1.0, compares and hashes like 1 but is no coefficient
            if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(other)
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its value, so it must hash as its value
        value = self.constant_value()
        if value is not None:
            return hash(value)
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return _from_sums(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-LaurentPoly.coerce(other))

    def __rsub__(self, other):
        return LaurentPoly.coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return _from_sums(out)

    __rmul__ = __mul__

    def shift(self, by):
        """The polynomial times n**by."""
        if type(by) is not int:
            raise ValueError("shift must be an int, got %r" % (by,))
        if not by:
            return self
        return LaurentPoly._make({e + by: c for e, c in self.terms.items()})

    def __pow__(self, power):
        if type(power) is not int or power < 0:
            raise ValueError("power must be a nonnegative int")
        out = LaurentPoly.const(1)
        base = self
        while power:
            if power & 1:
                out = out * base
            base = base * base
            power >>= 1
        return out

    def evaluate(self, value):
        """Substitute a rational value for n."""
        value = _exact(value, "n")
        if value == 0 and any(e < 0 for e in self.terms):
            raise ZeroSubstitutionWithNegativeExponent(
                "cannot substitute n = 0 into a negative power of n"
            )
        return sum(
            (c * value**e for e, c in self.terms.items()), Fraction(0)
        )

    def constant_value(self):
        """The rational value if the polynomial is constant, else None."""
        if not self.terms:
            return 0
        if set(self.terms) == {0}:
            return self.terms[0]
        return None

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if e == 0:
                body = str(mag)
            else:
                var = "n" if e == 1 else "n^%d" % e
                body = var if mag == 1 else "%s*%s" % (mag, var)
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "LaurentPoly(%s)" % self

    def to_json_obj(self):
        return [
            {"exp": e, "num": self.terms[e].numerator, "den": self.terms[e].denominator}
            for e in sorted(self.terms)
        ]

    @classmethod
    def from_json_obj(cls, obj):
        """The polynomial of to_json_obj's list of {exp, num, den} terms."""
        terms = {}
        try:
            for t in obj:
                num, den = t["num"], t["den"]
                # True reads as 1 in a Fraction but is no coefficient
                if type(num) is bool or type(den) is bool:
                    raise TypeError
                terms[t["exp"]] = Fraction(num, den)
        except (TypeError, KeyError, ZeroDivisionError):
            raise ValueError("expected a list of terms, got %r" % (obj,)) from None
        return cls(terms)


# the slot's own setter (see _Value), which __setattr__ refuses to reach
(_set_terms,) = LaurentPoly._setters


def _from_sums(out):
    """A polynomial from summed terms: all-int sums only need their zeros
    dropped; anything else goes through the validating constructor."""
    if set(map(type, out.values())) <= _INT:
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return LaurentPoly._make(out)
    return LaurentPoly(out)


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)


class Element(_Value):
    """A linear combination of diagrams on k strands inside one family."""

    __slots__ = ("k", "family", "combo")

    def __init__(self, k, family, combo=None):
        _check_k(k)
        family = normalize_family(family)
        clean = {}
        for d, c in _items(combo or {}):
            _check_diagram(d, family, k)
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly.const(c)
            if c:
                clean[d] = c
        _set_element_k(self, k)
        _set_family(self, family)
        _set_combo(self, clean)

    @classmethod
    def _make(cls, k, family, combo):
        """Wrap the fields of elements already checked, dropping the terms
        whose coefficient is zero."""
        e = object.__new__(cls)
        _set_element_k(e, k)
        _set_family(e, family)
        _set_combo(e, {d: c for d, c in combo.items() if c})
        return e

    @classmethod
    def from_diagram(cls, d, family, coeff=1):
        _check_diagram(d)
        return cls(d.k, family, {d: LaurentPoly.coerce(coeff)})

    @classmethod
    def identity(cls, k, family):
        return cls.from_diagram(identity_diagram(k), family)

    @classmethod
    def zero(cls, k, family):
        return cls(k, family)

    def terms(self):
        """Canonically ordered (diagram, coefficient) pairs."""
        combo = self.combo
        return [(d, combo[d]) for d in sorted(combo, key=Diagram._key)]

    def _check_compatible(self, other):
        if not isinstance(other, Element):
            raise TypeError("expected an Element, got %r" % (other,))
        _check_strands(self.k, other.k)
        if self.family != other.family:
            raise AlgebraMismatch(
                "elements of different families: %s vs %s"
                % (self.family, other.family)
            )

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.combo)
        for d, c in other.combo.items():
            out[d] = out.get(d, ZERO) + c
        return Element._make(self.k, self.family, out)

    def __neg__(self):
        return Element._make(
            self.k, self.family, {d: -c for d, c in self.combo.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        value = LaurentPoly.coerce(value)
        return Element._make(
            self.k, self.family, {d: c * value for d, c in self.combo.items()}
        )

    def __mul__(self, other):
        self._check_compatible(other)
        left, den_a = _integral(self.combo)
        right, den_b = _integral(other.combo)
        out = {}
        for d1, c1 in left.items():
            # a stack deletes at most k middle components
            powers = [c1.shift(i) for i in range(self.k + 1)]
            for d2, c2 in right.items():
                prod, deleted = concat(d1, d2)
                c = powers[deleted] * c2
                prev = out.setdefault(prod, c)
                if prev is not c:
                    out[prod] = prev + c
        den = den_a * den_b
        if den != 1:
            # an exact quotient is stored as the int it is
            out = {
                d: LaurentPoly(
                    {
                        e: Fraction(c, den) if c % den else c // den
                        for e, c in p.terms.items()
                    }
                )
                for d, p in out.items()
            }
        return Element(self.k, self.family, out)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.k == other.k
            and self.family == other.family
            and self.combo == other.combo
        )

    def __hash__(self):
        return hash((self.k, self.family, frozenset(self.combo.items())))

    def evaluate(self, value):
        """Substitute a rational n; returns {diagram: Fraction}, leaving
        out the diagrams whose coefficient vanishes at n."""
        value = _exact(value, "n")
        values = ((d, c.evaluate(value)) for d, c in self.terms())
        return {d: v for d, v in values if v}

    def __str__(self):
        if not self.combo:
            return "0"
        return "  +  ".join(
            "(%s) * %s" % (c, d.text()) for d, c in self.terms()
        )

    def __repr__(self):
        return "Element(k=%d, %s, %s)" % (self.k, self.family, self)


_set_element_k, _set_family, _set_combo = Element._setters


def _integral(combo):
    """Scale a combination to integer coefficients by the lcm of their
    denominators; return the scaled combination and that lcm."""
    den = lcm(*(c.denominator for p in combo.values() for c in p.terms.values()))
    if den == 1:
        return combo, 1
    return {
        d: LaurentPoly._make(
            {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
        )
        for d, p in combo.items()
    }, den
