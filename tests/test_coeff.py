import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_kernel import reference_concat

from diagramalg import diagrams, errors
from diagramalg.coeff import ONE, ZERO, Element, LaurentPoly
from diagramalg.diagrams import (
    FAMILIES,
    concat,
    enumerate_basis,
    generator,
    identity_diagram,
    in_family,
    parse_diagram,
)

small_polys = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.fractions(
            min_value=-5, max_value=5, max_denominator=6
        ),
        max_size=4,
    ),
)


def test_laurent_basics():
    n = LaurentPoly.monomial(1)
    assert str(n) == "n"
    assert str(LaurentPoly.monomial(-2, 3)) == "3*n^-2"
    assert str(LaurentPoly()) == "0"
    assert str(n * n - LaurentPoly.const(Fraction(1, 2))) == "n^2 - 1/2"
    assert n + (-n) == LaurentPoly()
    assert not (n - n)
    assert (n + 1) * (n - 1) == n * n - 1
    assert 3 - n == LaurentPoly({0: 3, 1: -1})


def test_laurent_pow_and_eval():
    n = LaurentPoly.monomial(1)
    p = (n + 2) ** 3
    assert p == n**3 + 6 * n**2 + 12 * n + 8
    assert p.evaluate(1) == 27
    assert (n + LaurentPoly.monomial(-1)).evaluate(2) == Fraction(5, 2)
    with pytest.raises(errors.ZeroSubstitutionWithNegativeExponent):
        LaurentPoly.monomial(-1).evaluate(0)
    assert LaurentPoly.const(7).evaluate(0) == 7
    with pytest.raises(ValueError):
        n ** -1


@pytest.mark.parametrize("power", [True, False, 2.0, Fraction(2)])
def test_laurent_power_must_be_an_int(power):
    # True and 2.0 act like 1 and 2 in arithmetic, but are not powers
    n = LaurentPoly.monomial(1)
    with pytest.raises(ValueError, match="^power must be a nonnegative int$"):
        n ** power


def test_laurent_constant_value():
    assert LaurentPoly.const(Fraction(3, 4)).constant_value() == Fraction(3, 4)
    assert LaurentPoly().constant_value() == 0
    assert LaurentPoly.monomial(2).constant_value() is None


def test_constant_polynomials_hash_as_their_values():
    for poly, value in (
        (LaurentPoly.const(2), 2),
        (LaurentPoly.const(Fraction(3, 4)), Fraction(3, 4)),
        (LaurentPoly.const(Fraction(4, 2)), 2),
        (ZERO, 0),
    ):
        assert poly == value
        assert hash(poly) == hash(value)
        assert len({poly, value}) == 1
    assert {LaurentPoly.const(-1): "a"}[-1] == "a"


def test_laurent_json_roundtrip():
    p = LaurentPoly({2: Fraction(1, 3), 0: -2, -1: 5})
    obj = p.to_json_obj()
    assert obj == [
        {"exp": -1, "num": 5, "den": 1},
        {"exp": 0, "num": -2, "den": 1},
        {"exp": 2, "num": 1, "den": 3},
    ]
    assert LaurentPoly.from_json_obj(obj) == p


def assert_exact(poly):
    """Integral coefficients are ints, the others non-integral Fractions."""
    for c in poly.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def test_integral_coefficients_are_ints():
    n = LaurentPoly.monomial(1)
    p = (n + 2) ** 3 - LaurentPoly.monomial(-1, Fraction(6, 3))
    assert p.terms == {3: 1, 2: 6, 1: 12, 0: 8, -1: -2}
    assert all(type(c) is int for c in p.terms.values())
    assert type(LaurentPoly.const(Fraction(4, 2)).constant_value()) is int
    assert type(LaurentPoly.from_json_obj(p.to_json_obj()).terms[3]) is int


def test_fraction_halves_normalise_to_int():
    half = LaurentPoly.const(Fraction(1, 2))
    assert type(half.terms[0]) is Fraction
    for one in (
        half + half,
        half * 2,
        LaurentPoly([(0, Fraction(1, 2)), (0, Fraction(1, 2))]),
    ):
        assert one.terms == {0: 1} and type(one.terms[0]) is int


@settings(max_examples=80, deadline=None)
@given(small_polys, small_polys, st.fractions(min_value=1, max_value=7))
def test_arithmetic_never_produces_floats(a, b, x):
    for poly in (a, b, a + b, a - b, a * b, -a, a.shift(2), b**2):
        assert_exact(poly)
    assert type(a.evaluate(x)) is Fraction
    assert type((a * b).evaluate(x)) is Fraction


def test_element_product_coefficients_are_ints():
    basis = enumerate_basis("rookbrauer", 2)
    elem = Element(2, "rookbrauer", {d: i - 3 for i, d in enumerate(basis)})
    square = elem * elem
    for c in square.combo.values():
        assert all(type(v) is int for v in c.terms.values())
    values = square.evaluate(Fraction(3, 2))
    assert all(type(v) is Fraction for v in values.values())


def test_printing_is_the_same_for_int_and_fraction_terms():
    as_ints = LaurentPoly({2: 3, 0: -1, -1: 1})
    as_fractions = LaurentPoly({2: Fraction(3), 0: Fraction(-2, 2), -1: Fraction(1)})
    for p in (as_ints, as_fractions):
        assert str(p) == "3*n^2 - 1 + n^-1"
        assert p.to_json_obj() == [
            {"exp": -1, "num": 1, "den": 1},
            {"exp": 0, "num": -1, "den": 1},
            {"exp": 2, "num": 3, "den": 1},
        ]
    mixed = LaurentPoly({1: Fraction(-3, 2), 0: 2})
    assert str(mixed) == "-3/2*n + 2"
    assert mixed.to_json_obj() == [
        {"exp": 0, "num": 2, "den": 1},
        {"exp": 1, "num": -3, "den": 2},
    ]


@settings(max_examples=80, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * LaurentPoly.const(1) == a


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, st.fractions(min_value=1, max_value=9, max_denominator=4))
def test_laurent_evaluation_is_a_ring_map(a, b, x):
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


def test_element_construction_checks():
    p1 = generator("P", 1, 2)
    s1 = generator("S", 1, 2)
    Element.from_diagram(p1, "rook")
    with pytest.raises(errors.AlgebraMismatch):
        Element.from_diagram(s1, "temperleylieb")
    with pytest.raises(errors.RankMismatch):
        Element(3, "partition", {p1: 1})
    with pytest.raises(errors.RankMismatch):
        Element.from_diagram(p1, "rook") + Element.identity(3, "rook")
    with pytest.raises(errors.AlgebraMismatch):
        Element.from_diagram(p1, "rook") + Element.from_diagram(p1, "motzkin")
    with pytest.raises(ValueError, match="expected a Diagram"):
        Element(1, "partition", {"1 1'": 1})
    with pytest.raises(TypeError, match="expected an Element"):
        Element.identity(2, "partition") + 1


def test_element_zero_terms_drop():
    p1 = generator("P", 1, 2)
    e = Element.from_diagram(p1, "partition") - Element.from_diagram(p1, "partition")
    assert e == Element.zero(2, "partition")
    assert e.terms() == []


def test_element_multiplication_inserts_powers():
    p1 = generator("P", 1, 1)
    e = Element.from_diagram(p1, "partition")
    n = LaurentPoly.monomial(1)
    assert e * e == e.scale(n)
    ident = Element.identity(1, "partition")
    assert (e + ident) * (e + ident) == e.scale(n + 2) + ident


def test_element_evaluate():
    p1 = generator("P", 1, 1)
    e = Element.from_diagram(p1, "partition")
    combo = (e * e).evaluate(7)
    assert combo == {p1: Fraction(7)}
    assert e.scale(0).evaluate(3) == {}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_element_ring_axioms_on_random_diagrams(data):
    basis = enumerate_basis("partition", 2)
    picks = [data.draw(st.sampled_from(basis)) for _ in range(3)]
    a, b, c = (Element.from_diagram(d, "partition") for d in picks)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    ident = Element.identity(2, "partition")
    assert ident * a == a
    assert a * ident == a


@settings(max_examples=30, deadline=None)
@given(st.data(), st.fractions(min_value=1, max_value=7, max_denominator=3))
def test_element_evaluation_commutes_with_product(data, x):
    basis = enumerate_basis("rookbrauer", 2)
    a = Element.from_diagram(data.draw(st.sampled_from(basis)), "rookbrauer")
    b = Element.from_diagram(data.draw(st.sampled_from(basis)), "rookbrauer")
    direct = {d: c for d, c in (a * b).evaluate(x).items() if c}
    pieces = {}
    for da, ca in a.evaluate(x).items():
        for db, cb in b.evaluate(x).items():
            prod, deleted = concat(da, db)
            pieces[prod] = pieces.get(prod, Fraction(0)) + ca * cb * x**deleted
    pieces = {d: c for d, c in pieces.items() if c}
    assert direct == pieces


def reference_mul(a, b):
    """The product by per-pair Fraction arithmetic over the reference
    stack, as {diagram: {exponent: coefficient}} without zeros."""
    out = {}
    for d1, p1 in a.combo.items():
        for d2, p2 in b.combo.items():
            prod, deleted = reference_concat(d1, d2)
            terms = out.setdefault(prod, {})
            for e1, c1 in p1.terms.items():
                for e2, c2 in p2.terms.items():
                    e = e1 + e2 + deleted
                    terms[e] = terms.get(e, Fraction(0)) + Fraction(c1) * c2
    out = {d: {e: c for e, c in terms.items() if c} for d, terms in out.items()}
    return {d: terms for d, terms in out.items() if terms}


def assert_product_matches_reference(a, b):
    prod = a * b
    assert {d: p.terms for d, p in prod.combo.items()} == reference_mul(a, b)
    for p in prod.combo.values():
        assert_exact(p)
    return prod


def random_element(rng, family, k, size, dens=(1,)):
    """A seeded element on up to size distinct diagrams of the family, each
    coefficient a Laurent binomial with denominators drawn from dens."""
    basis = enumerate_basis(family, k)
    combo = {}
    for d in rng.sample(basis, min(size, len(basis))):
        combo[d] = LaurentPoly(
            {
                rng.randrange(-2, 3): Fraction(
                    rng.choice((-5, -3, -2, -1, 1, 2, 4, 6)), rng.choice(dens)
                )
                for _ in range(2)
            }
        )
    return Element(k, family, combo)


def test_product_matches_fraction_reference_on_every_family():
    rng = random.Random(8)
    for family in FAMILIES:
        for k in range(1, 5):
            for dens in ((1,), (1, 2, 3), (2, 3, 5, 7, 11)):
                a = random_element(rng, family, k, 6, dens)
                b = random_element(rng, family, k, 6, dens)
                assert_product_matches_reference(a, b)


def test_product_cancellation_integral_results_and_zero():
    basis = enumerate_basis("Partition", 2)
    e = basis[5]
    # two diagrams that stack onto e alike: their terms must cancel
    d, d2 = next(
        (x, y)
        for x in basis
        for y in basis
        if x != y and concat(x, e) == concat(y, e)
    )
    other = next(x for x in basis if concat(x, e) != concat(d, e))
    third = Fraction(1, 3)
    a = Element(2, "Partition", {d: third, d2: -third, other: Fraction(2, 7)})
    b = Element(2, "Partition", {e: Fraction(7, 5)})
    prod = assert_product_matches_reference(a, b)
    kept, deleted = concat(other, e)
    assert prod.combo == {kept: LaurentPoly.monomial(deleted, Fraction(2, 5))}
    # rational factors with an integral product give int coefficients
    for x, y in (
        ({d: Fraction(2, 3)}, {e: Fraction(3, 2)}),
        ({d: Fraction(1, 6), d2: Fraction(5, 6)}, {e: 3}),
    ):
        prod = assert_product_matches_reference(
            Element(2, "Partition", x), Element(2, "Partition", y)
        )
        [poly] = prod.combo.values()
        assert list(map(type, poly.terms.values())) == [int]
    zero = Element.zero(2, "Partition")
    for x, y in ((zero, a), (a, zero), (zero, zero)):
        assert x * y == zero
        assert_product_matches_reference(x, y)


def test_family_closure_under_product():
    rng = random.Random(3)
    for family in FAMILIES:
        basis = enumerate_basis(family, 2)
        for a in basis:
            for b in basis:
                prod = Element.from_diagram(a, family) * Element.from_diagram(
                    b, family
                )
                assert prod.family == family
                assert all(in_family(d, family) for d in prod.combo)
        for _ in range(3):
            a = random_element(rng, family, 3, 8, (1, 2, 3))
            b = random_element(rng, family, 3, 8, (1, 5))
            prod = a * b
            assert prod.family == family and prod.combo
            for d in prod.combo:
                assert in_family(d, family), (family, d.text())


def test_laurent_refuses_floats_and_bool_exponents():
    n = LaurentPoly.monomial(1)
    elem = Element.identity(1, "Partition")
    for build in (
        lambda: LaurentPoly({0: 0.1}),
        lambda: LaurentPoly({0: True}),
        lambda: LaurentPoly({True: 2}),
        lambda: LaurentPoly({1.0: 2}),
        lambda: LaurentPoly.monomial(False),
        lambda: LaurentPoly.from_json_obj([{"exp": True, "num": 1, "den": 1}]),
        lambda: elem.scale(0.5),
        lambda: n * 2.5,
        lambda: n + 0.5,
    ):
        with pytest.raises(ValueError):
            build()
    assert LaurentPoly({0: Fraction(1, 10)}).terms == {0: Fraction(1, 10)}


@pytest.mark.parametrize("n", [0.1, 2.0, True, False, None, object(), b"1", [1]])
def test_evaluate_refuses_an_inexact_n(n):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    poly = LaurentPoly.monomial(1)
    d = parse_diagram("1 1' | 2 2'", 2)
    elem = Element.from_diagram(d, "partition", poly)
    zero = Element.zero(2, "partition")
    for evaluate in (poly.evaluate, elem.evaluate, zero.evaluate):
        with pytest.raises(ValueError) as info:
            evaluate(n)
        assert str(info.value) == "n must be exact, got %r" % (n,)
    assert poly.evaluate(Fraction(1, 10)) == Fraction(1, 10)
    assert elem.evaluate(2) == {d: 2}


def test_a_coefficient_that_is_no_number_is_named():
    for value in (None, object(), b"1", [1]):
        with pytest.raises(ValueError) as info:
            LaurentPoly({0: value})
        assert str(info.value) == "coefficient must be exact, got %r" % (value,)
    assert LaurentPoly({0: "1/2"}).terms == {0: Fraction(1, 2)}


@pytest.mark.parametrize("by", [1.5, True, None, Fraction(2), "1"])
def test_shift_refuses_a_by_that_is_not_an_int(by):
    poly = LaurentPoly({0: 1, 1: 2})
    with pytest.raises(ValueError, match="^shift must be an int, got "):
        poly.shift(by)
    assert poly.shift(-1) == LaurentPoly({-1: 1, 0: 2}) and poly.shift(0) is poly


@pytest.mark.parametrize(
    "obj",
    [
        None,
        3,
        [{}],
        [{"exp": 0, "num": 1}],
        [[0, 1, 1]],
        [{"exp": 0, "num": 1, "den": 0}],
        [{"exp": 0, "num": 1.5, "den": 1}],
        [{"exp": 0, "num": True, "den": 1}],
        [{"exp": 0, "num": 1, "den": True}],
        {"exp": 0, "num": 1, "den": 1},
    ],
)
def test_from_json_obj_refuses_what_to_json_obj_does_not_write(obj):
    with pytest.raises(ValueError, match="^expected a list of terms, got "):
        LaurentPoly.from_json_obj(obj)


def test_laurent_equals_no_bool_or_float():
    # True and 1.0 hash like the constant 1, so a dict lookup compares them
    assert (LaurentPoly.const(1) == True) is False  # noqa: E712
    assert (LaurentPoly.const(1) != True) is True  # noqa: E712
    assert (ONE == 1.0) is False
    assert {True: "x"}.get(ONE) is None
    assert {1.0: "x"}.get(ONE) is None
    assert {1: "x"}.get(ONE) == "x"
    assert ONE == 1 and ONE == Fraction(1)


def test_element_str_is_deterministic():
    d = parse_diagram("1 1' | 2 2'", 2)
    e = Element.from_diagram(d, "partition", LaurentPoly.monomial(2))
    assert str(e) == "(n^2) * 1 1' | 2 2'"
    assert str(Element.zero(2, "partition")) == "0"
    assert identity_diagram(2).text() == "1 1' | 2 2'"


def test_sums_of_checked_elements_check_no_family_again(monkeypatch):
    family = "planarpartition"
    basis = enumerate_basis(family, 4)[:300]
    terms = [Element.from_diagram(d, family) for d in basis]
    calls = []
    real = diagrams.in_family

    def counted(d, fam):
        calls.append(d)
        return real(d, fam)

    monkeypatch.setattr(diagrams, "in_family", counted)
    total = Element.zero(4, family)
    for e in terms:
        total = total + e
    total = -total.scale(2)
    assert calls == []
    assert total == Element(4, family, {d: -2 for d in basis})


def test_made_sums_equal_what_the_checking_constructor_builds():
    family, k = "rookbrauer", 3
    basis = enumerate_basis(family, k)[:6]
    n = LaurentPoly.monomial(1)
    e = Element(k, family, {d: n.shift(i) + i for i, d in enumerate(basis)})
    assert -e == Element(k, family, {d: -c for d, c in e.combo.items()})
    assert e.scale(n) == Element(k, family, {d: c * n for d, c in e.combo.items()})
    for zero in (e.scale(0), e + (-e), e - e):
        assert zero.combo == {}
        assert zero == Element.zero(k, family)
        assert hash(zero) == hash(Element.zero(k, family))
    # a sum that cancels one term keeps only the others
    f = Element(k, family, {basis[0]: -e.combo[basis[0]], basis[1]: 1})
    expected = dict(e.combo)
    del expected[basis[0]]
    expected[basis[1]] = expected[basis[1]] + 1
    assert (e + f).combo == expected
    assert e + f == Element(k, family, expected)
