"""F built one column per cycle type from cached per-part factors, against
the per-cell closed form it replaced."""

from math import comb

import pytest

from diagramalg import errors
from diagramalg.characters import (
    _check_class,
    f_coeff,
    f_coeff_planar,
    irr_character,
)
from diagramalg.diagrams import (
    _SHAPES,
    BRAUER,
    MOTZKIN,
    PARTITION,
    PLANAR_PARTITION,
    PLANAR_ROOK,
    ROOK,
    ROOK_BRAUER,
    SYMMETRIC_GROUP,
    TEMPERLEY_LIEB,
    normalize_family,
)
from diagramalg.partitions import (
    binom,
    check_partition,
    divisors,
    double_factorial,
    multiplicities,
    partitions,
    stirling2,
)


def reference_f_coeff(family, kappa, mu):
    """One cell of F: a sum over every ordered divisor of kappa for
    Partition and a product over part sizes otherwise, as f_coeff once was."""
    family = normalize_family(family)
    kappa = check_partition(kappa)
    mu = check_partition(mu)
    if family == SYMMETRIC_GROUP:
        return 1 if kappa == mu else 0
    if _SHAPES[family].planar:
        _check_class(family, kappa)
        m = sum(mu)
        if mu != (1,) * m:
            return 0
        return f_coeff_planar(family, len(kappa), m)
    mult_mu = multiplicities(mu)
    if family == PARTITION:
        total = 0
        for nu in divisors(kappa):
            mult_nu = multiplicities(nu)
            sizes = set(mult_nu) | set(mult_mu)
            prod = 1
            for i in sizes:
                ni = mult_nu.get(i, 0)
                mi = mult_mu.get(i, 0)
                prod *= sum(
                    stirling2(ni, t) * binom(t, mi) * i ** (ni - t)
                    for t in range(ni + 1)
                )
                if not prod:
                    break
            total += prod
        return total
    mult_kappa = multiplicities(kappa)
    sizes = set(mult_kappa) | set(mult_mu)
    if family == ROOK:
        prod = 1
        for i in sizes:
            prod *= binom(mult_kappa.get(i, 0), mult_mu.get(i, 0))
        return prod
    even_weight = {BRAUER: (1, 0), ROOK_BRAUER: (2, 1)}[family]
    prod = 1
    for i in sizes:
        ci = mult_kappa.get(i, 0)
        mi = mult_mu.get(i, 0)
        di = ci - mi
        if di < 0:
            return 0
        base = even_weight[0] if i % 2 == 0 else even_weight[1]
        inner = sum(
            binom(di, 2 * t) * double_factorial(2 * t - 1) * i**t
            * base ** (di - 2 * t)
            for t in range(di // 2 + 1)
        )
        prod *= binom(ci, mi) * inner
        if not prod:
            return 0
    return prod


def ballot(r, m):
    """Ways to pair r - m of r points in a row with no two pairs crossing
    and no pair over one of the m others: the ballot number
    (m + 1) / (r + 1) C(r + 1, (r - m) / 2), zero unless 0 <= m <= r and
    r - m is even."""
    if not 0 <= m <= r or (r - m) % 2:
        return 0
    return (m + 1) * comb(r + 1, (r - m) // 2) // (r + 1)


# the planar counts by name: TemperleyLieb the ballot number, Motzkin the
# ballot number on the j points that are not non-propagating singles,
# PlanarRook the choice of the m propagating points, PlanarPartition
# TemperleyLieb at (2r, 2m)
PLANAR_REFERENCE = {
    TEMPERLEY_LIEB: ballot,
    MOTZKIN: lambda r, m: sum(comb(r, j) * ballot(j, m) for j in range(r + 1)),
    PLANAR_ROOK: lambda r, m: comb(r, m) if 0 <= m <= r else 0,
    PLANAR_PARTITION: lambda r, m: ballot(2 * r, 2 * m),
}


@pytest.mark.parametrize("family", sorted(PLANAR_REFERENCE))
def test_f_coeff_planar_matches_the_named_counts(family):
    reference = PLANAR_REFERENCE[family]
    nonzero = 0
    for r in range(21):
        for m in range(-2, r + 3):
            expected = reference(r, m)
            assert f_coeff_planar(family, r, m) == expected, (r, m)
            nonzero += bool(expected)
    # TemperleyLieb is zero at every m of the other parity
    assert nonzero >= 21 * 22 // 4


@pytest.mark.parametrize(
    "family", [PARTITION, BRAUER, ROOK_BRAUER, ROOK, SYMMETRIC_GROUP]
)
def test_f_coeff_matches_reference(family):
    # every mu up to one part past |kappa|, so also mu with part sizes
    # kappa does not have and mu larger than kappa
    mus = [mu for s in range(11) for mu in partitions(s)]
    nonzero = columns = 0
    for r in range(10):
        for kappa in partitions(r):
            columns += 1
            for mu in mus:
                if sum(mu) > r + 1:
                    break
                expected = reference_f_coeff(family, kappa, mu)
                assert f_coeff(family, kappa, mu) == expected, (kappa, mu)
                nonzero += bool(expected)
    # F(kappa, kappa) = 1, so at least the diagonal is nonzero
    assert nonzero >= columns == 97


@pytest.mark.parametrize(
    "family, kappa, error, message",
    [
        (TEMPERLEY_LIEB, (2, 1), errors.InvalidClassLabel,
         "TemperleyLieb classes are labelled by all-ones cycle types,"
         " got (2, 1)"),
        (MOTZKIN, (3,), errors.InvalidClassLabel,
         "Motzkin classes are labelled by all-ones cycle types, got (3,)"),
        (PLANAR_ROOK, (2, 2), errors.InvalidClassLabel,
         "PlanarRook classes are labelled by all-ones cycle types,"
         " got (2, 2)"),
        (PLANAR_PARTITION, (2, 1), errors.InvalidClassLabel,
         "PlanarPartition classes are labelled by all-ones cycle types,"
         " got (2, 1)"),
    ],
)
def test_planar_refusals_unchanged(family, kappa, error, message):
    for f in (f_coeff, reference_f_coeff):
        with pytest.raises(error) as info:
            f(family, kappa, (1,))
        assert str(info.value) == message


def test_bool_parts_are_refused_once_their_int_column_is_cached():
    # (True,) hashes like (1,), so only the check keeps it off the cache
    assert f_coeff(PARTITION, (1,), (1,)) == 1
    for kappa, mu in (((True,), (1,)), ((1,), (True,)), ((2, True), ())):
        with pytest.raises(ValueError, match="positive ints"):
            f_coeff(PARTITION, kappa, mu)
    with pytest.raises(ValueError, match="positive ints"):
        irr_character(PARTITION, 3, (True,), (2, 1))
