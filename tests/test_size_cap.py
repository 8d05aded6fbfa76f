"""The one size rule: a k is admitted while its algebra has at most
size_cap() diagrams, so the cap counts work, not strands.  Each capped
entry's own refusals are tested beside it, in test_diagrams.py
(enumerate_basis), test_characters.py (fixed_points, character_oracle)
and test_cli.py (the verify suites)."""

import pytest

from diagramalg import diagrams, errors, irreps, oracles
from diagramalg.characters import character_oracle, fixed_points
from diagramalg.diagrams import (
    BRAUER,
    FAMILIES,
    MOTZKIN,
    PARTITION,
    PLANAR_PARTITION,
    PLANAR_ROOK,
    ROOK,
    ROOK_BRAUER,
    SYMMETRIC_GROUP,
    TEMPERLEY_LIEB,
    _check_cap,
    _SHAPES,
    algebra_dim,
    enumerate_basis,
    size_cap,
)
from diagramalg.partitions import rank_set

# the largest k the default cap of 2,390,480 diagrams admits
LARGEST = {
    PARTITION: 5,
    PLANAR_PARTITION: 6,
    BRAUER: 8,
    ROOK_BRAUER: 7,
    ROOK: 8,
    TEMPERLEY_LIEB: 13,
    MOTZKIN: 8,
    PLANAR_ROOK: 11,
    SYMMETRIC_GROUP: 9,
}


def admitted(family, k):
    try:
        _check_cap("enumerate_basis", family, k)
    except errors.CapExceeded:
        return False
    return True


@pytest.fixture(autouse=True)
def default_cap(monkeypatch):
    monkeypatch.delenv("DIAGRAMALG_CAP", raising=False)


def test_the_default_cap_admits_each_family_to_its_largest_k():
    assert size_cap() == algebra_dim(ROOK_BRAUER, 7) == 2390480
    for family in FAMILIES:
        top = LARGEST[family]
        # the strand caps this rule replaced: 5 for the partition
        # families, 7 for the pair families
        assert top >= (7 if _SHAPES[family].pairs else 5), family
        assert all(admitted(family, k) for k in range(1, top + 1)), family
        assert not admitted(family, top + 1), family
        assert algebra_dim(family, top) <= size_cap() < algebra_dim(family, top + 1)


def test_every_family_has_at_least_two_to_the_k_minus_one_diagrams():
    # the fact that lets a k past the cap's bit length be refused uncounted
    for family in FAMILIES:
        for k in range(1, 201):
            assert algebra_dim(family, k) >= 2 ** (k - 1), (family, k)


def test_a_k_past_the_bit_length_of_the_cap_is_refused_uncounted(monkeypatch):
    def uncounted(family, k):
        raise AssertionError("counted %s at k=%d" % (family, k))

    monkeypatch.setattr(diagrams, "algebra_dim", uncounted)
    assert size_cap().bit_length() == 22
    for k in (23, 10**20):
        for family in FAMILIES:
            for call in (
                lambda: enumerate_basis(family, k),
                lambda: _check_cap("fixed_points", family, k),
                lambda: character_oracle(family, k, (k,), (k,)),
            ):
                with pytest.raises(errors.CapExceeded, match="cap 2390480$"):
                    call()
    with pytest.raises(errors.CapExceeded, match="^fixed_points at k=23 exceeds"):
        fixed_points(PARTITION, 23, 0, (23,))


def test_the_algebra_dimension_bounds_the_other_listings():
    # at each family's largest admitted k, the symmetric candidates of
    # every rank and the square of every module dimension are at most the
    # algebra's dimension, so the one count bounds all three
    for family in FAMILIES:
        k = LARGEST[family]
        dim = algebra_dim(family, k)
        for m in rank_set(family, k):
            assert len(irreps._symmetric_candidates(family, k, m)) <= dim, (family, m)
        rows = oracles._module_dims(family, k)[0]
        assert all(row[-1] ** 2 <= dim for row in rows), family
