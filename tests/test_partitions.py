import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diagramalg.characters import f_coeff_planar
from diagramalg.partitions import (
    bell,
    binom,
    catalan,
    check_partition,
    divisors,
    double_factorial,
    lambda_star_labels,
    multiplicities,
    partitions,
    rank_set,
    stirling2,
)


def test_partitions_descending_lex_order():
    assert partitions(0) == ((),)
    assert partitions(1) == ((1,),)
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partition_counts():
    counts = [len(partitions(m)) for m in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


@given(st.integers(min_value=0, max_value=10))
def test_partitions_are_valid_and_strictly_ordered(m):
    parts = partitions(m)
    assert len(set(parts)) == len(parts)
    for p in parts:
        assert check_partition(p) == p
        assert sum(p) == m
    assert list(parts) == sorted(parts, reverse=True)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    # bools and floats compare like ints but are not parts
    for bad in ((True,), (2, True), (2.0, 1), ("2",)):
        with pytest.raises(ValueError, match="positive ints"):
            check_partition(bad)


def test_multiplicities():
    assert multiplicities(()) == {}
    assert multiplicities((3, 3, 2)) == {3: 2, 2: 1}
    assert multiplicities((6, 5, 3, 3, 2, 2)) == {6: 1, 5: 1, 3: 2, 2: 2}


def test_divisors_examples():
    assert divisors((2, 1)) == [(1, 1), (2, 1)]
    assert divisors((1,)) == [(1,)]
    d = divisors((6, 5, 1))
    assert len(d) == 8
    assert d[0] == (1, 1, 1) and d[-1] == (6, 5, 1)
    assert d == sorted(d)


@given(
    st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=4)
)
def test_divisors_count_is_product_of_tau(parts):
    kappa = tuple(sorted(parts, reverse=True))
    expected = math.prod(
        sum(1 for d in range(1, p + 1) if p % d == 0) for p in kappa
    )
    assert len(divisors(kappa)) == expected


def test_binomial_conventions():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(-2, 0) == 0


def test_stirling_and_bell():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(3, 0) == 0
    assert stirling2(2, 5) == 0
    assert [bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_stirling_rows_follow_the_recurrence():
    @functools.cache
    def recurrence(n, j):
        if n == 0 or j == 0:
            return int(n == j)
        return j * recurrence(n - 1, j) + recurrence(n - 1, j - 1)

    for n in range(61):
        for j in range(-1, 62):
            expected = recurrence(n, j) if 0 <= j <= n else 0
            assert stirling2(n, j) == expected, (n, j)
    assert stirling2(-1, 0) == 0


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    assert double_factorial(-3) == 0


# every int argument of each counting function in turn, swapped for a value
# that is not an int
COUNTS = [
    (partitions, (3,)),
    (bell, (3,)),
    (stirling2, (3, 1)),
    (binom, (3, 1)),
    (catalan, (2,)),
    (double_factorial, (5,)),
    pytest.param(
        functools.partial(f_coeff_planar, "TemperleyLieb"), (4, 2), id="f_coeff_planar"
    ),
]
NOT_INTS = [True, False, None, "x", 1.5, 2.0, Fraction(7, 2), Fraction(2), [3]]


@pytest.mark.parametrize("count, good", COUNTS)
def test_a_counting_function_refuses_an_argument_that_is_not_an_int(count, good):
    # refused cold and again once the good call is cached: a bool hashes
    # like 0 or 1, and 2.0 like 2, so a check after a cache would answer
    for warm in (False, True):
        if warm:
            count(*good)
        else:
            getattr(count, "cache_clear", lambda: None)()
        for i in range(len(good)):
            for bad in NOT_INTS:
                args = good[:i] + (bad,) + good[i + 1 :]
                with pytest.raises(ValueError, match="expected an int, got "):
                    count(*args)


def test_the_quoted_counting_answers_are_refused():
    # each was answered before the counting functions checked their ints
    for call in (
        lambda: double_factorial(1.5),
        lambda: double_factorial(Fraction(7, 2)),
        lambda: partitions(True),
        lambda: stirling2(True, 1),
        lambda: bell(True),
        lambda: catalan(True),
        lambda: binom(3, True),
    ):
        with pytest.raises(ValueError):
            call()


def test_the_cached_counts_keep_their_statistics_under_the_public_names():
    for count in (partitions, bell, stirling2):
        count.cache_clear()
        count(4, 2) if count is stirling2 else count(4)
        assert count.cache_info().misses >= 1 and count.cache_info().currsize >= 1


def test_rank_sets():
    assert rank_set("partition", 3) == [0, 1, 2, 3]
    assert rank_set("brauer", 4) == [0, 2, 4]
    assert rank_set("brauer", 5) == [1, 3, 5]
    assert rank_set("temperleylieb", 3) == [1, 3]
    assert rank_set("symmetricgroup", 4) == [4]
    assert rank_set("motzkin", 2) == [0, 1, 2]


def test_lambda_star_label_order():
    assert lambda_star_labels("partition", 3) == [
        (),
        (1,),
        (2,),
        (1, 1),
        (3,),
        (2, 1),
        (1, 1, 1),
    ]
    assert lambda_star_labels("brauer", 4) == [
        (),
        (2,),
        (1, 1),
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert lambda_star_labels("temperleylieb", 4) == [(), (2,), (4,)]
    assert lambda_star_labels("motzkin", 2) == [(), (1,), (2,)]
    assert lambda_star_labels("symmetricgroup", 3) == [
        (3,),
        (2, 1),
        (1, 1, 1),
    ]


def test_lambda_star_labels_planar_partition():
    assert lambda_star_labels("planarpartition", 3) == [(), (1,), (2,), (3,)]
