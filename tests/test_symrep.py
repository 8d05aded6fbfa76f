from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from diagramalg import errors
from diagramalg.partitions import partitions
from diagramalg.symrep import (
    act,
    column_word,
    compose_perms,
    cycle_type,
    identity_perm,
    inverse_perm,
    is_standard,
    perm_from_cycle_type,
    relabel,
    rep_matrix,
    standard_tableaux,
    straighten,
    sym_character,
    sym_dim,
    tableau_shape,
)

T1 = ((1, 3, 5), (2, 4))
T2 = ((1, 3, 4), (2, 5))
T3 = ((1, 2, 5), (3, 4))
T4 = ((1, 2, 4), (3, 5))
T5 = ((1, 2, 3), (4, 5))


def perms(m):
    import itertools

    return [tuple(p) for p in itertools.permutations(range(1, m + 1))]


def test_standard_tableaux_32_order():
    assert standard_tableaux((3, 2)) == (T1, T2, T3, T4, T5)


def test_standard_tableaux_small_shapes():
    assert standard_tableaux((2, 2)) == (((1, 3), (2, 4)), ((1, 2), (3, 4)))
    assert standard_tableaux((1,)) == (((1,),),)
    assert standard_tableaux(()) == ((),)
    assert standard_tableaux((2, 1)) == (((1, 3), (2,)), ((1, 2), (3,)))


def test_column_reading_tableau_comes_first():
    for shape in [(3, 2), (2, 2, 1), (4, 1), (3, 3), (2, 1, 1)]:
        first = standard_tableaux(shape)[0]
        assert column_word(first) == tuple(range(1, sum(shape) + 1))


def test_is_standard():
    assert is_standard(T4)
    assert not is_standard(((1, 4, 3), (2, 5)))
    assert not is_standard(((2, 1), (3,)))
    assert not is_standard(((1, 2), (3, 4, 5)))
    assert not is_standard(((1, 2), (2, 3)))


def test_tableau_shape_and_column_word():
    assert tableau_shape(T1) == (3, 2)
    assert column_word(T1) == (1, 2, 3, 4, 5)
    assert column_word(T5) == (1, 4, 2, 5, 3)


def test_straighten_standard_is_identity():
    for shape in [(3, 2), (2, 2), (3, 1, 1)]:
        for t in standard_tableaux(shape):
            assert straighten(t) == {t: 1}


def test_straighten_column_sign():
    assert straighten(((2,), (1,))) == {((1,), (2,)): -1}
    assert straighten(((3, 4), (1, 2))) == {((1, 2), (3, 4)): 1}


def test_straighten_row_descent():
    assert straighten(((2, 1), (3,))) == {
        ((1, 2), (3,)): 1,
        ((1, 3), (2,)): -1,
    }


def test_straighten_worked_example():
    assert straighten(((1, 4, 3), (2, 5))) == {T2: 1, T1: -1}


def test_act_worked_example():
    sigma = (1, 4, 2, 3, 5)
    assert relabel(sigma, T4) == ((1, 4, 3), (2, 5))
    assert act(sigma, {T4: 1}) == {T2: 1, T1: -1}


def test_act_degree_mismatch():
    with pytest.raises(errors.DegreeMismatch):
        act((1, 2, 3), {T4: 1})
    with pytest.raises(errors.DegreeMismatch):
        rep_matrix((1, 2, 3), (3, 2))


def test_rep_matrix_identity():
    for shape in [(3, 2), (2, 2), (2, 1, 1)]:
        m = sum(shape)
        mat = rep_matrix(identity_perm(m), shape)
        size = sym_dim(shape)
        assert mat == [
            [Fraction(int(i == j)) for j in range(size)] for i in range(size)
        ]


def matmul(a, b):
    size = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(size)) for j in range(size)]
        for i in range(size)
    ]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rep_matrix_homomorphism(data):
    shape = data.draw(st.sampled_from([(3, 1), (2, 2), (2, 1, 1), (3, 2)]))
    m = sum(shape)
    a = data.draw(st.permutations(range(1, m + 1)).map(tuple))
    b = data.draw(st.permutations(range(1, m + 1)).map(tuple))
    assert rep_matrix(compose_perms(a, b), shape) == matmul(
        rep_matrix(a, shape), rep_matrix(b, shape)
    )


def test_rep_matrix_entries_are_integers():
    for shape in [(3, 2), (2, 2, 1)]:
        m = sum(shape)
        for sigma in perms(m):
            for row in rep_matrix(sigma, shape):
                for entry in row:
                    assert entry.denominator == 1


def test_character_table_s3():
    classes = [(1, 1, 1), (2, 1), (3,)]
    table = {
        (3,): [1, 1, 1],
        (2, 1): [2, 0, -1],
        (1, 1, 1): [1, -1, 1],
    }
    for lam, row in table.items():
        assert [sym_character(lam, mu) for mu in classes] == row


def test_character_table_s4():
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    table = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [3, 1, -1, 0, -1],
        (2, 2): [2, 0, 2, -1, 0],
        (2, 1, 1): [3, -1, -1, 0, 1],
        (1, 1, 1, 1): [1, -1, 1, 1, -1],
    }
    for lam, row in table.items():
        assert [sym_character(lam, mu) for mu in classes] == row


def test_character_is_trace_of_rep_matrix():
    for m in (3, 4, 5):
        for lam in partitions(m):
            for mu in partitions(m):
                sigma = perm_from_cycle_type(mu)
                mat = rep_matrix(sigma, lam)
                trace = sum(mat[i][i] for i in range(len(mat)))
                assert trace == sym_character(lam, mu)


def test_character_size_mismatch():
    with pytest.raises(errors.SizeMismatch):
        sym_character((2, 1), (4,))


def test_wedderburn_dimension_sum():
    for m in range(1, 7):
        assert sum(sym_dim(lam) ** 2 for lam in partitions(m)) == factorial(m)


def test_sym_dim_known_values():
    assert sym_dim((3, 2)) == 5
    assert sym_dim((2, 2)) == 2
    assert sym_dim((4, 2)) == 9
    assert sym_dim((3, 1, 1)) == 6
    assert sym_dim((1, 1, 1, 1)) == 1
    assert sym_dim(()) == 1


def test_sym_dim_counts_the_standard_tableaux():
    for m in range(11):
        for shape in partitions(m):
            assert sym_dim(shape) == len(standard_tableaux(shape)), shape


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(1, 7)).map(tuple))
def test_perm_helpers(sigma):
    assert compose_perms(sigma, inverse_perm(sigma)) == identity_perm(6)
    assert compose_perms(inverse_perm(sigma), sigma) == identity_perm(6)
    assert sorted(cycle_type(sigma), reverse=True) == list(cycle_type(sigma))
    assert sum(cycle_type(sigma)) == 6


def test_perm_from_cycle_type():
    assert perm_from_cycle_type((3, 2)) == (2, 3, 1, 5, 4)
    assert cycle_type(perm_from_cycle_type((4, 2, 1))) == (4, 2, 1)
    with pytest.raises(errors.SizeMismatch):
        perm_from_cycle_type((2, 1), m=5)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_straighten_lands_on_standard_basis(data):
    shape = data.draw(st.sampled_from([(3, 2), (2, 2, 1), (3, 1, 1)]))
    m = sum(shape)
    sigma = data.draw(st.permutations(range(1, m + 1)).map(tuple))
    start = data.draw(st.sampled_from(standard_tableaux(shape)))
    combo = straighten(relabel(sigma, start))
    for t, c in combo.items():
        assert is_standard(t)
        assert isinstance(c, int)
        assert c != 0


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_act_is_a_group_action(data):
    shape = data.draw(st.sampled_from([(2, 2), (3, 1), (2, 1, 1)]))
    m = sum(shape)
    a = data.draw(st.permutations(range(1, m + 1)).map(tuple))
    b = data.draw(st.permutations(range(1, m + 1)).map(tuple))
    t = data.draw(st.sampled_from(standard_tableaux(shape)))
    assert act(a, act(b, {t: 1})) == act(compose_perms(a, b), {t: 1})
