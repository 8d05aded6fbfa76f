from fractions import Fraction
from functools import cache
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from diagramalg import errors, symrep
from diagramalg.partitions import partitions
from diagramalg.symrep import (
    act,
    character_column,
    cycle_type,
    inverse_perm,
    is_standard,
    natural_columns,
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


def identity(m):
    return tuple(range(1, m + 1))


def compose(a, b):
    """(a o b)(x) = a(b(x)), matching diagram concatenation order."""
    return tuple(a[x - 1] for x in b)


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
        assert symrep._column_word(first) == tuple(range(1, sum(shape) + 1))


def test_is_standard():
    assert is_standard(T4)
    assert not is_standard(((1, 4, 3), (2, 5)))
    assert not is_standard(((2, 1), (3,)))
    assert not is_standard(((1, 2), (3, 4, 5)))
    assert not is_standard(((1, 2), (2, 3)))
    # rows increase and the entries are 1..4, but the first column descends
    assert not is_standard(((2, 3), (1, 4)))


def test_tableau_shape_and_column_word():
    assert tableau_shape(T1) == (3, 2)
    assert symrep._column_word(T1) == (1, 2, 3, 4, 5)
    assert symrep._column_word(T5) == (1, 4, 2, 5, 3)


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
    with pytest.raises(errors.DegreeMismatch):
        natural_columns((1, 2, 3), (3, 2))


@pytest.mark.parametrize("sigma", [(1, 1, 3), (1, 2, 4), (0, 1, 2), (3, 2, 2)])
def test_a_sigma_that_is_no_permutation_is_refused(sigma):
    message = "not a permutation of 1..3"
    with pytest.raises(ValueError, match=message):
        rep_matrix(sigma, (2, 1))
    with pytest.raises(ValueError, match=message):
        natural_columns(sigma, (2, 1))
    with pytest.raises(ValueError, match=message):
        act(sigma, {((1, 2), (3,)): 1})


def test_act_refuses_entries_that_only_compare_like_ints():
    # True and 1.0 compare and hash like 1, so a cache keyed by the
    # permutation would answer them with the matrix of the ints
    for sigma in ((True, 2, 3), (1.0, 2, 3)):
        with pytest.raises(ValueError, match="not a permutation of 1..3"):
            act(sigma, {((1, 2), (3,)): 1})


def test_rep_matrix_identity():
    for shape in [(3, 2), (2, 2), (2, 1, 1)]:
        m = sum(shape)
        mat = rep_matrix(identity(m), shape)
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
    assert rep_matrix(compose(a, b), shape) == matmul(
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


def test_identity_class_needs_no_recursion_on_a_cleared_cache():
    # 1200 rim hooks of length 1 would recurse past Python's limit
    symrep._sym_character.cache_clear()
    assert sym_dim((1200,)) == 1
    assert sym_dim((1199, 1)) == 1199
    assert sym_dim((1,) * 1200) == 1
    # f^lam = f^(lam transposed)
    assert sym_character((3,) * 400, (1,) * 1200) == sym_dim((400, 400, 400))


@cache
def rim_hook_character(lam, mu):
    """chi^lam(mu) one entry at a time: the hook length formula at the
    identity class, otherwise the rim hooks of length mu[0] of lam removed
    on its beta-set, recursing on the rest of mu."""
    if not mu or mu[0] == 1:
        cols = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
        hooks = prod(
            part - j + cols[j] - i - 1
            for i, part in enumerate(lam)
            for j in range(part)
        )
        return factorial(len(mu)) // hooks
    r, rest = mu[0], mu[1:]
    nrows = len(lam)
    beta = [lam[i] + (nrows - 1 - i) for i in range(nrows)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        newlam = tuple(newbeta[i] - (nrows - 1 - i) for i in range(nrows))
        term = rim_hook_character(tuple(x for x in newlam if x > 0), rest)
        total += -term if height % 2 else term
    return total


def test_character_column_matches_the_rim_hook_recursion():
    for m in range(13):
        for mu in partitions(m):
            assert character_column(mu) == tuple(
                rim_hook_character(lam, mu) for lam in partitions(m)
            ), mu


def test_character_column_is_the_sym_character_column():
    for mu in [(), (1,), (5, 3, 3, 1), (2,) * 7, (9, 4), (1,) * 9]:
        assert character_column(mu) == tuple(
            sym_character(lam, mu) for lam in partitions(sum(mu))
        )
    with pytest.raises(ValueError):
        character_column((1, 2))


def test_sym_dim_counts_the_standard_tableaux():
    for m in range(11):
        for shape in partitions(m):
            assert sym_dim(shape) == len(standard_tableaux(shape)), shape


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(1, 7)).map(tuple))
def test_perm_helpers(sigma):
    assert compose(sigma, inverse_perm(sigma)) == identity(6)
    assert compose(inverse_perm(sigma), sigma) == identity(6)
    assert sorted(cycle_type(sigma), reverse=True) == list(cycle_type(sigma))
    assert sum(cycle_type(sigma)) == 6


def test_perm_from_cycle_type():
    assert perm_from_cycle_type((3, 2)) == (2, 3, 1, 5, 4)
    assert cycle_type(perm_from_cycle_type((4, 2, 1))) == (4, 2, 1)
    with pytest.raises(errors.SizeMismatch):
        perm_from_cycle_type((2, 1), m=5)


# (3, 1) once ended in an IndexError, and (1, 1) in an answer
NOT_PERMUTATIONS = [(3, 1), (1, 1), (0, 1), (True, 2), (1.0, 2)]


@pytest.mark.parametrize("images", NOT_PERMUTATIONS)
def test_inverse_perm_refuses_a_non_permutation(images):
    with pytest.raises(ValueError, match="not a permutation of 1..2"):
        inverse_perm(images)
    assert inverse_perm((2, 3, 1)) == (3, 1, 2)


@pytest.mark.parametrize("images", NOT_PERMUTATIONS)
def test_cycle_type_refuses_a_non_permutation(images):
    # (1, 1) was read as two fixed points
    with pytest.raises(ValueError, match="not a permutation of 1..2"):
        cycle_type(images)
    assert cycle_type((2, 1)) == (2,)


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
    assert act(a, act(b, {t: 1})) == act(compose(a, b), {t: 1})


def _shapes_and_perms(top=5):
    for m in range(top + 1):
        for shape in partitions(m):
            yield shape, perms(m)


def test_natural_columns_are_the_action_on_each_standard_tableau():
    for shape, sigmas in _shapes_and_perms():
        basis = standard_tableaux(shape)
        for sigma in sigmas:
            cols = natural_columns(sigma, shape)
            assert len(cols) == len(basis)
            for t, col in zip(basis, cols):
                assert all(type(c) is int and c for _, c in col)
                assert {basis[i]: c for i, c in col} == act(sigma, {t: 1})


def _times(a_cols, b_cols):
    """Columns of A B from the (row, value) columns of A and B."""
    out = []
    for col in b_cols:
        acc = {}
        for i, c in col:
            for r, a in a_cols[i]:
                acc[r] = acc.get(r, 0) + a * c
        out.append({r: v for r, v in acc.items() if v})
    return out


def test_natural_columns_of_a_product_are_the_product_of_the_columns():
    # every permutation times each generator of S_m (the adjacent
    # transpositions and the long cycle), which by induction covers every
    # product
    for shape, sigmas in _shapes_and_perms():
        m = sum(shape)
        gens = [
            tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, m + 1))
            for i in range(1, m)
        ] + [tuple(range(2, m + 1)) + (1,)] if m else [()]
        for sigma in sigmas:
            for tau in gens:
                want = _times(natural_columns(sigma, shape), natural_columns(tau, shape))
                got = [dict(col) for col in natural_columns(compose(sigma, tau), shape)]
                assert got == want, (shape, sigma, tau)


def test_trace_of_natural_columns_is_the_character():
    for shape, sigmas in _shapes_and_perms():
        for sigma in sigmas:
            cols = natural_columns(sigma, shape)
            trace = sum(c for j, col in enumerate(cols) for i, c in col if i == j)
            assert trace == sym_character(shape, cycle_type(sigma)), (shape, sigma)


def test_rep_matrix_is_the_dense_natural_columns():
    for shape, sigmas in _shapes_and_perms(4):
        for sigma in sigmas:
            mat = rep_matrix(list(sigma), list(shape))
            assert all(type(v) is Fraction for row in mat for v in row)
            assert [
                {i: row[j] for i, row in enumerate(mat) if row[j]}
                for j in range(len(mat))
            ] == [dict(col) for col in natural_columns(sigma, shape)]


# Each call with a float or bool part or image, then the equal call of
# ints: True and 1.0 compare and hash like 1.
LOOKALIKES = [
    (standard_tableaux, ((2.0, 1),), ((2, 1),)),
    (standard_tableaux, ((True, 1),), ((1, 1),)),
    (sym_character, ((2.0, 1), (2, 1)), ((2, 1), (2, 1))),
    (sym_character, ((2, 1), (True, 1, 1)), ((2, 1), (1, 1, 1))),
    (natural_columns, ((2, 1, 3), (2.0, 1)), ((2, 1, 3), (2, 1))),
    (natural_columns, ((True, 2, 3), (2, 1)), ((1, 2, 3), (2, 1))),
    (character_column, ((2.0, 1),), ((2, 1),)),
    (character_column, ((True, 1),), ((1, 1),)),
]


@pytest.mark.parametrize("entry, bad, good", LOOKALIKES)
def test_a_lookalike_argument_is_refused_cold_and_warm(entry, bad, good):
    # each entry checks before it reads its cache, so the answer cached for
    # the equal good argument is never given to the bad one
    for cached in (
        symrep._standard_tableaux,
        symrep._sym_character,
        symrep._natural_columns,
        symrep._character_column,
    ):
        cached.cache_clear()
    with pytest.raises(ValueError):
        entry(*bad)
    entry(*good)
    with pytest.raises(ValueError):
        entry(*bad)


BAD_FILLINGS = [
    ((1.0, 2),),
    ((True, 2),),
    ((1, 1),),
    ((3,),),
    ((0, 1),),
    ((1,), (2, 3)),
    ((),),
]


def test_straighten_refuses_a_bad_filling_and_caches_none():
    # the filling is checked on a cache miss, so from a cleared cache each
    # bad filling is a miss, and none of them may be stored
    symrep._straighten.cache_clear()
    for filling in BAD_FILLINGS:
        with pytest.raises(ValueError):
            straighten(filling)
    assert symrep._straighten.cache_info().currsize == 0
    expansion = straighten(((1, 2),))
    assert expansion == {((1, 2),): 1}
    assert [type(x) for t in expansion for row in t for x in row] == [int, int]


@pytest.mark.parametrize("coeff", [0.1, 1.0, True])
def test_act_refuses_an_inexact_coefficient(coeff):
    with pytest.raises(ValueError, match="coefficient must be exact"):
        act((1,), {((1,),): coeff})
    assert act((1,), {((1,),): Fraction(1, 3)}) == {((1,),): Fraction(1, 3)}
