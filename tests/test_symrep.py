from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

import diagramalg as dalg
from diagramalg import errors, symrep
from diagramalg.characters import gamma_diagram, gamma_perm
from diagramalg.diagrams import identity_diagram, perm_diagram
from diagramalg.coeff import ONE
from diagramalg.irreps import (
    SetPartitionTableau,
    SymmetricMDiagram,
    act_twisted,
    tableau_from_pair,
)
from diagramalg.partitions import check_partition, divisors, partitions
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


def test_standard_tableaux_are_the_standard_fillings_by_column_word():
    # every filling of the shape by a permutation of 1..m that is_standard
    # accepts, in column-word order
    for m in range(8):
        for shape in partitions(m):
            starts = [sum(shape[:r]) for r in range(len(shape))]
            fillings = (
                tuple(perm[s : s + part] for s, part in zip(starts, shape))
                for perm in perms(m)
            )
            expected = sorted(filter(is_standard, fillings), key=symrep._column_word)
            assert standard_tableaux(shape) == tuple(expected), shape


def test_a_1500_cell_row_or_column_has_one_tableau():
    # the walk up Young's lattice takes no frame per cell
    entries = tuple(range(1, 1501))
    assert standard_tableaux((1500,)) == ((entries,),)
    assert standard_tableaux((1,) * 1500) == (tuple((e,) for e in entries),)


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
    # not tableaux: a float entry and an empty row, which straighten refuses
    assert is_standard(((1.0, 2),)) is False
    assert is_standard(((1, 2), ())) is False
    for t in (None, 5, "x", [[1, 2]], [(1, 2)], ((1, 2), 3), ((1,), (2, (3,)))):
        assert is_standard(t) is False


def test_tableau_shape_and_column_word():
    assert symrep._check_tableau(T1) == (3, 2)
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
    sym_character.cache_clear()
    assert sym_dim((1200,)) == 1
    assert sym_dim((1199, 1)) == 1199
    assert sym_dim((1,) * 1200) == 1
    # f^lam = f^(lam transposed)
    assert sym_character((3,) * 400, (1,) * 1200) == sym_dim((400, 400, 400))


def test_a_class_of_600_rim_hooks_needs_no_recursion():
    # one level per part of mu, 600 dominoes deep on a cleared cache
    sym_character.cache_clear()
    assert sym_character((1200,), (2,) * 600) == 1
    # every vertical domino has leg length 1, so the column reads (-1)^601
    assert sym_character((1,) * 1202, (2,) * 601) == -1


def test_straighten_of_a_long_reversed_row_needs_no_recursion():
    # a reversed row of 60 reaches the standard one through a chain of
    # Garnir moves over a thousand long; every filling of one row is
    # n_standard
    row = tuple(range(60, 0, -1))
    assert straighten((row,)) == {(row[::-1],): 1}


def test_a_straightening_keeps_no_filling_it_reached_once_it_returns():
    # each miss memoises the fillings it reaches for itself alone, so after
    # it returns no mapping of the module holds one of them; only
    # _straighten's cache keeps the expansion of the filling it was given
    def holds_a_filling(mapping):
        return any(
            type(key) is tuple and key and all(type(row) is tuple for row in key)
            for key in mapping
        )

    symrep._straighten.cache_clear()
    row = tuple(range(12, 0, -1))
    assert straighten((row,)) == {(row[::-1],): 1}
    assert straighten(((3, 1, 2), (6, 4), (5,))) is not None
    assert symrep._straighten.cache_info().currsize == 2
    held = [
        name
        for name, value in vars(symrep).items()
        if isinstance(value, Mapping) and holds_a_filling(value)
    ]
    assert held == []


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
    # the degree is |kappa|, so no call passes one
    for kappa, m in (((2, 1), 3), ((2, 1), 5), ((1,), True), ((2,), 2.0)):
        with pytest.raises(TypeError):
            perm_from_cycle_type(kappa, m)


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
    (straighten, (((1.0, 2),),), (((1, 2),),)),
    (straighten, (((2, True),),), (((2, 1),),)),
]


@pytest.mark.parametrize("entry, bad, good", LOOKALIKES)
def test_a_lookalike_argument_is_refused_cold_and_warm(entry, bad, good):
    # each entry checks before it reads its cache, so the answer cached for
    # the equal good argument is never given to the bad one
    dalg.clear_caches()
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
    # straighten checks the filling before the cache is read, so from a
    # cleared cache none of the bad fillings may be stored
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


class _Pairs(Mapping):
    """A vector given as its (key, coefficient) pairs, so that a twisted
    key may hold a tableau that does not hash."""

    def __init__(self, *pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        for k, c in self.pairs:
            if k == key:
                return c
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


W2 = SymmetricMDiagram(2, [(1,), (2,)], [(1,), (2,)])


def pair_tableau(t):
    return tableau_from_pair(W2, t)


def twisted_key_tableau(t):
    return act_twisted(identity_diagram(2), _Pairs(((W2, t), 1)))

# each entry of the symmetric-group layer with good arguments; every
# argument in turn is swapped for each value of HOSTILE
ENTRIES = [
    (check_partition, ((2, 1),)),
    (divisors, ((4, 2),)),
    (standard_tableaux, ((2, 1),)),
    (sym_dim, ((2, 1),)),
    (sym_character, ((2, 1), (3,))),
    (character_column, ((2, 1),)),
    (natural_columns, ((2, 3, 1), (2, 1))),
    (rep_matrix, ((2, 3, 1), (2, 1))),
    (is_standard, (((1, 3), (2,)),)),
    (straighten, (((2, 3), (1,)),)),
    (act, ((2, 3, 1), {((1, 3), (2,)): 1})),
    (cycle_type, ((2, 3, 1),)),
    (inverse_perm, ((2, 3, 1),)),
    (perm_from_cycle_type, ((2, 1),)),
    (perm_diagram, ((2, 3, 1),)),
    (gamma_perm, ((2, 1),)),
    (gamma_diagram, ((2, 1),)),
    (pair_tableau, (((1, 2),),)),
    (twisted_key_tableau, (((1, 2),),)),
]

# every other callable of the package, classes included, with good
# arguments at k <= 2
D2 = identity_diagram(2)
W21 = SymmetricMDiagram(2, [(1,), (2,)], [(1,)])
TAB2 = SetPartitionTableau(2, [(1,)], [[(2,)]])
LABELS = [(), (1,)]
ENTRIES += [
    (dalg.Diagram, (2, [(1, 3), (2, 4)])),
    (dalg.Element, (2, "Partition", {D2: 1})),
    (dalg.LaurentPoly, ({0: 1},)),
    (SymmetricMDiagram, (2, [(1,), (2,)], [(1,)])),
    (SetPartitionTableau, (2, [(1,)], [[(2,)]])),
    (dalg.CharacterTable, ("Partition", 1, LABELS, LABELS, [[1, 1], [0, 1]])),
    (dalg.ConcatResult, (D2, 0)),
    (dalg.ConjugateResult, (W21, 1, 0, (1,))),
    (dalg.act_natural, (D2, {TAB2: 1}, "Partition")),
    (dalg.act_tableau, (D2, TAB2)),
    (dalg.act_twisted, (D2, {(W21, ((1,),)): 1}, "Partition")),
    (dalg.algebra_dim, ("Partition", 2)),
    (dalg.bell, (3,)),
    (dalg.binom, (3, 1)),
    (dalg.catalan, (2,)),
    (dalg.character_oracle, ("Partition", 2, (1,), (1,))),
    (dalg.character_table, ("Partition", 2)),
    (dalg.class_diagram, ("Partition", 2, (1,))),
    (dalg.class_labels, ("Partition", 2)),
    (dalg.column_trace, ([{0: ONE}],)),
    (dalg.compose_columns, ([{0: ONE}], [{0: ONE}])),
    (dalg.concat, (D2, D2)),
    (dalg.conjugate, (D2, W21)),
    (dalg.double_factorial, (5,)),
    (dalg.enumerate_basis, ("Partition", 2)),
    (dalg.enumerate_sspt, ("Partition", 2, (1,))),
    (dalg.enumerate_symmetric, ("Partition", 2, 1)),
    # the one cap rule, which the capped entries and verify suites call
    (dalg.diagrams._check_cap, ("enumerate_basis", "Partition", 2)),
    (dalg.f_coeff, ("Partition", (1,), (1,))),
    (dalg.f_coeff_planar, ("TemperleyLieb", 2, 0)),
    (dalg.family_generators, ("Partition", 2)),
    (dalg.fixed_points, ("Partition", 2, 1, (1, 1))),
    (dalg.format_diagram, (D2,)),
    (dalg.format_partition, ((2, 1),)),
    (dalg.generator, ("S", 1, 2)),
    (dalg.identity_diagram, (2,)),
    (dalg.in_family, (D2, "Partition")),
    (dalg.irr_character, ("Partition", 2, (1,), (1,))),
    (dalg.is_planar, (D2,)),
    (dalg.lambda_star_labels, ("Partition", 2)),
    (dalg.multiplicities, ((2, 1),)),
    (dalg.normalize_family, ("Partition",)),
    (dalg.parse_diagram, ("1 1' | 2 2'", 2)),
    (dalg.partitions, (3,)),
    (dalg.rank, (D2,)),
    (dalg.rank_set, ("Partition", 2)),
    (dalg.rep_columns, (D2, "Partition", 2, (1,), "Tableau")),
    (dalg.rep_matrix_irrep, (D2, "Partition", 2, (1,), "Twisted")),
    (dalg.size_cap, ()),
    (dalg.stirling2, (3, 2)),
    (dalg.table_determinant_check, ("Partition", 2)),
    (dalg.tableau_from_pair, (W21, ((1,),))),
    (dalg.transpose, (D2,)),
]
# an exception type takes any message
ENTRIES += [
    (value, ("message",))
    for name, value in sorted(vars(errors).items())
    if isinstance(value, type) and issubclass(value, Exception)
]

# the methods that read an argument, each on a fixed value
POLY = dalg.LaurentPoly({0: 1, 1: 2})


def poly_evaluate(n):
    return POLY.evaluate(n)


def element_evaluate(n):
    return dalg.Element.identity(2, "partition").evaluate(n)


def poly_shift(by):
    return POLY.shift(by)


def table_factor(*args):
    return dalg.CharacterTable(*args).factor()


def table_determinant(*args):
    return dalg.CharacterTable(*args).determinant()


def table_to_json(*args):
    return dalg.CharacterTable(*args).to_json()


def table_to_text(*args):
    return dalg.CharacterTable(*args).to_text()


def table_to_csv(*args):
    return dalg.CharacterTable(*args).to_csv()


TABLE = ("Partition", 1, LABELS, LABELS, [[1, 1], [0, 1]])
ENTRIES += [
    (poly_evaluate, (3,)),
    (element_evaluate, (Fraction(1, 2),)),
    (poly_shift, (1,)),
    (dalg.LaurentPoly.from_json_obj, ([{"exp": 0, "num": 1, "den": 2}],)),
    (table_factor, TABLE),
    (table_determinant, TABLE),
    (table_to_json, TABLE),
    (table_to_text, TABLE),
    (table_to_csv, TABLE),
]
# last, so the earlier entries keep their places in the test ids
ENTRIES.append((dalg.clear_caches, ()))

HOSTILE = [
    None, True, 1.5, "x", -1, 0, (), [], ((1, 2), 3), ((1,), (2, (3,))),
    {1: 2}, object(), Fraction(1, 2), [[None]], b"\0", [(1, 2)], {2, 1},
    [[1, 2]], ((1.0, 2),), ((1, 2), ()),
]


def test_the_hostile_table_covers_every_public_callable():
    covered = {id(entry) for entry, _ in ENTRIES}
    public = (getattr(dalg, name) for name in dalg.__all__)
    missing = [f for f in public if callable(f) and id(f) not in covered]
    assert missing == []


@pytest.mark.parametrize("entry, good", ENTRIES)
def test_a_hostile_argument_is_answered_or_refused_cold_and_warm(entry, good):
    # every call returns or raises ValueError or a DiagramAlgebraError: from
    # cleared caches, and again once the good arguments are cached
    faults = []
    for i in range(len(good)):
        for value in HOSTILE:
            args = good[:i] + (value,) + good[i + 1 :]
            for warm in (False, True):
                dalg.clear_caches()
                if warm:
                    entry(*good)
                try:
                    entry(*args)
                except (ValueError, errors.DiagramAlgebraError):
                    pass
                except Exception as e:
                    faults.append((i, value, warm, type(e).__name__, str(e)))
    assert faults == []
