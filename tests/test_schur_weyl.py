"""The Schur–Weyl trace identity: a check of every character table that
reaches past the enumeration cap.

The class element of (kappa, s) acts on the tensor space T^(x k) of a
group G.  Each cycle of gamma_kappa contributes dim T = b(N) to its trace,
and each normalized tail factor contributes 1.  Once N >= 2k, Schur–Weyl
duality splits T^(x k) into the algebra's modules, lambda* with
multiplicity D_lambda*(N), the dimension of a G-module.  So for every
class kappa,

    sum over lambda* of D_lambda*(N) * chi^lambda*(kappa) = b(N) ** len(kappa).

Both sides are polynomials in N of degree at most k, so the k + 1 values
N = 2k .. 3k decide the identity.  The dimensions are integer products
over the cells of a partition, from the partitions alone; nothing here
reads F, fixed points or a module.

    family           G on T              D_lambda*(N)                 b(N)
    Partition        S_N on C^N          f^(N - m, lambda*)           N
    SymmetricGroup   GL_N on C^N         s_lambda*(1^N)               N
    Rook             GL_N on C^N + C     s_lambda*(1^N)               N + 1
    Brauer           O(N) on C^N         El Samra and King            N
    RookBrauer       O(N) on C^N + C     El Samra and King            N + 1
    TemperleyLieb    SL_2 on C^2         m + 1                        2
    Motzkin          SL_2 on C^2 + C     m + 1                        3
    PlanarRook       GL_1 on C + C       1                            2
    PlanarPartition  SL_2 on C^2 (x) C^2 2m + 1                       4

Here m = |lambda*|, and the planar label (m,) stands for its SL_2 or GL_1
weight.  schur_weyl_failures(family, k) is importable on its own, so a
run past tier-1 can call it at a larger k.
"""

from math import factorial, prod

import pytest

from diagramalg.characters import character_table
from diagramalg.diagrams import FAMILIES


def _cells(lam):
    """The cells (i, j) of lam, 1-indexed."""
    return [(i, j) for i, part in enumerate(lam, 1) for j in range(1, part + 1)]


def _transpose(lam):
    width = lam[0] if lam else 0
    return tuple(sum(part >= j for part in lam) for j in range(1, width + 1))


def _hook_product(lam):
    cols = _transpose(lam)
    return prod(lam[i - 1] - j + cols[j - 1] - i + 1 for i, j in _cells(lam))


def _symmetric_dim(lam, n):
    # f^(n - m, lam): the hook length formula for S_n
    return factorial(n) // _hook_product((n - sum(lam),) + lam)


def _general_linear_dim(lam, n):
    # s_lam(1^n): the hook content formula for GL_n
    return prod(n + j - i for i, j in _cells(lam)) // _hook_product(lam)


def _orthogonal_dim(lam, n):
    # El Samra and King for O(n); a part past the length of lam counts as 0
    pad = (0,) * sum(lam)
    rows, cols = lam + pad, _transpose(lam) + pad
    return prod(
        n + rows[i - 1] + rows[j - 1] - i - j
        if i <= j
        else n - cols[i - 1] - cols[j - 1] + i + j - 2
        for i, j in _cells(lam)
    ) // _hook_product(lam)


# family -> (D(lambda*, N), b(N))
TENSOR_SPACES = {
    "Partition": (_symmetric_dim, lambda n: n),
    "SymmetricGroup": (_general_linear_dim, lambda n: n),
    "Rook": (_general_linear_dim, lambda n: n + 1),
    "Brauer": (_orthogonal_dim, lambda n: n),
    "RookBrauer": (_orthogonal_dim, lambda n: n + 1),
    "TemperleyLieb": (lambda lam, n: sum(lam) + 1, lambda n: 2),
    "Motzkin": (lambda lam, n: sum(lam) + 1, lambda n: 3),
    "PlanarRook": (lambda lam, n: 1, lambda n: 2),
    "PlanarPartition": (lambda lam, n: 2 * sum(lam) + 1, lambda n: 4),
}


def schur_weyl_failures(family, k):
    """The cells (kappa, N, left side, right side) of character_table(family,
    k) at which the identity fails for N = 2k .. 3k; empty when it holds."""
    table = character_table(family, k)
    dim, base = TENSOR_SPACES[table.family]
    failures = []
    for n in range(2 * k, 3 * k + 1):
        dims = [dim(lam, n) for lam in table.row_labels]
        for c, kappa in enumerate(table.col_labels):
            left = sum(d * row[c] for d, row in zip(dims, table.values))
            right = base(n) ** len(kappa)
            if left != right:
                failures.append((kappa, n, left, right))
    return failures


def test_the_dimensions_agree_with_known_values():
    # S_5 on (3, 2): 5; GL_3 on (2, 1): 8; O(3) on (1,): 3 and (2,): 5 (the
    # traceless symmetric square); O(4) on (1, 1): 6
    assert _symmetric_dim((2,), 5) == 5
    assert _general_linear_dim((2, 1), 3) == 8
    assert [_orthogonal_dim(lam, 3) for lam in ((), (1,), (2,))] == [1, 3, 5]
    assert _orthogonal_dim((1, 1), 4) == 6


@pytest.mark.parametrize("family", FAMILIES)
def test_schur_weyl_identity_at_every_k_to_9(family):
    for k in range(1, 10):
        assert schur_weyl_failures(family, k) == [], (family, k)
