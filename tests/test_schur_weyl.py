"""The Schur–Weyl trace identity of `verify --suite schur-weyl`: its
tensor-space dimensions on known values, and the identity on every class
of all nine families at k <= 9.  The identity, and D and b per family,
are stated where they live, in diagramalg.oracles."""

import pytest

from diagramalg.oracles import (
    _general_linear_dim,
    _orthogonal_dim,
    _suite_schur_weyl,
    _symmetric_dim,
)
from diagramalg.diagrams import FAMILIES


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
        failed = []
        _suite_schur_weyl(family, k, None, None, failed.append)
        assert failed == [], (family, k)
