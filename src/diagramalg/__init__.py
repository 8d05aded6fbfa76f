"""Diagram algebras: set-partition diagram bases, irreducible modules,
and character tables in exact arithmetic."""

from .errors import (
    AlgebraMismatch,
    CapExceeded,
    DegreeMismatch,
    DiagramAlgebraError,
    DiagramSyntaxError,
    DuplicateVertex,
    FamilyUnsupported,
    IndexOutOfRange,
    InvalidCap,
    InvalidClassLabel,
    InvalidRank,
    LabelNotInFamily,
    MissingVertex,
    RankMismatch,
    ShapeMismatch,
    SizeMismatch,
    ZeroSubstitutionWithNegativeExponent,
)

from .diagrams import (
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
    ConcatResult,
    Diagram,
    algebra_dim,
    concat,
    enumerate_basis,
    enumeration_cap,
    family_generators,
    format_diagram,
    generator,
    identity_diagram,
    in_family,
    is_planar,
    normalize_family,
    parse_diagram,
    perm_diagram,
    rank,
    size_cap,
    transpose,
)

from .partitions import (
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

from .coeff import Element, LaurentPoly

from .symrep import (
    act,
    cycle_type,
    inverse_perm,
    is_standard,
    perm_from_cycle_type,
    rep_matrix,
    standard_tableaux,
    straighten,
    sym_character,
    sym_dim,
)

from .irreps import (
    ConjugateResult,
    SetPartitionTableau,
    SymmetricMDiagram,
    act_natural,
    act_tableau,
    act_twisted,
    column_trace,
    compose_columns,
    conjugate,
    enumerate_sspt,
    enumerate_symmetric,
    rep_columns,
    rep_matrix_irrep,
    tableau_from_pair,
)

from .characters import (
    REFERENCE_TABLES,
    CharacterTable,
    character_oracle,
    character_table,
    class_diagram,
    class_labels,
    f_coeff,
    f_coeff_planar,
    fixed_points,
    format_partition,
    gamma_diagram,
    gamma_perm,
    irr_character,
    table_determinant_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
