"""Exact-arithmetic toolkit for finite categories with morphism partitions.

Finite small categories carry partitions of their morphism sets whose
composition-fiber counts are constant along each block; the package
verifies those axioms, computes the structure constants and the associated
block-sum algebras, moves between groupoids, complete-graph schemes and
their thickenings, and classifies fiberwise-linear extensions through the
degree-2 cohomology of the factorization complex.
"""

from .fincat import (
    FinCategory,
    Functor,
    Groupoid,
    SchemoidsError,
    as_groupoid,
    build_category,
    join,
    opposite,
    product,
    serialize,
    terminal_category,
    validate_category,
    validate_functor,
)
from .schemoid import (
    AxiomViolation,
    Involution,
    MorphismPartition,
    QuasiSchemoid,
    SchemoidMorphism,
    StructureConstantTable,
    analyze_thinness,
    check_association,
    check_concatenation,
    compose_schemoid_morphisms,
    discrete_partition,
    identity_morphism,
    is_basic,
    is_unital,
    make_partition,
    schemoid_isomorphic,
    schemoid_join,
    schemoid_morphism,
    schemoid_morphisms,
    schemoid_product,
    verify_quasi_schemoid,
)
from .schemes import (
    AssociationScheme,
    CoherentConfiguration,
    group_scheme,
    hamming,
    j_embed,
    orbit_configuration,
    validate_scheme,
)
from .bridges import (
    canonical_groupoid_witness,
    faithfulness_roundtrip,
    k_discrete,
    phi_psi_check,
    r_tilde,
    s_tilde,
    s_tilde_on_functor,
)
from .algebra import (
    AlgebraMap,
    PrimeField,
    Rationals,
    SchemoidAlgebra,
    check_algebra_hom,
    ring_from_name,
    schemoid_algebra,
    terwilliger,
)
from .admissible import (
    AdmissibilityReport,
    condition_P,
    induced_algebra_map,
    is_admissible,
    multiplicities,
    verify_sum_identity,
)
from .extensions import (
    Cochain2,
    ExtensionCategory,
    NaturalSystem,
    build_extension,
    bw_cohomology,
    bw_differentials,
    equivalence,
    extensions_equivalent,
    induced_system,
    is_split,
    lift_involution,
    lift_schemoid,
    normalize_cocycle,
    trivial_system,
    validate_natural_system,
)
from .thicken import (
    category_from_matrix,
    projection_phi,
    sc_functor,
    sigma_prime,
    thicken_involution,
    thicken_scheme,
)

__version__ = "0.1.0"
