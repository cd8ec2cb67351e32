"""sigmasum: partial countable summation and its algebra.

Families (countable multisets with omega-repeated parts), summation instances
with budgeted law checking, the standard constructions (products, equalisers,
chain colimits, internal homs), the free strong quotient of the partition-sum
congruence, and a net-summation engine for concrete topological monoids.
"""

from .family import (
    BRACKETING,
    FLATTENING,
    UNCONSTRAINED,
    BlockSumEngine,
    Caps,
    EMPTY,
    Family,
    OMEGA,
    Partition,
    PartitionStream,
    canonical_key,
    canonicalize,
    disjoint_union,
    enumerate_partitions,
    families_within,
    format_family_literal,
    intersect,
    is_omega,
    is_subfamily,
    map_family,
    static_truncation,
    subfamilies,
)
from .core import (
    Budget,
    CarrierError,
    ClassElement,
    ConstructionError,
    Defined,
    FiniteCarrier,
    Hom,
    HomVerdict,
    HomVerificationError,
    QuotientInstance,
    SigmaInstance,
    SumResult,
    SymbolicCarrier,
    UNDEFINED,
    budget_families,
    check_hom,
    check_hom_over,
    compose_homs,
    kleene_equal,
    partition_sums,
    verify_hom,
)
from .instances import (
    ElementCodec,
    INFINITY,
    cyclic_instance,
    ext_nat_instance,
    int_group_instance,
    pm_instance,
    powerset_parity_instance,
    real_abs_instance,
    restrict_instance,
    unit_interval_instance,
)
from .constructions import (
    BilinearVerdict,
    HomElement,
    chain_colimit,
    check_bilinear,
    equaliser,
    evaluation,
    internal_hom,
    left_unitor,
    pairing,
    product,
    projections,
    right_unitor,
    unit_instance,
)
from .free_strong import (
    CongruenceCaps,
    CongruenceGraph,
    CongruenceVerdict,
    Factorization,
    LeadsTo,
    equivalent,
    factorize,
    free_strong_quotient,
    intersect_instances,
    leads_to,
)
from .net_sum import (
    AbsoluteBound,
    CertificateError,
    FiniteMonoid,
    GeneratorFamily,
    NetVerdict,
    alternating_harmonic,
    cyclic_monoid,
    discrete_instance,
    extended_sum_discrete,
    extended_sum_real,
    finite_terms,
    geometric,
    parse_generator_spec,
    power_terms,
    reordered,
)
from .checker import (
    LawReport,
    LawVerdict,
    check_ft_and_group,
    check_hausdorff_axioms,
    check_strong,
    check_weak,
    conclude_flavor,
    shrink_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
