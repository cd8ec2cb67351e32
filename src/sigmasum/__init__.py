"""sigmasum: partial countable summation and its algebra.

Families (countable multisets with omega-repeated parts), summation instances
with budgeted law checking, the standard constructions (products, equalisers,
chain colimits, internal homs), the free strong quotient of the partition-sum
congruence, and a net-summation engine for concrete topological monoids.

Importing the package loads no submodule: each export below is imported from
its submodule on first access (PEP 562), so a caller pays only for the
modules it uses.
"""
import importlib

_EXPORTS = {
    "family": (
        "BRACKETING", "FLATTENING", "UNCONSTRAINED", "BlockSumEngine", "Caps",
        "EMPTY", "Family", "OMEGA", "Partition", "canonical_key",
        "canonicalize", "disjoint_union", "enumerate_partitions",
        "families_within", "format_family_literal", "intersect", "is_omega",
        "is_subfamily", "map_family", "static_truncation", "subfamilies",
    ),
    "core": (
        "Budget", "CarrierError", "ClassElement", "ConstructionError",
        "Defined", "FiniteCarrier", "Hom", "HomVerdict",
        "HomVerificationError", "QuotientInstance", "SigmaInstance",
        "SumResult", "SymbolicCarrier", "UNDEFINED", "budget_families",
        "check_hom", "compose_homs", "verify_hom",
    ),
    "instances": (
        "ElementCodec", "FiniteMonoid", "INFINITY", "cyclic_instance",
        "cyclic_monoid", "discrete_instance", "ext_nat_instance",
        "extended_sum_discrete", "int_group_instance", "pm_instance",
        "powerset_parity_instance", "real_abs_instance", "restrict_instance",
        "unit_interval_instance",
    ),
    "constructions": (
        "BilinearVerdict", "HomElement", "chain_colimit", "check_bilinear",
        "equaliser", "evaluation", "internal_hom", "left_unitor", "pairing",
        "product", "projections", "right_unitor", "unit_instance",
    ),
    "free_strong": (
        "CongruenceCaps", "CongruenceGraph", "CongruenceVerdict",
        "Factorization", "LeadsTo", "equivalent", "factorize",
        "free_strong_quotient", "intersect_instances", "leads_to",
    ),
    "net_sum": (
        "AbsoluteBound", "CertificateError", "GeneratorFamily", "NetVerdict",
        "alternating_harmonic", "extended_sum_real", "finite_terms",
        "geometric", "parse_generator_spec", "power_terms", "reordered",
    ),
    "checker": (
        "LawReport", "LawVerdict", "check_ft_and_group",
        "check_hausdorff_axioms", "check_strong", "check_weak",
        "conclude_flavor", "shrink_family",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    """Import a submodule, or the submodule that defines an export, on first
    access; an export is then cached as a package attribute."""
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = importlib.import_module(f"{__name__}.{module}")
    if name == module:
        return submodule
    value = globals()[name] = getattr(submodule, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
