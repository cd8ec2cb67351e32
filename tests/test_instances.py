from fractions import Fraction
from functools import reduce

import pytest

from sigmasum.core import (
    Budget,
    CarrierError,
    ConstructionError,
    Defined,
    FiniteCarrier,
    UNDEFINED,
    budget_families,
    check_hom,
)
from sigmasum.family import EMPTY, Family, OMEGA, disjoint_union, map_family
from sigmasum.instances import (
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

BUDGET = Budget(max_finite_size=4, max_omega_elems=1, trials=0, seed=7)


# -- three-element sign instance ----------------------------------------------


def test_pm_surplus_table():
    pm = pm_instance()
    assert pm.sum(Family.of("+", "+", "-")) == Defined("+")
    assert pm.sum(Family.of("+", "-")) == Defined("0")
    assert pm.sum(Family.of("-", "-", "+")) == Defined("-")
    assert pm.sum(Family.of("+", "+")) == UNDEFINED
    assert pm.sum(Family.of("+")) == Defined("+")


def test_pm_omega_cases():
    pm = pm_instance()
    assert pm.sum(Family.from_counts([], omega=["+"])) == UNDEFINED
    assert pm.sum(Family.from_counts([], omega=["0"])) == Defined("0")
    assert pm.sum(Family.from_counts([("+", 1)], omega=["0"])) == Defined("+")
    assert pm.sum(Family.from_counts([("+", 1)], omega=["-"])) == UNDEFINED


# -- powerset parity ------------------------------------------------------------


def _sym_diff_fold(fam):
    sets = [e for e, c in fam.finite for _ in range(c)]
    return reduce(lambda a, b: a ^ b, sets, frozenset())


def test_parity_formula_examples():
    par = powerset_parity_instance(("a", "b"))
    A, AB = frozenset({"a"}), frozenset({"a", "b"})
    assert par.sum(Family.of(A, A)) == Defined(frozenset())
    assert par.sum(Family.of(A, AB)) == Defined(frozenset({"b"}))
    assert par.sum(Family.from_counts([], omega=[A])) == UNDEFINED
    assert par.sum(Family.from_counts([], omega=[frozenset()])) == \
        Defined(frozenset())


def test_parity_finite_sums_equal_symmetric_difference_oracle():
    par = powerset_parity_instance(("a", "b"))
    subsets = par.carrier.elements
    for x in subsets:
        for y in subsets:
            for z in subsets:
                fam = Family.of(x, y, z)
                assert par.sum(fam) == Defined(_sym_diff_fold(fam))


def test_parity_rejects_foreign_subsets():
    par = powerset_parity_instance(("a",))
    with pytest.raises(CarrierError):
        par.sum(Family.of(frozenset({"z"})))


# -- exact rationals -------------------------------------------------------------


def test_real_finite_sum():
    real = real_abs_instance()
    assert real.sum(Family.of(Fraction(1), Fraction(2), Fraction(3))) == \
        Defined(Fraction(6))


def test_real_zero_padding_summable():
    real = real_abs_instance()
    fam = Family.from_counts([(Fraction(1), 1)], omega=[Fraction(0)])
    assert real.sum(fam) == Defined(Fraction(1))


def test_real_omega_nonzero_not_summable():
    real = real_abs_instance()
    # partial sums of omega copies of 1 are unbounded
    assert real.sum(Family.from_counts([], omega=[Fraction(1)])) == UNDEFINED


# -- integers as a group ----------------------------------------------------------


def test_int_group_inverse_pair():
    ig = int_group_instance()
    assert ig.sum(Family.of(5, -5)) == Defined(0)


def test_int_group_finite_totality_sample():
    ig = int_group_instance()
    assert ig.sum(Family.of(3, 4)) == Defined(7)


def test_int_group_negation_preserves_sums():
    ig = int_group_instance()
    fam = Family.of(1, 2)
    negated = map_family(ig.inversion, fam)
    assert ig.sum(negated) == Defined(-3)
    assert ig.sum(negated).value == -ig.sum(fam).value
    assert check_hom(ig.inversion, ig, ig, budget_families(ig, BUDGET)).ok


# -- naturals with infinity --------------------------------------------------------


def test_extnat_total_sums():
    en = ext_nat_instance()
    assert en.sum(Family.of(1, 2, 3)) == Defined(6)
    assert en.sum(Family.from_counts([], omega=[1])) == Defined(INFINITY)
    assert en.sum(Family.from_counts([], omega=[0])) == Defined(0)
    assert en.sum(Family.of(INFINITY, 3)) == Defined(INFINITY)


def test_extnat_supremum_oracle():
    # supremum of finite partial sums: bounded iff no omega-repeated nonzero
    en = ext_nat_instance()
    fam = Family.from_counts([(2, 3)], omega=[1])
    assert en.sum(fam) == Defined(INFINITY)
    assert en.sum(Family.from_counts([(2, 3)])) == Defined(6)


def test_extnat_zero_sum_forces_zeros():
    en = ext_nat_instance()
    for fam in (Family.of(0, 0), Family.from_counts([], omega=[0]), EMPTY):
        assert en.sum(fam) == Defined(0)
    assert en.sum(Family.of(0, 1)).value != 0


# -- restriction --------------------------------------------------------------------


def test_interval_restriction_spec_witness():
    iv = unit_interval_instance()
    whole = Family.of(Fraction(3, 4), Fraction(1, 2), Fraction(-1, 4))
    sub = Family.of(Fraction(3, 4), Fraction(1, 2))
    assert iv.sum(whole) == Defined(Fraction(1))
    assert iv.sum(sub) == UNDEFINED


def test_restrict_pm_to_nonnegative_signs():
    pm = pm_instance()
    sub = restrict_instance(pm, FiniteCarrier(("0", "+")), name="pm+")
    assert sub.sum(Family.of("+")) == Defined("+")
    assert sub.sum(Family.of("+", "+")) == UNDEFINED
    # the embedding is a hom by construction
    assert check_hom(lambda e: e, sub, pm, budget_families(sub, BUDGET)).ok


def test_restrict_requires_zero_preimage():
    pm = pm_instance()
    with pytest.raises(ConstructionError):
        restrict_instance(pm, FiniteCarrier(("+",)))


def test_restriction_value_outside_carrier_is_undefined():
    iv = unit_interval_instance()
    assert iv.sum(Family.of(Fraction(3, 4), Fraction(3, 4))) == UNDEFINED


# -- modular fixture -----------------------------------------------------------------


def test_cyclic_instance_fold():
    z4 = cyclic_instance(4)
    assert z4.sum(Family.of(3, 3)) == Defined(2)
    assert z4.sum(Family.from_counts([], omega=[0])) == Defined(0)
    assert z4.sum(Family.from_counts([], omega=[2])) == UNDEFINED
    assert z4.inversion(3) == 1


# -- zero padding across shipped instances (value preservation) -----------------------


@pytest.mark.parametrize("make", [
    pm_instance,
    lambda: powerset_parity_instance(("a", "b")),
    real_abs_instance,
    int_group_instance,
    ext_nat_instance,
    unit_interval_instance,
])
def test_zero_padding_and_stripping_preserve_sums(make):
    inst = make()
    for fam in budget_families(inst, Budget(max_finite_size=3,
                                            max_omega_elems=1, trials=0)):
        r = inst.sum(fam)
        if not r.defined:
            continue
        for k in (1, 2, OMEGA):
            assert inst.sum(disjoint_union(
                fam, Family.from_counts([(inst.zero, k)]))) == r
        assert inst.sum(fam.without(inst.zero)) == r
