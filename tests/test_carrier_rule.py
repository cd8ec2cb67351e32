"""A rule value outside the carrier is Undefined, so a sub-instance is its
parent's rule on a smaller carrier.

The oracles below are the construction rules as they were written before
that: each one checked by hand that a sum lands in its carrier, and forked on
finite versus symbolic carriers. Every new instance must agree with its
oracle on carrier membership and on the sum of every family of its budget
pool.
"""
from fractions import Fraction

import pytest

from sigmasum.core import (
    Budget,
    ClassElement,
    Defined,
    FiniteCarrier,
    Hom,
    SigmaInstance,
    SymbolicCarrier,
    UNDEFINED,
    budget_families,
    verify_hom,
)
from sigmasum.family import canonicalize, count_mul, map_family
from sigmasum.instances import (
    cyclic_instance,
    ext_nat_instance,
    int_group_instance,
    pm_instance,
    powerset_parity_instance,
    real_abs_instance,
    restrict_instance,
    unit_interval_instance,
)
from sigmasum.constructions import (
    HomElement,
    equaliser,
    internal_hom,
    unit_instance,
)
from sigmasum.free_strong import (
    CongruenceCaps,
    free_strong_quotient,
    intersect_instances,
)

BUDGET = Budget(max_finite_size=3, max_omega_elems=1, trials=20, seed=7)
SMALL = Budget(max_finite_size=2, max_omega_elems=1, trials=0, seed=7)
STRANGERS = ("x", Fraction(7), 9, -3, (0, 0), frozenset({"c"}))


# -- the deleted rules --------------------------------------------------------------


def old_equaliser(f, g):
    x = f.source
    if x.carrier.is_finite:
        carrier = FiniteCarrier(e for e in x.carrier.elements if f(e) == g(e))
    else:
        carrier = SymbolicCarrier(
            lambda e: e in x.carrier and f(e) == g(e),
            samples=tuple(e for e in x.samples() if f(e) == g(e)))

    def rule(fam):
        r = x.sum(fam)
        return r if r.defined and r.value in carrier else UNDEFINED

    return carrier, rule


def old_restriction(parent, carrier):
    if carrier.is_finite:
        inv = {e: e for e in carrier.elements}.get
    else:
        inv = lambda y: y if y in carrier else None  # noqa: E731

    def rule(fam):
        r = parent.sum(fam)
        if not r.defined:
            return UNDEFINED
        x = inv(r.value)
        return UNDEFINED if x is None else Defined(x)

    return carrier, rule


def old_internal_hom_rule(x, y, carrier):
    xs = x.carrier.elements

    def rule(fam):
        rows = []
        for a in xs:
            r = y.sum(canonicalize((h(a), c) for h, c in fam.items()))
            if not r.defined:
                return UNDEFINED
            rows.append((a, r.value))
        s = HomElement(tuple(rows))
        return Defined(s) if s in carrier else UNDEFINED

    return rule


def old_quotient_rule(quotient, strong, f):
    admitted = set()
    for comp in quotient.graph.components():
        if strong.sum(map_family(f.fn, comp[0])).defined:
            admitted.add(ClassElement(comp[0]))

    def rule(fam):
        union = canonicalize((e, count_mul(ce, c))
                             for cls, c in fam.items()
                             for e, ce in cls.rep.items())
        cls = quotient.class_of(union)
        if cls is None or cls not in admitted:
            return UNDEFINED
        return Defined(cls)

    return FiniteCarrier(admitted), rule


def old_intersection(instances):
    first, rest = instances[0], instances[1:]
    if all(i.carrier.is_finite for i in instances):
        carrier = FiniteCarrier(e for e in first.carrier.elements
                                if all(e in i.carrier for i in rest))
    else:
        carrier = SymbolicCarrier(
            lambda e: all(e in i.carrier for i in instances),
            samples=tuple(e for e in first.samples()
                          if all(e in i.carrier for i in rest)))

    def rule(fam):
        results = [i.sum(fam) for i in instances]
        head = results[0]
        if head.defined and all(r == head for r in results[1:]):
            return head
        return UNDEFINED

    return carrier, rule


# -- the cases ----------------------------------------------------------------------


def _clamp(e):
    return max(Fraction(-1), min(Fraction(1), e))


def equaliser_finite_swap():
    pm = pm_instance()
    ident = verify_hom(lambda e: e, pm, pm, BUDGET, name="id")
    swap = verify_hom({"+": "-", "-": "+", "0": "0"}.get, pm, pm, BUDGET)
    return equaliser(ident, swap), old_equaliser(ident, swap), pm


def equaliser_finite_low():
    # unverified homs make an agreement set that sums can leave: {0, 1} in Z4
    z4 = cyclic_instance(4)
    f = Hom(z4, z4, lambda e: e)
    g = Hom(z4, z4, lambda e: e if e < 2 else 0)
    return equaliser(f, g), old_equaliser(f, g), z4


def equaliser_symbolic_clamp():
    real = real_abs_instance()
    f, g = Hom(real, real, lambda e: e), Hom(real, real, _clamp)
    return equaliser(f, g), old_equaliser(f, g), real


def restriction_identity_finite():
    pm = pm_instance()
    carrier = FiniteCarrier(("0", "+"))
    return (restrict_instance(pm, carrier), old_restriction(pm, carrier), pm)


def restriction_identity_symbolic():
    en = ext_nat_instance()
    carrier = SymbolicCarrier(lambda e: isinstance(e, int) and 0 <= e <= 3,
                              samples=(0, 1, 2, 3))
    return (restrict_instance(en, carrier), old_restriction(en, carrier), en)


def unit_interval():
    iv, real = unit_interval_instance(), real_abs_instance()
    return iv, old_restriction(real, iv.carrier), real


def internal_hom_parity():
    parity = powerset_parity_instance(("a", "b"))
    h = internal_hom(parity, parity, SMALL)
    carrier = FiniteCarrier(h.carrier.elements)
    return h, (carrier, old_internal_hom_rule(parity, parity, carrier)), parity


def internal_hom_unit_pm():
    unit, pm = unit_instance(), pm_instance()
    h = internal_hom(unit, pm, SMALL)
    carrier = FiniteCarrier(h.carrier.elements)
    return h, (carrier, old_internal_hom_rule(unit, pm, carrier)), unit


def _pairs_to_c():
    """{0, a, b, c}: a + a = b + b = 0 and a + b = c, c + c undefined."""
    table = {(): "0", ("a",): "a", ("b",): "b", ("c",): "c", ("a", "a"): "0",
             ("b", "b"): "0", ("a", "b"): "c"}

    def rule(fam):
        if any(e != "0" for e in fam.omega):
            return UNDEFINED
        key = tuple(sorted(e for e, c in fam.finite if e != "0"
                           for _ in range(c)))
        return Defined(table[key]) if key in table else UNDEFINED

    return SigmaInstance("pairs", FiniteCarrier("0abc"), "0", rule)


def internal_hom_leaving_sum():
    # the maps {a} -> a and {a} -> b are homs, their sum {a} -> c is not
    parity, y = powerset_parity_instance(("a",)), _pairs_to_c()
    h = internal_hom(parity, y, SMALL)
    carrier = FiniteCarrier(h.carrier.elements)
    assert len(carrier) == 3
    return h, (carrier, old_internal_hom_rule(parity, y, carrier)), parity


def quotient_pm():
    pm, en = pm_instance(), ext_nat_instance()
    const0 = verify_hom(lambda e: 0, pm, en, SMALL, name="const0")
    q = free_strong_quotient(pm, en, const0, CongruenceCaps(max_family_size=3))
    return q, old_quotient_rule(q, en, const0), pm


def quotient_pm_counted():
    # a sign count into the finite naturals: classes with an omega sign have
    # no image sum, so they are left out of the carrier
    pm, target = pm_instance(), intersection_symbolic()[0]
    count = Hom(pm, target, {"0": 0, "+": 1, "-": 1}.get,
                verified_budget=SMALL)
    q = free_strong_quotient(pm, target, count,
                             CongruenceCaps(max_family_size=3))
    assert len(q.carrier) < len(q.classes)
    return q, old_quotient_rule(q, target, count), pm


def intersection_symbolic():
    en = ext_nat_instance()
    nat = restrict_instance(
        en, SymbolicCarrier(lambda e: isinstance(e, int) and e >= 0,
                            samples=(0, 1, 2)), flavor="strong")
    return (intersect_instances([en, nat]), old_intersection([en, nat]), en)


def intersection_finite_then_symbolic():
    both = [cyclic_instance(3), int_group_instance()]
    return intersect_instances(both), old_intersection(both), both[1]


def intersection_finite():
    z4 = cyclic_instance(4)
    both = [z4, restrict_instance(z4, FiniteCarrier((0, 1, 3)))]
    return intersect_instances(both), old_intersection(both), z4


CASES = [equaliser_finite_swap, equaliser_finite_low, equaliser_symbolic_clamp,
         restriction_identity_finite, restriction_identity_symbolic,
         unit_interval, internal_hom_parity, internal_hom_unit_pm,
         internal_hom_leaving_sum, quotient_pm, quotient_pm_counted,
         intersection_symbolic, intersection_finite_then_symbolic,
         intersection_finite]


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_new_instance_agrees_with_the_deleted_rule(case):
    new, (old_carrier, old_rule), parent = case()
    candidates = (*parent.samples(), *new.samples(), *STRANGERS)
    for e in candidates:
        assert (e in new.carrier) == (e in old_carrier), e
    assert new.samples() == old_carrier.samples
    fams = budget_families(new, BUDGET)
    assert fams
    for fam in fams:
        assert new.sum(fam) == old_rule(fam), fam
