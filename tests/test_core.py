from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmasum.core import (
    Budget,
    CarrierError,
    ConstructionError,
    Defined,
    FiniteCarrier,
    HomVerdict,
    HomVerificationError,
    SigmaInstance,
    SumResult,
    SymbolicCarrier,
    UNDEFINED,
    budget_families,
    check_hom,
    compose_homs,
    verify_hom,
)
from sigmasum.family import EMPTY, Family
from sigmasum.instances import (
    FiniteMonoid,
    discrete_instance,
    ext_nat_instance,
    int_group_instance,
    pm_instance,
    real_abs_instance,
    unit_interval_instance,
)

BUDGET = Budget(max_finite_size=4, max_omega_elems=1, trials=0, seed=7)


# -- results and Kleene equality ----------------------------------------------


def test_kleene_equality_cases():
    assert UNDEFINED == UNDEFINED
    assert Defined(3) == Defined(3)
    assert Defined(3) != Defined(4)
    assert Defined(3) != UNDEFINED
    assert repr(UNDEFINED) == "Undefined"
    assert repr(Defined("+")) == "Defined('+')"


def test_sum_results_are_values():
    # results compare their values with ==, and hash alike when equal
    assert Defined(0) == SumResult(True, 0)
    assert Defined(0) == Defined(False)
    assert hash(Defined(0)) == hash(Defined(False))
    assert Defined(1) == Defined(Fraction(1))
    assert hash(Defined(1)) == hash(Defined(Fraction(1)))
    assert Defined(0) != Defined(1) and Defined(0) != UNDEFINED


# -- instance basics -----------------------------------------------------------


def test_sum_is_pure_and_respects_canonical_equality():
    pm = pm_instance()
    a = Family.of("+", "-", "+")
    b = Family.from_counts([("+", 2), ("-", 1)])
    assert a == b
    assert pm.sum(a) == pm.sum(b) == Defined("+")
    assert pm.sum(a) == pm.sum(a)


def test_element_outside_carrier_is_an_error_not_undefined():
    pm = pm_instance()
    with pytest.raises(CarrierError):
        pm.sum(Family.of("x"))


def test_carrier_error_names_a_finite_non_member_before_an_omega_one():
    # "a" sorts first, but the finite part is checked first
    fam = Family.from_counts([("z", 1)], omega=["a"])
    with pytest.raises(CarrierError, match=r"^'z' is not in the carrier"):
        pm_instance().sum(fam)
    with pytest.raises(CarrierError, match=r"^'a' is not in the carrier"):
        pm_instance().sum(Family.from_counts([("+", 1)], omega=["a"]))


def test_a_rule_that_returns_no_sum_result_is_a_type_error():
    bad = SigmaInstance("bad", FiniteCarrier(["0"]), "0", lambda fam: "0")
    with pytest.raises(TypeError, match=r"^rule of bad returned '0'$"):
        bad.sum(Family.of("0"))


def test_singleton_and_empty_contracts():
    for inst in (pm_instance(), ext_nat_instance(), real_abs_instance()):
        assert inst.sum(EMPTY) == Defined(inst.zero)
        for e in inst.samples():
            assert inst.sum(Family.of(e)) == Defined(e)


# -- hom checking ----------------------------------------------------------------


def test_swap_is_a_hom_on_pm():
    pm = pm_instance()
    swap = {"+": "-", "-": "+", "0": "0"}
    verdict = check_hom(lambda e: swap[e], pm, pm, budget_families(pm, BUDGET))
    assert verdict.ok and verdict.checked > 0


def test_inclusion_into_interval_restriction_fails_with_minimal_witness():
    real = real_abs_instance()
    interval = unit_interval_instance()
    # identity map real -> interval is not structure preserving: {3/4, 1/2}
    # sums upstairs but not in the restriction
    verdict = check_hom(lambda e: e, real, interval,
                        budget_families(real, BUDGET))
    assert not verdict.ok
    assert verdict.counterexample == Family.of(Fraction(3, 4), Fraction(1, 2))


def test_const_zero_is_always_a_hom():
    pm, en = pm_instance(), ext_nat_instance()
    assert check_hom(lambda e: 0, pm, en, budget_families(pm, BUDGET)).ok
    assert check_hom(lambda e: "0", pm, pm, budget_families(pm, BUDGET)).ok


def test_verify_hom_raises_with_witness():
    pm = pm_instance()
    bad = {"+": "+", "-": "+", "0": "0"}
    with pytest.raises(HomVerificationError) as err:
        verify_hom(lambda e: bad[e], pm, pm, BUDGET, name="collapse")
    assert err.value.counterexample is not None


def test_hom_composition_verified_at_budget_meet():
    pm, en = pm_instance(), ext_nat_instance()
    swap = verify_hom(lambda e: {"+": "-", "-": "+", "0": "0"}[e],
                      pm, pm, BUDGET, name="swap")
    zero = verify_hom(lambda e: 0, pm, en,
                      Budget(max_finite_size=3, trials=0, seed=7), name="z")
    comp = compose_homs(zero, swap)
    meet = comp.verified_budget
    assert meet.max_finite_size == 3
    assert check_hom(comp.fn, pm, en, budget_families(pm, meet)).ok


def test_homs_that_do_not_compose_are_refused():
    pm, en = pm_instance(), ext_nat_instance()
    zero = verify_hom(lambda e: 0, pm, en, BUDGET, name="z")
    ident = verify_hom(lambda e: e, pm, pm, BUDGET, name="id")
    with pytest.raises(ConstructionError, match=r"^homs are not composable$"):
        compose_homs(ident, zero)  # zero lands in en, ident starts at pm


def test_hom_repr_names_the_map_and_its_ends():
    pm, en = pm_instance(), ext_nat_instance()
    assert repr(verify_hom(lambda e: 0, pm, en, BUDGET, name="z")) == (
        "<Hom z: pm -> extnat>")
    assert repr(verify_hom(lambda e: 0, pm, en, BUDGET)) == (
        "<Hom hom: pm -> extnat>")


def test_budget_meet_is_componentwise_min():
    a = Budget(5, 1, 4, 4, 2, 10, seed=7)
    b = Budget(3, 2, 5, 3, 1, 50, seed=9)
    m = a.meet(b)
    assert (m.max_finite_size, m.max_omega_elems, m.block_count,
            m.block_size, m.omega_splits, m.trials) == (3, 1, 4, 3, 1, 10)
    assert m.seed == 7


def test_budget_families_deterministic_given_seed():
    inst = int_group_instance()
    b = Budget(max_finite_size=2, max_omega_elems=1, trials=15, seed=11)
    assert budget_families(inst, b) == budget_families(inst, b)
    b2 = Budget(max_finite_size=2, max_omega_elems=1, trials=15, seed=12)
    assert budget_families(inst, b) != budget_families(inst, b2)


def test_check_hom_enumeration_order_is_size_then_lex():
    pm = pm_instance()
    fams = budget_families(pm, Budget(max_finite_size=2, max_omega_elems=0,
                                      trials=0))
    sizes = [f.finite_total for f in fams]
    assert sizes == sorted(sizes)
    pairs = [f for f in fams if f.finite_total == 2]
    assert pairs[0] == Family.of("+", "+")


def _check_hom_building_defined(f, source, target, fams):
    """check_hom as it was: each checked family compares its image's result
    with a ``Defined`` built for it. The oracle of the tuple comparison."""
    checked = 0
    images = {}
    for fam in fams:
        r = source.sum(fam)
        if not r.defined:
            continue
        checked += 1
        raw = (tuple([(f(x), c) for x, c in fam.finite]),
               tuple(map(f, fam.omega)))
        ri = images.get(raw)
        if ri is None:
            ri = images[raw] = target.sum(Family.from_counts(*raw))
        if ri != Defined(f(r.value)):
            return HomVerdict(False, fam, checked)
    return HomVerdict(True, None, checked)


_MONOIDS = {
    "cyclic": lambda n: lambda a, b: (a + b) % n,
    "counter": lambda n: lambda a, b: min(a + b, n - 1),
    "max": lambda n: max,
}


@st.composite
def discrete_maps(draw):
    """(source, target, table, budget): any map between two discrete
    instances of small monoid tables, so many fail to be homs."""
    x, y = (discrete_instance(FiniteMonoid(
        range(n), _MONOIDS[draw(st.sampled_from(sorted(_MONOIDS)))](n), 0))
        for n in (draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    xs = x.carrier.elements
    table = dict(zip(xs, draw(st.lists(st.sampled_from(y.carrier.elements),
                                       min_size=len(xs), max_size=len(xs)))))
    budget = Budget(max_finite_size=draw(st.integers(0, 3)),
                    max_omega_elems=draw(st.integers(0, 1)),
                    trials=draw(st.integers(0, 3)), seed=draw(st.integers(0, 9)))
    return x, y, table, budget


@settings(max_examples=200)
@given(discrete_maps())
def test_check_hom_compares_results_as_the_built_defined_did(drawn):
    x, y, table, budget = drawn
    fams = budget_families(x, budget)
    got = check_hom(table.__getitem__, x, y, fams)
    want = _check_hom_building_defined(table.__getitem__, x, y, fams)
    assert (got.ok, got.counterexample, got.checked) == \
        (want.ok, want.counterexample, want.checked)


def test_finite_carrier_sorted_and_membership():
    c = FiniteCarrier(("0", "+", "-", "+"))
    assert c.elements == c.samples == ("+", "-", "0")
    assert "+" in c and "x" not in c


def _chain_sum(inst, fam):
    """``SigmaInstance.sum`` as it was, uncached: one ``in self.carrier`` test
    per element over the chained finite and omega parts."""
    for e in chain((e for e, _ in fam.finite), fam.omega):
        if e not in inst.carrier:
            raise CarrierError(f"{e!r} is not in the carrier of {inst.name}")
    result = inst._rule(fam)
    if result.defined and result.value not in inst.carrier:
        result = UNDEFINED
    return result


def _weighted_total(fam):
    """A rule whose values leave a small carrier: the weighted total of the
    finite part, undefined when some omega element is odd."""
    if any(e % 2 for e in fam.omega):
        return UNDEFINED
    return Defined(sum(e * c for e, c in fam.finite))


def _carriers():
    finite = FiniteCarrier(range(5))
    symbolic = SymbolicCarrier(lambda e: type(e) is int and 0 <= e < 5,
                               samples=range(5))
    even = lambda e: e % 2 == 0  # noqa: E731
    return {"finite": finite, "symbolic": symbolic,
            "finite-where": finite.where(even),
            "symbolic-where": symbolic.where(even)}


_ELEMENTS = st.integers(min_value=-2, max_value=7)


@given(st.sampled_from(sorted(_carriers())),
       st.lists(st.tuples(_ELEMENTS, st.integers(1, 3)), max_size=5),
       st.lists(_ELEMENTS, max_size=3))
def test_membership_check_matches_the_chained_loop(name, pairs, omega):
    carrier = _carriers()[name]
    inst = SigmaInstance(name, carrier, 0, _weighted_total)
    fam = Family.from_counts(pairs, omega)
    try:
        expected = _chain_sum(inst, fam)
    except CarrierError as exc:
        with pytest.raises(CarrierError) as got:
            inst.sum(fam)
        assert str(got.value) == str(exc)
    else:
        assert inst.sum(fam) == expected
    for x in [*range(-2, 8), 2.0, "2", None, True]:
        assert (x in carrier) == carrier.contains(x)


def test_symbolic_carrier_without_samples_is_unsupported():
    from sigmasum.core import ConstructionError, SigmaInstance, SymbolicCarrier

    bare = SigmaInstance(
        "bare", SymbolicCarrier(lambda e: True, samples=()), 0,
        lambda fam: Defined(0))
    with pytest.raises(ConstructionError):
        verify_hom(lambda e: e, bare, bare, BUDGET)


def test_budget_rejects_negative_bounds():
    with pytest.raises(ValueError):
        Budget(max_finite_size=-1)
    for field in ("max_omega_elems", "block_count", "block_size",
                  "omega_splits", "trials"):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0$"):
            Budget(**{field: -1})
    assert Budget(seed=-1).seed == -1  # any integer seeds the trials
