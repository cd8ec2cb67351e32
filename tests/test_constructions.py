from fractions import Fraction

import pytest

from sigmasum.core import (
    Budget,
    CarrierError,
    ClassElement,
    ConstructionError,
    Defined,
    FiniteCarrier,
    Hom,
    SigmaInstance,
    UNDEFINED,
    budget_families,
    check_hom,
    verify_hom,
)
from sigmasum.family import (EMPTY, Family, canonicalize, families_within,
                             map_family)
from sigmasum.instances import (
    INFINITY,
    cyclic_instance,
    ext_nat_instance,
    pm_instance,
    powerset_parity_instance,
    real_abs_instance,
    unit_interval_instance,
)
from sigmasum.constructions import (
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
from sigmasum.checker import check_weak, check_strong, check_ft_and_group

BUDGET = Budget(max_finite_size=3, max_omega_elems=1, trials=0, seed=7)


# -- product --------------------------------------------------------------------


def test_product_requires_both_projections_summable():
    pm = pm_instance()
    P = product(pm, pm)
    assert P.sum(Family.of(("+", "+"), ("-", "+"))) == UNDEFINED
    assert P.sum(Family.of(("+", "-"), ("-", "+"))) == Defined(("0", "0"))
    assert P.sum(EMPTY) == Defined(("0", "0"))


def test_product_summability_matches_projection_oracle():
    pm = pm_instance()
    P = product(pm, pm)
    pool = P.carrier.elements
    for fam in families_within(pool, 3, 1):
        # independent oracle: project by hand, not through the instance rule
        left = canonicalize((p[0], c) for p, c in fam.items())
        right = canonicalize((p[1], c) for p, c in fam.items())
        rl, rr = pm.sum(left), pm.sum(right)
        expected = (Defined((rl.value, rr.value))
                    if rl.defined and rr.defined else UNDEFINED)
        assert P.sum(fam) == expected


def test_product_with_a_symbolic_factor_samples_the_pairs_of_samples():
    real, pm = real_abs_instance(), pm_instance()
    P = product(real, pm)
    assert not P.carrier.is_finite
    assert P.samples() == tuple((a, b) for a in real.samples()
                                for b in pm.samples())
    assert (Fraction(7, 3), "+") in P.carrier
    assert ("+", "+") not in P.carrier


def test_projections_are_verified_homs():
    P = product(pm_instance(), pm_instance())
    pl, pr = projections(P, BUDGET)
    assert pl.verified_budget is not None and pr.verified_budget is not None


def test_projections_refuse_a_product_without_the_product_rule():
    I = unit_instance()
    pairs = FiniteCarrier([(a, b) for a in (0, 1) for b in (0, 1)])
    # declared a product of two unit instances, but every family sums to zero
    fake = SigmaInstance("fake", pairs, (0, 0), lambda fam: Defined((0, 0)),
                         factors=(I, I))
    with pytest.raises(ConstructionError,
                       match=r"^projection failed hom verification$"):
        projections(fake, BUDGET)


def test_product_universal_property_on_finite_fixtures():
    pm = pm_instance()
    I = unit_instance()
    P = product(pm, pm)
    swap = verify_hom(lambda e: {"+": "-", "-": "+", "0": "0"}[e],
                      pm, pm, BUDGET, name="swap")
    ident = verify_hom(lambda e: e, pm, pm, BUDGET, name="id")
    paired = pairing(ident, swap)
    assert check_hom(paired, pm, P, budget_families(pm, BUDGET)).ok
    # and from a different source
    embed = verify_hom(lambda n: "+" if n == 1 else "0", I, pm, BUDGET)
    paired2 = pairing(embed, embed)
    assert check_hom(paired2, I, P, budget_families(I, BUDGET)).ok


# -- equaliser -------------------------------------------------------------------


def _pm_id_and_swap():
    pm = pm_instance()
    ident = verify_hom(lambda e: e, pm, pm, BUDGET, name="id")
    swap = verify_hom(lambda e: {"+": "-", "-": "+", "0": "0"}[e],
                      pm, pm, BUDGET, name="swap")
    return pm, ident, swap


def test_equaliser_agreement_set_and_sum():
    pm, ident, swap = _pm_id_and_swap()
    E = equaliser(ident, swap)
    assert E.carrier.elements == ("0",)
    assert E.sum(Family.of("0", "0")) == Defined("0")


def test_trivial_equaliser_is_whole_instance():
    pm, ident, _ = _pm_id_and_swap()
    E = equaliser(ident, ident)
    assert set(E.carrier.elements) == set(pm.carrier.elements)
    for fam in budget_families(pm, BUDGET):
        assert E.sum(fam) == pm.sum(fam)


def test_equaliser_carrier_discipline():
    pm, ident, swap = _pm_id_and_swap()
    E = equaliser(ident, swap)
    with pytest.raises(CarrierError):
        E.sum(Family.of("+", "-"))  # sums to 0 in E, but elements outside


def test_equaliser_maximality():
    # every family over E summable upstairs with value in E is summable in E
    pm, ident, swap = _pm_id_and_swap()
    E = equaliser(ident, swap)
    for fam in budget_families(E, BUDGET):
        up = pm.sum(fam)
        if up.defined and up.value in E.carrier:
            assert E.sum(fam) == up
    assert check_hom(lambda e: e, E, pm, budget_families(E, BUDGET)).ok


def test_equaliser_needs_verified_homs():
    pm, ident, _ = _pm_id_and_swap()
    with pytest.raises(ConstructionError,
                       match=r"^equaliser needs verified homs$"):
        equaliser(lambda e: e, ident)


def test_equaliser_needs_parallel_homs():
    pm, ident, _ = _pm_id_and_swap()
    other = verify_hom(lambda e: 0, pm, ext_nat_instance(), BUDGET)
    with pytest.raises(ConstructionError):
        equaliser(ident, other)


def test_equaliser_needs_the_zero_in_the_agreement_set():
    I = unit_instance()
    with pytest.raises(ConstructionError, match=r"^the zero element must be "
                       r"in the agreement set$"):
        equaliser(Hom(I, I, lambda x: x), Hom(I, I, lambda x: 1 - x))


# -- chain colimit ----------------------------------------------------------------


def test_identity_chain_colimit_is_isomorphic():
    pm = pm_instance()
    ident = verify_hom(lambda e: e, pm, pm, BUDGET, name="id")
    C = chain_colimit([pm, pm], [ident])
    assert len(C.classes) == 3
    stage0 = lambda e: C.class_of((0, e))  # noqa: E731
    for fam in budget_families(pm, BUDGET):
        lifted = map_family(stage0, fam)
        r, rc = pm.sum(fam), C.sum(lifted)
        assert rc == (Defined(stage0(r.value)) if r.defined else UNDEFINED)


def test_parity_inclusion_chain_colimit():
    pa = powerset_parity_instance(("a",))
    pab = powerset_parity_instance(("a", "b"))
    inc = verify_hom(lambda s: s, pa, pab, BUDGET, name="inc")
    C = chain_colimit([pa, pab], [inc])
    assert len(C.classes) == 4
    ca = C.class_of((0, frozenset({"a"})))
    # push-forward + parity oracle: {a} xor {a} = empty
    assert C.sum(Family.of(ca, ca)) == Defined(C.class_of((0, frozenset())))
    # minimal representatives prefer the earliest stage
    assert ca.rep == (0, frozenset({"a"}))
    assert C.class_of((1, frozenset({"b"}))).rep == (1, frozenset({"b"}))
    # stage maps are homs
    assert check_hom(lambda e: C.class_of((0, e)), pa, C,
                     budget_families(pa, BUDGET)).ok
    assert check_hom(lambda e: C.class_of((1, e)), pab, C,
                     budget_families(pab, BUDGET)).ok


def test_colimit_family_becomes_summable_at_later_stage():
    # stage 0: rationals restricted to [-1, 1]; stage 1: all rationals.
    iv = unit_interval_instance()
    real = real_abs_instance()
    inc = verify_hom(lambda e: e, iv, real, BUDGET, name="inc")
    C = chain_colimit([iv, real], [inc])
    fam = Family.of(Fraction(3, 4), Fraction(1, 2))
    assert iv.sum(fam) == UNDEFINED
    lifted = map_family(lambda e: C.class_of((0, e)), fam)
    assert C.sum(lifted) == Defined(C.class_of((1, Fraction(5, 4))))


def test_symbolic_colimit_carrier_holds_only_the_classes_it_names():
    # a class is a member when its representative (i, e) has e in stage i
    # and is the representative class_of picks
    real = real_abs_instance()
    ident = verify_hom(lambda e: e, real, real, BUDGET, name="id")
    C = chain_colimit([real, real], [ident])
    one = C.class_of((1, Fraction(1)))
    assert one.rep == (1, Fraction(1)) and one in C.carrier
    assert C.sum(Family.of(one, one)) == Defined(C.class_of((0, Fraction(2))))
    for stranger in (ClassElement((5, Fraction(1))), ClassElement((-1, 0)),
                     ClassElement("x"), ClassElement((0, "x")),
                     ClassElement((0, Fraction(1))), Fraction(1)):
        assert stranger not in C.carrier
        with pytest.raises(CarrierError):
            C.sum(Family.of(stranger))


def test_symbolic_stage_without_inverse_keeps_the_later_representative():
    # no finite carrier to search for a preimage: min_rep stays at stage 1
    real = real_abs_instance()
    ident = verify_hom(lambda e: e, real, real, BUDGET, name="id")
    C = chain_colimit([real, real], [ident])
    assert C.class_of((0, Fraction(1))).rep == (1, Fraction(1))
    assert C.class_of((0, Fraction(1))) == C.class_of((1, Fraction(1)))


def old_min_rep(stages, homs, value):
    """The representative search ``chain_colimit`` replaced, for chains
    without inverses: step back to the first preimage in carrier order, then
    confirm it maps to the element, while the stage before is finite."""
    stage, elem = len(stages) - 1, value
    while stage > 0:
        hom, carrier = homs[stage - 1], stages[stage - 1].carrier
        if not carrier.is_finite:
            break
        prev = next((e for e in carrier.elements if hom(e) == elem), None)
        if prev is None or hom(prev) != elem:
            break
        elem = prev
        stage -= 1
    return (stage, elem)


def _z4_z2():
    z4, z2 = cyclic_instance(4), cyclic_instance(2)
    return [z4, z2], [(lambda x: x % 2)]


def _z2_z4():
    z2, z4 = cyclic_instance(2), cyclic_instance(4)
    return [z2, z4], [(lambda x: 2 * x)]


def _z4_z4_z2():
    a, b, z2 = cyclic_instance(4), cyclic_instance(4), cyclic_instance(2)
    return [a, b, z2], [(lambda x: 2 * x % 4), (lambda x: x % 2)]


def _parity_inclusion():
    pa = powerset_parity_instance(("a",))
    return [pa, powerset_parity_instance(("a", "b"))], [(lambda s: s)]


def _pm_swap():
    pm, again = pm_instance(), pm_instance()
    return [pm, again], [{"+": "-", "-": "+", "0": "0"}.__getitem__]


def _interval_real():
    return [unit_interval_instance(), real_abs_instance()], [(lambda e: e)]


CHAINS = [_z4_z2, _z2_z4, _z4_z4_z2, _parity_inclusion, _pm_swap,
          _interval_real]


@pytest.mark.parametrize("chain", CHAINS, ids=[c.__name__ for c in CHAINS])
def test_colimit_representatives_match_the_old_search(chain):
    stages, fns = chain()
    small = Budget(max_finite_size=2, max_omega_elems=1, trials=0)
    homs = [verify_hom(fn, stages[i], stages[i + 1], small)
            for i, fn in enumerate(fns)]
    C = chain_colimit(stages, homs)

    def push(i, e):
        for fn in fns[i:]:
            e = fn(e)
        return e

    pairs = [(i, e) for i, s in enumerate(stages) for e in s.samples()]
    expected = [old_min_rep(stages, homs, push(i, e)) for i, e in pairs]
    assert [C.class_of(p).rep for p in pairs] == expected
    assert [c.rep for c in C.classes] == list(dict.fromkeys(expected))


def test_colimit_rejects_non_composable_chain():
    pm = pm_instance()
    en = ext_nat_instance()
    h = verify_hom(lambda e: 0, pm, en, BUDGET)
    with pytest.raises(ConstructionError):
        chain_colimit([pm, pm], [h])


def test_colimit_needs_one_hom_fewer_than_stages():
    pm = pm_instance()
    ident = verify_hom(lambda e: e, pm, pm, BUDGET, name="id")
    with pytest.raises(ConstructionError,
                       match=r"^need n stages and n-1 connecting homs$"):
        chain_colimit([pm, pm, pm], [ident])


def test_colimit_connecting_maps_must_be_verified_homs():
    pm = pm_instance()
    with pytest.raises(ConstructionError,
                       match=r"^connecting maps must be verified homs$"):
        chain_colimit([pm, pm], [lambda e: e])


def test_colimit_class_of_refuses_an_element_outside_its_stage():
    pm = pm_instance()
    C = chain_colimit([pm, pm], [verify_hom(lambda e: e, pm, pm, BUDGET)])
    with pytest.raises(ConstructionError,
                       match=r"^'x' not in stage 0 carrier$"):
        C.class_of((0, "x"))


# -- internal hom --------------------------------------------------------------------


def test_internal_hom_unit_carrier_is_id_and_const0():
    I = unit_instance()
    H = internal_hom(I, I, BUDGET)
    tables = {h.table for h in H.carrier.elements}
    assert tables == {((0, 0), (1, 0)), ((0, 0), (1, 1))}


def test_hom_element_lookup_and_repr():
    h = HomElement((("+", "-"), ("0", "0")))
    assert h("+") == "-"
    with pytest.raises(KeyError):
        h("-")
    assert repr(h) == "hom{'+'->'-', '0'->'0'}"


def test_internal_hom_pointwise_sum_oracle():
    I = unit_instance()
    H = internal_hom(I, I, BUDGET)
    for fam in families_within(H.carrier.elements, 2, 0):
        r = H.sum(fam)
        # oracle: sum pointwise in the target, by hand
        expected_rows = {}
        ok = True
        for x in (0, 1):
            rx = I.sum(canonicalize((h(x), c) for h, c in fam.items()))
            if not rx.defined:
                ok = False
                break
            expected_rows[x] = rx.value
        if not ok:
            assert r == UNDEFINED
        else:
            table = tuple(sorted(expected_rows.items()))
            in_carrier = any(h.table == table for h in H.carrier.elements)
            assert r.defined == in_carrier
            if r.defined:
                assert r.value.table == table


def test_internal_hom_singleton_and_empty():
    I = unit_instance()
    H = internal_hom(I, I, BUDGET)
    for h in H.carrier.elements:
        assert H.sum(Family.of(h)) == Defined(h)
    empty_sum = H.sum(EMPTY)
    assert empty_sum.defined and all(v == 0 for _, v in empty_sum.value.table)


def test_internal_hom_into_pm_passes_weak_suite():
    I = unit_instance()
    H = internal_hom(I, pm_instance(), BUDGET)
    assert len(H.carrier.elements) == 3  # 0 -> 0, 1 -> anything
    report = check_weak(H, Budget(max_finite_size=3, max_omega_elems=1,
                                  trials=0, seed=7))
    assert report.ok


def test_internal_hom_refuses_a_target_whose_zero_no_hom_keeps():
    I = unit_instance()
    # the unit rule, but declaring 1 the zero: the identity and the map to 0
    # are homs, while the constant map to the declared zero sends the empty
    # family, which sums to 0, to 1
    y = SigmaInstance("y", FiniteCarrier((0, 1)), 1, I.sum)
    budget = Budget(max_finite_size=2, max_omega_elems=0, trials=0)
    with pytest.raises(ConstructionError, match=r"^constant-zero map failed "
                       r"certification$"):
        internal_hom(I, y, budget)


def test_internal_hom_refuses_a_budget_that_certifies_no_hom():
    # y sums only {} and {0}: a hom from the unit must send {1}, which sums
    # to 1, to a family y sums, so 1 -> 0, and then {0, 1}, which sums to 1,
    # goes to {0, 0}, which y does not sum
    y = SigmaInstance("y", FiniteCarrier((0, 1)), 0,
                      lambda fam: Defined(0) if fam in (EMPTY, Family.of(0))
                      else UNDEFINED)
    budget = Budget(max_finite_size=2, max_omega_elems=0, trials=0)
    with pytest.raises(ConstructionError, match=r"^budget too small to "
                       r"certify any hom \(empty carrier\)$"):
        internal_hom(unit_instance(), y, budget)


def test_internal_hom_needs_finite_carriers():
    with pytest.raises(ConstructionError):
        internal_hom(real_abs_instance(), unit_instance(), BUDGET)


# -- unit instance ----------------------------------------------------------------


def test_unit_instance_at_most_one_one():
    I = unit_instance()
    assert I.sum(Family.from_counts([(1, 1)], omega=[0])) == Defined(1)
    assert I.sum(Family.of(1, 1)) == UNDEFINED
    assert I.sum(Family.from_counts([], omega=[1])) == UNDEFINED
    assert I.sum(EMPTY) == Defined(0)


# -- bilinearity ---------------------------------------------------------------------


@pytest.mark.parametrize("make", [pm_instance,
                                  lambda: powerset_parity_instance(("a", "b"))])
def test_unitors_are_bilinear(make):
    x = make()
    I = unit_instance()
    assert check_bilinear(left_unitor(x), I, x, x, BUDGET).ok
    assert check_bilinear(right_unitor(x), x, I, x, BUDGET).ok


def test_evaluation_is_bilinear_on_finite_fixtures():
    I = unit_instance()
    ev = evaluation()
    H = internal_hom(I, I, BUDGET)
    assert check_bilinear(ev, H, I, I, BUDGET).ok
    Hpm = internal_hom(I, pm_instance(), BUDGET)
    assert check_bilinear(ev, Hpm, I, pm_instance(), BUDGET).ok


def test_projection_as_two_argument_map_is_not_bilinear():
    pm = pm_instance()
    verdict = check_bilinear(lambda a, b: a, pm, pm, pm, BUDGET)
    assert not verdict.ok
    assert verdict.slot == "second"
    assert verdict.fixed != "0"
    # replay the witness: with the first slot fixed at a nonzero element, the
    # second-slot map is constant, and preservation fails on the family
    fixed, fam = verdict.fixed, verdict.counterexample
    r = pm.sum(fam)
    assert r.defined
    assert pm.sum(map_family(lambda b: fixed, fam)) != Defined(fixed)


def test_unitor_coherence_through_any_bilinear_map():
    # q(r(x, n), y) == q(x, l(n, y)) for bilinear q, over all inputs
    pm = pm_instance()
    I = unit_instance()
    r = right_unitor(I)
    l = left_unitor(pm)
    q = left_unitor(pm)  # bilinear I x pm -> pm
    for x in I.carrier.elements:
        for n in I.carrier.elements:
            for y in pm.carrier.elements:
                assert q(r(x, n), y) == q(x, l(n, y))


# -- flavor preservation ----------------------------------------------------------


def test_product_and_equaliser_of_strong_fixtures_stay_strong():
    en = ext_nat_instance()
    small = Budget(max_finite_size=2, max_omega_elems=1, trials=0, seed=7)
    P = product(en, en, samples=[(a, b) for a in (0, 1, INFINITY)
                                 for b in (0, 1, INFINITY)])
    rep = check_strong(P, small)
    assert rep.ok
    double = verify_hom(lambda x: x + x, en, en, BUDGET, name="double")
    ident = verify_hom(lambda x: x, en, en, BUDGET, name="id")
    E = equaliser(ident, double)
    assert set(E.samples()) == {0, INFINITY}
    assert check_strong(E, small).ok


def test_product_and_equaliser_of_ft_fixtures_stay_ft():
    real = real_abs_instance()
    small = Budget(max_finite_size=2, max_omega_elems=1, trials=0, seed=7)
    P = product(real, real, samples=[(a, b)
                                     for a in (Fraction(0), Fraction(1, 2))
                                     for b in (Fraction(0), Fraction(1, 2))])
    assert not check_ft_and_group(P, small).verdict("finite_totality").failed
    neg = verify_hom(lambda x: -x, real, real, BUDGET, name="neg")
    ident = verify_hom(lambda x: x, real, real, BUDGET, name="id")
    E = equaliser(ident, neg)
    assert not check_ft_and_group(E, small).verdict("finite_totality").failed
