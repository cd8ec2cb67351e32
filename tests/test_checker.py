import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sigmasum.checker as checker
import sigmasum.core as core

from sigmasum.core import (
    Budget,
    Defined,
    FiniteCarrier,
    SigmaInstance,
    UNDEFINED,
    budget_families,
)
from sigmasum.family import (
    EMPTY,
    BlockSumEngine,
    Family,
    format_family_literal,
    parse_family_literal,
    subfamilies,
)
from sigmasum.instances import (
    ElementCodec,
    FiniteMonoid,
    cyclic_instance,
    discrete_instance,
    ext_nat_instance,
    int_group_instance,
    pm_instance,
    powerset_parity_instance,
    real_abs_instance,
    restrict_instance,
    unit_interval_instance,
)
from sigmasum.checker import (
    LAWS,
    LawVerdict,
    check_ft_and_group,
    check_strong,
    check_weak,
    conclude_flavor,
    shrink_family,
)
from sigmasum.cli import resolve_instance

BUDGET = Budget(max_finite_size=3, max_omega_elems=1, trials=0, seed=7)

_REPORTS = {}


def _report(kind, name, make, budget=BUDGET):
    key = (kind, name, budget)
    if key not in _REPORTS:
        suite = {"weak": check_weak, "strong": check_strong,
                 "ftg": check_ft_and_group}[kind]
        _REPORTS[key] = suite(make(), budget)
    return _REPORTS[key]


# -- positive suites ------------------------------------------------------------


@pytest.mark.parametrize("make", [
    pm_instance,
    lambda: powerset_parity_instance(("a", "b")),
    real_abs_instance,
])
def test_weak_suite_passes_on_stock_instances(make):
    report = check_weak(make(), BUDGET)
    assert report.ok
    assert [v.law for v in report.laws] == \
        ["singleton", "neutral_element", "bracketing", "flattening"]


def test_strong_suite_passes_on_extnat():
    report = _report("strong", "extnat", ext_nat_instance)
    assert report.ok


def test_group_suite_passes_on_int():
    report = check_ft_and_group(int_group_instance(), BUDGET)
    assert report.ok
    assert {v.law for v in report.laws} == {
        "finite_totality", "inverses_exist", "inversion_hom",
        "inverse_cancellation"}


# -- negative witnesses -----------------------------------------------------------


def test_pm_fails_subsummability_with_exact_witness():
    report = _report("strong", "pm", pm_instance)
    verdict = report.verdict("subsummability")
    assert verdict.failed
    assert verdict.witness == {
        "family": "{finite: [+, +, -], omega: []}",
        "subfamily": "{finite: [+, +], omega: []}",
    }


def test_pm_fails_finite_totality_with_witness():
    report = check_ft_and_group(pm_instance(), BUDGET)
    verdict = report.verdict("finite_totality")
    assert verdict.failed
    assert verdict.witness == {"family": "{finite: [+, +], omega: []}"}


def test_int_group_fails_zero_sum_probe_with_exact_witness():
    report = _report("strong", "int", int_group_instance)
    verdict = report.verdict("zero_sum_all_zero")
    assert verdict.failed
    assert verdict.witness == {"family": "{finite: [-5, 5], omega: []}"}


def test_interval_fails_subsummability_with_exact_witness():
    report = _report("strong", "interval", unit_interval_instance)
    verdict = report.verdict("subsummability")
    assert verdict.failed
    assert verdict.witness == {
        "family": "{finite: [-1/4, 1/2, 3/4], omega: []}",
        "subfamily": "{finite: [1/2, 3/4], omega: []}",
    }


def _broken_pm():
    # deliberately broken: every singleton sums to the neutral element
    pm = pm_instance()

    def rule(fam):
        if fam.finite_total + len(fam.omega) <= 1:
            return Defined("0")
        return pm.sum(fam)

    return SigmaInstance("broken", FiniteCarrier(("0", "+", "-")), "0", rule,
                         codec=pm.codec)


def test_broken_singleton_detected():
    report = check_weak(_broken_pm(), BUDGET)
    verdict = report.verdict("singleton")
    assert verdict.failed
    assert verdict.witness == {"family": "{finite: [+], omega: []}"}


def test_witnesses_replay_to_violations():
    # parse each reported family back and re-run the law it violates
    pm = pm_instance()
    report = _report("strong", "pm", pm_instance)
    sub = report.verdict("subsummability").witness
    fam = parse_family_literal(sub["family"], pm.codec)
    subfam = parse_family_literal(sub["subfamily"], pm.codec)
    assert pm.sum(fam).defined and not pm.sum(subfam).defined

    ig = int_group_instance()
    probe = _report("strong", "int", int_group_instance).verdict(
        "zero_sum_all_zero").witness
    fam = parse_family_literal(probe["family"], ig.codec)
    assert ig.sum(fam) == Defined(0)
    assert any(e != 0 for e in fam.support())


def test_verdict_of_a_law_the_report_lacks_is_a_key_error():
    report = _report("weak", "pm", pm_instance)
    with pytest.raises(KeyError, match=r"^'subsummability'$"):
        report.verdict("subsummability")


# -- verdict semantics -----------------------------------------------------------------


def test_truncated_only_under_clipping():
    # with caps comfortably above the family sizes, verdicts are clean passes
    roomy = Budget(max_finite_size=3, max_omega_elems=0, block_count=6,
                   block_size=6, trials=0, seed=7)
    report = check_weak(pm_instance(), roomy)
    assert all(v.status == "pass" for v in report.laws)
    # at the default caps, omega families clip the partition space
    report = check_weak(pm_instance(), BUDGET)
    assert report.verdict("bracketing").status == "truncated"


def test_determinism_identical_budgets():
    a = check_strong(int_group_instance(), BUDGET)
    b = check_strong(int_group_instance(), BUDGET)  # fresh runs, not cached
    assert [(v.law, v.status, v.witness, v.checked) for v in a.laws] == \
        [(v.law, v.status, v.witness, v.checked) for v in b.laws]


def test_flavor_lattice_consistency():
    budget = Budget(max_finite_size=3, max_omega_elems=1, trials=5, seed=7)
    expected = {
        "pm": "weak",
        "parity": "finitely_total",
        "real": "sigma_group",
        "int": "sigma_group",
        "extnat": "strong",
    }
    reports = {
        "pm": conclude_flavor(pm_instance(), budget),
        "parity": conclude_flavor(powerset_parity_instance(("a", "b")), budget),
        "real": conclude_flavor(real_abs_instance(), budget),
        "int": conclude_flavor(int_group_instance(), budget),
        "extnat": conclude_flavor(ext_nat_instance(), budget),
    }
    for name, report in reports.items():
        assert report.flavor == expected[name], name
        # lattice: any conclusion above weak implies the weak laws held
        if report.flavor is not None:
            weak_laws = {"singleton", "neutral_element", "bracketing",
                         "flattening"}
            assert not any(v.failed for v in report.laws
                           if v.law in weak_laws)


def test_failures_are_witnesses_not_samples():
    # a failure found at a small budget persists verbatim at a larger one
    small = Budget(max_finite_size=3, max_omega_elems=0, trials=0, seed=7)
    large = Budget(max_finite_size=4, max_omega_elems=1, trials=0, seed=7)
    w_small = check_strong(pm_instance(), small).verdict("subsummability")
    w_large = check_strong(pm_instance(), large).verdict("subsummability")
    assert w_small.failed and w_large.failed
    assert w_small.witness == w_large.witness


# -- shrinking ---------------------------------------------------------------------------


def test_shrink_family_minimizes():
    pm = pm_instance()

    def violates(fam):
        return fam.count("+") >= 2  # stand-in predicate

    big = Family.from_counts([("+", 4), ("-", 2)], omega=["0"])
    small = shrink_family(big, violates)
    assert small == Family.of("+", "+")


def test_shrink_demotes_omega():
    def violates(fam):
        return fam.count("x") >= 1

    fam = Family.from_counts([], omega=["x"])
    assert shrink_family(fam, violates) == Family.of("x")


# -- pinned counts -------------------------------------------------------------------------

PIN_BUDGET = Budget(max_finite_size=3, max_omega_elems=1, trials=3, seed=7)

PINNED = {
    pm_instance: ("weak", [
        ("singleton", "pass", 3), ("neutral_element", "pass", 21),
        ("bracketing", "truncated", 20), ("flattening", "truncated", 52),
        ("subsummability", "fail", 13), ("strong_bracketing", "truncated", 20),
        ("strong_flattening", "truncated", 52),
        ("zero_sum_all_zero", "fail", 15), ("finite_totality", "fail", 5)]),
    int_group_instance: ("sigma_group", [
        ("singleton", "pass", 4), ("neutral_element", "pass", 57),
        ("bracketing", "truncated", 56), ("flattening", "truncated", 116),
        ("subsummability", "pass", 56), ("strong_bracketing", "truncated", 56),
        ("strong_flattening", "truncated", 116),
        ("zero_sum_all_zero", "fail", 25), ("finite_totality", "pass", 35),
        ("inverses_exist", "pass", 4), ("inversion_hom", "pass", 56),
        ("inverse_cancellation", "pass", 56)]),
    ext_nat_instance: ("strong", [
        ("singleton", "pass", 4), ("neutral_element", "pass", 117),
        ("bracketing", "truncated", 116), ("flattening", "truncated", 116),
        ("subsummability", "pass", 116),
        ("strong_bracketing", "truncated", 116),
        ("strong_flattening", "truncated", 116),
        ("zero_sum_all_zero", "pass", 116), ("finite_totality", "pass", 35)]),
    unit_interval_instance: ("weak", [
        ("singleton", "pass", 4), ("neutral_element", "pass", 41),
        ("bracketing", "truncated", 40), ("flattening", "truncated", 116),
        ("subsummability", "fail", 30), ("strong_bracketing", "truncated", 40),
        ("strong_flattening", "truncated", 116),
        ("zero_sum_all_zero", "fail", 58), ("finite_totality", "fail", 14)]),
}


@pytest.mark.parametrize("make", list(PINNED), ids=lambda mk: mk.__name__)
def test_law_status_and_checked_counts_are_pinned(make):
    report = conclude_flavor(make(), PIN_BUDGET)
    flavor, rows = PINNED[make]
    assert report.flavor == flavor
    assert [(v.law, v.status, v.checked) for v in report.laws] == rows


def test_group_laws_without_inversion_are_pinned():
    report = check_ft_and_group(pm_instance(), PIN_BUDGET, require_group=True)
    assert [(v.law, v.status, v.checked, v.witness) for v in report.laws] == [
        ("finite_totality", "fail", 5, {"family": "{finite: [+, +], omega: []}"}),
    ] + [(law, "fail", 0, {"reason": "no inversion map installed"})
         for law in ("inverses_exist", "inversion_hom", "inverse_cancellation")]


# -- the suite runner ----------------------------------------------------------


@pytest.mark.parametrize("selector", ["pm", "parity:a,b", "interval", "zmod:3",
                                      "real", "int", "extnat", "unit"])
def test_conclude_flavor_runs_the_three_suites_in_order(selector):
    budget = Budget(max_finite_size=2, max_omega_elems=1, trials=5, seed=3)
    inst = resolve_instance(selector)
    suites = [check_weak(inst, budget), check_strong(inst, budget),
              check_ft_and_group(inst, budget)]
    assert conclude_flavor(inst, budget).laws == \
        [v for report in suites for v in report.laws]


def test_conclude_flavor_builds_one_family_pool(monkeypatch):
    calls = []

    def counted(inst, budget, _pool=core.budget_families):
        calls.append(inst.name)
        return _pool(inst, budget)

    monkeypatch.setattr(checker, "budget_families", counted)
    monkeypatch.setattr(core, "budget_families", counted)
    conclude_flavor(pm_instance(), BUDGET)
    assert calls == ["pm"]


def test_each_law_runs_through_its_module_function(monkeypatch):
    # the runner looks each law up when it runs it, so a wrapper installed on
    # the module (as a tracer does) sees every law
    seen = []
    for law in LAWS:
        def wrapped(*args, _law=getattr(checker, "_law_" + law)):
            verdict = _law(*args)
            seen.append(verdict.law)
            return verdict
        monkeypatch.setattr(checker, "_law_" + law, wrapped)
    report = conclude_flavor(int_group_instance(), BUDGET)
    assert seen == [v.law for v in report.laws] == \
        list(LAWS)


# -- failing branches of the neutral-element, group and flavor logic -----------


def test_neutral_element_fails_when_the_empty_family_misses_zero():
    pm = pm_instance()

    def rule(fam):
        return Defined("+") if fam == EMPTY else pm.sum(fam)

    inst = SigmaInstance("empty_plus", pm.carrier, "0", rule, codec=pm.codec)
    verdict = check_weak(inst, BUDGET).verdict("neutral_element")
    assert (verdict.status, verdict.checked, verdict.witness) == (
        "fail", 1, {"family": "{finite: [], omega: []}"})


def test_neutral_element_fails_when_stripping_zeros_loses_the_sum():
    # {0, a} sums to a, but {a} has no sum
    table = {EMPTY: "0", Family.of("0"): "0", Family.of("0", "a"): "a"}

    def rule(fam):
        return Defined(table[fam]) if fam in table else UNDEFINED

    inst = SigmaInstance("strip", FiniteCarrier(("0", "a")), "0", rule,
                         codec=ElementCodec(str.strip, str))
    verdict = check_weak(inst, BUDGET).verdict("neutral_element")
    assert (verdict.status, verdict.checked, verdict.witness) == (
        "fail", 4, {"family": "{finite: [0, a], omega: []}",
                    "stripped": "{finite: [a], omega: []}"})


def test_group_laws_fail_for_a_broken_inversion():
    # on Z/3, 2 -> 2 is no inverse (2 + 2 = 1), and it breaks preservation:
    # {1, 1} sums to 2, which maps to 2, while its image {2, 2} sums to 1
    z3 = cyclic_instance(3)
    inst = SigmaInstance("z3", z3.carrier, 0, z3.sum,
                         inversion={0: 0, 1: 2, 2: 2}.get, codec=z3.codec)
    report = check_ft_and_group(inst, BUDGET)
    assert [(v.law, v.status, v.checked, v.witness) for v in report.laws] == [
        ("finite_totality", "pass", 20, None),
        ("inverses_exist", "fail", 3, {"family": "{finite: [2, 2], omega: []}"}),
        ("inversion_hom", "fail", 11, {"family": "{finite: [1, 1], omega: []}"}),
        ("inverse_cancellation", "fail", 5,
         {"family": "{finite: [2], omega: []}"})]


def test_inverse_cancellation_shrinks_to_a_summable_witness():
    # {0, 0} sums to b, but its union with its image under the identity
    # inversion, {0, 0, 0, 0}, has no sum, so {0, 0} fails the law. The
    # union for its subfamily {0} is {0, 0}, which sums to b and not to 0,
    # but {0} has no sum, so the shrinker must keep {0, 0}
    table = {EMPTY: "0", Family.of("0", "0"): "b"}

    def rule(fam):
        return Defined(table[fam]) if fam in table else UNDEFINED

    inst = SigmaInstance("cancel", FiniteCarrier(("0", "b")), "0", rule,
                         inversion=lambda x: x,
                         codec=ElementCodec(str.strip, str))
    budget = Budget(max_finite_size=2, max_omega_elems=0, trials=0)
    verdict = check_ft_and_group(inst, budget).verdict("inverse_cancellation")
    assert (verdict.law, verdict.status, verdict.checked, verdict.witness) == (
        "inverse_cancellation", "fail", 2,
        {"family": "{finite: [0, 0], omega: []}"})


REGROUPING_FAILS = os.path.join(os.path.dirname(__file__), "fixtures",
                                "regrouping_fails.json")


def test_conclude_flavor_is_none_when_a_weak_law_fails():
    report = conclude_flavor(resolve_instance(REGROUPING_FAILS), BUDGET)
    assert report.flavor is None
    assert [v.law for v in report.laws if v.failed] == [
        "bracketing", "flattening", "strong_bracketing", "strong_flattening",
        "zero_sum_all_zero", "finite_totality"]


def test_a_weak_run_builds_its_partition_caps_once(caps_built):
    # the truncation scan and the witnesses read the engine's caps; the
    # regrouping fixture fails both regrouping laws, so witnesses are built
    for inst in (pm_instance(), resolve_instance(REGROUPING_FAILS)):
        caps_built.clear()
        report = check_weak(inst, BUDGET)
        assert [v.status for v in report.laws][2:] in (
            ["truncated", "truncated"], ["fail", "fail"])
        assert len(caps_built) == 1


# -- the flavor table against the if-chain it replaces ------------------------

# the law groups and the flavor rule as the checker spelt them before the
# flavor table, kept as the oracle
ORACLE_GROUPS = {
    "weak": ("singleton", "neutral_element", "bracketing", "flattening"),
    "strong": ("subsummability", "strong_bracketing", "strong_flattening",
               "zero_sum_all_zero"),
    "ft": ("finite_totality",),
    "group": ("inverses_exist", "inversion_hom", "inverse_cancellation"),
}
ALL_PASS = dict.fromkeys(sum(ORACLE_GROUPS.values(), ()), "pass")


def oracle_flavor(inst, report):
    failed = {v.law for v in report.laws if v.failed}
    groups = ORACLE_GROUPS
    if not failed.isdisjoint(groups["weak"]):
        return None
    if (inst.inversion is not None
            and failed.isdisjoint(groups["ft"] + groups["group"])):
        return "sigma_group"
    if failed.isdisjoint(groups["strong"]):
        return "strong"
    if failed.isdisjoint(groups["ft"]):
        return "finitely_total"
    return "weak"


@settings(max_examples=300)
@given(st.fixed_dictionaries(
    {law: st.sampled_from(["pass", "fail", "truncated"]) for law in ALL_PASS}))
@example(ALL_PASS)
@example(dict(ALL_PASS, finite_totality="fail"))
@example(dict(ALL_PASS, zero_sum_all_zero="truncated", inversion_hom="fail"))
def test_flavor_table_matches_the_if_chain(statuses):
    # each law returns its drawn verdict; int has an inversion map, so its
    # group laws run, and extnat has none, so its group laws are skipped
    instances = (int_group_instance(), ext_nat_instance())
    assert [inst.inversion is not None for inst in instances] == [True, False]
    with pytest.MonkeyPatch.context() as mp:
        for law, status in statuses.items():
            mp.setattr(checker, "_law_" + law,
                       lambda *args, _law=law, _status=status:
                       LawVerdict(_law, _status))
        for inst in instances:
            report = conclude_flavor(inst, Budget(max_finite_size=1, trials=0))
            ran = [law for law in ALL_PASS if inst.inversion is not None
                   or law not in ORACLE_GROUPS["group"]]
            assert [(v.law, v.status) for v in report.laws] == [
                (law, statuses[law]) for law in ran]
            assert report.flavor == oracle_flavor(inst, report)


def _readme_tiny_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        return json.loads(fh.read().split("```json\n")[1].split("```")[0])


def _fixture_table():
    with open(REGROUPING_FAILS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("table, names", [
    (_fixture_table(), {"0": "z", "a": "b"}),
    (_readme_tiny_table(), {"0": "z", "a": "y", "b": "x"}),
], ids=["regrouping_fails", "readme_tiny"])
def test_verdicts_do_not_depend_on_element_names(tmp_path, table, names):
    # the renaming reverses the elements' sort order; without trial families
    # no family is drawn by name, so each law reaches the same status, and a
    # law that does not fail scans the same number of families
    renamed = dict(table, zero=names[table["zero"]],
                   elements=[names[e] for e in table["elements"]],
                   sums=[{"finite": [names[e] for e in row.get("finite", [])],
                          "omega": [names[e] for e in row.get("omega", [])],
                          "value": names[row["value"]]}
                         for row in table["sums"]])
    assert sorted(renamed["elements"]) == [
        names[e] for e in sorted(table["elements"], reverse=True)]
    reports = []
    for side, data in (("before", table), ("after", renamed)):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(data))
        reports.append(conclude_flavor(resolve_instance(str(path)), BUDGET))
    before, after = reports
    assert [(v.law, v.status) for v in before.laws] == [
        (v.law, v.status) for v in after.laws]
    assert before.flavor == after.flavor
    assert [(v.law, v.checked) for v in before.laws if not v.failed] == [
        (v.law, v.checked) for v in after.laws if not v.failed]


# -- the per-sample laws against their former loops ---------------------------

SAMPLES_ONLY = Budget(max_finite_size=1, max_omega_elems=0, trials=0, seed=7)


def _singleton_loop(inst):
    """The singleton law as a loop of its own over the samples: an oracle
    for the shared scan, which must neither shrink nor recount."""
    for i, x in enumerate(inst.samples()):
        if inst.sum(Family.of(x)) != Defined(x):
            return ("singleton", "fail", i + 1,
                    {"family": format_family_literal(Family.of(x), inst.codec)})
    return ("singleton", "pass", len(inst.samples()), None)


def _inverses_loop(inst):
    """The inverse-pair law as a loop of its own over the samples."""
    for i, x in enumerate(inst.samples()):
        pair = Family.of(x, inst.inversion(x))
        if inst.sum(pair) != Defined(inst.zero):
            return ("inverses_exist", "fail", i + 1,
                    {"family": format_family_literal(pair, inst.codec)})
    return ("inverses_exist", "pass", len(inst.samples()), None)


def _row(verdict):
    return (verdict.law, verdict.status, verdict.checked, verdict.witness)


def _per_sample_rows(inst):
    """The per-sample laws' rows as the suites give them, and as the loops
    do."""
    got = [_row(check_weak(inst, SAMPLES_ONLY).verdict("singleton"))]
    want = [_singleton_loop(inst)]
    if inst.inversion is not None:
        group = check_ft_and_group(inst, SAMPLES_ONLY)
        got.append(_row(group.verdict("inverses_exist")))
        want.append(_inverses_loop(inst))
    return got, want


@pytest.mark.parametrize("selector", ["pm", "parity:a,b", "interval", "zmod:3",
                                      "real", "int", "extnat", "unit",
                                      REGROUPING_FAILS])
def test_per_sample_laws_match_their_loops(selector):
    got, want = _per_sample_rows(resolve_instance(selector))
    assert got == want


def test_singleton_fails_at_the_third_sample_unshrunk():
    z3 = cyclic_instance(3)

    def rule(fam):
        return Defined(1) if fam == Family.of(2) else z3.sum(fam)

    inst = SigmaInstance("two_sums_to_one", z3.carrier, 0, rule,
                         codec=z3.codec)
    assert inst.samples() == (0, 1, 2)
    got, want = _per_sample_rows(inst)
    assert got == want
    assert got[0] == ("singleton", "fail", 3,
                      {"family": "{finite: [2], omega: []}"})


def test_a_wrong_inverse_pair_stays_the_witness():
    # 1 -> 3 is wrong on Z/5, and neither {1} nor {3} sums to zero, so a
    # shrinker that took a single element would still see a violation
    z5 = cyclic_instance(5)
    inverse = {0: 0, 1: 3, 2: 3, 3: 2, 4: 1}
    inst = SigmaInstance("z5", z5.carrier, 0, z5.sum, inversion=inverse.get,
                         codec=z5.codec)
    assert z5.sum(Family.of(1)) != Defined(0) != z5.sum(Family.of(3))
    got, want = _per_sample_rows(inst)
    assert got == want
    assert got[1] == ("inverses_exist", "fail", 2,
                      {"family": "{finite: [1, 3], omega: []}"})


@pytest.mark.parametrize("selector, x", [("zmod:2", 1), ("int", 0)])
def test_self_inverse_pairs_match_the_loop(selector, x):
    inst = resolve_instance(selector)
    assert Family.of(x, inst.inversion(x)) == Family.from_counts([(x, 2)])
    got, want = _per_sample_rows(inst)
    assert got == want
    assert got[1][:2] == ("inverses_exist", "pass")


# -- the subsummability scan against the sorted one it replaces ---------------


TABLES = {
    "cyclic": lambda n: lambda a, b: (a + b) % n,
    "counter": lambda n: lambda a, b: min(a + b, n - 1),
    "max": lambda n: max,
}


@st.composite
def subsummability_cases(draw):
    """(instance, budget): the interval, or a FiniteMonoid table's discrete
    instance restricted to its identity and some other elements, where a
    summable family can have unsummable subfamilies."""
    if draw(st.booleans()):
        inst = unit_interval_instance()
    else:
        n = draw(st.integers(2, 5))
        table = TABLES[draw(st.sampled_from(sorted(TABLES)))](n)
        keep = draw(st.sets(st.integers(1, n - 1)))
        inst = restrict_instance(
            discrete_instance(FiniteMonoid(range(n), table, 0)),
            (0, *sorted(keep)))
    return inst, Budget(max_finite_size=draw(st.integers(1, 3)),
                        max_omega_elems=draw(st.integers(0, 1)),
                        block_size=draw(st.integers(1, 3)),
                        trials=draw(st.integers(0, 3)),
                        seed=draw(st.integers(0, 9)))


def sorted_subsummability(inst, fams, omega_cap):
    """The scan as it was: each family's first unsummable subfamily in
    ``subfamilies`` order, both to decide and for the witness."""
    def bad_sub(fam):
        if inst.sum(fam).defined:
            for sub in subfamilies(fam, omega_cap):
                if not inst.sum(sub).defined:
                    return sub
        return None

    return checker._first_violation(
        "subsummability", inst, fams, lambda fam: bad_sub(fam) is not None,
        lambda fam: {"subfamily": format_family_literal(bad_sub(fam),
                                                        inst.codec)},
        lambda fam: inst.sum(fam).defined)


@settings(max_examples=150)
@given(subsummability_cases())
@example((unit_interval_instance(), BUDGET))
@example((restrict_instance(cyclic_instance(4), (0, 1, 3)), BUDGET))
# {1, 2, 2} sums to 0 in Z5, and {2, 2} comes before {1, 2} in product order
@example((restrict_instance(cyclic_instance(5), (0, 1, 2)), BUDGET))
def test_subsummability_witness_is_the_first_sorted_unsummable_subfamily(case):
    inst, budget = case
    fams = budget_families(inst, budget)
    verdict = checker._law_subsummability(
        inst, fams, BlockSumEngine(inst, budget.caps))
    assert verdict == sorted_subsummability(inst, fams, budget.block_size)
