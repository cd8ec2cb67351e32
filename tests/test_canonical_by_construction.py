"""Families the checker derives from canonical ones, built canonical without
``canonicalize``; the rationals summed over one common denominator; and the
regrouping scan read through ``map`` and ``filter``. Each is checked against
the path it replaced, kept here as the oracle, and work counts (not clocks)
pin what the direct builds save."""
import itertools
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sigmasum.checker as checker
import sigmasum.family as family
from sigmasum.checker import check_weak, conclude_flavor
from sigmasum.cli import load_definition_file, resolve_instance
from sigmasum.core import (
    Budget,
    ClassElement,
    Defined,
    SigmaInstance,
    SymbolicCarrier,
    UNDEFINED,
    budget_families,
    fold_rule,
)
from sigmasum.family import (
    BRACKETING,
    FLATTENING,
    OMEGA,
    UNCONSTRAINED,
    BlockSumEngine,
    Caps,
    Family,
    canonicalize,
    families_within,
    subfamily_product,
)
from sigmasum.instances import (
    _rational_sum,
    ext_nat_instance,
    int_group_instance,
    pm_instance,
    powerset_parity_instance,
    real_abs_instance,
    unit_interval_instance,
)

SHAPES = (BRACKETING, FLATTENING, UNCONSTRAINED)
REGROUPING = ("bracketing", "flattening", "strong_bracketing",
              "strong_flattening")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
# the budgets of the weak_exhaustive and witness_cli benchmark workloads
WEAK_EXHAUSTIVE = Budget(max_finite_size=3, max_omega_elems=1, block_count=4,
                         block_size=3, omega_splits=2, trials=0, seed=7)
WITNESS_CLI = Budget(max_finite_size=3, max_omega_elems=1, block_count=3,
                     block_size=3, omega_splits=2, trials=5, seed=7)


# -- oracles: the paths the direct builds replaced ------------------------------


def _canonicalized_key(engine, key):
    """The family of an engine key as ``_result`` built it before:
    ``canonicalize`` over the key's (element, count) pairs."""
    return canonicalize((engine._elems[v], c) for v, c in key)


def _subfamily_product_by_canonicalizing(fam, omega_finite_cap):
    """``subfamily_product`` as it was: each combination of takes through
    ``canonicalize``."""
    axes = [[(e, t) for t in range(c + 1)] for e, c in fam.finite]
    axes += [[(e, t) for t in range(omega_finite_cap + 1)] + [(e, OMEGA)]
             for e in fam.omega]
    return map(canonicalize, itertools.product(*axes))


def _rational_sum_per_term(pairs):
    """The rationals' fold as it was: one ``Fraction`` per term."""
    return sum((e * c for e, c in pairs), Fraction(0))


def _bad_scan(direction, r, results):
    """``_regroup``'s scan as it was: ``bad`` on each (whole, block sums)
    pair, in the order the engine yields the results."""
    def bad(r, rs):
        if direction == "bracketing":
            return r.defined and rs != r
        return rs.defined and r != rs

    return any(bad(r, rs) for rs in results)


# -- instances whose block sums tie in canonical key -----------------------------


# 1, 1.0 and Fraction(1) are equal and distinct, so an engine interns the one
# it meets first; a number and its class element are unequal and share a
# canonical key, so only the ids order them
_TIED = (0, 1, 1.0, Fraction(1), Fraction(1, 2), 2, ClassElement(0),
         ClassElement(1), ClassElement(Fraction(1, 2)))
_tied = st.sampled_from(_TIED)


def _tied_instance(values):
    """Every element is a member; a family sums to ``values`` at its finite
    size plus three times its omega count (cyclically), None undefined."""
    def rule(fam):
        value = values[(fam.finite_total + 3 * len(fam.omega)) % len(values)]
        return UNDEFINED if value is None else Defined(value)

    return SigmaInstance("tied", SymbolicCarrier(lambda e: True, ()), 0, rule)


@st.composite
def tied_cases(draw):
    """(instance, caps, asked families): the instance above over drawn
    values, and the families within a drawn pool of the same elements."""
    values = draw(st.lists(st.one_of(st.none(), _tied), min_size=1,
                           max_size=6))
    pool = draw(st.lists(_tied, min_size=1, max_size=4))
    caps = draw(st.builds(Caps, st.integers(1, 3), st.integers(1, 3),
                          st.integers(1, 2)))
    return (_tied_instance(values), caps,
            families_within(pool, draw(st.integers(0, 3)),
                            draw(st.integers(0, 1))))


@st.composite
def table_cases(draw):
    """(instance, caps, asked families): a definition file's table of
    summable families over 0, a and b, each singleton summing to itself,
    and families over the three elements."""
    elements = ["0", "a", "b"]
    fams = st.builds(
        lambda finite, omega: Family.from_counts([(e, 1) for e in finite],
                                                 omega),
        st.lists(st.sampled_from(elements), max_size=3),
        st.lists(st.sampled_from(elements), max_size=2, unique=True))
    rows = draw(st.dictionaries(fams, st.sampled_from(elements), max_size=12))
    rows.update({Family.of(e): e for e in elements})
    spec = {"elements": elements, "zero": "0", "sums": [
        {"finite": [e for e, c in fam.finite for _ in range(c)],
         "omega": list(fam.omega), "value": value}
        for fam, value in rows.items()]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        inst = load_definition_file(path)
    caps = draw(st.builds(Caps, st.integers(1, 3), st.integers(1, 3),
                          st.integers(1, 2)))
    asks = draw(st.lists(st.one_of(fams, st.sampled_from(list(rows))),
                         min_size=1, max_size=6))
    return inst, caps, asks


# -- the block-sum engine builds each family it sums from the key ----------------


class _KeyedEngine(BlockSumEngine):
    """An engine that records each family ``_result`` hands to the rule,
    with the key it was built from."""

    def __init__(self, inst, caps):
        super().__init__(self, caps)  # the engine sums through ``self.sum``
        self.target, self.handed, self._asked = inst, [], None

    def sum(self, fam):
        self.handed.append((self._asked, fam))
        return self.target.sum(fam)

    def _result(self, key):
        self._asked = key
        return super()._result(key)


def assert_results_built_as_canonicalized(inst, caps, asks):
    engine = _KeyedEngine(inst, caps)
    for fam in asks:
        for shape in SHAPES:
            list(engine.block_sum_results(fam, shape))
    for key, fam in engine.handed:
        expected = _canonicalized_key(engine, key)
        assert fam == expected, key
        assert repr(fam) == repr(expected), key
    return engine.handed


@settings(max_examples=150)
@given(tied_cases())
@example((_tied_instance([ClassElement(1), 1, None, Fraction(1, 2)]),
          Caps(3, 3, 2), families_within([1, ClassElement(1), 0], 3, 1)))
def test_engine_builds_each_summed_family_as_canonicalize_did(case):
    assert_results_built_as_canonicalized(*case)


@settings(max_examples=150)
@given(table_cases())
def test_engine_builds_table_families_as_canonicalize_did(case):
    assert_results_built_as_canonicalized(*case)


def test_the_tied_example_sums_blocks_and_block_sum_families_with_ties():
    # the explicit example above hands the rule families whose elements tie
    # in canonical key, among them block-sum families with an omega part
    inst = _tied_instance([ClassElement(1), 1, None, Fraction(1, 2)])
    handed = assert_results_built_as_canonicalized(
        inst, Caps(3, 3, 2), families_within([1, ClassElement(1), 0], 3, 1))
    fams = [fam for _, fam in handed]
    assert any({1, ClassElement(1)} <= set(fam.support()) for fam in fams)
    assert any(fam.omega and fam.finite for fam in fams)


# -- subfamily_product builds each subfamily canonical ---------------------------


_pools = st.one_of(
    st.lists(_tied, max_size=4),
    st.lists(st.sampled_from(["a", "b", "c", "+", "-", "0"]), max_size=4),
    st.lists(st.frozensets(st.integers(0, 2), max_size=2), max_size=3),
)


def assert_subfamilies_as_canonicalized(pool, size, omega, cap):
    for fam in families_within(pool, size, omega):
        got = list(subfamily_product(fam, cap))
        expected = list(_subfamily_product_by_canonicalizing(fam, cap))
        assert [repr(f) for f in got] == [repr(f) for f in expected], fam
        assert [(f.finite, f.omega) for f in got] == \
            [(f.finite, f.omega) for f in expected], fam


@settings(max_examples=120)
@given(_pools, st.integers(0, 4), st.integers(0, 2), st.integers(0, 3))
def test_subfamily_product_builds_what_canonicalize_built(pool, size, omega,
                                                          cap):
    assert_subfamilies_as_canonicalized(pool, size, omega, cap)


@pytest.mark.parametrize("pool", [
    [ClassElement(1), 1, Fraction(1, 2), ClassElement(0)],
    [2, 1.0, Fraction(1), Fraction(1, 2), -1],
    ["a", "+", "0", "-"],
    [frozenset({1, 2}), frozenset(), frozenset({2}), frozenset({1})],
], ids=["class-elements", "numbers", "strings", "frozensets"])
def test_subfamily_product_sweep(pool):
    # every subfamily of every family within a pool of four distinct elements
    # (elements that tie in canonical key among them), at the largest size,
    # omega count and cap drawn above
    assert_subfamilies_as_canonicalized(pool, 4, 2, 3)


# -- the rationals fold over one denominator --------------------------------------


_rationals = st.one_of(st.integers(-4, 4),
                       st.builds(Fraction, st.integers(-6, 6),
                                 st.integers(1, 12)))


def _same(a, b):
    return a == b and type(a) is type(b)


@settings(max_examples=300)
@given(st.lists(st.tuples(_rationals, st.integers(0, 3)), max_size=5))
@example([])
@example([(3, 2), (-6, 1)])  # ints only still give a Fraction
def test_one_denominator_fold_matches_the_per_term_sum(pairs):
    assert _same(_rational_sum(pairs), _rational_sum_per_term(pairs))


@settings(max_examples=300)
@given(st.lists(_rationals, max_size=4), st.lists(_rationals, max_size=2))
@example([Fraction(1, 2)], [0, Fraction(0)])
@example([], [Fraction(1, 3)])
def test_real_rule_matches_the_per_term_rule(finite, omega):
    # with an omega part the rule folds one copy of each omega element, then
    # asks the fold whether the sum absorbs it: pairs (s, 1), (e, 1)
    fam = Family.from_counts([(e, 1) for e in finite], omega)
    got = real_abs_instance().sum(fam)
    expected = SigmaInstance(
        "real", real_abs_instance().carrier, Fraction(0),
        fold_rule(_rational_sum_per_term)).sum(fam)
    assert got.defined == expected.defined
    assert _same(got.value, expected.value)


# -- the regrouping scan is the per-pair Kleene test ------------------------------


def _regroup_violates(law, inst, fams, engine):
    """The ``violates`` test ``_regroup`` hands the law runner."""
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checker, "_first_violation",
                   lambda law, inst, fams, violates, *rest:
                   captured.append(violates))
        checker._regroup(law, inst, fams, engine)
    return captured[0]


class _ReadCounting(BlockSumEngine):
    """An engine that counts the results the scans read."""

    read = 0

    def block_sum_results(self, fam, shape):
        results = super().block_sum_results(fam, shape)  # solved at the call

        def counted():
            for r in results:
                self.read += 1
                yield r

        return counted()


def assert_scans_agree(inst, fams, caps):
    """The same verdict on every family and shrink candidate, read as lazily:
    up to the first violation, and nothing for an unsummable whole that must
    regroup to its own sum."""
    engine = _ReadCounting(inst, caps)
    for law in REGROUPING:
        violates = _regroup_violates(law, inst, fams, engine)
        direction = law.removeprefix("strong_")
        shape = direction if direction == law else UNCONSTRAINED
        for fam in fams:
            for cand in [fam, *checker._shrink_candidates(fam)]:
                engine.read = 0
                got = violates(cand)
                read = engine.read
                engine.read = 0
                r = inst.sum(cand)
                expected = _bad_scan(direction, r,
                                     engine.block_sum_results(cand, shape))
                assert got == expected, (law, cand)
                lazy = r.defined or direction == "flattening"
                assert read == (engine.read if lazy else 0), (law, cand)


CORPUS = ["pm", "parity:a,b", "interval", "zmod:3", "real", "int", "extnat",
          "unit", os.path.join(FIXTURES, "regrouping_fails.json")]


@pytest.mark.parametrize("selector", CORPUS,
                         ids=[os.path.basename(s) for s in CORPUS])
def test_regrouping_scan_matches_the_per_pair_scan(selector):
    inst = resolve_instance(selector)
    budget = Budget(max_finite_size=2, trials=3, seed=11)
    assert_scans_agree(inst, budget_families(inst, budget), budget.caps)


@settings(max_examples=100)
@given(table_cases())
def test_regrouping_scan_matches_the_per_pair_scan_on_tables(case):
    inst, caps, asks = case
    assert_scans_agree(inst, asks, caps)


# -- work counts ------------------------------------------------------------------


def _counting(calls, fn):
    def counted(*args):
        calls.append(None)
        return fn(*args)

    return counted


def test_weak_suites_canonicalize_few_families(monkeypatch):
    """A work count, not a wall clock: over the five weak fixtures at the
    weak_exhaustive budget the engine builds its blocks and block-sum
    families from keys (1,684 ``canonicalize`` calls when it rebuilt each
    one, 20 when this was written), while the rule runs exactly as often as
    before, so the results stay lazy."""
    built, ruled = [], []
    monkeypatch.setattr(family, "canonicalize",
                        _counting(built, family.canonicalize))
    for make in (pm_instance, lambda: powerset_parity_instance(("a", "b")),
                 real_abs_instance, int_group_instance, ext_nat_instance):
        inst = make()
        monkeypatch.setattr(inst, "_rule", _counting(ruled, inst._rule))
        assert check_weak(inst, WEAK_EXHAUSTIVE).ok
    assert len(built) <= 40
    assert len(ruled) == 1814


def test_interval_flavor_hashes_few_fractions(monkeypatch):
    """A work count: ``conclude_flavor`` on the interval at the witness_cli
    budget hashes a ``Fraction`` for the sum cache's keys and the engine's
    ids, not once per block met in a residual state nor per element of each
    rebuilt family (4,689 calls before, 2,190 when this was written)."""
    calls = []
    monkeypatch.setattr(Fraction, "__hash__",
                        _counting(calls, Fraction.__hash__))
    assert conclude_flavor(unit_interval_instance(), WITNESS_CLI).flavor == \
        "weak"
    assert len(calls) <= 2500
