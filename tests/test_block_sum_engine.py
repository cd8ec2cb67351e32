"""The block-sum engine against the partition stream it replaces.

The engine computes the distinct block-sum families of a family's partitions
into summable blocks by memoised recursion; the stream enumerates every such
partition. For random families over the stock samples, each asked in its own
shape of one engine, and caps from 1 to 4, both must give the same set, the
results the regrouping laws compare must be the instance's results on that
set, and the caps must clip the stream exactly when ``static_truncation``
says so.
"""
from collections import Counter
from functools import lru_cache, partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmasum import checker, free_strong
from sigmasum.checker import check_weak, conclude_flavor
from sigmasum.core import Budget, SigmaInstance
from sigmasum.family import (
    BRACKETING,
    FLATTENING,
    UNCONSTRAINED,
    BlockSumEngine,
    Caps,
    Family,
    canonicalize,
    enumerate_partitions,
    static_truncation,
)
from sigmasum.free_strong import CongruenceCaps, CongruenceGraph
from sigmasum.instances import (
    ext_nat_instance,
    int_group_instance,
    pm_instance,
    powerset_parity_instance,
    real_abs_instance,
)

INSTANCES = {
    "pm": pm_instance(),
    "parity(a,b)": powerset_parity_instance(("a", "b")),
    "real": real_abs_instance(),
    "int": int_group_instance(),
    "extnat": ext_nat_instance(),
}
SHAPES = (BRACKETING, FLATTENING, UNCONSTRAINED)
caps_st = st.builds(Caps, st.integers(1, 4), st.integers(1, 4),
                    st.integers(1, 4))


def families_over(pool):
    return st.builds(
        lambda finite, omega: Family.from_counts([(e, 1) for e in finite],
                                                 omega),
        st.lists(st.sampled_from(pool), max_size=3),
        st.lists(st.sampled_from(pool), max_size=2, unique=True))


@st.composite
def cases(draw, n_families):
    """(instance, [(family, shape), ...], caps)."""
    inst = INSTANCES[draw(st.sampled_from(sorted(INSTANCES)))]
    asks = draw(st.lists(st.tuples(families_over(list(inst.samples())),
                                   st.sampled_from(SHAPES)),
                         min_size=n_families, max_size=n_families))
    return inst, asks, draw(caps_st)


@lru_cache(maxsize=None)
def stream_block_sums(inst, fam, shape, caps):
    # a pure function of its arguments, the instances being the module's own:
    # hypothesis asks the same question many times over
    stream = enumerate_partitions(fam, shape, caps,
                                  block_filter=lambda b: inst.sum(b).defined)
    return frozenset(
        canonicalize((inst.sum(b).value, m) for b, m in part.blocks)
        for part in stream)


EXTNAT = INSTANCES["extnat"]
ONE_OMEGA = Family.from_counts([(0, 1), (2, 1)], [1])


@settings(max_examples=200)
@given(cases(n_families=3))
# two blocks each taking 1 omega times would need two omega splits
@example((EXTNAT, [(ONE_OMEGA, UNCONSTRAINED)] * 2, Caps(4, 4, 1)))
# one omega family in every shape: the answers differ, so the memo must
# tell the shapes apart while sharing everything else
@example((EXTNAT, [(ONE_OMEGA, shape) for shape in
                   (UNCONSTRAINED, BRACKETING, FLATTENING)], Caps(4, 4, 2)))
def test_engine_matches_stream(case):
    # one engine answers every family in its own shape, so later asks may
    # reuse memo entries and compiled blocks earlier ones left behind, as the
    # laws of one suite run do over a family pool
    inst, asks, caps = case
    engine = BlockSumEngine(inst, caps)
    for fam, shape in asks:
        expected = stream_block_sums(inst, fam, shape, caps)
        assert (set(engine.block_sum_keys(fam, shape))
                == set(map(engine.key, expected)))
        assert (set(engine.block_sum_results(fam, shape))
                == {inst.sum(sums) for sums in expected})


def test_engine_refuses_an_unknown_shape():
    engine = BlockSumEngine(EXTNAT, Caps())
    for ask in (engine.block_sum_keys, engine.block_sum_results):
        with pytest.raises(ValueError,
                           match="unknown partition shape 'round'"):
            ask(ONE_OMEGA, "round")


def test_one_engine_serves_a_suite_run_and_a_graph(monkeypatch):
    # the regrouping laws of one run, and a graph's moves, share one engine
    built = []

    class Counted(BlockSumEngine):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(checker, "BlockSumEngine", Counted)
    monkeypatch.setattr(free_strong, "BlockSumEngine", Counted)
    budget = Budget(max_finite_size=2, block_count=3, block_size=3, trials=2)
    for run in (conclude_flavor, check_weak):
        built.clear()
        run(EXTNAT, budget)
        assert len(built) == 1, run.__name__
    built.clear()
    CongruenceGraph(EXTNAT, CongruenceCaps(max_family_size=2))
    assert len(built) == 1


@settings(max_examples=200)
@given(cases(n_families=1))
def test_stream_truncation_is_static(case):
    # no branch of the enumeration clips a family the static rule passes:
    # such a family has the same partitions under looser caps, while a finite
    # family it clips gains some under caps that cover its size; the omega
    # splits and finite takes of an omega element are always capped
    _, ((fam, shape),), caps = case
    if fam.omega:
        assert static_truncation(fam, caps)
        return
    looser = Caps(caps.block_count + 2, caps.block_size + 2,
                  caps.omega_splits + 2)
    assert static_truncation(fam, caps) == (
        partitions(fam, shape, caps) != partitions(fam, shape, looser))


def partitions(fam, shape, caps):
    return {frozenset(p.blocks) for p in enumerate_partitions(fam, shape, caps)}


REGROUPING = ("bracketing", "flattening", "strong_bracketing",
              "strong_flattening")


@pytest.mark.parametrize("make", [ext_nat_instance, real_abs_instance])
def test_a_suite_run_sums_each_block_sum_family_once(make, monkeypatch):
    """While the regrouping laws of one ``conclude_flavor`` run, the rule is
    asked about each family at most once, the scanned pool members aside:
    the run's one engine sums each distinct block and block-sum family once,
    and the laws compare its results."""
    pool, summed, regrouping = [], Counter(), []

    def counted_pool(inst, budget, _pool=checker.budget_families):
        pool.extend(_pool(inst, budget))
        return pool

    def counted_sum(inst, fam, _sum=SigmaInstance.sum):
        if regrouping and not any(fam is member for member in pool):
            summed[fam] += 1
        return _sum(inst, fam)

    def flagged(law_fn, *args):
        regrouping.append(law_fn)
        try:
            return law_fn(*args)
        finally:
            regrouping.pop()

    monkeypatch.setattr(checker, "budget_families", counted_pool)
    monkeypatch.setattr(SigmaInstance, "sum", counted_sum)
    for law in REGROUPING:
        monkeypatch.setattr(checker, "_law_" + law, partial(
            flagged, getattr(checker, "_law_" + law)))
    report = conclude_flavor(make(), Budget(
        max_finite_size=3, block_count=3, block_size=3, trials=5, seed=7))
    assert not any(report.verdict(law).failed for law in REGROUPING)
    assert summed and max(summed.values()) == 1
