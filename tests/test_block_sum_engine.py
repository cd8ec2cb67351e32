"""The block-sum engine against the partition stream it replaces.

The engine computes the distinct block-sum families of a family's partitions
into summable blocks by memoised recursion; the stream enumerates every such
partition. For random families over the stock samples, every shape and caps
from 1 to 4, both must give the same set, and the caps must clip the stream
exactly when ``static_truncation`` says so.
"""
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    inst = INSTANCES[draw(st.sampled_from(sorted(INSTANCES)))]
    fams = draw(st.lists(families_over(list(inst.samples())),
                         min_size=n_families, max_size=n_families))
    return inst, fams, draw(st.sampled_from(SHAPES)), draw(caps_st)


def stream_block_sums(inst, fam, shape, caps):
    stream = enumerate_partitions(fam, shape, caps,
                                  block_filter=lambda b: inst.sum(b).defined)
    return {canonicalize((inst.sum(b).value, m) for b, m in part.blocks)
            for part in stream}


EXTNAT = INSTANCES["extnat"]


@settings(max_examples=150)
@given(cases(n_families=2))
# two blocks each taking 1 omega times would need two omega splits
@example((EXTNAT, [Family.from_counts([(0, 1), (2, 1)], [1])] * 2,
          UNCONSTRAINED, Caps(4, 4, 1)))
def test_engine_matches_stream(case):
    # one engine answers both families, so the second may reuse memo entries
    # the first left behind, as subfamilies of a family pool do
    inst, fams, shape, caps = case
    engine = BlockSumEngine(inst, shape, caps)
    for fam in fams:
        assert (set(engine.block_sums(fam))
                == stream_block_sums(inst, fam, shape, caps))


@settings(max_examples=200)
@given(cases(n_families=1))
def test_stream_truncation_is_static(case):
    # no branch of the enumeration clips a family the static rule passes:
    # such a family has the same partitions under looser caps, while a finite
    # family it clips gains some under caps that cover its size; the omega
    # splits and finite takes of an omega element are always capped
    _, (fam,), shape, caps = case
    if fam.omega:
        assert static_truncation(fam, caps)
        return
    looser = Caps(caps.block_count + 2, caps.block_size + 2,
                  caps.omega_splits + 2)
    assert static_truncation(fam, caps) == (
        partitions(fam, shape, caps) != partitions(fam, shape, looser))


def partitions(fam, shape, caps):
    return {frozenset(p.blocks) for p in enumerate_partitions(fam, shape, caps)}
