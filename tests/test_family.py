import copy
import hashlib
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmasum.family import (
    BRACKETING,
    FLATTENING,
    UNCONSTRAINED,
    Caps,
    EMPTY,
    Family,
    OMEGA,
    canonical_key,
    canonicalize,
    disjoint_union,
    enumerate_partitions,
    families_within,
    intersect,
    is_omega,
    is_subfamily,
    map_family,
    static_truncation,
    subfamilies,
)
from sigmasum.core import ClassElement
from sigmasum.instances import pm_instance, real_abs_instance


# -- canonical form ----------------------------------------------------------


def test_canonicalize_collapses_multiset():
    fam = canonicalize([("+", 1), ("+", 1), ("-", 1)])
    assert fam.finite == (("+", 2), ("-", 1))
    assert fam.omega == ()


def test_canonicalize_omega_absorbs_finite():
    fam = canonicalize([("a", OMEGA), ("a", 2)])
    assert fam.finite == ()
    assert fam.omega == ("a",)
    assert fam.count("a") == OMEGA


def test_canonicalize_empty():
    assert canonicalize([]) == EMPTY
    assert not EMPTY.finite and not EMPTY.omega


def test_canonicalize_drops_zero_counts_and_rejects_negative():
    assert canonicalize([("a", 0)]) == EMPTY
    with pytest.raises(ValueError):
        canonicalize([("a", -1)])


def test_counts_and_subfamily_of_omega():
    fam = Family.from_counts([("+", 2)], omega=["0"])
    assert fam.count("+") == 2
    assert fam.count("0") == OMEGA
    assert fam.count("-") == 0


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 3)), max_size=8),
       st.randoms(use_true_random=False))
def test_canonicalize_permutation_invariant(raw, rng):
    shuffled = list(raw)
    rng.shuffle(shuffled)
    assert canonicalize(shuffled) == canonicalize(raw)


def test_canonicalize_idempotent():
    fam = canonicalize([("b", 2), ("a", 1), ("c", OMEGA)])
    assert canonicalize(fam.items()) == fam


# -- disjoint union ----------------------------------------------------------


def test_union_adds_counts():
    assert disjoint_union(Family.of("+"), Family.of("+", "-")) == \
        canonicalize([("+", 2), ("-", 1)])


def test_union_omega_absorbs():
    a = Family.from_counts([], omega=["a"])
    b = Family.from_counts([("a", 3)])
    assert disjoint_union(a, b) == a


def test_union_unit():
    fam = Family.of("x", "y")
    assert disjoint_union(EMPTY, fam) == fam


small_families = st.builds(
    Family.from_counts,
    st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 2)), max_size=3),
    st.sets(st.sampled_from("abc"), max_size=1),
)


@settings(max_examples=150)
@given(small_families, small_families)
def test_union_commutative(a, b):
    assert disjoint_union(a, b) == disjoint_union(b, a)


@settings(max_examples=150)
@given(small_families, small_families, small_families)
def test_union_associative(a, b, c):
    assert disjoint_union(disjoint_union(a, b), c) == \
        disjoint_union(a, disjoint_union(b, c))


# -- subfamilies and intersection --------------------------------------------


def test_subfamily_examples():
    assert is_subfamily(Family.of("+", "+"), Family.of("+", "+", "-"))
    omega_plus = Family.from_counts([], omega=["+"])
    assert not is_subfamily(omega_plus, Family.from_counts([("+", 3)]))
    assert is_subfamily(Family.of("+"), omega_plus)
    assert is_subfamily(omega_plus, omega_plus)


def _min_count_oracle(a, b):
    out = {}
    for e in set(a.support()) | set(b.support()):
        out[e] = min(a.count(e), b.count(e))
    return out


def test_intersect_matches_pointwise_min_oracle():
    a, b = Family.of("+", "-"), Family.of("+", "+")
    expected = _min_count_oracle(a, b)
    got = intersect(a, b)
    assert {e: got.count(e) for e in got.support()} == \
        {e: c for e, c in expected.items() if c}
    assert got == Family.of("+")


def test_intersect_with_omega():
    a = Family.from_counts([("x", 2)], omega=["y"])
    b = Family.from_counts([("x", 5), ("y", 3)])
    got = intersect(a, b)
    assert got == Family.from_counts([("x", 2), ("y", 3)])
    both = intersect(a, a)
    assert both == a


@settings(max_examples=150)
@given(small_families, small_families, small_families)
def test_subfamily_partial_order(a, b, c):
    assert is_subfamily(a, a)
    if is_subfamily(a, b) and is_subfamily(b, a):
        assert a == b
    if is_subfamily(a, b) and is_subfamily(b, c):
        assert is_subfamily(a, c)
    inter = intersect(a, b)
    assert is_subfamily(inter, a) and is_subfamily(inter, b)


def test_subfamilies_enumeration_sorted_and_complete():
    fam = Family.of("a", "a", "b")
    subs = subfamilies(fam)
    assert subs[0] == EMPTY
    assert fam in subs
    assert len(subs) == 3 * 2  # takes 0..2 for a, 0..1 for b
    assert all(is_subfamily(s, fam) for s in subs)


def test_subfamilies_with_omega_include_omega_takes():
    fam = Family.from_counts([("a", 1)], omega=["z"])
    subs = subfamilies(fam, omega_finite_cap=2)
    assert Family.from_counts([], omega=["z"]) in subs
    assert Family.from_counts([("z", 2)]) in subs
    assert EMPTY in subs


# -- mapping -----------------------------------------------------------------


def test_map_relabels():
    swap = {"+": "-", "-": "+", "0": "0"}
    fam = Family.of("+", "+", "-")
    assert map_family(lambda e: swap[e], fam) == Family.of("-", "-", "+")


def test_map_constant():
    assert map_family(lambda e: "0", Family.from_counts([("+", 2)])) == \
        Family.from_counts([("0", 2)])


def test_map_merges_counts_with_omega_absorption():
    fam = Family.from_counts([("a", 1)], omega=["b"])
    got = map_family(lambda e: "c", fam)
    # oracle: 1 + omega = omega
    assert got == Family.from_counts([], omega=["c"])


def test_map_empty_family_is_empty():
    assert map_family(lambda e: e, EMPTY) == EMPTY


# -- partition enumeration ---------------------------------------------------


def _oracle_set_partitions(elems):
    """All partitions of a finite multiset, as sorted tuples of sorted blocks."""
    if not elems:
        return {()}
    first, rest = elems[0], elems[1:]
    out = set()
    for sub in _oracle_set_partitions(rest):
        for i in range(len(sub)):
            blocks = list(sub)
            blocks[i] = tuple(sorted(blocks[i] + (first,)))
            out.add(tuple(sorted(blocks)))
        out.add(tuple(sorted(list(sub) + [(first,)])))
    return out


def _as_block_words(part):
    words = []
    for block, mult in part.blocks:
        word = tuple(sorted(e for e, c in block.finite for _ in range(c)))
        words.extend([word] * int(mult))
    return tuple(sorted(words))


@pytest.mark.parametrize("elems", [
    ("+", "-"),
    ("+", "+", "-"),
    ("a", "b", "c"),
    ("x", "x", "x"),
    ("a", "a", "b", "b"),
])
def test_partitions_match_exhaustive_oracle(elems):
    fam = Family.of(*elems)
    caps = Caps(block_count=len(elems), block_size=len(elems), omega_splits=2)
    got = {_as_block_words(p)
           for p in enumerate_partitions(fam, BRACKETING, caps)}
    assert got == _oracle_set_partitions(tuple(sorted(elems)))
    assert not static_truncation(fam, caps)


def test_partitions_yielded_once_each():
    fam = Family.of("a", "a", "b")
    parts = [tuple(sorted(((b, m) for b, m in p.blocks), key=repr))
             for p in enumerate_partitions(fam, BRACKETING, Caps())]
    assert len(parts) == len(set(parts))


def test_partition_two_element_family():
    fam, caps = Family.of("+", "-"), Caps(2, 2, 2)
    words = {_as_block_words(p)
             for p in enumerate_partitions(fam, BRACKETING, caps)}
    assert words == {(("+",), ("-",)), (("+", "-"),)}
    assert not static_truncation(fam, caps)


def test_partition_empty_family():
    parts = list(enumerate_partitions(EMPTY, BRACKETING, Caps()))
    assert len(parts) == 1 and parts[0].blocks == ()


def test_partition_omega_flattening_includes_expected_splits():
    fam = Family.from_counts([], omega=["0"])
    zb = Family.from_counts([], omega=["0"])
    one = Family.from_counts([("0", 1)])
    caps = Caps(2, 4, 2)
    got = {tuple(sorted((repr(b), m) for b, m in p.blocks))
           for p in enumerate_partitions(fam, FLATTENING, caps)}
    assert (tuple(sorted([(repr(zb), 1)]))) in got
    assert (tuple(sorted([(repr(zb), 2)]))) in got
    assert (tuple(sorted([(repr(one), 1), (repr(zb), 1)]))) in got
    assert static_truncation(fam, caps)  # omega splitting is always clipped


def test_partition_flattening_has_finitely_many_blocks():
    fam = Family.from_counts([], omega=["0"])
    for p in enumerate_partitions(fam, FLATTENING, Caps()):
        assert all(m != OMEGA for _, m in p.blocks)


def test_partition_bracketing_blocks_all_finite():
    fam = Family.from_counts([("x", 1)], omega=["0"])
    for p in enumerate_partitions(fam, BRACKETING, Caps()):
        for block, _ in p.blocks:
            assert block.is_finite


def test_partition_unconstrained_allows_both():
    fam = Family.from_counts([], omega=["0"])
    parts = list(enumerate_partitions(fam, UNCONSTRAINED, Caps()))
    has_inf_block = any(not b.is_finite for p in parts for b, _ in p.blocks)
    has_inf_mult = any(m == OMEGA for p in parts for _, m in p.blocks)
    assert has_inf_block and has_inf_mult


@settings(max_examples=60, deadline=None)
@given(small_families, st.sampled_from([BRACKETING, FLATTENING, UNCONSTRAINED]))
def test_partitions_recombine_to_parent(fam, shape):
    for part in enumerate_partitions(fam, shape, Caps()):
        assert part.recombine() == fam


def test_partition_shapes_agree_on_their_overlap():
    # a partition with finite blocks and finitely many of them is valid in
    # every shape, and each shape enumerates its space completely within caps
    fam = Family.from_counts([("x", 1)], omega=["0"])
    caps = Caps(3, 3, 2)

    def key(p):
        return tuple(sorted((repr(b), repr(m)) for b, m in p.blocks))

    brack = {key(p) for p in enumerate_partitions(fam, BRACKETING, caps)}
    flat = {key(p) for p in enumerate_partitions(fam, FLATTENING, caps)}
    unc = {key(p) for p in enumerate_partitions(fam, UNCONSTRAINED, caps)}
    assert brack <= unc and flat <= unc
    overlap = {key(p) for p in enumerate_partitions(fam, UNCONSTRAINED, caps)
               if all(b.is_finite for b, _ in p.blocks)
               and all(m != OMEGA for _, m in p.blocks)}
    assert brack & flat == overlap


def test_omega_supplier_cap_respected():
    fam = Family.from_counts([], omega=["0"])
    caps = Caps(block_count=4, block_size=4, omega_splits=2)
    for p in enumerate_partitions(fam, UNCONSTRAINED, caps):
        suppliers = 0
        for block, mult in p.blocks:
            if block.count("0") == OMEGA or (mult == OMEGA and block.count("0")):
                suppliers += 1
        assert 1 <= suppliers <= 2


def test_truncation_reported_when_caps_clip():
    fam = Family.of(*"abcde")
    caps = Caps(4, 4, 2)
    looser = Caps(5, 5, 2)
    # the size-5 single block and the 5 singletons are both clipped
    assert static_truncation(fam, caps) and not static_truncation(fam, looser)
    parts = {repr(p) for p in enumerate_partitions(fam, BRACKETING, caps)}
    assert parts < {repr(p) for p in enumerate_partitions(fam, BRACKETING,
                                                          looser)}


def test_stream_checks_its_shape_when_called_and_runs_once():
    with pytest.raises(ValueError, match="unknown partition shape 'round'"):
        enumerate_partitions(EMPTY, "round", Caps())
    stream = enumerate_partitions(Family.of("+", "-"), BRACKETING, Caps())
    assert len(list(stream)) == 2
    assert list(stream) == []


def test_block_filter_prunes():
    fam = Family.of("a", "a", "b")
    stream = enumerate_partitions(fam, BRACKETING, Caps(),
                                  block_filter=lambda b: b.count("a") < 2)
    assert all(b.count("a") < 2 for p in stream for b, _ in p.blocks)


# -- stream order: witnesses name the first violating partition, so the order
# is part of the report format


_PM_OMEGA_ORDER = {
    BRACKETING: [
        "Partition[Family({'0':2})xinf, Family({'+':1, '-':1})x1]",
        "Partition[Family({'+':1, '-':1})x1, Family({'0':1})xinf]",
    ],
    FLATTENING: [
        "Partition[Family({'-':1, '0':1})x1, Family({'+':1}, omega={'0'})x1]",
        "Partition[Family({'+':1, '0':1})x1, Family({'-':1}, omega={'0'})x1]",
        "Partition[Family({'+':1, '-':1})x1, Family({}, omega={'0'})x1]",
        "Partition[Family({'-':1}, omega={'0'})x1, Family({'+':1}, omega={'0'})x1]",
        "Partition[Family({'-':1}, omega={'0'})x1, Family({'+':1})x1]",
        "Partition[Family({'+':1}, omega={'0'})x1, Family({'-':1})x1]",
    ],
    UNCONSTRAINED: [
        "Partition[Family({'0':2})xinf, Family({'+':1, '-':1})x1]",
        "Partition[Family({'-':1, '0':1})x1, Family({'+':1}, omega={'0'})x1]",
        "Partition[Family({'+':1, '0':1})x1, Family({'-':1}, omega={'0'})x1]",
        "Partition[Family({'+':1, '-':1})x1, Family({'0':1})xinf]",
        "Partition[Family({'+':1, '-':1})x1, Family({}, omega={'0'})x1]",
        "Partition[Family({'+':1, '-':1})x1, Family({}, omega={'0'})xinf]",
        "Partition[Family({'-':1}, omega={'0'})x1, Family({'+':1}, omega={'0'})x1]",
        "Partition[Family({'-':1}, omega={'0'})x1, Family({'+':1})x1]",
        "Partition[Family({'+':1}, omega={'0'})x1, Family({'-':1})x1]",
    ],
}


@pytest.mark.parametrize("shape", [BRACKETING, FLATTENING, UNCONSTRAINED])
def test_stream_order_pm_with_omega(shape):
    fam = Family.from_counts([("+", 1), ("-", 1)], omega=["0"])
    stream = enumerate_partitions(fam, shape, Caps(2, 2, 2))
    assert [repr(p) for p in stream] == _PM_OMEGA_ORDER[shape]
    assert static_truncation(fam, Caps(2, 2, 2))


# the first 10 partitions of {+; omega: 0, -}, each omega element allowed one
# supplier, and the stream lengths
_TWO_OMEGA_ORDER = {
    BRACKETING: (216, [
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})xinf, "
        "Family({'+':1, '0':2})x1]",
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})xinf, "
        "Family({'+':1, '-':1, '0':1})x1]",
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})xinf, "
        "Family({'+':1, '-':2})x1]",
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})xinf, "
        "Family({'+':1, '0':1})x1]",
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})xinf, "
        "Family({'+':1, '-':1})x1]",
        "Partition[Family({'0':3})x1, "
        "Family({'-':1, '0':2})xinf, Family({'+':1})x1]",
        "Partition[Family({'0':3})x1, Family({'-':2, '0':1})xinf, "
        "Family({'+':1, '0':2})x1]",
        "Partition[Family({'0':3})x1, Family({'-':2, '0':1})xinf, "
        "Family({'+':1, '-':1, '0':1})x1]",
        "Partition[Family({'0':3})x1, Family({'-':2, '0':1})xinf, "
        "Family({'+':1, '-':2})x1]",
        "Partition[Family({'0':3})x1, Family({'-':2, '0':1})xinf, "
        "Family({'+':1, '0':1})x1]",
    ]),
    FLATTENING: (307, [
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})x1, "
        "Family({'+':1}, omega={'-', '0'})x1]",
        "Partition[Family({'0':3})x1, Family({'-':2, '0':1})x1, "
        "Family({'+':1}, omega={'-', '0'})x1]",
        "Partition[Family({'0':3})x1, Family({'-':3})x1, "
        "Family({'+':1}, omega={'-', '0'})x1]",
        "Partition[Family({'0':3})x1, Family({'+':1, '0':2})x1, "
        "Family({}, omega={'-', '0'})x1]",
        "Partition[Family({'0':3})x1, Family({'+':1, '-':1, '0':1})x1, "
        "Family({}, omega={'-', '0'})x1]",
        "Partition[Family({'0':3})x1, Family({'+':1, '-':2})x1, "
        "Family({}, omega={'-', '0'})x1]",
        "Partition[Family({'0':3})x1, Family({'0':2}, omega={'-'})x1, "
        "Family({'+':1, '-':1}, omega={'0'})x1]",
        "Partition[Family({'0':3})x1, Family({'0':2}, omega={'-'})x1, "
        "Family({'+':1}, omega={'0'})x1]",
        "Partition[Family({'0':3})x1, Family({'-':2}, omega={'0'})x1, "
        "Family({'+':1, '0':1}, omega={'-'})x1]",
        "Partition[Family({'0':3})x1, Family({'-':2}, omega={'0'})x1, "
        "Family({'+':1}, omega={'-'})x1]",
    ]),
    UNCONSTRAINED: (1157, [
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})x1, "
        "Family({'+':1}, omega={'-', '0'})x1]",
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})xinf, "
        "Family({'+':1, '0':2})x1]",
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})xinf, "
        "Family({'+':1, '-':1, '0':1})x1]",
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})xinf, "
        "Family({'+':1, '-':2})x1]",
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})xinf, "
        "Family({'+':1, '0':1})x1]",
        "Partition[Family({'0':3})x1, Family({'-':1, '0':2})xinf, "
        "Family({'+':1, '-':1})x1]",
        "Partition[Family({'0':3})x1, "
        "Family({'-':1, '0':2})xinf, Family({'+':1})x1]",
        "Partition[Family({'0':3})x1, Family({'-':2, '0':1})x1, "
        "Family({'+':1}, omega={'-', '0'})x1]",
        "Partition[Family({'0':3})x1, Family({'-':2, '0':1})xinf, "
        "Family({'+':1, '0':2})x1]",
        "Partition[Family({'0':3})x1, Family({'-':2, '0':1})xinf, "
        "Family({'+':1, '-':1, '0':1})x1]",
    ]),
}


@pytest.mark.parametrize("shape", [BRACKETING, FLATTENING, UNCONSTRAINED])
def test_stream_order_with_two_omega_elements_and_one_split(shape):
    fam = Family.from_counts([("+", 1)], omega=["0", "-"])
    parts = [repr(p) for p in enumerate_partitions(fam, shape, Caps(3, 3, 1))]
    length, head = _TWO_OMEGA_ORDER[shape]
    assert (len(parts), parts[:10]) == (length, head)


def test_stream_order_real_summable_blocks():
    real = real_abs_instance()
    half, quarter = Fraction(1, 2), Fraction(-1, 4)
    fam = Family.from_counts([(half, 2), (quarter, 1)])
    caps = Caps(3, 2, 1)
    stream = enumerate_partitions(fam, UNCONSTRAINED, caps,
                                  block_filter=lambda b: real.sum(b).defined)
    assert [repr(p) for p in stream] == [
        "Partition[Family({Fraction(1, 2):2})x1, Family({Fraction(-1, 4):1})x1]",
        "Partition[Family({Fraction(-1, 4):1, Fraction(1, 2):1})x1, "
        "Family({Fraction(1, 2):1})x1]",
        "Partition[Family({Fraction(1, 2):1})x2, Family({Fraction(-1, 4):1})x1]",
    ]
    assert static_truncation(fam, caps)


def _order_corpus(seed, n):
    """Seeded random (family, shape, caps, block_filter) cases over the pm and
    real sample pools, half of them restricted to summable blocks."""
    rng = random.Random(seed)
    insts = (pm_instance(), real_abs_instance())
    for _ in range(n):
        inst = rng.choice(insts)
        elems = inst.samples()
        fam = Family.from_counts(
            [(rng.choice(elems), 1) for _ in range(rng.randint(0, 4))],
            rng.sample(elems, rng.randint(0, 2)))
        shape = rng.choice((BRACKETING, FLATTENING, UNCONSTRAINED))
        caps = Caps(rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 3))
        summable = ((lambda b, inst=inst: inst.sum(b).defined)
                    if rng.random() < 0.5 else None)
        yield fam, shape, caps, summable


def test_stream_order_digest_over_seeded_corpus():
    digest = hashlib.sha256()
    total = 0
    for fam, shape, caps, summable in _order_corpus(2308, 150):
        for part in enumerate_partitions(fam, shape, caps, summable):
            digest.update(repr(part).encode() + b"\n")
            total += 1
        digest.update(f"truncated={static_truncation(fam, caps)}\n".encode())
    assert total == 43109
    assert digest.hexdigest() == (
        "3f6a4c754171b22e6cd1461c027bb37b6ff9771b376de517fd2866ebc9df9d56")


@pytest.mark.parametrize("field", ["block_count", "block_size",
                                   "omega_splits"])
def test_caps_reject_a_negative_field(field):
    with pytest.raises(ValueError, match=f"^{field} must be >= 0$"):
        Caps(**{field: -1})
    assert getattr(Caps(**{field: 0}), field) == 0


# -- budget enumeration ------------------------------------------------------


def test_families_within_order_and_dedup():
    fams = families_within(["b", "a"], 2, 1)
    assert fams[0] == EMPTY
    assert len(fams) == len(set(fams))
    sizes = [(f.finite_total, len(f.omega)) for f in fams]
    assert sizes == sorted(sizes)
    assert Family.from_counts([("a", 1)], omega=["b"]) in fams


def test_families_within_word_order():
    fams = families_within(["+", "-"], 3, 0)
    three = [f for f in fams if f.finite_total == 3]
    assert three[0] == Family.of("+", "+", "+")
    assert three[1] == Family.of("+", "+", "-")


def _families_within_by_sorting(pool, max_size, max_omega):
    """The pool as families_within built it before emitting canonical
    families in order: every word and omega subset, canonicalized, then
    deduplicated and sorted. The oracle of the differential test below."""
    pool = sorted(dict.fromkeys(pool), key=canonical_key)
    fams = []
    for k in range(max_size + 1):
        for combo in itertools.combinations_with_replacement(pool, k):
            pairs = [(e, 1) for e in combo]
            for j in range(max_omega + 1):
                for osub in itertools.combinations(pool, j):
                    fams.append(canonicalize(pairs + [(e, OMEGA) for e in osub]))
    fams = list(dict.fromkeys(fams))
    fams.sort(key=Family.sort_key)
    return fams


# 1, Fraction(1) and 1.0 are equal but distinct; elements of one kind that are
# not equal have distinct canonical keys, as in every carrier
_numbers = st.one_of(st.integers(-2, 3),
                     st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
                     st.integers(-2, 3).map(float), st.just(math.inf))
_strings = st.sampled_from(["a", "b", "c", "+", "-", "0"])
_pools = st.one_of(
    st.lists(_numbers, max_size=5),
    st.lists(_strings, max_size=5),
    st.lists(st.frozensets(_numbers, max_size=2), max_size=4),
    st.lists(_numbers.map(ClassElement), max_size=4),
    st.lists(st.lists(_strings, max_size=2).map(
        lambda word: ClassElement(Family.of(*word))), max_size=4),
    # mixed kinds have no canonical order: both versions raise TypeError
    st.lists(st.one_of(_numbers, _strings, st.frozensets(_numbers, max_size=1),
                       _numbers.map(ClassElement)), max_size=4),
)


@settings(max_examples=200)
@given(_pools, st.integers(0, 4), st.integers(0, 2))
def test_families_within_matches_canonicalize_dedupe_and_sort(pool, size, omega):
    try:
        expected = _families_within_by_sorting(pool, size, omega)
    except TypeError:
        with pytest.raises(TypeError):
            families_within(pool, size, omega)
        return
    got = families_within(pool, size, omega)
    assert [repr(f) for f in got] == [repr(f) for f in expected]
    assert got == expected
    for fam in got:
        assert repr(canonicalize(fam.items())) == repr(fam)


def _families_within_by_counting(pool, max_size, max_omega):
    """families_within as it was: every word of positions drawn anew for each
    omega size, its finite part counted with a ``Counter``. The oracle of the
    word-by-word build."""
    pool = sorted(dict.fromkeys(pool), key=canonical_key)
    ids = range(len(pool))
    fams = []
    for k in range(max_size + 1):
        for j in range(max_omega + 1):
            omegas = [(frozenset(osub), tuple([pool[i] for i in osub]))
                      for osub in itertools.combinations(ids, j)]
            for word in itertools.combinations_with_replacement(ids, k):
                finite = tuple([(pool[i], c) for i, c in Counter(word).items()])
                for osub, omega in omegas:
                    if osub.isdisjoint(word):
                        fams.append(Family(finite, omega))
    return fams


# a number and its class element are unequal and share a canonical key
_shared_keys = st.lists(st.one_of(st.integers(-1, 2), st.just(Fraction(1, 2)),
                                  st.integers(-1, 2).map(ClassElement)),
                        max_size=6)


@settings(max_examples=300)
@given(st.one_of(_pools, _shared_keys), st.integers(-1, 4), st.integers(-1, 2))
def test_families_within_builds_the_counted_words_word_by_word(pool, size,
                                                               omega):
    # a negative size or omega count admits no family
    try:
        expected = _families_within_by_counting(pool, size, omega)
    except TypeError:
        with pytest.raises(TypeError):
            families_within(pool, size, omega)
        return
    got = families_within(pool, size, omega)
    assert [repr(f) for f in got] == [repr(f) for f in expected]
    assert [(f.finite, f.omega) for f in got] == \
        [(f.finite, f.omega) for f in expected]


# -- canonical form against the code the fast paths replaced --------------------


def _canonical_key_oracle(e):
    sk = getattr(e, "sort_key", None)
    if callable(sk):
        return sk()
    if isinstance(e, frozenset):
        return (len(e), tuple(sorted(_canonical_key_oracle(x) for x in e)))
    if isinstance(e, tuple):
        return tuple(_canonical_key_oracle(x) for x in e)
    if isinstance(e, (int, float, Fraction, str)):
        return e
    raise TypeError(f"no canonical order for {e!r} of type {type(e).__name__}")


def _canonicalize_oracle(raw):
    counts: dict = {}
    om: dict = {}
    for e, c in raw:
        if is_omega(c):
            om[e] = True
            continue
        if isinstance(c, float):
            if not c.is_integer():
                raise ValueError(f"non-integer count {c!r}")
            c = int(c)
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"bad count {c!r}")
        if c < 0:
            raise ValueError(f"negative count {c!r}")
        if c == 0:
            continue
        counts[e] = counts.get(e, 0) + c
    for e in om:
        counts.pop(e, None)
    fin = tuple(sorted(counts.items(),
                       key=lambda p: _canonical_key_oracle(p[0])))
    ome = tuple(sorted(om, key=_canonical_key_oracle))
    return Family(fin, ome)


class _Natural(int):
    """An int subclass: as a count it takes the checked path."""


class _Backwards(str):
    """A str subclass with a sort key of its own, which the key must use."""

    def sort_key(self):
        return self[::-1]


def _outcome(fn, arg):
    """What ``fn(arg)`` gives, with the types a repr does not show, or the
    type and message of what it raises."""
    try:
        out = fn(arg)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(out, Family):
        return (repr(out), [(type(e), type(c)) for e, c in out.finite],
                [type(e) for e in out.omega])
    return repr(out), type(out)


_counts = st.one_of(
    st.integers(-2, 3), st.integers(-2, 3).map(float),
    st.integers(-1, 3).map(_Natural),
    st.sampled_from([1.5, -0.5, math.nan, math.inf, -math.inf, OMEGA,
                     True, False, "1", None]))
_no_order = st.sampled_from([complex(1, 2), None, b"a"])


def _raws(elements, max_size=5):
    return st.lists(st.tuples(elements, _counts), max_size=max_size)


@settings(max_examples=600)
@given(st.one_of(
    _raws(st.sampled_from([1, 1.0, Fraction(1), True, _Natural(1)])),
    _raws(_numbers),
    _raws(_strings),
    _raws(st.sampled_from(["ab", "ba", "ca", "ac"]).map(_Backwards)),
    _raws(st.frozensets(_strings, max_size=2)),
    _raws(st.lists(_strings, max_size=2).map(
        lambda word: ClassElement(Family.of(*word)))),
    _raws(_numbers.map(ClassElement)),
    # mixed kinds have no canonical order
    _raws(st.one_of(_numbers, _strings, st.frozensets(_strings, max_size=1))),
    # one element without a canonical order still raises
    _raws(_no_order, max_size=1),
))
def test_canonicalize_matches_the_unspecialised_oracle(raw):
    assert _outcome(canonicalize, raw) == _outcome(_canonicalize_oracle, raw)
    for e, _ in raw:
        assert (_outcome(canonical_key, e)
                == _outcome(_canonical_key_oracle, e))


def test_canonicalize_count_errors_keep_their_messages():
    for c, message in ((1.5, "non-integer count 1.5"),
                       (math.nan, "non-integer count nan"),
                       (-math.inf, "non-integer count -inf"),
                       (True, "bad count True"), ("1", "bad count '1'"),
                       (-1, "negative count -1"),
                       (-2.0, "negative count -2"),
                       (_Natural(-1), "negative count -1")):
        with pytest.raises(ValueError) as new:
            canonicalize([("a", c)])
        assert str(new.value) == message
    with pytest.raises(TypeError, match="no canonical order"):
        canonicalize([(None, 1)])
    assert canonicalize([("a", _Natural(2)), ("b", 2.0)]) == Family.from_counts(
        [("a", 2), ("b", 2)])


_counted = st.one_of(st.integers(0, 3), st.just(OMEGA))


@settings(max_examples=300)
@given(st.one_of(*(
    st.lists(st.tuples(elements, _counted), max_size=6) for elements in (
        _numbers, _strings,
        st.sampled_from(["ab", "ba", "ca", "ac"]).map(_Backwards),
        # a class and its representative share a sort key: ties keep order
        st.one_of(_numbers, _numbers.map(ClassElement))))))
def test_without_matches_recanonicalising(raw):
    # every finite element, every omega element and one absent element
    fam = canonicalize(raw)
    for e in fam.support() + ("absent",):
        assert fam.without(e) == canonicalize(
            (x, c) for x, c in fam.items() if x != e)


# -- cached hashes --------------------------------------------------------------


def test_cached_hashes_are_the_dataclass_values():
    fam = Family.from_counts([("a", 2), ("b", 1)], omega=["c"])
    assert hash(fam) == hash((fam.finite, fam.omega))
    cls = ClassElement(fam)
    assert hash(cls) == hash((fam,))
    assert hash(ClassElement(1)) == hash((1,))


_PICKLE = ("import pickle, sys; from sigmasum.core import ClassElement; "
           "from sigmasum.family import Family; f = Family.of('a', 'b'); "
           "c = ClassElement(f); ")


def test_unpickled_family_and_class_rehash_under_another_hash_seed():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    dump = subprocess.run(
        [sys.executable, "-c", _PICKLE + "hash(f), hash(c); "
         "sys.stdout.write(pickle.dumps((f, c)).hex())"],
        capture_output=True, text=True, timeout=120,
        env=dict(env, PYTHONHASHSEED="1"))
    assert dump.returncode == 0, dump.stderr
    load = subprocess.run(
        [sys.executable, "-c", _PICKLE + "g, d = pickle.loads(bytes.fromhex("
         "sys.stdin.read())); print(g == f, hash(g) == hash(f), g in {f}, "
         "d == c, hash(d) == hash(c), d in {c})"],
        input=dump.stdout, capture_output=True, text=True, timeout=120,
        env=dict(env, PYTHONHASHSEED="2"))
    assert (load.returncode, load.stdout, load.stderr) == (
        0, "True True True True True True\n", "")


def test_copies_are_equal_with_equal_hashes():
    fam = Family.from_counts([("a", 2)], omega=["b"])
    cls = ClassElement(fam)
    hash(cls), fam.sort_key()
    for copied in (copy.copy(fam), copy.deepcopy(fam)):
        assert copied == fam and hash(copied) == hash(fam)
        assert copied.sort_key() == fam.sort_key()
    for copied in (copy.copy(cls), copy.deepcopy(cls)):
        assert copied == cls and hash(copied) == hash(cls)
    assert pickle.loads(pickle.dumps(cls)) == cls
    assert "_hash" not in fam.__getstate__()
