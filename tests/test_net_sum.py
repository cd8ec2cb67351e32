import dataclasses
import heapq
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmasum.core import Budget, CarrierError, ConstructionError, Defined, UNDEFINED
from sigmasum.family import Family, families_within, map_family
from sigmasum import net_sum
from sigmasum.checker import (
    FLAVORS,
    LAWS,
    check_hausdorff_axioms,
    conclude_flavor,
)
from sigmasum.instances import (
    FiniteMonoid,
    cyclic_instance,
    cyclic_monoid,
    discrete_instance,
    extended_sum_discrete,
)
from sigmasum.net_sum import (
    AbsoluteBound,
    CertificateError,
    GeneratorFamily,
    NetVerdict,
    SubfamilySummary,
    alternating_harmonic,
    extended_sum_real,
    finite_terms,
    geometric,
    parse_generator_spec,
    power_terms,
    reordered,
)

BUDGET = Budget(max_finite_size=4, max_omega_elems=1, trials=0, seed=7)


# -- certified convergence ------------------------------------------------------


def test_geometric_half_converges_to_closed_form():
    verdict = extended_sum_real(geometric(0.5, 0.5), eps=1e-9)
    assert verdict.converged
    assert abs(verdict.value - 1.0) <= 1e-9  # oracle: a / (1 - r) = 1
    assert verdict.error_bound <= 1e-9


def test_finite_support_exact():
    verdict = extended_sum_real(finite_terms(1, 2, 3), eps=1e-9)
    assert verdict.converged
    assert verdict.value == 6.0 and verdict.error_bound == 0.0


# an eps below every nonzero term makes the engine consume the whole family,
# so the bound is zero and the value must be the correctly rounded sum
CONSUME_ALL = 5e-324


def sum_whole(values):
    return extended_sum_real(finite_terms(*values), CONSUME_ALL,
                             len(values) + 1)


@pytest.mark.parametrize("values", [
    [6.342554509871312e-20, -4.7980997016689566e+19,
     -9.352233222740169e-18, -8.125380847859553e+19],
    [-3.678659301417242e+16, 8.86999236164998e-19,
     -4.750307123698028e+16, 1.0602864401637314e-18],
])
def test_certified_sum_is_correctly_rounded(values):
    verdict = sum_whole(values)
    assert verdict.converged
    assert verdict.value == math.fsum(values) and verdict.error_bound == 0


@given(st.lists(st.builds(lambda m, e: m * 10.0 ** e,
                          st.floats(-10, 10), st.integers(-20, 20)),
                min_size=1, max_size=8))
def test_certified_sum_matches_exact_rounding(values):
    verdict = sum_whole(values)
    assert verdict.converged and verdict.error_bound == 0
    assert verdict.value == math.fsum(values)
    assert verdict.value == float(sum(map(Fraction, values)))


def test_certified_sum_beyond_float_range_overflows():
    with pytest.raises(OverflowError):
        extended_sum_real(finite_terms(1e308, 1e308), 1e-9, 3)


def test_power_terms_certified_tail():
    verdict = extended_sum_real(power_terms(2.0), eps=1e-4)
    assert verdict.converged
    assert abs(verdict.value - math.pi ** 2 / 6) <= 2e-4


def test_error_bound_monotone_in_prefix():
    cert = geometric(0.5, 0.5).certificate
    tails = [cert.sorted_tail(n) for n in range(40)]
    assert tails == sorted(tails, reverse=True)


def test_certificate_violation_detected():
    lying = GeneratorFamily(
        gen=lambda i: 1.0,
        certificate=AbsoluteBound(lambda i: 0.5 ** i,
                                  lambda n: 0.5 ** n),
        description="lying",
    )
    with pytest.raises(CertificateError):
        extended_sum_real(lying, eps=1e-9)


def test_certificate_slack_scales_with_a_large_bound():
    # gen and bound differ by an ulp or so; an absolute slack of 1e-12 is
    # below one ulp of 3e19
    a, r = 3e20, 0.1
    gf = GeneratorFamily(
        gen=lambda i: a * math.exp(i * math.log(r)),
        certificate=AbsoluteBound(lambda i: a * r ** i,
                                  lambda n: a * r ** (n + 1) / (1 - r), 0))
    assert gf.gen(1) > gf.certificate.bound(1)
    verdict = extended_sum_real(gf, eps=1e-9)
    assert verdict.converged and verdict.value == pytest.approx(a / (1 - r))


def test_certificate_slack_is_none_at_a_zero_bound():
    gf = GeneratorFamily(
        gen=lambda i: 5e-13 if i == 0 else 0.0,
        certificate=AbsoluteBound(lambda i: 0.0, lambda n: 0.0))
    with pytest.raises(CertificateError):
        extended_sum_real(gf, eps=1e-9)


@pytest.mark.parametrize("k", [0, None])
@pytest.mark.parametrize("term, bound", [(1000.0, math.nan), (math.nan, 0.125)],
                         ids=["nan-bound", "nan-term"])
def test_nan_term_or_bound_is_a_certificate_error_at_its_index(term, bound,
                                                               k):
    # NaN compares false both ways, so the check must be written to fail on it
    gf = GeneratorFamily(
        gen=lambda n: term if n == 3 else 0.5 ** n,
        certificate=AbsoluteBound(lambda n: bound if n == 3 else 0.5 ** n,
                                  lambda n: 0.5 ** n, k))
    with pytest.raises(CertificateError, match=rf"\|gen\(3\)\| = {term} "):
        extended_sum_real(gf, eps=1e-9)


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        extended_sum_real(geometric(0.5, 0.5), eps=0)


@pytest.mark.parametrize("gf", [geometric(0.5, 0.5), alternating_harmonic()])
@pytest.mark.parametrize("max_terms", [0, -5])
def test_max_terms_must_be_positive(gf, max_terms):
    with pytest.raises(ValueError):
        extended_sum_real(gf, 1e-9, max_terms)


# -- the lazy certified order ------------------------------------------------------


def full_sort_oracle(gf, eps, max_terms):
    """The certified loop as a full sort of every index by (-bound, index)."""
    cert = gf.certificate
    order = sorted(range(max_terms), key=lambda i: (-cert.bound(i), i))
    terms = []
    for n, i in enumerate(order):
        term = gf.gen(i)
        b = cert.bound(i)
        if abs(term) > b + 1e-12 * b:
            raise CertificateError(f"|gen({i})| = {abs(term)} exceeds bound {b}")
        terms.append(term)
        tail = cert.sorted_tail(n)
        if tail < eps:
            return NetVerdict("converged", math.fsum(terms), tail,
                              terms_used=n + 1)
    return NetVerdict("inconclusive", terms_used=max_terms)


def instrumented(gf):
    """``gf`` with gen and bound wrapped to log the indices they are called
    with."""
    log = {"gen": [], "bound": []}

    def gen(i):
        log["gen"].append(i)
        return gf.gen(i)

    def bound(i):
        log["bound"].append(i)
        return gf.certificate.bound(i)

    cert = dataclasses.replace(gf.certificate, bound=bound)
    return dataclasses.replace(gf, gen=gen, certificate=cert), log


def outcome(engine, gf, eps, max_terms):
    gf, log = instrumented(gf)
    try:
        result = engine(gf, eps, max_terms)
    except CertificateError as exc:
        result = (type(exc), str(exc))
    return result, log["gen"]


SMALL = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, 1.0, -1.0, 2.0, 3.0])


@st.composite
def hand_built(draw):
    """Bounds over a finite index range with ties and zeros; terms mostly
    within them. Declared or not: a declared tail is non-increasing."""
    head = draw(st.lists(SMALL.map(abs), max_size=8))
    declared = draw(st.booleans())
    tail = (sorted(draw(st.lists(SMALL.map(abs), max_size=8)), reverse=True)
            if declared else [])
    bounds = head + tail
    scale = draw(st.lists(st.sampled_from([1.0, -1.0, 0.5, 0.0, 1.5]),
                          min_size=len(bounds), max_size=len(bounds)))
    terms = [b * s for b, s in zip(bounds, scale)]
    ranked = sorted(bounds, reverse=True)
    return GeneratorFamily(
        gen=lambda i: terms[i] if i < len(terms) else 0.0,
        certificate=AbsoluteBound(
            bound=lambda i: bounds[i] if i < len(bounds) else 0.0,
            sorted_tail=lambda n: math.fsum(ranked[n + 1:]),
            nonincreasing_from=len(head) if declared else None))


STOCK = st.one_of(
    st.lists(SMALL, max_size=8).map(lambda vs: finite_terms(*vs)),
    st.builds(geometric, st.sampled_from([1.0, -3.0, 0.5]),
              st.sampled_from([-0.75, -0.5, 0.0, 0.25, 0.5])),
    st.builds(power_terms, st.sampled_from([1.5, 2.0, 3.0])),
    hand_built(),
)


@st.composite
def certified_families(draw):
    gf = draw(STOCK)
    if draw(st.booleans()):
        gf = reordered(gf, draw(st.permutations(range(draw(st.integers(0, 12))))))
    return gf


@given(certified_families(), st.sampled_from([1e-30, 1e-9, 1e-3, 0.1, 10.0]),
       st.integers(-3, 3), st.integers(1, 60))
def test_lazy_order_matches_full_sort(gf, eps, offset, free_terms):
    k = gf.certificate.nonincreasing_from
    for max_terms in {max(1, (k or 0) + offset), free_terms}:
        assert outcome(extended_sum_real, gf, eps, max_terms) == \
            outcome(full_sort_oracle, gf, eps, max_terms)


def per_term_certified(gf, eps, max_terms):
    """The certified loop term by term, as it was before the block-wise one:
    the sorted head merged lazily with the tail, each tail bound checked
    against the one before."""
    cert = gf.certificate
    k = cert.nonincreasing_from
    k = max_terms if k is None else min(k, max_terms)
    head = sorted((-cert.bound(i), i) for i in range(k))
    rest = ((-cert.bound(i), i) for i in range(k, max_terms))
    terms, floor_index, floor = [], None, math.inf
    for n, (neg_bound, i) in enumerate(heapq.merge(head, rest)):
        b = -neg_bound
        if i >= k:
            if b > floor:
                raise CertificateError(
                    f"bound({i}) = {b} exceeds bound({floor_index}) = {floor}, "
                    f"though declared non-increasing from {k}")
            floor_index, floor = i, b
        term = gf.gen(i)
        if abs(term) > b + 1e-12 * b:
            raise CertificateError(f"|gen({i})| = {abs(term)} exceeds bound {b}")
        terms.append(term)
        tail = cert.sorted_tail(n)
        if tail < eps:
            return NetVerdict("converged", math.fsum(terms), tail,
                              terms_used=n + 1)
    return NetVerdict("inconclusive", terms_used=max_terms)


def late_faults(k, rise, over, head_scale):
    """Bounds (i + 1) ** -2, times ``head_scale`` below ``k``, declared
    non-increasing from ``k``; bound(rise) doubled and gen(over) three times
    its bound. With a scaled-down head, tail indices come out of the merge
    before the head is used up."""
    def bound(i):
        b = (i + 1.0) ** -2 * (head_scale if i < k else 1.0)
        return 2.0 * b if i == rise else b

    return GeneratorFamily(
        gen=lambda i: 3 * bound(i) if i == over else -bound(i),
        certificate=AbsoluteBound(bound, lambda n: 2 / (n + 1.0), k))


LATE_FAULTS = st.builds(late_faults, st.integers(0, 20),
                        st.none() | st.integers(1, 250),
                        st.none() | st.integers(0, 250),
                        st.sampled_from([1.0, 1e-3]))


@settings(deadline=None)
@given(st.one_of(certified_families(), LATE_FAULTS),
       st.sampled_from([1e-30, 1e-12, 1e-6, 1e-2, 0.1]), st.integers(49, 400))
# tail bound 11 rises while the head is still merged in
@example(late_faults(5, 11, None, 1e-3), 1e-6, 100)
def test_blockwise_certified_matches_the_per_term_loop(gf, eps, max_terms):
    assert outcome(extended_sum_real, gf, eps, max_terms) == \
        outcome(per_term_certified, gf, eps, max_terms)


PERM64 = random.Random(3).sample(range(64), 64)


@pytest.mark.parametrize("gf", [
    finite_terms(1, 2, 3), geometric(0.5, 0.5),
    reordered(geometric(0.5, 0.5), PERM64)])
def test_certified_cost_follows_the_terms_used(gf):
    gf, log = instrumented(gf)
    verdict = extended_sum_real(gf)
    assert verdict.converged
    head = gf.certificate.nonincreasing_from
    assert len(log["bound"]) <= head + 4 * (verdict.terms_used + 1)
    assert len(log["gen"]) == verdict.terms_used


def test_negative_declaration_is_rejected():
    with pytest.raises(ValueError):
        AbsoluteBound(lambda i: 0.0, lambda n: 0.0, nonincreasing_from=-1)


def test_rising_bound_in_a_declared_tail_is_detected():
    bounds = [1.0, 0.5, 0.25, 0.75] + [0.0] * 10
    gf = GeneratorFamily(
        gen=lambda i: bounds[i] if i < len(bounds) else 0.0,
        certificate=AbsoluteBound(
            lambda i: bounds[i] if i < len(bounds) else 0.0,
            lambda n: 1.0, nonincreasing_from=0))
    with pytest.raises(CertificateError, match=r"bound\(3\)"):
        extended_sum_real(gf, eps=1e-9)


def test_negative_tail_at_the_stop_is_a_certificate_error():
    gf = GeneratorFamily(gen=lambda i: 0.5 ** i,
                         certificate=AbsoluteBound(lambda i: 0.5 ** i,
                                                   lambda n: -1.0 if n >= 2
                                                   else 1.0, 0))
    with pytest.raises(CertificateError, match=r"^sorted_tail\(2\) = -1.0 is "
                                               r"negative$"):
        extended_sum_real(gf, eps=1e-9)
    # a negative zero is zero: the bound holds
    zero = GeneratorFamily(gen=lambda i: 0.0, certificate=AbsoluteBound(
        lambda i: 0.0, lambda n: -0.0, 0))
    assert extended_sum_real(zero, eps=1e-9) == NetVerdict(
        "converged", 0.0, -0.0, terms_used=1)


def test_nan_tail_never_stops_the_certified_engine():
    gf = GeneratorFamily(gen=lambda i: 0.5 ** i,
                         certificate=AbsoluteBound(lambda i: 0.5 ** i,
                                                   lambda n: math.nan, 0))
    assert extended_sum_real(gf, eps=1e-9, max_terms=50) == NetVerdict(
        "inconclusive", terms_used=50)


# -- divergence and inconclusive ---------------------------------------------------


def test_alternating_harmonic_diverges_with_nested_witnesses():
    verdict = extended_sum_real(alternating_harmonic(), eps=1e-9)
    assert verdict.kind == "diverged"
    first, second = verdict.evidence
    assert first.count < second.count
    assert second.partial_sum - first.partial_sum > 0.1


def test_fast_divergence_stops_at_the_term_overflow():
    # 2.0 ** 1024 raises OverflowError, so gen runs on indices 0..1024
    gf, calls = counting(geometric(1.0, 2.0))
    verdict = extended_sum_real(gf, eps=1e-9, max_terms=5000)
    assert verdict.kind == "diverged"
    assert verdict.terms_used == 1025 and calls == list(range(1025))
    assert verdict.evidence[1].description.endswith("(term overflow)")


def test_large_equal_terms_beyond_a_million_are_not_divergent():
    # 1,000,001 terms of 2 ** 40, then zeros: the half-budget prefix (the
    # first 1,000,002 indices) already holds every nonzero term
    gf = GeneratorFamily(lambda i: 2.0 ** 40 if i < 1_000_001 else 0.0)
    verdict = extended_sum_real(gf, eps=1e-9, max_terms=2_000_004)
    assert verdict == NetVerdict("inconclusive", terms_used=2_000_004)


def test_uncertified_convergent_is_inconclusive():
    gf = GeneratorFamily(lambda i: (-1.0) ** i / (i + 1) ** 2, None, "no cert")
    verdict = extended_sum_real(gf, eps=1e-9, max_terms=20_000)
    assert verdict.kind == "inconclusive"


def test_certified_but_budget_too_small_is_inconclusive():
    verdict = extended_sum_real(geometric(0.5, 0.5), eps=1e-30, max_terms=10)
    assert verdict.kind == "inconclusive"


# -- permutation invariance ----------------------------------------------------------


def test_reorderings_agree_within_twice_eps():
    base = geometric(0.5, 0.5)
    rng = random.Random(7)
    values = []
    for _ in range(10):
        perm = list(range(64))
        rng.shuffle(perm)
        verdict = extended_sum_real(reordered(base, perm), eps=1e-9)
        assert verdict.converged and abs(verdict.value - 1.0) <= 1e-9
        values.append(verdict.value)
    assert max(values) - min(values) <= 2e-9


def test_reordered_requires_permutation():
    with pytest.raises(ValueError):
        reordered(geometric(0.5, 0.5), [0, 0, 1])


def test_subnet_prefix_consistency():
    # evaluating along coarser cofinal prefixes gives the same limit
    base = geometric(0.5, 0.5)
    v_fine = extended_sum_real(base, eps=1e-9)
    v_coarse = extended_sum_real(base, eps=1e-6)
    assert abs(v_fine.value - v_coarse.value) <= 1e-6 + 1e-9


EVIDENCE_RE = re.compile(
    r"^(positive|negative) terms among (?:indices 0\.\.(\d+)|no indices)")


def named_sum(gen, summary):
    """The count and the exact sum of the one-signed terms a summary names."""
    sign, last = EVIDENCE_RE.match(summary.description).groups()
    n = 0 if last is None else int(last) + 1
    side = 1 if sign == "positive" else -1
    terms = [side * t for t in map(gen, range(n)) if side * t > 0]
    return len(terms), math.fsum(terms)


CYCLING = GeneratorFamily(lambda i: (1.0, 1e-16, -1e-16)[i % 3], None,
                          "cycling")


@pytest.mark.parametrize("gf", [alternating_harmonic(), power_terms(1.0),
                                power_terms(0.5), CYCLING],
                         ids=lambda gf: gf.description)
def test_probe_evidence_sums_the_sets_it_names(gf):
    verdict = extended_sum_real(gf, 1e-9, 20_001)
    assert verdict.kind == "diverged"
    for summary in verdict.evidence:
        assert (summary.count, summary.partial_sum) == named_sum(gf.gen, summary)


def test_probe_stopped_by_a_term_overflow_names_what_it_summed():
    # 2.0 ** 1024 raises, so the probe stops at index 1024, before the
    # half-budget index 2500
    verdict = extended_sum_real(geometric(1.0, 2.0), eps=1e-9, max_terms=5000)
    first, second = verdict.evidence
    assert second.description == \
        "positive terms among indices 0..1023 (term overflow)"
    assert (second.count, second.partial_sum) == (1024, math.inf)
    n = int(EVIDENCE_RE.match(first.description).group(2)) + 1
    assert n in {a for a, _ in net_sum._blocks(0, 2500)} and n <= 1024
    assert (first.count, first.partial_sum) == named_sum(geometric(1.0, 2.0).gen,
                                                         first)


def test_probe_partial_sums_are_never_nan():
    # an infinite term made the old compensated sum nan
    verdict = extended_sum_real(geometric(1e300, 10), max_terms=2000)
    assert verdict.kind == "diverged"
    assert [s.partial_sum for s in verdict.evidence] == [math.inf, math.inf]


def test_probe_overflow_at_index_zero_names_the_empty_prefix():
    verdict = extended_sum_real(GeneratorFamily(lambda i: 2.0 ** (1024 + i)))
    assert verdict.evidence == (
        SubfamilySummary("positive terms among no indices", 0, 0.0),
        SubfamilySummary("positive terms among no indices (term overflow)",
                         0, 0.0))


def counting(gf):
    calls = []

    def gen(i):
        calls.append(i)
        return gf.gen(i)

    return dataclasses.replace(gf, gen=gen), calls


def test_probe_calls_gen_once_per_index_of_the_budget():
    gf, calls = counting(alternating_harmonic())
    assert extended_sum_real(gf).kind == "diverged"
    assert calls == list(range(200_000))


@pytest.mark.parametrize("eps, used", [(1e-5, 100_001), (2e-5, 50_001)])
def test_certified_power_calls_gen_once_per_term_used(eps, used):
    # sorted_tail(n) = 1 / (n + 1) first drops below eps at n = 1 / eps
    gf, calls = counting(power_terms(2.0))
    verdict = extended_sum_real(gf, eps)
    assert verdict.terms_used == used and calls == list(range(used))


# -- the block-wise probe against the term-by-term one ------------------------------


def exact_total(terms):
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def per_term_probe(gf, eps, max_terms):
    """The probe term by term, with exact sums: a stop before the
    half-budget index names the prefix up to the start of its block."""
    half = max_terms // 2
    starts = [a for a, _ in net_sum._blocks(0, half)]
    seen = []

    def summary(sign, n, note=""):
        side = 1 if sign == "positive" else -1
        terms = [side * t for t in seen[:n] if side * t > 0]
        where = f"indices 0..{n - 1}" if n else "no indices"
        return SubfamilySummary(f"{sign} terms among {where}{note}",
                                len(terms), exact_total(terms))

    def first(sign, i):
        return summary(sign, half if i >= half else
                       max(a for a in starts if a <= i))

    for i in range(max_terms):
        try:
            term = gf.gen(i)
        except OverflowError:
            pos, neg = (summary(s, i) for s in ("positive", "negative"))
            sign = "positive" if pos.partial_sum >= neg.partial_sum else "negative"
            return NetVerdict("diverged", evidence=(
                first(sign, i), summary(sign, i, " (term overflow)")),
                terms_used=i + 1)
        seen.append(term)
    for sign in ("positive", "negative"):
        start, end = summary(sign, half), summary(sign, max_terms)
        if end.partial_sum - start.partial_sum > max(net_sum.CAUCHY_FLOOR,
                                                     1000 * eps):
            return NetVerdict("diverged", evidence=(start, end),
                              terms_used=max_terms)
    return NetVerdict("inconclusive", terms_used=max_terms)


PROBE_TERMS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                               1.0, -1.0, 0.5, -2.0, 3.0, 1e-16, 1e300,
                               -1e300, 1.7e308])
# values on, before and after the block boundaries of both halves
NEAR_BOUNDARIES = sorted({c + d for c in (16, 32, 48, 64, 96, 112, 128, 224,
                                          240, 480) for d in (-1, 0, 1)})


@settings(max_examples=300, deadline=None)
@given(st.lists(PROBE_TERMS, min_size=1, max_size=6),
       st.dictionaries(st.integers(0, 600), PROBE_TERMS, max_size=4),
       st.none() | st.integers(0, 600),
       st.one_of(st.integers(1, 600), st.sampled_from(NEAR_BOUNDARIES)),
       st.sampled_from([1e-9, 1e-3, 1.0]))
# a large term in the middle of the block 16..47
@example([1.0], {40: 1e3}, None, 1000, 1e-9)
# a term overflow in the middle of the block 16..47
@example([1.0], {}, 30, 1000, 1e-9)
def test_block_probe_matches_the_per_term_probe(pattern, specials, raise_at,
                                                 max_terms, eps):
    def term(i):
        if i == raise_at:
            raise OverflowError("term overflow")
        return specials.get(i, pattern[i % len(pattern)])

    gf, calls = counting(GeneratorFamily(term))
    verdict = extended_sum_real(gf, eps, max_terms)
    assert verdict == per_term_probe(GeneratorFamily(term), eps, max_terms)
    # gen runs on the whole budget, or up to and including the overflow
    assert calls == list(range(verdict.terms_used))
    assert not any(math.isnan(s.partial_sum) for s in verdict.evidence or ())


# -- discrete monoids --------------------------------------------------------------------


def test_discrete_fold_oracle_mod_two():
    z2 = cyclic_monoid(2)
    assert extended_sum_discrete(z2, Family.of(1, 1, 1)) == Defined(1)
    assert extended_sum_discrete(
        z2, Family.from_counts([], omega=[0])) == Defined(0)
    assert extended_sum_discrete(
        z2, Family.from_counts([], omega=[1])) == UNDEFINED


def test_discrete_rejects_foreign_elements():
    with pytest.raises(CarrierError):
        extended_sum_discrete(cyclic_monoid(2), Family.of(7))
    # the instance checks its carrier before the rule runs
    with pytest.raises(CarrierError, match="^7 is not in the carrier of "):
        discrete_instance(cyclic_monoid(2)).sum(Family.of(7))


def test_monoid_table_validated():
    with pytest.raises(ConstructionError, match="^1: identity law fails$"):
        FiniteMonoid((0, 1), lambda a, b: 0, identity=0)
    # on {1, 2} the left element wins: closed, with identity 0
    with pytest.raises(ConstructionError, match=r"^\(1,2\): not commutative$"):
        FiniteMonoid((0, 1, 2), lambda a, b: a or b, identity=0)
    # 1 + 1 = 2, 1 + 2 = 0 and 2 + 2 = 2: (1 + 1) + 2 = 2 but 1 + (1 + 2) = 1
    table = {(1, 1): 2, (1, 2): 0, (2, 1): 0, (2, 2): 2}
    with pytest.raises(ConstructionError, match=r"^\(1,1,2\): not associative$"):
        FiniteMonoid((0, 1, 2), lambda a, b: table.get((a, b), a + b), 0)


def test_monoid_identity_must_be_an_element():
    # max has 0 as its identity on {1, 2}, but the empty family's sum, the
    # identity, would lie outside the monoid
    with pytest.raises(ConstructionError, match="^identity 0 is not an element$"):
        FiniteMonoid((1, 2), max, 0)
    with pytest.raises(ConstructionError, match="^identity 0 is not an element$"):
        cyclic_monoid(0)
    # the closure check comes first
    with pytest.raises(ConstructionError, match=r"^\(1,1\): 2 is not an element$"):
        FiniteMonoid((1,), lambda a, b: a + b, 0)


def test_monoid_table_must_be_closed():
    # 1 + 1 = 2 lies outside {0, 1}; the discrete sum of {1, 1} would be 2
    with pytest.raises(ConstructionError, match=r"^\(1,1\): 2 is not an element$"):
        FiniteMonoid((0, 1), lambda a, b: a + b, 0)


def test_discrete_agrees_with_direct_instance():
    # net semantics versus the directly defined modular instance
    for n in (2, 4):
        monoid = cyclic_monoid(n)
        direct = cyclic_instance(n)
        for fam in families_within(range(n), 4, 1):
            assert extended_sum_discrete(monoid, fam) == direct.sum(fam)


def test_continuous_hom_preserves_extended_sums():
    z4, z2 = cyclic_monoid(4), cyclic_monoid(2)
    h = lambda x: x % 2
    for fam in families_within(range(4), 4, 1):
        r = extended_sum_discrete(z4, fam)
        if r.defined:
            assert extended_sum_discrete(z2, map_family(h, fam)) == \
                Defined(h(r.value))


def test_discrete_instance_passes_weak_and_ft_suites():
    inst = discrete_instance(cyclic_monoid(2))
    report = check_hausdorff_axioms(inst, BUDGET)
    assert report.ok
    laws = {v.law for v in report.laws}
    assert "finite_totality" in laws and "bracketing" in laws


def test_discrete_sum_of_absorbing_multiples():
    # the partial sums of {omega: [1]} under max are 1 from one copy on, and
    # those of {finite: [1], omega: [1]} under min(a + b, 2) are 2
    semilattice = FiniteMonoid((0, 1), max, 0)
    assert extended_sum_discrete(
        semilattice, Family.from_counts([], omega=[1])) == Defined(1)
    counter = FiniteMonoid((0, 1, 2), lambda a, b: min(a + b, 2), 0)
    assert extended_sum_discrete(
        counter, Family.from_counts([(1, 1)], omega=[1])) == Defined(2)
    assert discrete_instance(counter).sum(
        Family.from_counts([], omega=[2])) == Defined(2)


def _table_monoid(n, op, name="table"):
    """The monoid on range(n) with identity 0, its operation tabulated."""
    table = [[op(a, b) for b in range(n)] for a in range(n)]
    return FiniteMonoid(range(n), lambda a, b: table[a][b], 0, name=name)


def _cyclic(k):
    return _table_monoid(k, lambda a, b: (a + b) % k, f"Z{k}")


def _semilattice(k):
    return _table_monoid(k, max, f"max{k}")


def _saturating(c):
    return _table_monoid(c + 1, lambda a, b: min(a + b, c), f"sat{c}")


def _product(m1, m2):
    n2 = len(m2.elements)
    return _table_monoid(
        len(m1.elements) * n2,
        lambda a, b: m1.op(a // n2, b // n2) * n2 + m2.op(a % n2, b % n2),
        f"{m1.name}x{m2.name}")


def _absorbing(m):
    top = len(m.elements)
    return _table_monoid(top + 1,
                         lambda a, b: top if top in (a, b) else m.op(a, b),
                         f"{m.name}+top")


def _net_limit(monoid, fam):
    """The limit of the net of finite partial sums, from the definition: the
    value v with some finite subfamily F0 such that every finite subfamily
    containing F0 sums to v. A subfamily is the finite part (a net limit
    above F0 is also one above F0 plus the finite part) and n_i copies of
    the i-th omega element. Powers of an element repeat with period at most
    |M| once past an index below |M|, so F0 with n_i <= |M| and subfamilies
    with n_i <= 2|M| see every partial sum above F0."""
    size = len(monoid.elements)
    base = monoid.identity
    for e, c in fam.finite:
        for _ in range(c):
            base = monoid.op(base, e)
    powers = []
    for e in fam.omega:
        row = [monoid.identity]
        for _ in range(2 * size):
            row.append(monoid.op(row[-1], e))
        powers.append(row)
    partial = {}
    for ns in itertools.product(range(2 * size + 1), repeat=len(powers)):
        acc = base
        for row, n in zip(powers, ns):
            acc = monoid.op(acc, row[n])
        partial[ns] = acc
    for start in itertools.product(range(size + 1), repeat=len(powers)):
        above = {v for ns, v in partial.items()
                 if all(n >= s for n, s in zip(ns, start))}
        if len(above) == 1:
            return Defined(above.pop())
    return UNDEFINED


_small = st.one_of(st.integers(1, 3).map(_cyclic),
                   st.integers(1, 3).map(_semilattice),
                   st.integers(1, 2).map(_saturating))
_monoids = st.one_of(_small, st.builds(_product, _small, _small),
                     _small.map(_absorbing),
                     st.builds(_product, _small, _small).map(_absorbing))


@settings(max_examples=150)
@given(_monoids, st.data())
def test_discrete_sum_matches_the_net_limit(monoid, data):
    elements = st.sampled_from(monoid.elements)
    for _ in range(3):
        fam = Family.from_counts(
            [(e, 1) for e in data.draw(st.lists(elements, max_size=3))],
            data.draw(st.lists(elements, max_size=2, unique=True)))
        assert extended_sum_discrete(monoid, fam) == _net_limit(monoid, fam)


@pytest.mark.parametrize("monoid", [
    _cyclic(3), _semilattice(3), _saturating(2),
    _product(_cyclic(2), _semilattice(2)),
    _product(_saturating(1), _cyclic(2)),
    _absorbing(_cyclic(2)),
    _absorbing(_product(_semilattice(2), _saturating(1))),
], ids=lambda m: m.name)
def test_discrete_instances_satisfy_the_hausdorff_axioms(monoid):
    report = check_hausdorff_axioms(
        discrete_instance(monoid),
        Budget(max_finite_size=3, max_omega_elems=1, trials=0, seed=7))
    assert [v.law for v in report.laws] == [
        "singleton", "neutral_element", "bracketing", "flattening",
        "finite_totality"]
    assert report.ok


def _all_tables(n):
    """Every commutative monoid table on range(n) with identity 0."""
    pairs = list(itertools.combinations_with_replacement(range(1, n), 2))
    for values in itertools.product(range(n), repeat=len(pairs)):
        table = dict(zip(pairs, values))
        try:
            yield _table_monoid(n, lambda a, b: table[min(a, b), max(a, b)]
                                if a and b else a + b)
        except ConstructionError:  # not associative
            continue


def test_discrete_instance_declared_flavor_laws_never_fail():
    # discrete_instance declares finitely_total; conclude_flavor may report
    # another flavor whose laws also hold (strong for max on {0,1,2}), so
    # only the declared flavor's laws are required not to fail
    monoids = [m for n in (1, 2, 3) for m in _all_tables(n)]
    assert len(monoids) == 12
    budget = Budget(max_finite_size=3, max_omega_elems=1, trials=0, seed=7)
    for monoid in monoids:
        inst = discrete_instance(monoid)
        assert inst.flavor == "finitely_total"
        report = conclude_flavor(inst, budget)
        failed = [v.law for v in report.laws if v.failed]
        declared = {law for law, group in LAWS.items()
                    if group in FLAVORS[inst.flavor]}
        assert not set(failed) & declared, (
            [monoid.op(a, b) for a in monoid.elements for b in monoid.elements],
            failed)


def test_certified_real_flattening_spot_check():
    # splicing two geometric series: interleaved terms sum to the sum of sums
    eps = 1e-9
    a = extended_sum_real(geometric(0.5, 0.5), eps=eps)
    b = extended_sum_real(geometric(0.25, 0.25), eps=eps)
    spliced = GeneratorFamily(
        gen=lambda i: 0.5 * 0.5 ** (i // 2) if i % 2 == 0
        else 0.25 * 0.25 ** (i // 2),
        certificate=AbsoluteBound(
            bound=lambda i: 0.5 * 0.5 ** (i // 2) if i % 2 == 0
            else 0.25 * 0.25 ** (i // 2),
            # after the n+1 largest bounds, the leftovers are dominated by
            # the two tails of the halves
            sorted_tail=lambda n: (0.5 ** (n // 2) / 0.5
                                   + 0.25 ** (n // 2) / 0.75),
        ),
        description="spliced",
    )
    v = extended_sum_real(spliced, eps=eps)
    assert v.converged
    assert abs(v.value - (a.value + b.value)) <= 2 * eps


# -- generator spec parsing ------------------------------------------------------------


def test_parse_generator_specs():
    assert parse_generator_spec("geometric(0.5, 0.5)").certificate is not None
    assert parse_generator_spec("power(2)").certificate is not None
    assert parse_generator_spec("power(0.5)").certificate is None
    assert parse_generator_spec("finite(1,2,3)").gen(1) == 2.0
    assert parse_generator_spec("alternating_harmonic").certificate is None
    with pytest.raises(ValueError):
        parse_generator_spec("mystery(1)")
    with pytest.raises(ValueError):
        parse_generator_spec("geometric(1)")
