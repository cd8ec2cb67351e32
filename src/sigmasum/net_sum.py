"""Summation as the limit of the net of finite partial sums.

For certified real generator families the engine folds the prefix in order of
decreasing bound until the certified tail drops below the tolerance; the value
is the correctly rounded sum of the terms consumed. Without a certificate it
can only report divergence evidence (a term that overflows the float range,
or a one-signed partial sum that still grows between the half-budget and
full-budget prefixes) or an honest Inconclusive. Both paths sum exactly, a
block of terms at a time.

The module imports only the standard library, so a cold ``sigmasum net``
loads no other part of the package. Finite monoids with the discrete
topology, whose nets are eventually constant, live in ``instances``.
"""
from __future__ import annotations

import heapq
import math
import operator
import re
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from typing import Callable


CAUCHY_FLOOR = 1e-3  # the probe's Cauchy threshold, see extended_sum_real


class CertificateError(ValueError):
    """A certificate bound was violated by the generated terms."""


@dataclass(frozen=True)
class AbsoluteBound:
    """Per-index bound b(i) >= |gen(i)| with a tail function: sorted_tail(n)
    bounds the total of all bounds outside the n+1 largest.

    ``nonincreasing_from = k`` declares that b(i) does not increase for
    i >= k, so the engine sorts only the indices below k and merges the rest
    in index order; ``None`` declares nothing and every index is sorted. The
    declaration is checked as the engine consumes the tail."""

    bound: Callable[[int], float]
    sorted_tail: Callable[[int], float]
    nonincreasing_from: int | None = None

    def __post_init__(self):
        if self.nonincreasing_from is not None and self.nonincreasing_from < 0:
            raise ValueError("nonincreasing_from must be >= 0")


@dataclass(frozen=True)
class GeneratorFamily:
    """Indexed real terms with an optional absolute-convergence certificate."""

    gen: Callable[[int], float]
    certificate: AbsoluteBound | None = None
    description: str = ""


@dataclass(frozen=True)
class SubfamilySummary:
    """A finite subfamily of the net's domain, described by the index set it
    was drawn from, with its partial sum."""

    description: str
    count: int
    partial_sum: float


@dataclass(frozen=True)
class NetVerdict:
    kind: str  # "converged" | "diverged" | "inconclusive"
    value: float | None = None
    error_bound: float | None = None
    evidence: tuple | None = None  # (SubfamilySummary, SubfamilySummary)
    terms_used: int = 0

    @property
    def converged(self):
        return self.kind == "converged"


def _blocks(start, stop):
    """Consecutive ranges (a, b) covering start..stop-1: 16 indices at first,
    doubling up to 4096, so that an early stop costs little."""
    size = 16
    while start < stop:
        yield start, min(start + size, stop)
        start, size = min(start + size, stop), min(2 * size, 4096)


def _absorb(state, terms):
    """Add ``terms`` to ``state``, floats whose exact sum is a running total
    (a sequence of terms is one). Returns the new state, which is the total
    correctly rounded followed by its correctly rounded residuals down to a
    zero, each one a C-level ``math.fsum`` (exact partials, Shewchuk,
    Discrete Comput. Geom. 18, 1997), and the total, inf beyond the float
    range."""
    items = [*state, *terms]
    try:
        total = math.fsum(items)
    except (OverflowError, ValueError):  # a finite overflow, or inf - inf
        total = math.inf
    new = [total]
    while new[-1] and math.isfinite(new[-1]):
        items.append(-new[-1])
        new.append(math.fsum(items))
    return tuple(new), total


def extended_sum_real(gf: GeneratorFamily, eps: float = 1e-9,
                      max_terms: int = 200_000) -> NetVerdict:
    """Evaluate the net of finite partial sums of a real generator family.

    With a certificate, terms are consumed in order of decreasing bound until
    the certified tail is below ``eps``; the verdict carries that tail as the
    error bound and the correctly rounded sum of the consumed terms as the
    value, or raises OverflowError when that sum leaves the float range.
    ``gen`` is called on exactly the consumed indices; ``sorted_tail`` may run
    up to one block ahead of the stop, and ``bound`` one index.
    Without one, the engine probes for divergence: either ``gen(i)`` raises
    OverflowError, which stops the probe with ``gen`` called on exactly
    0..i, or a one-signed partial sum still grows by more than
    ``max(CAUCHY_FLOOR, 1000 * eps)`` between the half-budget and full-budget
    prefixes. Anything else is Inconclusive. Its partial sums are exact too
    (inf beyond the float range).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be positive")
    if gf.certificate is not None:
        return _certified(gf, eps, max_terms)
    return _probe(gf, eps, max_terms)


def _certified(gf, eps, max_terms):
    """Consume indices below ``max_terms`` in order of decreasing bound, ties
    by index, a block at a time: the head below the declared
    ``nonincreasing_from`` (every index when undeclared) is sorted and merged
    with the tail, which comes in index order. ``sorted_tail`` over the block
    finds the stop; ``gen`` runs on exactly the indices consumed up to it, in
    order, and ``bound`` on at most one tail index more. A term above its
    bound (up to a relative 1e-12), a NaN term or bound, a tail bound above
    the last tail bound consumed (the one before it), or a negative
    ``sorted_tail`` at the stop raises CertificateError at its index."""
    cert = gf.certificate
    k = cert.nonincreasing_from
    k = max_terms if k is None else min(k, max_terms)
    head = sorted((-cert.bound(i), i) for i in range(k))
    tail = zip(map(operator.neg, map(cert.bound, range(k, max_terms))),
               range(k, max_terms))
    order = heapq.merge(head, tail) if head else tail
    ceiling = math.inf  # the last tail bound consumed: bound(i - 1)
    state = ()
    for a, b in _blocks(0, max_terms):  # a terms are consumed before index a
        tails = list(map(cert.sorted_tail, range(a, b)))
        hit = next(compress(range(a, b), map(operator.lt, tails, repeat(eps))),
                   None)
        terms = []
        used = b if hit is None else hit + 1
        for neg_bound, i in islice(order, used - a):
            bound = -neg_bound
            if i >= k:
                if bound > ceiling:
                    raise CertificateError(
                        f"bound({i}) = {bound} exceeds bound({i - 1}) ="
                        f" {ceiling}, though declared non-increasing from {k}")
                ceiling = bound
            term = gf.gen(i)
            if not abs(term) <= bound + 1e-12 * bound:  # NaN fails too
                raise CertificateError(
                    f"|gen({i})| = {abs(term)} exceeds bound {bound}")
            terms.append(term)
        state, total = _absorb(state, terms)
        if not math.isfinite(total):
            raise OverflowError("the sum overflows the float range")
        if hit is not None:
            if tails[hit - a] < 0:
                raise CertificateError(
                    f"sorted_tail({hit}) = {tails[hit - a]} is negative")
            return NetVerdict("converged", total, tails[hit - a],
                              terms_used=used)
    return NetVerdict("inconclusive", terms_used=max_terms)


@dataclass(frozen=True)
class _Run:
    """The exact sum of one sign's terms, negated when negative, among the
    first ``end`` indices."""

    sign: str
    end: int = 0
    count: int = 0
    state: tuple = ()
    total: float = 0.0

    def plus(self, terms, end):
        return _Run(self.sign, end, self.count + len(terms),
                    *_absorb(self.state, terms))

    def summary(self, note=""):
        where = f"indices 0..{self.end - 1}" if self.end else "no indices"
        return SubfamilySummary(f"{self.sign} terms among {where}{note}",
                                self.count, self.total)


def _probe(gf, eps, max_terms):
    """Sum the positive and the negated negative terms exactly, a block at a
    time, blocks ending at the half-budget index. A term overflow in
    ``gen(i)`` stops the probe: its evidence is the prefix up to the start of
    the block (or the half-budget prefix) and the larger one-signed sum of
    indices 0..i-1. Otherwise the Cauchy comparison of the half-budget and
    full-budget sums decides."""
    half = max_terms // 2
    runs = at_half = (_Run("positive"), _Run("negative"))
    for a, b in chain(_blocks(0, half), _blocks(half, max_terms)):
        terms = []
        try:
            terms.extend(map(gf.gen, range(a, b)))
        except OverflowError:
            pass  # gen(a + len(terms)) overflowed
        firsts = runs if a < half else at_half
        end = a + len(terms)
        runs = (runs[0].plus([t for t in terms if t > 0], end),
                runs[1].plus([-t for t in terms if t < 0], end))
        if end < b:
            run = max(runs, key=lambda r: r.total)
            return NetVerdict("diverged", evidence=(
                firsts[run.sign == "negative"].summary(),
                run.summary(" (term overflow)")), terms_used=end + 1)
        if b == half:
            at_half = runs
    for start, run in zip(at_half, runs):
        if run.total - start.total > max(CAUCHY_FLOOR, 1000 * eps):
            return NetVerdict("diverged", evidence=(
                start.summary(), run.summary()), terms_used=max_terms)
    return NetVerdict("inconclusive", terms_used=max_terms)


def reordered(gf: GeneratorFamily, perm) -> GeneratorFamily:
    """The same family with indices permuted by ``perm`` (identity beyond its
    length). The certificate's per-index bounds move with the permutation;
    the sorted tail is permutation invariant."""
    perm = list(perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("perm must be a permutation of 0..n-1")

    def gen(i):
        return gf.gen(perm[i]) if i < len(perm) else gf.gen(i)

    cert = gf.certificate
    if cert is not None:
        old_bound = cert.bound

        def bound(i):
            return old_bound(perm[i]) if i < len(perm) else old_bound(i)

        k = cert.nonincreasing_from
        cert = AbsoluteBound(bound, cert.sorted_tail,
                             None if k is None else max(len(perm), k))
    return GeneratorFamily(gen, cert, gf.description + " (reordered)")


# -- stock generator families ------------------------------------------------


def geometric(a: float, r: float) -> GeneratorFamily:
    """Terms a * r^i; certified when |r| < 1 with tail |a| |r|^(n+1) / (1-|r|)."""
    def gen(i):
        return a * r ** i

    cert = None
    if abs(r) < 1:
        cert = AbsoluteBound(
            bound=lambda i: abs(a) * abs(r) ** i,
            sorted_tail=lambda n: abs(a) * abs(r) ** (n + 1) / (1 - abs(r)),
            nonincreasing_from=0,
        )
    return GeneratorFamily(gen, cert, f"geometric({a},{r})")


def power_terms(p: float) -> GeneratorFamily:
    """Terms (i+1)^-p; certified for p > 1 by the integral tail bound."""
    def gen(i):
        return (i + 1.0) ** -p

    cert = None
    if p > 1:
        cert = AbsoluteBound(
            bound=lambda i: (i + 1.0) ** -p,
            sorted_tail=lambda n: (n + 1.0) ** (1 - p) / (p - 1),
            nonincreasing_from=0,
        )
    return GeneratorFamily(gen, cert, f"power({p})")


def finite_terms(*values: float) -> GeneratorFamily:
    """Finitely many terms then zeros; the certificate tail is exact."""
    values = tuple(float(v) for v in values)
    bounds = sorted((abs(v) for v in values), reverse=True)
    suffix = [0.0]
    for b in reversed(bounds):
        suffix.append(suffix[-1] + b)
    suffix.reverse()  # suffix[n] = sum of bounds from sorted index n on

    def gen(i):
        return values[i] if i < len(values) else 0.0

    cert = AbsoluteBound(
        bound=lambda i: abs(values[i]) if i < len(values) else 0.0,
        sorted_tail=lambda n: suffix[n + 1] if n + 1 < len(suffix) else 0.0,
        nonincreasing_from=len(values),
    )
    return GeneratorFamily(gen, cert, f"finite{values}")


def alternating_harmonic() -> GeneratorFamily:
    """Terms (-1)^i / (i+1); conditionally convergent in order, hence with no
    unordered limit and no certificate."""
    return GeneratorFamily(lambda i: (-1.0) ** i / (i + 1),
                           None, "alternating_harmonic")


_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*$")


def parse_generator_spec(text: str) -> GeneratorFamily:
    """Config syntax: geometric(a, r) | power(p) | finite(v, ...) |
    alternating_harmonic."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"bad generator spec {text!r}")
    kind, args = m.group(1), m.group(2)
    values = [float(v) for v in args.split(",")] if args else []
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"generator parameters must be finite in {text!r}")
    if kind == "geometric":
        if len(values) != 2:
            raise ValueError("geometric takes (a, r)")
        return geometric(*values)
    if kind == "power":
        if len(values) != 1:
            raise ValueError("power takes (p)")
        return power_terms(values[0])
    if kind == "finite":
        return finite_terms(*values)
    if kind == "alternating_harmonic":
        if values:
            raise ValueError("alternating_harmonic takes no arguments")
        return alternating_harmonic()
    raise ValueError(f"unknown generator kind {kind!r}")
