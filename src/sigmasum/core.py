"""Partial summation structures: instances, Kleene-equal results, homomorphisms.

An instance couples a carrier with a zero element and a partial summation rule
from families to carrier elements. Undefined is a first-class result so that
both sides of an equation can be compared under Kleene equality. A family
element outside the carrier is a caller error, never Undefined; a rule value
outside the carrier is Undefined, so a sub-instance is its parent's rule on a
smaller carrier.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Any, Callable

from .family import (
    CachedHash,
    Family,
    Caps,
    NonNegative,
    canonical_key,
    families_within,
)


class CarrierError(ValueError):
    """An element of the input family is not in the instance's carrier."""


class ConstructionError(ValueError):
    """An instance or morphism could not be constructed from the given data."""


class HomVerificationError(ConstructionError):
    """A claimed homomorphism failed verification; carries the witness family."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


@dataclass(frozen=True)
class SumResult:
    """Defined(value) or Undefined; equality is Kleene equality."""

    defined: bool
    value: Any = None

    def __repr__(self):
        return f"Defined({self.value!r})" if self.defined else "Undefined"


def Defined(value) -> SumResult:
    return SumResult(True, value)


UNDEFINED = SumResult(False)


def fold_rule(fold, omega_copies=1) -> Callable[[Family], SumResult]:
    """Summation rule from ``fold`` of (element, count) pairs: let s fold the
    finite pairs plus ``omega_copies`` copies of each omega element; the
    family sums to s exactly when s absorbs every omega element e, that is
    ``fold(((s, 1), (e, 1))) == s``. With one copy and a group fold this is
    "all but finitely many terms are zero"."""

    def rule(fam: Family) -> SumResult:
        if not fam.omega:
            return Defined(fold(fam.finite))
        s = fold(fam.finite + tuple((e, omega_copies) for e in fam.omega))
        for e in fam.omega:
            if fold(((s, 1), (e, 1))) != s:
                return UNDEFINED
        return Defined(s)

    return rule


class SymbolicCarrier:
    """Membership predicate ``contains`` plus a fixed, deterministic sample pool."""

    is_finite = False

    def __init__(self, contains: Callable[[Any], bool], samples):
        self.contains = contains
        self.samples = tuple(samples)

    def __contains__(self, e):
        return self.contains(e)

    def where(self, keep):
        """Members that satisfy ``keep``; the samples are filtered alike."""
        return SymbolicCarrier(lambda e: self.contains(e) and keep(e),
                               tuple(e for e in self.samples if keep(e)))


class FiniteCarrier(SymbolicCarrier):
    is_finite = True

    def __init__(self, elements):
        self.elements = tuple(sorted(dict.fromkeys(elements), key=canonical_key))
        super().__init__(frozenset(self.elements).__contains__, self.elements)

    def __len__(self):
        return len(self.elements)

    def where(self, keep):
        """The elements that satisfy ``keep``, in the same order."""
        return FiniteCarrier(e for e in self.elements if keep(e))


class SigmaInstance:
    """A carrier, a zero element, and a partial summation rule over families.

    The rule is a pure function of the canonical family; a value it gives
    outside the carrier is read as Undefined, and results are cached.
    Instances are immutable after construction. ``factors`` is the pair of
    instances a product was built from, None elsewhere.
    """

    def __init__(self, name, carrier, zero, rule, flavor="weak",
                 inversion=None, codec=None, factors=None):
        self.name = name
        self.carrier = carrier
        self.zero = zero
        self._rule = rule
        self.flavor = flavor
        self.inversion = inversion
        self.codec = codec
        self.factors = factors
        self._cache: dict = {}

    def sum(self, fam: Family) -> SumResult:
        cached = self._cache.get(fam)
        if cached is not None:
            return cached
        contains = self.carrier.contains
        for e, _ in fam.finite:
            if not contains(e):
                raise CarrierError(f"{e!r} is not in the carrier of {self.name}")
        for e in fam.omega:
            if not contains(e):
                raise CarrierError(f"{e!r} is not in the carrier of {self.name}")
        result = self._rule(fam)
        if not isinstance(result, SumResult):
            raise TypeError(f"rule of {self.name} returned {result!r}")
        if result.defined and not contains(result.value):
            result = UNDEFINED
        self._cache[fam] = result
        return result

    def samples(self) -> tuple:
        return self.carrier.samples

    def __repr__(self):
        return f"<SigmaInstance {self.name} ({self.flavor})>"


@dataclass(frozen=True)
class ClassElement(CachedHash):
    """Element of a quotient carrier, identified by its canonical representative."""

    rep: Any

    def __hash__(self):
        if self._hash is None:  # the value the dataclass would compute
            object.__setattr__(self, "_hash", hash((self.rep,)))
        return self._hash

    def sort_key(self):
        return canonical_key(self.rep)

    def __repr__(self):
        return f"[{self.rep!r}]"


class QuotientInstance(SigmaInstance):
    """Instance whose carrier elements are equivalence classes with a
    representative store and a class-level summation rule; ``graph`` is the
    congruence graph the classes were read from, when there is one."""

    def __init__(self, name, carrier, zero, rule, class_of, classes,
                 flavor="weak", graph=None):
        super().__init__(name, carrier, zero, rule, flavor=flavor)
        self.class_of = class_of
        self.classes = tuple(classes)
        self.graph = graph


@dataclass(frozen=True)
class Budget(NonNegative):
    """Bounds for every law/hom check; identical budget + seed means identical
    verdicts. ``trials`` adds seeded random families beyond the exhaustive part."""

    max_finite_size: int = 4
    max_omega_elems: int = 1
    block_count: int = 4
    block_size: int = 4
    omega_splits: int = 2
    trials: int = 50
    seed: int = 7
    _exempt = ("seed",)

    @property
    def caps(self) -> Caps:
        return Caps(self.block_count, self.block_size, self.omega_splits)

    def meet(self, other: "Budget") -> "Budget":
        """Componentwise minimum (intersection of budgets); keeps this seed."""
        return replace(self, **{
            f.name: min(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self) if f.name != "seed"})


def budget_families(inst: SigmaInstance, budget: Budget) -> list:
    """Deterministic family pool for an instance: exhaustive enumeration over
    the carrier samples up to the budget, then seeded random larger families."""
    pool = inst.samples()
    if not pool:
        raise ConstructionError(f"{inst.name}: symbolic carrier without samples")
    fams = families_within(pool, budget.max_finite_size, budget.max_omega_elems)
    if budget.trials:
        rng = random.Random(budget.seed)
        seen, extras = set(fams), []
        ordered = sorted(pool, key=canonical_key)
        for _ in range(budget.trials):
            size = rng.randint(budget.max_finite_size + 1, budget.max_finite_size + 2)
            pairs = [(rng.choice(ordered), 1) for _ in range(size)]
            omega = (rng.sample(ordered, min(budget.max_omega_elems, len(ordered)))
                     if budget.max_omega_elems and rng.random() < 0.5 else [])
            fam = Family.from_counts(pairs, omega)
            if fam not in seen:
                seen.add(fam)
                extras.append(fam)
        extras.sort(key=Family.sort_key)
        fams += extras
    return fams


@dataclass(frozen=True)
class HomVerdict:
    ok: bool
    counterexample: Family | None = None
    checked: int = 0


@dataclass(frozen=True)
class Hom:
    """Verified structure-preserving map, forward only; ``verified_budget``
    records the family bounds within which preservation was checked."""

    source: SigmaInstance
    target: SigmaInstance
    fn: Callable
    name: str = ""
    verified_budget: Budget | None = None

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self):
        return f"<Hom {self.name or 'hom'}: {self.source.name} -> {self.target.name}>"


def check_hom(f, source: SigmaInstance, target: SigmaInstance,
              fams) -> HomVerdict:
    """Does f preserve the sum of every family of ``fams`` that has one? The
    scan keeps the order of ``fams``: over a ``budget_families`` pool (total
    size, then element order) a counterexample is minimal in that order. f
    runs on each element of a summable family, in order, then on its sum,
    and the target sums each distinct image once per scan."""
    checked = 0
    images: dict = {}  # raw image pairs -> the target's result
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
        if (ri.defined, ri.value) != (True, f(r.value)):  # builds no Defined
            return HomVerdict(False, fam, checked)
    return HomVerdict(True, None, checked)


def verify_hom(f, source, target, budget, name="") -> Hom:
    """check_hom over the source's budget pool, packaged: returns a Hom on
    success, raises with the witness otherwise."""
    verdict = check_hom(f, source, target, budget_families(source, budget))
    if not verdict.ok:
        raise HomVerificationError(
            f"{name or 'map'}: {source.name} -> {target.name} fails preservation "
            f"on {verdict.counterexample!r}",
            counterexample=verdict.counterexample,
        )
    return Hom(source, target, f, name=name, verified_budget=budget)


def compose_homs(g: Hom, f: Hom) -> Hom:
    """g after f; verified budget is the meet of the two budgets."""
    if f.target is not g.source:
        raise ConstructionError("homs are not composable")
    vb = (f.verified_budget.meet(g.verified_budget)
          if f.verified_budget and g.verified_budget else None)
    return Hom(f.source, g.target, lambda x: g.fn(f.fn(x)),
               name=f"{g.name}.{f.name}", verified_budget=vb)
